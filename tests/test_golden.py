"""Golden command-line output, pinned wherever it does not depend on the random stream.

`analytic` jobs pin their full CSV or JSON bytes. `compare`, `sweep` and
`simulate` jobs pin every column of every row except the simulation ones
(sim_mean, sim_ci95, abs_err, rel_err): the row sequence, the scenario
echo, and each row's quantity, analytic value, method and tier. A change to
the simulator's random stream therefore leaves these files alone; a change
to which quantity is compared with which formula, by which method and under
which tier does not.

The jobs cover every branch of the comparison table: the latest-at-expiry
policy with and without a handoff cost, serve-all without stopping, with
(p_s, t_s) = (0.3, 2), (0.3, 0) and (0, 2), and the experimental
latest-at-expiry-with-stopping simulation.

Regenerate the files, and only this way, with

    python tests/test_golden.py --update
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relaylab import cli  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
ROUNDS = "400"
_SIM_COLUMNS = ("sim_mean", "sim_ci95", "abs_err", "rel_err")


def _point(lam, tm=1.0, th=0.0, ps=0.0, ts=0.0):
    return ("--lambda", repr(lam), "--tm", repr(tm), "--th", repr(th),
            "--ps", repr(ps), "--ts", repr(ts))


def _jobs() -> dict[str, tuple[tuple[str, ...], dict | None]]:
    """name -> (argv, sweep config document or None); the name's suffix is the format."""
    jobs: dict[str, tuple[tuple[str, ...], dict | None]] = {}
    analytic_points = {
        "plain": _point(1.0),
        "costed": _point(0.5, tm=2.0, th=0.1),
        "stop": _point(1.0, ps=0.3, ts=2.0),
        "stop-costed-sc": _point(2.0, th=0.05, ps=0.5, ts=1.0) + ("--strategy", "sc"),
        "ps-no-dwell": _point(0.1, ps=0.3),
        "dwell-no-ps": _point(4.0, tm=0.5, ts=2.0),
    }
    for name, point in analytic_points.items():
        for fmt in ("csv", "json"):
            jobs[f"analytic-{name}.{fmt}"] = (("analytic", *point, "--format", fmt), None)
    compare_points = {
        "sc-free": (_point(1.0), "sc"),
        "sc-costed": (_point(0.5, tm=2.0, th=0.1), "sc"),
        "sc-high-rate": (_point(2.0), "sc"),
        "sc-ps-no-dwell": (_point(1.0, ps=0.3), "sc"),
        "sm-plain": (_point(1.0), "sm"),
        "sm-costed": (_point(2.0, th=0.05), "sm"),
        "sm-stop": (_point(1.0, ps=0.3, ts=2.0), "sm"),
        "sm-ps-no-dwell": (_point(1.0, ps=0.3), "sm"),
        "sm-dwell-no-ps": (_point(1.0, ts=2.0), "sm"),
        "sm-stop-costed": (_point(1.0, th=0.1, ps=0.5, ts=1.0), "sm"),
    }
    for command in ("compare", "simulate"):
        for name, (point, strategy) in compare_points.items():
            if command == "simulate" and name not in ("sc-free", "sm-plain", "sm-stop"):
                continue
            jobs[f"{command}-{name}.json"] = (
                (command, *point, "--strategy", strategy, "--rounds", ROUNDS,
                 "--seed", "3", "--format", "json"), None)
    jobs["simulate-sc-stop.json"] = (
        ("simulate", *_point(1.0, ps=0.3, ts=2.0), "--strategy", "sc",
         "--rounds", ROUNDS, "--seed", "3", "--format", "json"), None)
    sweep = ("sweep", "--rounds", ROUNDS, "--seed", "11", "--format", "json")
    jobs["sweep-sm.json"] = ((*sweep, "--strategy", "sm"), {
        "lambda": [0.5, 1.0], "tm": 1.0, "th": [0.0, 0.05],
        "ps": [0.0, 0.3], "ts": [0.0, 2.0]})
    jobs["sweep-sc.json"] = ((*sweep, "--strategy", "sc"), {
        "lambda": [0.5, 1.0, 2.0], "tm": 1.0, "th": [0.0, 0.05], "ps": [0.0, 0.3]})
    return jobs


JOBS = _jobs()


def _run(name: str, workdir: Path) -> bytes:
    argv, config = JOBS[name]
    out = workdir / name
    extra: tuple[str, ...] = ()
    if config is not None:
        doc = workdir / f"{name}.config"
        doc.write_text(json.dumps(config), encoding="utf-8")
        extra = ("--config", str(doc))
    status = cli.main([*argv, *extra, "--out", str(out)])
    # compare may miss its gate at this few rounds; the rows are still written
    assert status == 0 or (status == 2 and argv[0] == "compare"), (name, status)
    return out.read_bytes()


def _golden_form(name: str, raw: bytes) -> bytes:
    if name.startswith("analytic-"):
        return raw
    rows = [{k: v for k, v in row.items() if k not in _SIM_COLUMNS}
            for row in json.loads(raw)]
    return (json.dumps(rows, indent=1) + "\n").encode()


@pytest.mark.parametrize("name", sorted(JOBS))
def test_golden(name, tmp_path):
    expected = (GOLDEN / name).read_bytes()
    assert _golden_form(name, _run(name, tmp_path)).decode() == expected.decode()


def _update() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(JOBS):
            (GOLDEN / name).write_bytes(_golden_form(name, _run(name, Path(tmp))))
    print(f"wrote {len(JOBS)} files to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    _update()
