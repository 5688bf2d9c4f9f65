"""Workload job lists and the deterministic checks on each job's output.

A workload is a fixed list of CLI jobs. One pass runs the list once, in
order, through ``relaylab.cli.main``. Job seeds derive from the benchmark
seed only, so every pass of a run repeats the same jobs with the same seeds
and must reproduce the same bytes.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field

COLUMNS = (
    "lambda", "tm", "th", "ps", "ts", "strategy", "rounds", "seed",
    "quantity", "analytic", "method", "sim_mean", "sim_ci95",
    "abs_err", "rel_err", "tier",
)
_NUMERIC = ("lambda", "tm", "th", "ps", "ts", "analytic", "sim_mean",
            "sim_ci95", "abs_err", "rel_err")

WORKLOADS = ("plain-sweep", "stopping-mix", "analytic-grid")

PLAIN_LAMBDAS = (0.1, 0.5, 1.0, 2.0, 4.0)
PLAIN_TH = (0.0, 0.05)
STOP_POINTS = ((0.3, 2.0), (0.5, 2.0), (0.3, 4.0))
GRID_LAMBDAS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0)
GRID_STOP = ((0.0, 0.0), (0.3, 2.0))

# (lambda, ps, ts) of analytic jobs that fail at the baseline. The stopping
# series needs more than its 1e6-term cap here (ROADMAP item 5); the job
# must exit 1 with a relaylab error, or answer correctly once fixed.
KNOWN_FAILURES = {(8.0, 0.3, 2.0): "stopping series hits its 1e6-term cap"}

_EXACT_REL = 1e-12
_CSV_REL = 5e-9  # worst relative rounding of a 9-significant-digit cell
_GATE_CUSHION = 1e-12


@dataclass(frozen=True)
class Size:
    rounds: int          # simulated rounds per scenario point
    traces: int          # --traces of each simulate job
    probe_rounds: int    # rounds per scenario in the walk probes
    setup_spawns: int    # fresh interpreters timed for setup_s


FULL = Size(rounds=20_000, traces=50, probe_rounds=1_000, setup_spawns=15)
SMOKE = Size(rounds=1_000, traces=3, probe_rounds=20, setup_spawns=2)

# Seconds one untraced pass takes at the baseline (2-core x86 VM, Python
# 3.11, numpy 2.4). The pass count of a run is --seconds divided by this,
# so it depends on --seconds only and both sides of a comparison time the
# same number of passes and jobs.
NOMINAL_PASS_S = {"plain-sweep": 0.9, "stopping-mix": 1.3, "analytic-grid": 0.5}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    fmt: str
    strategy: str
    points: tuple[tuple[float, float, float, float, float], ...]  # lam, tm, th, ps, ts
    traces: int = 0
    known_failure: str | None = None


@dataclass
class Outcome:
    """What the checks found in one job's output."""

    ok: bool = True
    known_failure: bool = False
    problems: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    hard_rows: int = 0
    violations: int = 0
    margin_max: float = 0.0

    def fail(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)


def _num(x: float) -> str:
    return repr(float(x))


def build_jobs(workload: str, seed: int, size: Size, grid_path: str) -> list[Job]:
    """The workload's job list; ``grid_path`` holds the plain-sweep grid."""
    seeds = random.Random(seed)
    if workload == "plain-sweep":
        points = tuple((lam, 1.0, th, 0.0, 0.0)
                       for lam in PLAIN_LAMBDAS for th in PLAIN_TH)
        return [
            Job(f"sweep-{s}",
                ("sweep", "--strategy", s, "--rounds", str(size.rounds),
                 "--seed", str(seeds.getrandbits(32)), "--config", grid_path,
                 "--format", "json"),
                "json", s, points)
            for s in ("sm", "sc")
        ]
    if workload == "stopping-mix":
        jobs = []
        for ps, ts in STOP_POINTS:
            point = ((1.0, 1.0, 0.0, ps, ts),)
            common = ("--lambda", "1", "--tm", "1", "--ps", _num(ps), "--ts", _num(ts),
                      "--rounds", str(size.rounds))
            jobs.append(Job(f"compare-sm-ps{ps}-ts{ts}",
                            ("compare", *common, "--strategy", "sm",
                             "--seed", str(seeds.getrandbits(32))),
                            "csv", "sm", point))
            jobs.append(Job(f"simulate-sc-ps{ps}-ts{ts}",
                            ("simulate", *common, "--strategy", "sc",
                             "--seed", str(seeds.getrandbits(32)),
                             "--traces", str(size.traces)),
                            "csv", "sc", point, traces=size.traces))
        return jobs
    if workload == "analytic-grid":
        jobs = []
        for lam in GRID_LAMBDAS:
            for ps, ts in GRID_STOP:
                argv = ("analytic", "--lambda", _num(lam), "--tm", "1")
                if ps:
                    argv += ("--ps", _num(ps), "--ts", _num(ts))
                jobs.append(Job(f"analytic-l{lam}-ps{ps}-ts{ts}", argv, "csv", "sm",
                                ((lam, 1.0, 0.0, ps, ts),),
                                known_failure=KNOWN_FAILURES.get((lam, ps, ts))))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(grid_path: str) -> list[tuple[str, ...]]:
    """Tiny jobs touching every command, so lazy first-call costs land in set-up."""
    return [
        ("analytic", "--lambda", "1", "--tm", "1", "--ps", "0.3", "--ts", "2"),
        ("compare", "--lambda", "1", "--tm", "1", "--ps", "0.3", "--ts", "2",
         "--rounds", "200", "--seed", "1"),
        ("simulate", "--lambda", "1", "--tm", "1", "--ps", "0.3", "--ts", "2",
         "--strategy", "sc", "--rounds", "200", "--seed", "1", "--traces", "2"),
        ("sweep", "--strategy", "sc", "--rounds", "200", "--seed", "1",
         "--config", grid_path, "--format", "json"),
    ]


def grid_config() -> dict:
    return {"lambda": list(PLAIN_LAMBDAS), "tm": 1.0, "th": list(PLAIN_TH)}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _split_output(text: str, fmt: str) -> tuple[list[dict], list[str]]:
    """Table rows (16 columns each, numbers parsed) and trailing trace lines."""
    if fmt == "json":
        table, end = json.JSONDecoder().raw_decode(text)
        if not isinstance(table, list):
            raise ValueError("JSON output is not a list of rows")
        rows = []
        for r in table:
            if not isinstance(r, dict) or tuple(r) != COLUMNS:
                raise ValueError(f"JSON row does not have the 16 columns: {r!r}")
            rows.append(r)
        return rows, text[end:].split("\n")[1:-1]
    lines = text.split("\n")
    n_table = next((i for i, ln in enumerate(lines) if ln.startswith("{")), len(lines))
    reader = csv.reader(lines[:n_table])
    header = next(reader, None)
    if tuple(header or ()) != COLUMNS:
        raise ValueError(f"CSV header is not the 16-column schema: {header!r}")
    rows = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(COLUMNS):
            raise ValueError(f"CSV row has {len(cells)} cells: {cells!r}")
        row = dict(zip(COLUMNS, cells))
        for key in _NUMERIC:
            row[key] = float(row[key]) if row[key] != "" else None
        rows.append(row)
    return rows, [ln for ln in lines[n_table:] if ln]


def _check_exact(out: Outcome, row: dict, expected: float, fmt: str) -> None:
    got = row["analytic"]
    tol = _EXACT_REL + (_CSV_REL if fmt == "csv" else 0.0)
    if got is None or not abs(got - expected) <= tol * abs(expected):
        out.fail(f"{row['quantity']} at lambda={row['lambda']}: {got!r}, "
                 f"expected {expected!r}")


def check(job: Job, status: int | None, stdout: str, stderr: str) -> Outcome:
    """Check one job's exit status and output; never raises on bad output."""
    out = Outcome()
    if job.known_failure and status == 1 and stderr.startswith("relaylab: error:"):
        out.ok = False
        out.known_failure = True
        return out
    if status not in (0, 2) or (status == 2 and job.argv[0] != "compare"):
        out.fail(f"exit status {status!r}: {stderr.strip()[-300:]}")
        return out
    try:
        rows, trace_lines = _split_output(stdout, job.fmt)
    except ValueError as exc:
        out.fail(f"unreadable output: {exc}")
        return out
    out.rows = rows
    if not rows:
        out.fail("no rows")
    points = set(job.points)
    quantities = set()
    for r in rows:
        key = (r["lambda"], r["tm"], r["th"], r["ps"], r["ts"])
        if key not in points or r["strategy"] != job.strategy:
            out.fail(f"row echoes a scenario outside the job: {key} {r['strategy']}")
            break
        q = r["quantity"]
        quantities.add(q)
        lam_tm = r["lambda"] * r["tm"]
        plain = r["ps"] == 0.0
        if q == "p_v" or (q == "p_vertical" and plain and job.argv[0] == "sweep"):
            _check_exact(out, r, math.exp(-lam_tm), job.fmt)
        elif q == "e_m_sm" or (q == "m_handoffs" and plain and job.argv[0] == "sweep"
                               and job.strategy == "sm"):
            _check_exact(out, r, math.expm1(lam_tm), job.fmt)
        if r["tier"] == "hard" and r["abs_err"] is not None and r["sim_ci95"] is not None:
            se = r["sim_ci95"] / 1.96
            out.hard_rows += 1
            if not r["abs_err"] <= 3.0 * se + _GATE_CUSHION:
                out.violations += 1
            out.margin_max = max(out.margin_max,
                                 r["abs_err"] / (3.0 * se + _GATE_CUSHION))
    if job.argv[0] == "analytic" and not {"p_v", "e_m_sm", "truncation_terms"} <= quantities:
        out.fail("analytic output lacks p_v, e_m_sm or truncation_terms")
    if job.argv[0] == "simulate" and job.strategy == "sc" and any(p[3] > 0 for p in job.points) \
            and "experimental_flag" not in quantities:
        out.fail("sc with stopping lacks its experimental_flag row")
    if len(trace_lines) != job.traces:
        out.fail(f"{len(trace_lines)} trace lines, expected {job.traces}")
    for i, line in enumerate(trace_lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            out.fail(f"trace line {i} is not JSON")
            break
        if not isinstance(record, dict) or record.get("round") != i \
                or not isinstance(record.get("steps"), list):
            out.fail(f"trace line {i} lacks its round number or steps")
            break
    return out


def tally(outcomes: list[Outcome]) -> dict:
    """Counts over one pass's outputs, named after the per-layer metrics."""
    counts = {"cli.emit_rows": 0, "analytic.series_terms": 0, "cli.gate_hard_rows": 0,
              "cli.gate_violations": 0, "cli.gate_margin_max": 0.0,
              "sim.arrivals_used": 0.0, "sim.arrivals_rounds": 0}
    for out in outcomes:
        counts["cli.emit_rows"] += len(out.rows)
        counts["analytic.series_terms"] += sum(
            int(r["analytic"]) for r in out.rows
            if r["quantity"] == "truncation_terms" and r["analytic"] is not None)
        counts["cli.gate_hard_rows"] += out.hard_rows
        counts["cli.gate_violations"] += out.violations
        counts["cli.gate_margin_max"] = max(counts["cli.gate_margin_max"], out.margin_max)
        used, rounds = _arrivals_used(out.rows)
        counts["sim.arrivals_used"] += used
        counts["sim.arrivals_rounds"] += rounds
    return counts


def _arrivals_used(rows: list[dict]) -> tuple[float, int]:
    """(sum over sim points of rounds * mean arrivals used, rounds) from rows.

    Arrivals used in a round are m + u, all arrivals up to the round's end.
    Where the output has no u_unserved row (compare under sm with stopping)
    lambda * E[t2] stands in: the round end is a stopping time of the
    arrival stream, so both have the same mean.
    """
    points: dict[tuple, dict] = {}
    for r in rows:
        if r["rounds"] in (None, "") or r["sim_mean"] is None:
            continue
        key = (r["lambda"], r["tm"], r["th"], r["ps"], r["ts"], r["seed"])
        points.setdefault(key, {"rounds": int(r["rounds"])}).setdefault(
            r["quantity"], r["sim_mean"])
    total = 0.0
    rounds = 0
    for (lam, *_), stats in points.items():
        if "u_unserved" in stats:
            used = stats["m_handoffs"] + stats["u_unserved"]
        else:
            used = lam * stats["t2_duration"]
        total += stats["rounds"] * used
        rounds += stats["rounds"]
    return total, rounds
