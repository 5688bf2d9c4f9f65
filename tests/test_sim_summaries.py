"""Full-precision simulation summaries, pinned for each of the four policy walks.

`test_golden` leaves the simulation columns out of its files, so a change to
the block engine that moved a last bit of an estimate would pass it. This
file pins every `MeanCI` of a `SimSummary`, plus the served-time ratio and
its standard error, at a fixed seed, for serve-all and latest-at-expiry,
each with and without stopping relays, over two blocks of rounds. The
values are compared for exact equality.

The pinned file lives outside ``tests/golden/``, whose regeneration removes
every file there. Regenerate it, and only this way, with

    python tests/test_sim_summaries.py --update
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relaylab.model import ScenarioParams, SimConfig, Strategy  # noqa: E402
from relaylab.sim import simulate_many  # noqa: E402

PINNED = Path(__file__).resolve().parent / "sim_summaries.json"
ROUNDS = 6000  # two blocks, the second one partial
SEED = 2024

# name -> (scenario, policy); t_h > 0 so the ratio's handoff term counts
CASES = {
    "sm-plain": (ScenarioParams(lam=1.0, t_m=1.0, t_h=0.05), Strategy.SM_SERVE_ALL),
    "sc-plain": (ScenarioParams(lam=2.0, t_m=1.0, t_h=0.05), Strategy.SC_LATEST_AT_EXPIRY),
    "sm-stop": (ScenarioParams(lam=1.0, t_m=1.0, t_h=0.1, p_s=0.3, t_s=2.0),
                Strategy.SM_SERVE_ALL),
    "sc-stop": (ScenarioParams(lam=1.0, t_m=1.0, t_h=0.1, p_s=0.3, t_s=2.0),
                Strategy.SC_LATEST_AT_EXPIRY),
}


def _record(name: str) -> dict:
    params, strategy = CASES[name]
    summary = simulate_many(params, strategy, SimConfig(rounds=ROUNDS, seed=SEED))
    doc = dataclasses.asdict(summary)
    doc["strategy"] = strategy.value
    # through JSON, so the comparison sees what the file holds
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("name", sorted(CASES))
def test_summary_is_pinned(name):
    expected = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    assert _record(name) == expected


def _update() -> None:
    doc = {name: _record(name) for name in sorted(CASES)}
    PINNED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} summaries to {PINNED}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_sim_summaries.py --update")
    _update()
