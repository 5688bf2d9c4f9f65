"""Tests of the benchmark itself: smoke run, refusal without sources, output checks.

Run with ``python -m pytest bench/test_bench.py`` from the repository root.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_reports_every_metric_and_repeats_at_a_fixed_seed(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "all", "--smoke", "--seed", "7", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for w in spec["workloads"]:
        for name in names:
            assert f"{w['name']}:{name}" in result["metrics"]
    assert result["metrics"]["analytic-grid:ok_frac"]["value"] == pytest.approx(17 / 18)
    assert result["metrics"]["stopping-mix:ok_frac"]["value"] == 1.0

    # a rerun at the same seed is compared with the stored digest and counts
    again = _run("--workload", "stopping-mix", "--smoke", "--seed", "7", "--trace", "1",
                 "--out", str(tmp_path))
    assert again.returncode == 0, again.stderr
    assert json.loads(again.stdout.splitlines()[-1])["correct"], again.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "plain-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _analytic_csv(p_v: float) -> str:
    header = ",".join(jobs.COLUMNS)
    rows = [f"4,1,0,0,0,sm,,,{q},{v!r},closed_form,,,,," for q, v in
            (("p_v", p_v), ("e_m_sm", math.expm1(4.0)), ("truncation_terms", 7.0))]
    return "\n".join([header, *rows]) + "\n"


def _analytic_job(lam=4.0, ps=0.0, ts=0.0):
    return jobs.Job("a", ("analytic",), "csv", "sm", ((lam, 1.0, 0.0, ps, ts),),
                    known_failure=jobs.KNOWN_FAILURES.get((lam, ps, ts)))


def test_check_accepts_exact_rows_and_rejects_a_wrong_one():
    good = jobs.check(_analytic_job(), 0, _analytic_csv(math.exp(-4.0)), "")
    assert good.ok, good.problems
    assert jobs.tally([good])["analytic.series_terms"] == 7
    bad = jobs.check(_analytic_job(), 0, _analytic_csv(math.exp(-4.0) * (1 + 1e-6)), "")
    assert not bad.ok and not bad.known_failure


def test_check_separates_the_known_failure_from_other_errors():
    known = jobs.check(_analytic_job(8.0, 0.3, 2.0), 1, "", "relaylab: error: cap\n")
    assert known.known_failure and not known.ok
    other = jobs.check(_analytic_job(), 1, "", "relaylab: error: cap\n")
    assert not other.ok and not other.known_failure
    crashed = jobs.check(_analytic_job(8.0, 0.3, 2.0), None, "", "raised KeyError()\n")
    assert not crashed.ok and not crashed.known_failure
