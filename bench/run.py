"""relaylab benchmark: CLI workloads timed end to end, and a traced run per layer.

Run from the repository root:

    python3 bench/run.py --workload plain-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --smoke      # every workload, tiny sizes

One run times one workload. It runs a warm-up job of each command in
process, then makes a fixed number of passes over the workload's job
list through ``relaylab.cli.main``, one job after another, with stdout and
stderr captured in memory. Every job's output is checked (``jobs.check``)
and every pass must reproduce the first pass's output digest. Between
passes it times fresh interpreters that import ``relaylab.cli`` and run the
same warm-up (set-up time).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, the tracing overhead, and probe timings of single layers.

The last stdout line is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record with provenance, the output digest and the sample counts. Records
and the spans of the traced passes go under ``.bench_out/`` (``--out``),
which also keeps one entry per (code, workload, seed, size) so a rerun at
the same seed must reproduce the same digest and counts.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import jobs as wl
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_MIN_PASSES = 4
_SETUP_CODE = (
    "import contextlib, io, json, sys\n"
    "import relaylab.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.redirect_stderr(io.StringIO()):\n"
    "    codes = [relaylab.cli.main(a) for a in json.loads(sys.argv[1])]\n"
    "sys.exit(0 if all(c in (0, 2) for c in codes) else 1)\n"
)
# counts that must repeat exactly at a fixed seed, across passes and runs
_DETERMINISTIC = ("sim.rounds", "sim.blocks", "sim.rng_words", "analytic.series_terms",
                  "numerics.integrate_calls", "numerics.integrate_evals", "cli.emit_rows")


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": _git_commit(),
        "code_digest": _code_digest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _setup_times(n: int, warmup: list) -> list[float]:
    # let the spawns cache bytecode whatever the caller's environment says:
    # the median spawn then imports cached bytecode, as an installed package does
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, json.dumps(warmup)],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-500:]}")
    return times


def _run_job(cli, argv, tracer=None, name=None):
    """(seconds, exit status or None if it raised, stdout, stderr) of one main() call."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    if tracer:
        tracer.job = name
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with span:
                status = cli.main(list(argv))
        except Exception:  # a crash is a failed job, not a failed benchmark
            status = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, status, out.getvalue(), err.getvalue()


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, (n - 1) // 2)  # never below the median when samples are few
    return ordered[k], 100.0 * (k + 1) / n


def _check_record(path: Path, key: str, fields: dict) -> list[str]:
    """Compare with what an earlier run stored under `key`; store the union."""
    record = json.loads(path.read_text()) if path.is_file() else {}
    earlier = record.get(key, {})
    problems = [f"{name}: {earlier[name]!r} in an earlier run, {value!r} now"
                for name, value in fields.items() if name in earlier and earlier[name] != value]
    record[key] = {**earlier, **fields}
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            out_dir: Path) -> tuple[dict, dict]:
    """One run of one workload: (result, record)."""
    size = wl.SMOKE if smoke else wl.FULL
    passes = 2 if smoke else max(_MIN_PASSES, round(seconds / wl.NOMINAL_PASS_S[workload]))
    run_dir = out_dir / "runs"
    run_dir.mkdir(parents=True, exist_ok=True)
    stem = run_dir / f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    grid_path = Path(f"{stem}.grid.json")
    grid_path.write_text(json.dumps(wl.grid_config()))  # a fresh path, never overwritten
    warmup = wl.warmup_jobs(str(grid_path))
    job_list = wl.build_jobs(workload, seed, size, str(grid_path))

    sys.path.insert(0, str(SRC))
    import relaylab.analytic as analytic
    import relaylab.cli as cli
    import relaylab.model as model
    import relaylab.sim as sim
    if Path(cli.__file__).resolve().parent != (SRC / "relaylab").resolve():
        raise RuntimeError(f"imported relaylab from {cli.__file__}, not from {SRC}")

    for argv in warmup:
        _, status, _, err = _run_job(cli, argv)
        if status not in (0, 2):
            raise RuntimeError(f"warm-up job {argv} failed: {err}")

    problems: list[str] = []
    attempted = failed = known = 0
    walls = {False: [], True: []}
    job_times: list[float] = []
    traced_metrics: list[dict] = []
    first_digest = None
    spans: list[dict] = []
    setup: list[float] = []
    for p in range(passes):
        if not trace:
            # spread the set-up spawns over the run, so a burst of load on
            # the machine moves only a few of them
            setup += _setup_times(round((p + 1) * size.setup_spawns / passes)
                                  - round(p * size.setup_spawns / passes), warmup)
        traced = trace and p % 2 == 1
        tracer = layers.Tracer() if traced else None
        gc.collect()
        with tracer.installed(cli, analytic) if traced else contextlib.nullcontext():
            results = [_run_job(cli, job.argv, tracer, job.name) for job in job_list]
        digest = hashlib.sha256()
        outcomes = []
        for job, (secs, status, stdout, stderr) in zip(job_list, results):
            digest.update(json.dumps([job.name, status, stdout]).encode())
            outcome = wl.check(job, status, stdout, stderr)
            outcomes.append(outcome)
            known += outcome.known_failure
            if not outcome.ok and not outcome.known_failure:
                failed += 1
                problems.extend(f"{job.name}: {m}" for m in outcome.problems)
            if not traced:
                job_times.append(secs)
        attempted += len(job_list)
        counts = wl.tally(outcomes)
        walls[traced].append(sum(r[0] for r in results))
        digest = digest.hexdigest()
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            problems.append(f"pass {p} output digest {digest[:12]} differs from pass 0")
        if traced:
            m = {**tracer.layer_metrics(), **counts}
            if traced_metrics:
                problems.extend(f"pass {p}: {k} {m[k]!r} != {traced_metrics[0][k]!r}"
                                for k in _DETERMINISTIC if m[k] != traced_metrics[0][k])
            traced_metrics.append(m)
            spans.extend({"pass": p, "name": name, "start": start, "end": end,
                          "parent": parent, "job": job}
                         for name, start, end, parent, job in tracer.spans)

    if trace:
        metrics = {**_layer_metrics(traced_metrics, walls),
                   **layers.probe(sim, model, analytic, job_list, size.probe_rounds, seed)}
        record_fields = {k: traced_metrics[0][k] for k in _DETERMINISTIC}
    else:
        tail, tail_pct = _tail(job_times)
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "job_p50_s": statistics.median(job_times),
            "job_tail_s": tail,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed - known) / attempted,
        }
        record_fields = {"cli.emit_rows": counts["cli.emit_rows"],
                         "analytic.series_terms": counts["analytic.series_terms"]}
    record_fields["digest"] = first_digest
    key = f"{_code_digest()}:{workload}:{seed}:{'smoke' if smoke else 'full'}"
    problems.extend(_check_record(out_dir / "determinism.json", key, record_fields))

    units = _units()
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload, "trace": int(trace), "smoke": smoke, "passes": passes,
        "jobs_per_pass": len(job_list), "known_failures": known, "digest": first_digest,
        "problems": problems[:20], "provenance": _provenance(seed),
        "pass_walls_s": walls[False], "traced_pass_walls_s": walls[True],
    }
    if not trace:
        record.update(job_samples=len(job_times), job_tail_pct=tail_pct, setup_runs_s=setup)
    Path(f"{stem}.json").write_text(json.dumps({"result": result, "record": record}, indent=1))
    if spans:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)
    grid_path.unlink()
    return result, record


def _layer_metrics(traced: list[dict], walls: dict) -> dict:
    """Per-layer metrics: times are medians over the traced passes, counts repeat."""
    def med(key):
        return statistics.median(m[key] for m in traced)

    first = traced[0]
    rounds = first["sim.rounds"]
    words = first["sim.rng_words"]
    untraced = statistics.median(walls[False])
    return {
        "sim.simulate_many_s": med("sim.simulate_many_s"),
        "sim.rounds": rounds,
        "sim.blocks": first["sim.blocks"],
        "sim.rounds_per_s": rounds / untraced,
        "sim.rng_words_per_round": words / rounds if rounds else 0.0,
        "sim.arrivals_used_per_round": (first["sim.arrivals_used"] / first["sim.arrivals_rounds"]
                                        if first["sim.arrivals_rounds"] else 0.0),
        "sim.draw_useful_frac": first["sim.arrivals_used"] / words if words else 0.0,
        "sim.trace_rounds_s": med("sim.trace_rounds_s"),
        "analytic.s": med("analytic.s"),
        "analytic.build_report_s": med("analytic.build_report_s"),
        "analytic.series_terms": first["analytic.series_terms"],
        "numerics.integrate_calls": first["numerics.integrate_calls"],
        "numerics.integrate_evals": first["numerics.integrate_evals"],
        "numerics.integrate_s": med("numerics.integrate_s"),
        "cli.parse_s": med("cli.parse_s"),
        "cli.emit_s": med("cli.emit_s"),
        "cli.emit_rows": first["cli.emit_rows"],
        "cli.self_s": med("cli.self_s"),
        "cli.gate_hard_rows": first["cli.gate_hard_rows"],
        "cli.gate_violations": first["cli.gate_violations"],
        "cli.gate_margin_max": first["cli.gate_margin_max"],
        "bench.trace_overhead_frac": statistics.median(walls[True]) / untraced - 1.0,
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(args.out)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                combined["correct"] = False
                continue
            res = json.loads(lines[-1])
            for k in ("attempted", "failed"):
                combined[k] += res[k]
            combined["correct"] &= res["correct"]
            for name, m in res["metrics"].items():
                combined["metrics"][f"{workload}:{name}"] = m
                print(f"{workload:14s} {name:30s} {m['value']:14.6g} {m['unit']}")
            if not res["correct"]:
                print(f"{workload} trace={trace}: {lines[-2] if len(lines) > 1 else ''}",
                      file=sys.stderr)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two passes")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "relaylab" / "__init__.py").is_file():
        print(f"bench: no relaylab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke, args.out)
    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
