"""Batch harness: parse a job, run analytics/simulation/comparisons, emit tables.

Commands:
  analytic   evaluate the closed-form battery for one scenario
  simulate   Monte Carlo estimates for one scenario (optionally with traces)
  compare    closed forms vs simulation, one row per quantity, with gating
  sweep      compare over a Cartesian parameter grid

Rows share one schema, the fields of CompareRow, so every output is a
plot-ready table; each row embeds the full scenario, rounds, and seed, making
it reproducible from the file alone. Which quantity is compared with which
attribute of the point's AnalyticReport, by which method and under which
tier is declared once, in the quantity table _QUANTITIES; a value the report
could not evaluate is an empty cell with a note, as in `analytic`.
Comparison rows are tiered: "hard" rows are exact results the simulation
must confirm (the command exits 2 if one misses by more than three standard
errors or is empty), "soft" rows are approximations whose error is
reported, never gated. Sweeps only report; they never gate.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import sys
from csv import writer as csv_writer
from dataclasses import asdict, dataclass, fields

from .model import ScenarioParams, SimConfig, Strategy
from .numerics import MeanCI
from . import analytic
from .sim import simulate_many, trace_rounds

_EPS_REL = 1e-12
_GATE_CUSHION = 1e-12

# Refusal bounds on the arrivals a simulation stocks, e^(lambda * horizon)
# per round in expectation (horizon t_m, plus t_s when p_s > 0): per round
# this is memory, per run (rounds times that) it is time.
_MAX_ROUND_STOCK = 1e6
_MAX_RUN_STOCK = 1e8

_AXIS_FIELDS = ("lambda", "tm", "th", "ps", "ts")
_SCALAR_KEYS = ("strategy", "rounds", "seed", "format", "out", "traces")


class UsageError(Exception):
    """Bad flags, bad config document, or an unusable command combination."""


@dataclass(frozen=True)
class RunSpec:
    """A fully resolved job: what to run, on what scenario(s), where to write."""

    command: str
    strategy: Strategy
    fmt: str
    out: str | None
    rounds: int
    seed: int
    traces: int
    params: ScenarioParams | None
    grid: tuple[tuple[str, tuple[float, ...]], ...] | None


@dataclass(frozen=True)
class CompareRow:
    lam: float
    tm: float
    th: float
    ps: float
    ts: float
    strategy: str
    rounds: int | None
    seed: int | None
    quantity: str
    analytic: float | None
    method: str
    sim_mean: float | None
    sim_ci95: float | None
    abs_err: float | None
    rel_err: float | None
    tier: str


_COLUMNS = tuple("lambda" if f.name == "lam" else f.name for f in fields(CompareRow))
_row_values = operator.attrgetter(*(f.name for f in fields(CompareRow)))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1 (status 2 is reserved for gate failures)
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="relaylab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analytic", "simulate", "compare", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="relay arrival rate (> 0)")
        p.add_argument("--tm", type=float, default=None, help="coverage window")
        p.add_argument("--th", type=float, default=None, help="per-handoff cost")
        p.add_argument("--ps", type=float, default=None, help="stop probability")
        p.add_argument("--ts", type=float, default=None, help="extra dwell when stopped")
        p.add_argument("--strategy", choices=("sm", "sc"), default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
        p.add_argument("--config", default=None, help="JSON config document")
        if name != "analytic":
            p.add_argument("--rounds", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        if name == "simulate":
            p.add_argument("--traces", type=int, default=None,
                           help="dump full traces of the first N simulated rounds")
    return parser


_PARSER = _build_parser()


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config document: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config document must be a JSON object")
    return doc


def _axis_values(key: str, raw) -> tuple[float, ...]:
    values = raw if isinstance(raw, (list, tuple)) else [raw]
    if len(values) == 0:
        raise UsageError(f"config axis {key!r} is empty")
    try:
        values = sorted(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config axis {key!r} has a non-numeric entry: {raw!r}") from exc
    return tuple(values)


def parse_run_spec(argv, config: dict | None = None) -> RunSpec:
    """Resolve argv (plus an optional pre-loaded config document) to a RunSpec.

    Precedence, lowest to highest: built-in defaults, the `config` argument,
    the --config file, explicit flags.

    Raises:
        UsageError: unknown flags, malformed numbers or document, missing
            required parameters, empty grid axis, scenario validation
            failures, array values outside the sweep command, simulations
            whose expected arrival stock is past _MAX_ROUND_STOCK per round
            or _MAX_RUN_STOCK per run.
    """
    ns = _PARSER.parse_args(list(argv))
    doc: dict = dict(config) if config else {}
    if ns.config is not None:
        doc.update(_load_config(ns.config))
    unknown = set(doc) - set(_AXIS_FIELDS) - set(_SCALAR_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")

    axes: dict[str, tuple[float, ...]] = {}
    defaults = {"lambda": None, "tm": None, "th": 0.0, "ps": 0.0, "ts": 0.0}
    flag_names = {"lambda": "lam", "tm": "tm", "th": "th", "ps": "ps", "ts": "ts"}
    for key in _AXIS_FIELDS:
        flag = getattr(ns, flag_names[key])
        if flag is not None:
            axes[key] = (float(flag),)
        elif key in doc:
            axes[key] = _axis_values(key, doc[key])
        elif defaults[key] is not None:
            axes[key] = (defaults[key],)
        else:
            raise UsageError(f"missing required parameter --{key}")

    def scalar(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        return doc.get(key, fallback)

    strategy_raw = scalar(ns.strategy, "strategy", "sm")
    try:
        strategy = Strategy(strategy_raw)
    except ValueError as exc:
        raise UsageError(f"unknown strategy {strategy_raw!r}") from exc
    fmt = scalar(ns.fmt, "format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    out = scalar(ns.out, "out", None)
    rounds = int(scalar(getattr(ns, "rounds", None), "rounds", 100_000))
    seed = int(scalar(getattr(ns, "seed", None), "seed", 0))
    traces = int(scalar(getattr(ns, "traces", None), "traces", 0))
    if traces < 0:
        raise UsageError("--traces must be >= 0")

    if ns.command == "sweep":
        grid = tuple((k, axes[k]) for k in _AXIS_FIELDS)
        # validate every grid point eagerly so errors surface at parse time
        for values in itertools.product(*(axes[k] for k in _AXIS_FIELDS)):
            _check_cost(ns.command, _validate_point(dict(zip(_AXIS_FIELDS, values))),
                        rounds)
        if (strategy is Strategy.SC_LATEST_AT_EXPIRY
                and any(v > 0 for v in axes["ps"]) and any(v > 0 for v in axes["ts"])):
            raise UsageError(
                "sweep: the latest-at-expiry policy has no closed forms with "
                "stopping relays; drop ps/ts or use --strategy sm"
            )
        return RunSpec(ns.command, strategy, fmt, out, rounds, seed, traces,
                       params=None, grid=grid)

    multi = [k for k in _AXIS_FIELDS if len(axes[k]) > 1]
    if multi:
        raise UsageError(
            f"array-valued parameter(s) {multi} require the sweep command"
        )
    params = _validate_point({k: axes[k][0] for k in _AXIS_FIELDS})
    if ns.command != "analytic":
        _check_cost(ns.command, params, rounds + traces)
    if ns.command == "compare" and params.stopping and strategy is Strategy.SC_LATEST_AT_EXPIRY:
        raise UsageError(
            "compare: the latest-at-expiry policy has no closed forms with "
            "stopping relays (the simulator still runs it, flagged "
            "experimental, via the simulate command)"
        )
    return RunSpec(ns.command, strategy, fmt, out, rounds, seed, traces,
                   params=params, grid=None)


def _check_cost(command: str, params: ScenarioParams, rounds: int) -> None:
    """Refuse a simulation whose expected arrival stock is past either bound."""
    horizon = params.t_m + (params.t_s if params.p_s > 0.0 else 0.0)
    stock = math.exp(min(params.lam * horizon, 700.0))
    if stock > _MAX_ROUND_STOCK or rounds * stock > _MAX_RUN_STOCK:
        raise UsageError(
            f"{command}: lambda={params.lam!r} over a horizon of {horizon!r} stocks "
            f"about {stock:.3g} arrivals per round, {rounds * stock:.3g} over "
            f"{rounds} rounds; the limits are {_MAX_ROUND_STOCK:.0e} per round and "
            f"{_MAX_RUN_STOCK:.0e} per run (lower lambda, tm, ts or rounds)"
        )


def _validate_point(point: dict) -> ScenarioParams:
    try:
        return ScenarioParams(
            lam=point["lambda"], t_m=point["tm"], t_h=point["th"],
            p_s=point["ps"], t_s=point["ts"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# row construction
# ---------------------------------------------------------------------------

def _clean(v):
    if v is None:
        return None
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _row(params, strategy, rounds, seed, quantity, analytic_value, method,
         sim_mean, sim_ci95, tier) -> CompareRow:
    analytic_value = _clean(analytic_value)
    sim_mean = _clean(sim_mean)
    sim_ci95 = _clean(sim_ci95)
    abs_err = rel_err = None
    if analytic_value is not None and sim_mean is not None:
        abs_err = abs(analytic_value - sim_mean)
        rel_err = abs_err / max(abs(analytic_value), _EPS_REL)
    return CompareRow(
        lam=params.lam, tm=params.t_m, th=params.t_h, ps=params.p_s,
        ts=params.t_s, strategy=strategy.value, rounds=rounds, seed=seed,
        quantity=quantity, analytic=analytic_value, method=method,
        sim_mean=sim_mean, sim_ci95=sim_ci95, abs_err=abs_err,
        rel_err=rel_err, tier=tier,
    )


_REPORT_ROWS = tuple((f.name, f.metadata["method"])
                     for f in fields(analytic.AnalyticReport) if f.metadata)


def _note_failures(report, names) -> None:
    """One stderr note per failed report field among `names`, in order."""
    failures = dict(report.failures)
    for name in names:
        if name in failures:
            print(f"relaylab: note: {name} left empty: {failures[name]}", file=sys.stderr)


def run_analytic(spec: RunSpec) -> list[CompareRow]:
    """Closed-form battery as rows (sim columns empty), in report field order.

    A quantity the report could not evaluate gets an empty analytic cell and
    one note on stderr naming it; every other row is unaffected.
    """
    rep = analytic.build_report(spec.params)
    _note_failures(rep, (name for name, _ in _REPORT_ROWS))
    return [_row(spec.params, spec.strategy, None, None, name, float(getattr(rep, name)),
                 method, None, None, "") for name, method in _REPORT_ROWS]


def _sim_estimates(summary) -> dict[str, tuple[float, float]]:
    """(mean, 95% half-width) of every simulated statistic, in output order:
    each MeanCI field of the summary, then the served-time ratio r2."""
    estimates = {name: (v.mean, v.ci95_half_width)
                 for name, v in vars(summary).items() if isinstance(v, MeanCI)}
    estimates["r2"] = (summary.r2_estimate, 1.96 * summary.r2_std_error)
    return estimates


def _always(p):
    return True


def _never(p):
    return False


def _plain(p):
    # the service, t2 and r2 closed forms reduce to exact ones
    return p.p_s == 0.0


def _plain_dynamics(p):
    return not p.stopping


def _stopping_dynamics(p):
    return p.stopping


def _free_handoff(p):
    return p.t_h == 0.0


# The quantity table: one entry per comparison row, in output order.
# (stat, method, report attribute, hard(params), applies(params)). A report
# property reads only fields that its table's rows read too (e_m_sc fails
# whenever e_m_sm does), so the notes for those rows cover it.
_QUANTITIES = {
    Strategy.SC_LATEST_AT_EXPIRY: (
        ("p_vertical", "closed_form", "p_v", _always, _always),
        ("first_service_offset", "closed_form", "e_tau1_sc", _always, _always),
        ("first_gap_offset", "quadrature", "e_t1_sc", _never, _always),
        ("m_handoffs", "closed_form", "e_m_sc", _never, _always),
        ("u_unserved", "closed_form", "e_unserved_sc", _never, _always),
        ("t2_duration", "closed_form", "e_t2_sc", _always, _always),
        ("t1_duration", "closed_form", "e_idle_gap", _always, _always),
        ("r2", "closed_form", "r2_sc", _free_handoff, _always),
    ),
    Strategy.SM_SERVE_ALL: (
        ("p_vertical", "closed_form", "p_v_hat_1", _always, _always),
        # the ride means reduce to the exact trunc_mean(lam t_m, lam) at p_s = 0
        ("first_service_offset", "closed_form", "e_tau_sm_stop_1", _plain, _always),
        ("first_gap_offset", "closed_form", "e_tau_sm_stop_2", _plain, _always),
        ("m_handoffs", "closed_form", "e_m_sm", _always, _plain_dynamics),
        ("m_handoffs", "series_sum", "e_m_sm_stop_sum", _never, _stopping_dynamics),
        ("m_handoffs", "geometric", "e_m_sm_stop_geo", _never, _stopping_dynamics),
        ("u_unserved", "closed_form", "e_unserved_sm", _always, _plain_dynamics),
        ("t2_duration", "closed_form", "a2_tilde", _plain, _always),
        ("t1_duration", "closed_form", "e_idle_gap", _always, _always),
        ("r2", "closed_form", "r2_sm_stop", _plain, _always),
    ),
}


def _point_rows(params: ScenarioParams, strategy: Strategy, rounds: int,
                seed: int, compare: bool) -> list[CompareRow]:
    """Rows for one simulated point: every table entry that applies, or
    with compare=False every simulated statistic, analytic columns empty."""
    summary = simulate_many(params, strategy, SimConfig(rounds=rounds, seed=seed))
    estimates = _sim_estimates(summary)
    if compare:
        rep = analytic.build_report(params)
        table = [(stat, method, attr, hard) for stat, method, attr, hard, applies
                 in _QUANTITIES[strategy] if applies(params)]
        _note_failures(rep, (attr for _, _, attr, _ in table))
        rows = [_row(params, strategy, rounds, seed, stat, getattr(rep, attr), method,
                     *estimates[stat], "hard" if hard(params) else "soft")
                for stat, method, attr, hard in table]
    else:
        rows = [_row(params, strategy, rounds, seed, stat, None, "", *estimate, "")
                for stat, estimate in estimates.items()]
    if summary.experimental:
        rows.append(_row(params, strategy, rounds, seed, "experimental_flag",
                         None, "", 1.0, 0.0, ""))
    return rows


def run_simulate(spec: RunSpec) -> list[CompareRow]:
    """Simulation estimates as rows (analytic columns empty)."""
    return _point_rows(spec.params, spec.strategy, spec.rounds, spec.seed, compare=False)


def run_compare(spec: RunSpec) -> list[CompareRow]:
    """One comparison row per quantity (two for the stopping handoff count)."""
    return _point_rows(spec.params, spec.strategy, spec.rounds, spec.seed, compare=True)


def run_sweep(spec: RunSpec) -> list[CompareRow]:
    """Comparison rows for every grid point.

    Point i runs with seed spec.seed + i (echoed in its rows), in
    lexicographic order over the axes (lambda, tm, th, ps, ts), each axis
    ascending.
    """
    axes = dict(spec.grid)
    rows: list[CompareRow] = []
    for index, values in enumerate(
        itertools.product(*(axes[k] for k in _AXIS_FIELDS))
    ):
        params = _validate_point(dict(zip(_AXIS_FIELDS, values)))
        rows.extend(_point_rows(params, spec.strategy, spec.rounds,
                                spec.seed + index, compare=True))
    return rows


def hard_violations(rows) -> list[CompareRow]:
    """Hard-tier rows with a simulated CI and no analytic value, or whose
    |analytic - sim| exceeds 3 standard errors.

    The standard error is recovered from the 95% half-width; a 1e-12
    cushion keeps zero-variance exact rows from tripping on representation
    noise.
    """
    bad = []
    for r in rows:
        if r.tier != "hard" or r.sim_ci95 is None:
            continue
        se = r.sim_ci95 / 1.96
        if r.abs_err is None or not r.abs_err <= 3.0 * se + _GATE_CUSHION:
            bad.append(r)
    return bad


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def row_to_dict(row: CompareRow) -> dict:
    return dict(zip(_COLUMNS, _row_values(row)))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit(rows, fmt: str, path: str | None) -> None:
    """Write rows as CSV (9 significant digits) or JSON (full precision).

    Raises:
        ValueError: no rows or unknown format.
        OSError: unwritable path.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("nothing to emit")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        _emit_stream(rows, fmt, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _emit_stream(rows, fmt, fh)


def _emit_stream(rows, fmt, stream) -> None:
    if fmt == "json":
        json.dump([row_to_dict(r) for r in rows], stream, indent=2)
        stream.write("\n")
        return
    w = csv_writer(stream, lineterminator="\n")
    w.writerow(_COLUMNS)
    for r in rows:
        w.writerow([_cell(v) for v in _row_values(r)])


def _emit_trace_dump(params, strategy, seed, count, stream) -> None:
    outcomes = trace_rounds(params, strategy, SimConfig(rounds=count, seed=seed))
    for i, o in enumerate(outcomes):
        record = {
            "round": i,
            "m_handoffs": o.m_handoffs,
            "u_unserved": o.u_unserved,
            "t2_duration": o.t2_duration,
            "t1_duration": o.t1_duration,
            "service_durations": list(o.service_durations),
            "steps": [asdict(s) for s in o.trace],
        }
        stream.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    """Exit status: 0 success, 1 usage/runtime error, 2 hard-tier gate failure."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        spec = parse_run_spec(argv)
    except UsageError as exc:
        print(f"relaylab: error: {exc}", file=sys.stderr)
        return 1
    run = {"analytic": run_analytic, "simulate": run_simulate,
           "compare": run_compare, "sweep": run_sweep}[spec.command]
    try:
        rows = run(spec)
        emit(rows, spec.fmt, spec.out)
        if spec.command == "simulate" and spec.traces > 0:
            if spec.out is None:
                _emit_trace_dump(spec.params, spec.strategy, spec.seed,
                                 spec.traces, sys.stdout)
            else:
                with open(f"{spec.out}.traces.jsonl", "w", encoding="utf-8") as fh:
                    _emit_trace_dump(spec.params, spec.strategy, spec.seed,
                                     spec.traces, fh)
        if spec.command == "compare":
            bad = hard_violations(rows)
            for r in bad:
                print(
                    f"relaylab: hard-tier violation: {r.quantity} "
                    f"analytic {r.analytic!r} vs sim {r.sim_mean!r} "
                    f"(ci95 {r.sim_ci95!r})",
                    file=sys.stderr,
                )
            if bad:
                return 2
        return 0
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"relaylab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
