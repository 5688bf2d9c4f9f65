"""End-to-end acceptance battery.

One test per criterion; each prints a single ``[criterion N] PASS/FAIL`` line
(visible with ``pytest -s``) before asserting, so a full run reads as a
checklist. Statistical checks use frozen seeds and 3-standard-error gates;
exact identities gate at 1e-12.
"""
import json
import math

import numpy as np
import pytest
from scipy import stats

from relaylab import analytic, cli
from relaylab.model import ScenarioParams, SimConfig, Strategy
from relaylab.numerics import dilog
from relaylab.sim import (
    coupled_round,
    simulate_many,
    simulate_round,
    window_recursion_round,
)

P11 = ScenarioParams(lam=1.0, t_m=1.0)
STOP = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.3, t_s=2.0)
SC = Strategy.SC_LATEST_AT_EXPIRY
SM = Strategy.SM_SERVE_ALL


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {verdict}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_first_boarding_offset():
    """Closed form for the first boarding offset is exact and the simulator
    reproduces it."""
    oracle = 0.0
    weight = 0.0
    p = math.exp(-1.0)
    for k in range(1, 200):
        p = p / k  # e^-1 / k! at rate 1
        oracle += p * k / (k + 1.0)
        weight += p
    oracle /= weight
    closed = analytic.expected_tau1_sc(P11)
    exact_err = abs(closed - oracle)

    s = simulate_many(P11, SC, SimConfig(rounds=1_000_000, seed=424242, worker_hint=4))
    z = abs(s.first_service_offset.mean - closed) / s.first_service_offset.std_error
    ok = exact_err <= 1e-12 and z <= 3.0
    _report(
        1,
        ok,
        f"closed form {closed:.15f} vs combinatorial oracle (|err| = "
        f"{exact_err:.2e} <= 1e-12); 1e6-round sim mean "
        f"{s.first_service_offset.mean:.6f} at z = {z:.2f} <= 3",
    )


def test_criterion_2_second_window_mean():
    """Quadrature for the conditional second-boarding offset matches a direct
    two-stage Monte Carlo draw; halving the tolerance leaves it stable. The
    dilogarithm closed form is evaluated and its deviation reported only."""
    quad = analytic.expected_t1_sc(P11, tol=1e-9)
    rng = np.random.default_rng(777777)
    n = 1_000_000
    u = rng.random(n)
    first = np.log1p(u * (math.e - 1.0))
    v = rng.random(n)
    second = np.log1p(v * np.expm1(first))
    se = second.std(ddof=1) / math.sqrt(n)
    z = abs(second.mean() - quad) / se

    halved = analytic.expected_t1_sc(P11, tol=5e-10)
    stability = abs(quad - halved)

    closed = analytic.expected_t1_sc(P11, method="closed_form")
    deviation = abs(closed - quad)

    ok = z <= 3.0 and stability <= 1e-6
    _report(
        2,
        ok,
        f"quadrature {quad:.12f} vs 1e6-sample two-stage MC at z = {z:.2f} "
        f"<= 3; tolerance halving moved it {stability:.2e} <= 1e-6; "
        f"closed-form deviation {deviation:.2e} (reported, not gated)",
    )


def test_criterion_3_reduction_identities():
    """With the stopping knobs off, every stopping-chain formula collapses to
    its plain counterpart to 1e-12."""
    worst = 0.0
    for lam, tm in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0)):
        plain = ScenarioParams(lam=lam, t_m=tm)
        zero_ps = ScenarioParams(lam=lam, t_m=tm, p_s=0.0, t_s=2.0)
        zero_ts = ScenarioParams(lam=lam, t_m=tm, p_s=0.3, t_s=0.0)
        pv = math.exp(-lam * tm)
        checks = [
            max(abs(analytic.p_vertical_hat(zero_ps, j) - pv) for j in (1, 2, 5)),
            max(abs(analytic.p_vertical_hat(zero_ts, j) - pv) for j in (1, 2, 5)),
            abs(
                analytic.expected_handoffs_sm_stopping_sum(zero_ps)
                - (math.exp(lam * tm) - 1.0)
            ),
            abs(analytic.expected_t2_stopping(zero_ps) - (1.0 - pv) / (lam * pv)),
            abs(analytic.ratio_t2_sm_stopping(zero_ps) - (1.0 - pv)),
            abs(analytic.ratio_t2_sc(plain) - (1.0 - pv)),
        ]
        worst = max(worst, max(checks))
    _report(
        3,
        worst <= 1e-12,
        f"five reduction identities over three scenarios, worst "
        f"|err| = {worst:.2e} <= 1e-12",
    )


def test_criterion_4_coupled_path_identities():
    """On a shared arrival realization the serve-all count equals the
    latest-at-expiry count plus its unserved count, round by round, and both
    rounds end at the same instant."""
    details = []
    ok = True
    for lam, seed in ((0.5, 14), (1.0, 12), (2.0, 13)):
        p = ScenarioParams(lam=lam, t_m=1.0)
        rng = np.random.default_rng(seed)
        rounds = 100_000
        bad_m = 0
        max_dt = 0.0
        empty = 0
        for _ in range(rounds):
            sm_out, sc_out = coupled_round(p, rng)
            if sm_out.m_handoffs != sc_out.m_handoffs + sc_out.u_unserved:
                bad_m += 1
            max_dt = max(max_dt, abs(sm_out.t2_duration - sc_out.t2_duration))
            empty += sc_out.m_handoffs == 0
        pv = math.exp(-lam)
        z = abs(empty / rounds - pv) / math.sqrt(pv * (1.0 - pv) / rounds)
        ok = ok and bad_m == 0 and max_dt <= 1e-9 and z <= 3.0
        details.append(f"lam={lam}: count breaks {bad_m}, max |t2 diff| {max_dt:.1e}, "
                       f"empty-round z {z:.2f}")
    _report(4, ok, "; ".join(details))


def test_criterion_5_dual_implementation_equivalence():
    """The window-chain sampler and the event walk draw the same process."""
    n = 100_000
    rng_a = np.random.default_rng(21)
    rng_b = np.random.default_rng(22)
    chain_t2 = np.empty(n)
    chain_m = np.empty(n, dtype=int)
    walk_t2 = np.empty(n)
    walk_m = np.empty(n, dtype=int)
    for i in range(n):
        o = window_recursion_round(P11, rng_a)
        chain_t2[i] = o.t2_duration
        chain_m[i] = o.m_handoffs
        o = simulate_round(P11, SC, rng_b)
        walk_t2[i] = o.t2_duration
        walk_m[i] = o.m_handoffs
    ks_p = stats.ks_2samp(chain_t2, walk_t2).pvalue
    cap = 8
    table = np.vstack(
        [
            np.bincount(np.minimum(chain_m, cap), minlength=cap + 1),
            np.bincount(np.minimum(walk_m, cap), minlength=cap + 1),
        ]
    )
    chi_p = stats.chi2_contingency(table).pvalue
    ok = ks_p > 0.01 and chi_p > 0.01
    _report(
        5,
        ok,
        f"1e5 + 1e5 rounds: KS on served duration p = {ks_p:.3f} > 0.01, "
        f"chi-square on handoff count p = {chi_p:.3f} > 0.01",
    )


def test_criterion_6_dilogarithm():
    """Fixed points, the analytic continuation at 2, and the inversion
    identity, all to 1e-10."""
    pi2 = math.pi * math.pi
    errs = [
        abs(dilog(1.0).real - pi2 / 6.0),
        abs(dilog(-1.0).real + pi2 / 12.0),
        abs(dilog(2.0).real - pi2 / 4.0),
    ]
    for x in (1.5, 2.0, 5.0, 20.0):
        lhs = dilog(x) + dilog(1.0 / x)
        rhs = complex(
            -pi2 / 6.0 - 0.5 * math.log(x) ** 2 + pi2 / 2.0,
            -math.pi * math.log(x),
        )
        errs.append(abs(lhs - rhs))
    worst = max(errs)
    _report(
        6,
        worst <= 1e-10,
        f"fixed points and inversion identity on x in {{1.5, 2, 5, 20}}, "
        f"worst |err| = {worst:.2e} <= 1e-10",
    )


def test_criterion_7_stopping_count_consistency():
    """The truncated handoff-count series and its geometric shortcut agree to
    within 2% on the reference stopping scenario."""
    series = analytic.expected_handoffs_sm_stopping_sum(STOP)
    geo = analytic.expected_handoffs_sm_stopping_geo(STOP)
    rel = abs(series - geo) / series
    _report(
        7,
        rel <= 0.02,
        f"truncated series {series:.6f} vs geometric {geo:.6f}, relative "
        f"gap {rel:.4%} <= 2%",
    )


def _sweep(argv, config, out):
    """Run a sweep through main with its grid in a config document."""
    doc = out.with_name(out.name + ".grid.json")
    doc.write_text(json.dumps(config))
    assert cli.main([*argv, "--config", str(doc), "--out", str(out)]) == 0


def test_criterion_8_approximation_quality_report(tmp_path):
    """Approximation-vs-simulation sweeps run end to end and report an error
    for every row; values are reported, never gated."""
    plain_out = tmp_path / "plain.json"
    _sweep(
        ["sweep", "--strategy", "sc", "--rounds", "100000", "--seed", "81",
         "--format", "json"],
        {"lambda": [0.5, 1.0, 2.0], "tm": 1.0, "th": [0.0, 0.05]},
        plain_out,
    )
    plain_rows = json.loads(plain_out.read_text())

    stop_out = tmp_path / "stopping.json"
    _sweep(
        ["sweep", "--strategy", "sm", "--rounds", "100000", "--seed", "82",
         "--format", "json"],
        {"lambda": 1.0, "tm": 1.0, "ps": [0.1, 0.3, 0.5], "ts": [0.5, 2.0]},
        stop_out,
    )
    stop_rows = json.loads(stop_out.read_text())

    all_rows = plain_rows + stop_rows
    missing = [r for r in all_rows if r["rel_err"] is None]
    soft = [r for r in all_rows if r["tier"] == "soft"]
    worst_soft = max(r["rel_err"] for r in soft)
    ok = (
        not missing
        and plain_out.exists()
        and stop_out.exists()
        and len(plain_rows) > 0
        and len(stop_rows) > 0
    )
    _report(
        8,
        ok,
        f"{len(plain_rows)} plain-policy rows and {len(stop_rows)} "
        f"stopping-model rows emitted, every row carries rel_err "
        f"({len(missing)} missing); worst soft-tier rel_err "
        f"{worst_soft:.3%} (reported, not gated)",
    )


def test_criterion_9_determinism(tmp_path):
    """Identical job plus identical seed means byte-identical output, whatever
    the parallelism."""
    sweep_argv = [
        "sweep", "--strategy", "sc", "--rounds", "5000", "--seed", "31",
    ]
    sweep_cfg = {"lambda": [1.0, 2.0], "tm": 1.0}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _sweep(sweep_argv, sweep_cfg, a)
    _sweep(sweep_argv, sweep_cfg, b)
    sweep_same = a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.json", tmp_path / "d.json"
    compare_argv = [
        "compare", "--lambda", "1", "--tm", "1", "--strategy", "sm",
        "--rounds", "20000", "--seed", "9", "--format", "json",
    ]
    assert cli.main(compare_argv + ["--out", str(c)]) == 0
    assert cli.main(compare_argv + ["--out", str(d)]) == 0
    compare_same = c.read_bytes() == d.read_bytes()

    serial = simulate_many(P11, SC, SimConfig(rounds=20_000, seed=77, worker_hint=1))
    parallel = simulate_many(P11, SC, SimConfig(rounds=20_000, seed=77, worker_hint=4))
    summaries_same = serial == parallel

    ok = sweep_same and compare_same and summaries_same
    _report(
        9,
        ok,
        f"sweep rerun byte-identical: {sweep_same}; compare rerun "
        f"byte-identical: {compare_same}; 1-worker vs 4-worker summaries "
        f"equal: {summaries_same}",
    )
