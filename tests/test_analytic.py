import itertools
import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest

from relaylab import analytic
from relaylab.model import ScenarioParams
from relaylab.numerics import integrate, trunc_mean

P11 = ScenarioParams(lam=1.0, t_m=1.0)
STOP = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.3, t_s=2.0)
# the derived quantities of the report, which the `analytic` command does not emit
_DERIVED = [n for n, v in vars(analytic.AnalyticReport).items() if isinstance(v, property)]


def poisson_weighted_max_mean(rate: float, terms: int = 120) -> float:
    """E[max offset | count >= 1] for a unit window, summed combinatorially.

    Conditional on k arrivals, the latest of k uniform offsets has mean
    k/(k+1); weight by the zero-truncated Poisson pmf.
    """
    probs = []
    vals = []
    p = math.exp(-rate)
    for k in range(1, terms):
        p = p * rate / k  # Poisson pmf at k, built incrementally
        probs.append(p)
        vals.append(k / (k + 1.0))
    denom = math.fsum(probs)
    return math.fsum(pi * v for pi, v in zip(probs, vals)) / denom


class TestFirstWindow:
    def test_vertical_probability(self):
        assert analytic.p_vertical(P11) == pytest.approx(math.exp(-1.0), abs=0)
        assert analytic.p_vertical(ScenarioParams(lam=2.0, t_m=1.5)) == pytest.approx(
            math.exp(-3.0), rel=1e-15
        )

    def test_first_offset_mean_matches_combinatorial_sum(self):
        want = poisson_weighted_max_mean(1.0)
        assert analytic.expected_tau1_sc(P11) == pytest.approx(want, abs=1e-12)
        assert analytic.expected_tau1_sc(P11) == pytest.approx(
            0.581976706869326, abs=1e-12
        )

    def test_first_offset_scales_with_window(self):
        p = ScenarioParams(lam=0.5, t_m=2.0)
        assert analytic.expected_tau1_sc(p) == pytest.approx(
            2.0 * poisson_weighted_max_mean(1.0), rel=1e-12
        )

    def test_density_normalizes(self):
        mass = integrate(lambda s: analytic.pdf_tau1_sc(max(s, 1e-300), P11), 0.0, 1.0, 1e-11)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_density_mean_recovers_offset_mean(self):
        f = lambda s: s * analytic.pdf_tau1_sc(max(s, 1e-300), P11)
        assert integrate(f, 0.0, 1.0, 1e-11) == pytest.approx(
            analytic.expected_tau1_sc(P11), abs=1e-9
        )

    @pytest.mark.parametrize("s", [0.0, -0.2, 1.0001, 5.0])
    def test_density_domain(self, s):
        with pytest.raises(ValueError):
            analytic.pdf_tau1_sc(s, P11)

    def test_density_large_rate_stays_finite(self):
        p = ScenarioParams(lam=800.0, t_m=1.0)
        assert analytic.pdf_tau1_sc(1.0, p) == pytest.approx(800.0, rel=1e-9)
        assert analytic.pdf_tau1_sc(0.001, p) < 1e-200 or analytic.pdf_tau1_sc(0.001, p) >= 0.0

    def test_conditional_follow_up_mean(self):
        assert analytic.expected_t_given_tau(1.0, P11) == pytest.approx(
            analytic.expected_tau1_sc(P11), abs=0
        )
        assert analytic.expected_t_given_tau(0.5, P11) == pytest.approx(
            analytic.expected_tau1_sc(ScenarioParams(lam=1.0, t_m=0.5)), abs=0
        )
        with pytest.raises(ValueError):
            analytic.expected_t_given_tau(0.0, P11)
        with pytest.raises(ValueError):
            analytic.expected_t_given_tau(1.5, P11)


class TestSecondWindowMean:
    def test_quadrature_value(self):
        assert analytic.expected_t1_sc(P11) == pytest.approx(
            0.325454646840276, abs=1e-10
        )

    def test_closed_form_agrees_with_quadrature(self):
        for lam, t_m in [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (1.0, 2.0), (0.3, 0.7)]:
            p = ScenarioParams(lam=lam, t_m=t_m)
            quad = analytic.expected_t1_sc(p, "quadrature", 1e-11)
            closed = analytic.expected_t1_sc(p, "closed_form")
            assert closed == pytest.approx(quad, abs=5e-9)

    def test_two_stage_sampling_oracle(self):
        # draw the first offset from its density by inverse CDF, then the
        # follow-up latest offset inside a window of that length
        lam = 1.0
        rng = np.random.default_rng(90125)
        n = 400_000
        u = rng.random(n)
        s = np.log1p(u * (math.e - 1.0)) / lam
        v = rng.random(n)
        t = np.log1p(v * np.expm1(lam * s)) / lam
        se = t.std(ddof=1) / math.sqrt(n)
        assert abs(t.mean() - analytic.expected_t1_sc(P11)) < 3.0 * se

    def test_low_rate_limit_is_quarter_window(self):
        p = ScenarioParams(lam=1e-4, t_m=1.0)
        assert analytic.expected_t1_sc(p) == pytest.approx(0.2500069445, abs=1e-9)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            analytic.expected_t1_sc(P11, "bisection")


class TestHandoffCounts:
    def test_serve_all_count(self):
        assert analytic.expected_handoffs_sm(P11) == pytest.approx(
            math.e - 1.0, rel=1e-14
        )

    def test_serve_all_count_is_geometric_mean(self):
        for lam, t_m in [(0.5, 1.0), (2.0, 1.0), (1.0, 3.0)]:
            p = ScenarioParams(lam=lam, t_m=t_m)
            pv = analytic.p_vertical(p)
            assert analytic.expected_handoffs_sm(p) == pytest.approx(
                (1.0 - pv) / pv, rel=1e-14
            )

    def test_unserved_per_handoff(self):
        assert analytic.expected_unserved_per_round(P11, 1) == pytest.approx(
            0.453715676854801, abs=1e-10
        )

    def test_unserved_scales_linearly(self):
        one = analytic.expected_unserved_per_round(P11, 1)
        assert analytic.expected_unserved_per_round(P11, 3) == pytest.approx(
            3.0 * one, rel=1e-12
        )
        assert analytic.expected_unserved_per_round(P11, 0) == 0.0
        with pytest.raises(ValueError):
            analytic.expected_unserved_per_round(P11, -1)

    def test_latest_at_expiry_count(self):
        assert analytic.expected_handoffs_sc(P11) == pytest.approx(
            1.18199305119736, abs=1e-10
        )

    def test_count_consistency_identity(self):
        # the two counts and the per-handoff unserved mean close the loop:
        # m_sc * (1 + unserved per handoff) = m_sm
        for lam in (0.5, 1.0, 2.0):
            p = ScenarioParams(lam=lam, t_m=1.0)
            pair = analytic.expected_tau1_sc(p) + analytic.expected_t1_sc(p)
            m_sc = analytic.expected_handoffs_sc(p)
            assert m_sc * (1.0 + lam * pair / 2.0) == pytest.approx(
                analytic.expected_handoffs_sm(p), rel=1e-9
            )

    def test_latest_at_expiry_never_exceeds_serve_all(self):
        for lam in (0.2, 1.0, 3.0):
            p = ScenarioParams(lam=lam, t_m=1.0)
            assert analytic.expected_handoffs_sc(p) < analytic.expected_handoffs_sm(p)


class TestServedRatioPlain:
    def test_zero_cost_reduction_is_exact(self):
        for lam in (0.5, 1.0, 2.0):
            p = ScenarioParams(lam=lam, t_m=1.0)
            assert analytic.ratio_t2_sc(p) == 1.0 - analytic.p_vertical(p)

    def test_costed_value(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, t_h=0.05)
        assert analytic.ratio_t2_sc(p) == pytest.approx(0.610379011671407, abs=1e-10)

    def test_cost_is_monotone(self):
        vals = [
            analytic.ratio_t2_sc(ScenarioParams(lam=1.0, t_m=1.0, t_h=th))
            for th in (0.0, 0.05, 0.2, 0.5)
        ]
        assert vals == sorted(vals, reverse=True)

    def test_large_cost_goes_negative(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, t_h=10.0)
        assert analytic.ratio_t2_sc(p) < 0.0


class TestStoppingChain:
    def test_effective_stop_probability(self):
        assert analytic.p_s_prime(STOP) == pytest.approx(0.555262899335785, abs=1e-12)
        assert analytic.p_s_delta(STOP) == pytest.approx(0.255262899335785, abs=1e-12)

    def test_drift_can_be_negative(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=0.01)
        assert analytic.p_s_delta(p) < 0.0

    def test_chain_sequence(self):
        assert analytic.p_s_prime_seq(STOP, 0) == pytest.approx(0.3, abs=1e-15)
        assert analytic.p_s_prime_seq(STOP, 1) == pytest.approx(
            0.376578869800735, abs=1e-12
        )
        limit = 0.3 / (1.0 - analytic.p_s_delta(STOP))
        assert limit == pytest.approx(0.402826715269639, abs=1e-12)
        assert analytic.p_s_prime_seq(STOP, 200) == pytest.approx(limit, abs=1e-14)
        with pytest.raises(ValueError):
            analytic.p_s_prime_seq(STOP, -1)

    def test_chain_sequence_monotone_when_drift_positive(self):
        vals = [analytic.p_s_prime_seq(STOP, j) for j in range(8)]
        assert vals == sorted(vals)

    def test_no_relay_probability_levels(self):
        assert analytic.p_vertical_hat(STOP, 1) == pytest.approx(
            0.318084564218406, abs=1e-12
        )
        assert analytic.p_vertical_hat(STOP, 2) == pytest.approx(
            0.305373779555306, abs=1e-12
        )
        assert analytic.p_vertical_hat_limit(STOP) == pytest.approx(
            0.301017085437284, abs=1e-12
        )
        with pytest.raises(ValueError):
            analytic.p_vertical_hat(STOP, 0)

    def test_no_relay_levels_decrease_when_drift_positive(self):
        vals = [analytic.p_vertical_hat(STOP, j) for j in range(1, 10)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] > analytic.p_vertical_hat_limit(STOP)

    def test_truncated_series_value(self):
        got = analytic.expected_handoffs_sm_stopping_sum(STOP)
        assert got == pytest.approx(2.25337226305882, abs=2e-10)

    def test_series_matches_brute_force_partials(self):
        # independent accumulation of prod_{j<=m+1}(1 - level_j): 4000
        # factors put the tail below 1e-300, so the explicit factors plus
        # the exact geometric tail must reproduce it to rounding
        for p in (STOP, ScenarioParams(lam=2.0, t_m=1.0, p_s=0.5, t_s=1.0)):
            partials = []
            term = 1.0
            for j in range(1, 4000):
                term *= 1.0 - analytic.p_vertical_hat(p, j)
                partials.append(term)
            got = analytic.expected_handoffs_sm_stopping_sum(p)
            assert got == pytest.approx(math.fsum(partials), rel=1e-14)

    def test_geometric_shortcut(self):
        assert analytic.expected_handoffs_sm_stopping_geo(STOP) == pytest.approx(
            2.23305169413896, abs=1e-12
        )

    def test_series_with_oscillating_drift(self):
        # negative drift makes the levels non-monotone; the truncation bound
        # must still hold
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=0.01)
        assert analytic.p_s_delta(p) < 0.0
        total = 0.0
        term = 1.0
        for j in range(1, 4000):
            term *= 1.0 - analytic.p_vertical_hat(p, j)
            total += term
        assert analytic.expected_handoffs_sm_stopping_sum(p) == pytest.approx(
            total, abs=1e-11
        )


class TestStoppingServiceAndRatio:
    def test_ride_means(self):
        assert analytic.expected_service_sm_stopping(STOP, 1) == pytest.approx(
            0.588280236306555, abs=1e-12
        )
        assert analytic.expected_service_sm_stopping(STOP, 2) == pytest.approx(
            0.623065604613234, abs=1e-12
        )
        with pytest.raises(ValueError):
            analytic.expected_service_sm_stopping(STOP, 0)

    def test_ride_mean_kernels(self):
        # the three truncated-exponential kernels feeding ride 1
        assert trunc_mean(0.3, 1.0) == pytest.approx(0.142511226, abs=1e-9)
        assert trunc_mean(0.7, 1.0) == pytest.approx(0.309496295, abs=1e-9)
        assert trunc_mean(0.9, 1.0) == pytest.approx(0.383394025, abs=1e-9)

    def test_all_stop_scenario_has_no_division_blowup(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=1.0, t_s=0.5)
        v = analytic.expected_service_sm_stopping(p, 1)
        assert math.isfinite(v) and v > 0.0

    def test_served_duration(self):
        assert analytic.expected_t2_stopping(STOP) == pytest.approx(
            2.95249894112706, abs=1e-12
        )

    def test_ratio_values(self):
        assert analytic.ratio_t2_sm_stopping(STOP) == pytest.approx(
            0.746995504642729, abs=1e-12
        )
        costed = ScenarioParams(lam=1.0, t_m=1.0, t_h=0.05, p_s=0.3, t_s=2.0)
        assert analytic.ratio_t2_sm_stopping(costed) == pytest.approx(
            0.718746898793613, abs=1e-12
        )


class TestReductions:
    """Every stopping-chain formula must collapse exactly when the stopping
    knobs are off; these are identities, not approximations."""

    PLAIN = [ScenarioParams(lam=l, t_m=t) for l, t in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)]]

    def test_no_stop_probability(self):
        for p in self.PLAIN:
            pv = analytic.p_vertical(p)
            assert analytic.p_s_prime(p) == 0.0
            for j in (1, 2, 5):
                assert analytic.p_vertical_hat(p, j) == pv
            assert analytic.expected_handoffs_sm_stopping_geo(p) == pytest.approx(
                analytic.expected_handoffs_sm(p), rel=1e-14
            )
            assert analytic.expected_handoffs_sm_stopping_sum(p) == pytest.approx(
                analytic.expected_handoffs_sm(p), rel=1e-11
            )
            kernel = trunc_mean(p.lam * p.t_m, p.lam)
            for j in (1, 2, 7):
                assert analytic.expected_service_sm_stopping(p, j) == pytest.approx(
                    kernel, rel=1e-14
                )
            assert analytic.expected_t2_stopping(p) == pytest.approx(
                (1.0 - pv) / (p.lam * pv), rel=1e-12
            )
            assert analytic.ratio_t2_sm_stopping(p) == pytest.approx(
                1.0 - pv, rel=1e-12
            )

    def test_zero_dwell(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.4, t_s=0.0)
        pv = analytic.p_vertical(p)
        for j in (1, 2, 5):
            assert analytic.p_vertical_hat(p, j) == pv
        assert analytic.expected_handoffs_sm_stopping_geo(p) == pytest.approx(
            analytic.expected_handoffs_sm(p), rel=1e-14
        )

    def test_costed_plain_ratio_uses_renewal_identity(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, t_h=0.05)
        a2 = (1.0 - analytic.p_vertical(p)) / (analytic.p_vertical(p))
        want = (a2 - 0.05 * analytic.expected_handoffs_sm(p)) / (1.0 + a2)
        assert analytic.ratio_t2_sm_stopping(p) == pytest.approx(want, rel=1e-12)


class TestReport:
    def test_report_is_coherent(self):
        rep = analytic.build_report(STOP)
        assert rep.params is STOP
        assert rep.e_m_sc < rep.e_m_sm
        assert rep.t1_closed_deviation < 1e-9
        assert rep.truncation_terms >= 1
        assert rep.p_v_hat_1 == analytic.p_vertical_hat(STOP, 1)
        assert not rep.r2_sc_negative
        assert not rep.r2_sm_stop_negative
        # e_t1_sc is the quadrature route, e_t1_sc_closed the dilog route
        assert rep.e_t1_sc == analytic.expected_t1_sc(STOP, "quadrature")
        assert rep.e_t1_sc_closed == analytic.expected_t1_sc(STOP, "closed_form")

    def test_derived_properties(self):
        assert sorted(_DERIVED) == ["e_idle_gap", "e_t2_sc", "e_unserved_sc", "e_unserved_sm"]
        for p in (P11, ScenarioParams(lam=0.5, t_m=2.0, t_h=0.1)):
            rep = analytic.build_report(p)
            assert rep.e_idle_gap == 1.0 / p.lam
            assert rep.e_t2_sc == pytest.approx(rep.e_m_sm / p.lam, rel=1e-14)
            assert rep.e_unserved_sc == (analytic.expected_handoffs_sm(p)
                                         - analytic.expected_handoffs_sc(p))
            assert rep.e_unserved_sm == 0.0

    def test_plain_ride_means_are_the_truncated_mean(self):
        # compare gates both ride means as exact when p_s = 0
        for lam, t_m, t_s in itertools.product((1e-6, 0.3, 1.0, 4.0, 13.0),
                                               (0.01, 1.0, 7.0), (0.0, 2.0)):
            rep = analytic.build_report(ScenarioParams(lam=lam, t_m=t_m, t_s=t_s))
            want = trunc_mean(lam * t_m, lam)
            assert rep.e_tau_sm_stop_1 == want and rep.e_tau_sm_stop_2 == want

    def test_negative_ratio_flagged(self):
        rep = analytic.build_report(ScenarioParams(lam=1.0, t_m=1.0, t_h=10.0))
        assert rep.r2_sc_negative

    def test_monotone_grids(self):
        pvs = [analytic.p_vertical(ScenarioParams(lam=l, t_m=1.0)) for l in (0.5, 1, 2, 4)]
        assert pvs == sorted(pvs, reverse=True)
        ms = [
            analytic.expected_handoffs_sm(ScenarioParams(lam=l, t_m=1.0))
            for l in (0.5, 1, 2, 4)
        ]
        assert ms == sorted(ms)


# report fields and properties measured in time; every other one is a count,
# a probability or a ratio
_TIME_FIELDS = {"e_tau1_sc", "e_t1_sc", "e_t1_sc_closed", "t1_closed_deviation",
                "e_tau_sm_stop_1", "e_tau_sm_stop_2", "a2_tilde", "e_idle_gap", "e_t2_sc"}

SCALE_CASES = [
    P11,
    ScenarioParams(lam=0.5, t_m=2.0, t_h=0.1),
    STOP,
    ScenarioParams(lam=2.0, t_m=1.0, t_h=0.05, p_s=0.5, t_s=1.0),
    ScenarioParams(lam=3.0, t_m=0.7, p_s=1.0, t_s=4.0),
]


class TestTimeUnit:
    """The report is exact under a change of time unit by a power of two."""

    @pytest.mark.parametrize("c", [2.0**-10, 2.0, 2.0**10])
    @pytest.mark.parametrize("p", SCALE_CASES, ids=repr)
    def test_report_scales_exactly(self, p, c):
        # (lam c, t_m / c, t_h / c, p_s, t_s / c) is p with time measured in
        # units of 1 / c: time fields are divided by c, the rest unchanged
        base = analytic.build_report(p)
        scaled = analytic.build_report(ScenarioParams(
            lam=p.lam * c, t_m=p.t_m / c, t_h=p.t_h / c, p_s=p.p_s, t_s=p.t_s / c))
        assert base.failures == scaled.failures == ()
        names = [f.name for f in fields(analytic.AnalyticReport)
                 if f.name not in ("params", "failures")]
        for name in names + _DERIVED:
            want = getattr(base, name)
            if name in _TIME_FIELDS:
                want /= c
            assert getattr(scaled, name) == want, name


def _mp_drift(p: ScenarioParams, dps: int = 50):
    """(delta, p_vertical_hat(1)) at dps digits, from the paper's forms.

    delta = p_s' - p_s with p_s' = a + (1 - a)(1 - pv) p_s, and the first
    level pv (1 - p_s a). The difference loses up to p_s lam t_s / ln 10
    digits, which the 50 working digits absorb for every case below.
    """
    with mpmath.workdps(dps):
        lam, t_m, p_s, t_s = (mpmath.mpf(x) for x in (p.lam, p.t_m, p.p_s, p.t_s))
        pv = mpmath.exp(-lam * t_m)
        a = 1 - mpmath.exp(-p_s * lam * t_s)
        return a + (1 - a) * (1 - pv) * p_s - p_s, pv * (1 - p_s * a)


DRIFT_CASES = [
    STOP,
    ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=0.01),     # delta < 0
    ScenarioParams(lam=1.0, t_m=1.0, p_s=1.0, t_s=20.0),
    ScenarioParams(lam=1.0, t_m=1.0, p_s=1.0, t_s=30.0),
    ScenarioParams(lam=1.0, t_m=1.0, p_s=0.9, t_s=20.0),
    ScenarioParams(lam=1.0, t_m=1.0, p_s=0.3, t_s=30.0),
    ScenarioParams(lam=0.49, t_m=0.0119, p_s=1.0, t_s=93.8),  # level 1 near e^-46
    ScenarioParams(lam=4.0, t_m=1.0, p_s=1.0, t_s=2.0),
    ScenarioParams(lam=1e-4, t_m=1.0, p_s=1.0, t_s=1.0),     # delta near -1
]


class TestDriftPrecision:
    """The drift and the first level against a 50-digit evaluation."""

    @pytest.mark.parametrize("p", DRIFT_CASES, ids=repr)
    def test_drift(self, p):
        want, _ = _mp_drift(p)
        assert abs(analytic.p_s_delta(p) - float(want)) <= 1e-13 * abs(float(want))

    @pytest.mark.parametrize("p", DRIFT_CASES, ids=repr)
    def test_first_level(self, p):
        _, want = _mp_drift(p)
        got = analytic.p_vertical_hat(p, 1)
        assert abs(got - float(want)) <= 1e-13 * float(want)


def _mp_stopping(p: ScenarioParams, dps: int = 60):
    """(series sum, limit level) at dps digits, from the paper's level form.

    Levels pv (1 - p_s a G_j), G_j = sum_{k<j} delta^k, are multiplied out
    until they sit within a relative 1e-30 of their limit
    pv (1 - p_s a / (1 - delta)), far below double precision, and the
    geometric tail of the remaining factors is then added as
    term (1 - limit) / limit; or until the terms, none of whose factors
    exceeds 1 - low, leave a rest below 1e-30 of the sum.
    The naive forms lose up to ~p_s lam t_s / ln 10 digits to cancellation,
    which the 60 working digits absorb for every case below.
    """
    with mpmath.workdps(dps):
        lam, t_m, p_s, t_s = (mpmath.mpf(x) for x in (p.lam, p.t_m, p.p_s, p.t_s))
        pv = mpmath.exp(-lam * t_m)
        a = 1 - mpmath.exp(-p_s * lam * t_s)
        delta = a + (1 - a) * (1 - pv) * p_s - p_s
        limit = pv * (1 - p_s * a / (1 - delta))
        total = mpmath.mpf(0)
        term = mpmath.mpf(1)
        geom = mpmath.mpf(0)
        low = min(pv * (1 - p_s * a), limit)  # the lowest level
        for _ in range(100_000):
            geom = 1 + delta * geom
            level = pv * (1 - p_s * a * geom)
            term *= 1 - level
            total += term
            if term * (1 - low) <= mpmath.mpf(10) ** -30 * low * total:
                return total, limit  # the rest is below 1e-30 of the sum
            if abs(level - limit) <= mpmath.mpf(10) ** -30 * limit:
                return total + term * (1 - limit) / limit, limit
        raise AssertionError("oracle did not converge")


CLOSURE_CASES = [
    *(ScenarioParams(lam=x, t_m=1.0, p_s=0.3, t_s=2.0)
      for x in (1e-6, 0.05, 1.0, 4.0, 8.0, 13.0, 40.0)),
    ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=0.01),   # delta < 0
    ScenarioParams(lam=3.0, t_m=0.5, p_s=0.5, t_s=0.01),   # delta < 0
    ScenarioParams(lam=1.0, t_m=1.0, p_s=0.0, t_s=2.0),    # p_s = 0
    ScenarioParams(lam=1.0, t_m=1.0, p_s=1.0, t_s=0.5),    # p_s = 1
    ScenarioParams(lam=4.0, t_m=1.0, p_s=1.0, t_s=2.0),    # p_s = 1
    ScenarioParams(lam=1.0, t_m=1.0, p_s=0.3, t_s=0.0),    # t_s = 0
    ScenarioParams(lam=1.0, t_m=1.0, p_s=0.01, t_s=500.0), # delta near 1
    ScenarioParams(lam=1.0, t_m=1.0, p_s=1e-4, t_s=1e5),   # delta nearer 1, terms decay
    ScenarioParams(lam=1e-4, t_m=1.0, p_s=1.0, t_s=1.0),   # delta near -1, terms decay
]


class TestStoppingClosure:
    """The closed stopping series against an independent 60-digit sum."""

    @pytest.mark.parametrize("p", CLOSURE_CASES, ids=repr)
    def test_series_matches_high_precision(self, p):
        want, _ = _mp_stopping(p)
        got = analytic.expected_handoffs_sm_stopping_sum(p)
        assert abs(got - float(want)) <= 1e-12 * float(want)

    @pytest.mark.parametrize("p", CLOSURE_CASES, ids=repr)
    def test_limit_level_matches_high_precision(self, p):
        _, want = _mp_stopping(p)
        got = analytic.p_vertical_hat_limit(p)
        assert abs(got - float(want)) <= 1e-14 * float(want)

    def test_cost_does_not_grow_with_rate(self):
        # bounded at large lam, and at small lam with p_s = 1, where delta
        # tends to -1 but the terms vanish fast
        cases = [ScenarioParams(lam=x, t_m=1.0, p_s=0.3, t_s=2.0)
                 for x in (1.0, 8.0, 40.0, 200.0)]
        cases += [ScenarioParams(lam=x, t_m=1.0, p_s=1.0, t_s=1.0) for x in (1e-3, 1e-6)]
        cases.append(ScenarioParams(lam=2.0, t_m=1.0, p_s=0.5, t_s=1.0))
        terms = [analytic.build_report(p).truncation_terms for p in cases]
        assert max(terms) < 150
        assert terms[0] > 0 and terms[-1] > 0

    def test_guard_refuses_before_summing(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=1e-5, t_s=1e7)
        with pytest.raises(analytic.SeriesGuardError):
            analytic.expected_handoffs_sm_stopping_sum(p)
        rep = analytic.build_report(p)
        assert math.isnan(rep.e_m_sm_stop_sum) and math.isnan(rep.truncation_terms)
        failed = dict(rep.failures)
        assert set(failed) == {"e_m_sm_stop_sum", "truncation_terms"}
        assert "guard" in failed["e_m_sm_stop_sum"]
        assert math.isfinite(rep.e_m_sm_stop_geo)


class TestSmallRate:
    def test_ratio_keeps_every_digit(self):
        got = analytic.ratio_t2_sc(ScenarioParams(lam=1e-9, t_m=1.0))
        assert abs(got - 9.999999995e-10) <= 1e-15 * 9.999999995e-10

    def test_handoff_count_keeps_every_digit(self):
        got = analytic.expected_handoffs_sm(ScenarioParams(lam=1e-9, t_m=1.0))
        assert abs(got - 1.0000000005e-9) <= 1e-15 * 1.0000000005e-9


class TestReportIsolation:
    def test_overflow_empties_only_the_quantities_that_need_it(self):
        rep = analytic.build_report(ScenarioParams(lam=800.0, t_m=1.0))
        failed = dict(rep.failures)
        assert {"e_m_sm", "e_m_sc", "e_t1_sc_closed", "e_m_sm_stop_sum"} <= set(failed)
        for name in failed:
            assert not math.isfinite(getattr(rep, name))
        assert rep.p_v == 0.0 and rep.e_tau1_sc == pytest.approx(1.0 - 1.0 / 800.0)
        assert "p_v" not in failed and "e_t1_sc" not in failed

    def test_dilog_route_names_its_underflow(self):
        rep = analytic.build_report(ScenarioParams(lam=1e-300, t_m=1e-300))
        failed = dict(rep.failures)
        assert "rounds to 0" in failed["e_t1_sc_closed"]
        assert "t1_closed_deviation" in failed
        assert rep.p_v == 1.0 and "p_v" not in failed

    def test_shared_values_match_the_public_functions(self):
        # the report evaluates each shared intermediate once; the values
        # must be bit-identical to the public functions that recompute it
        for p in (STOP, ScenarioParams(lam=0.5, t_m=2.0, t_h=0.1, p_s=0.5, t_s=1.0)):
            rep = analytic.build_report(p)
            assert rep.failures == ()
            assert rep.e_m_sc == analytic.expected_handoffs_sc(p)
            assert rep.e_unserved_per_handoff == analytic.expected_unserved_per_round(p, 1)
            assert rep.r2_sc == analytic.ratio_t2_sc(p)
            assert rep.e_m_sm_stop_geo == analytic.expected_handoffs_sm_stopping_geo(p)
            assert rep.a2_tilde == analytic.expected_t2_stopping(p)
            assert rep.r2_sm_stop == analytic.ratio_t2_sm_stopping(p)
            assert rep.e_m_sm_stop_sum == analytic.expected_handoffs_sm_stopping_sum(p)
