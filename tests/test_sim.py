import math

import numpy as np
import pytest
from scipy import stats

from relaylab import analytic
from relaylab.model import ScenarioParams, SimConfig, Strategy
from relaylab.sim import (
    ArrivalEvent,
    coupled_round,
    estimate_r2,
    simulate_many,
    simulate_round,
    trace_rounds,
    window_recursion_round,
)

P11 = ScenarioParams(lam=1.0, t_m=1.0)
STOP = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.3, t_s=2.0)
SM = Strategy.SM_SERVE_ALL
SC = Strategy.SC_LATEST_AT_EXPIRY


class TestArrivalEvent:
    def test_coverage_must_follow_arrival(self):
        with pytest.raises(ValueError):
            ArrivalEvent(time=1.0, stopping=False, coverage_end=1.0)
        with pytest.raises(ValueError):
            ArrivalEvent(time=1.0, stopping=False, coverage_end=0.5)

    def test_from_params_adds_dwell_for_stoppers(self):
        plain = ArrivalEvent.from_params(0.4, False, STOP)
        stop = ArrivalEvent.from_params(0.4, True, STOP)
        assert plain.coverage_end == pytest.approx(1.4)
        assert stop.coverage_end == pytest.approx(3.4)


class TestHandTraces:
    """Tiny arrival lists with outcomes checkable by hand."""

    def test_empty_round(self):
        for strat in (SM, SC):
            out = simulate_round(P11, strat, [])
            assert (out.m_handoffs, out.u_unserved, out.t2_duration) == (0, 0, 1.0)
            assert out.service_durations == ()
            assert out.first_service_offset is None
            assert out.first_gap_offset is None

    def test_two_arrivals_latest_at_expiry(self):
        out = simulate_round(P11, SC, [0.4, 0.9])
        assert out.m_handoffs == 1
        assert out.u_unserved == 1
        assert out.t2_duration == pytest.approx(1.9)
        assert out.service_durations == (1.0,)
        assert out.first_service_offset == pytest.approx(0.9)
        assert out.first_gap_offset is None

    def test_two_arrivals_serve_all(self):
        out = simulate_round(P11, SM, [0.4, 0.9])
        assert out.m_handoffs == 2
        assert out.u_unserved == 0
        assert out.t2_duration == pytest.approx(1.9)
        assert out.service_durations == pytest.approx((0.4, 0.5))
        assert out.first_service_offset == pytest.approx(0.4)
        assert out.first_gap_offset == pytest.approx(0.5)

    def test_three_arrivals_latest_at_expiry(self):
        out = simulate_round(P11, SC, [0.4, 0.9, 1.7])
        assert out.m_handoffs == 2
        assert out.u_unserved == 1
        assert out.t2_duration == pytest.approx(2.7)
        assert out.service_durations == pytest.approx((1.0, 0.9))
        assert out.first_gap_offset == pytest.approx(0.7)

    def test_three_arrivals_serve_all(self):
        out = simulate_round(P11, SM, [0.4, 0.9, 1.7])
        assert out.m_handoffs == 3
        assert out.u_unserved == 0
        assert out.t2_duration == pytest.approx(2.7)

    def test_five_arrivals_latest_at_expiry(self):
        out = simulate_round(P11, SC, [0.3, 0.8, 1.7, 2.4, 4.1])
        assert out.m_handoffs == 3
        assert out.u_unserved == 1
        assert out.t2_duration == pytest.approx(3.4)
        assert out.service_durations == pytest.approx((1.0, 0.8, 0.9))

    def test_five_arrivals_serve_all(self):
        out = simulate_round(P11, SM, [0.3, 0.8, 1.7, 2.4, 4.1])
        assert out.m_handoffs == 4
        assert out.u_unserved == 0
        assert out.t2_duration == pytest.approx(3.4)

    def test_stopping_relay_extends_ride(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=2.0)
        out = simulate_round(p, SM, [(0.5, True)])
        assert out.m_handoffs == 1
        assert out.u_unserved == 0
        assert out.t2_duration == pytest.approx(3.5)

    def test_stopping_carrier_extends_reach(self):
        # a stopping carrier can catch marked arrivals beyond the plain
        # window; the unmarked one at 1.5 is out of reach and is lost
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=2.0)
        out = simulate_round(
            p, SM, [(1.5, False), (2.5, True)], c0_stopping=True
        )
        assert out.m_handoffs == 1
        assert out.u_unserved == 1
        assert out.t2_duration == pytest.approx(5.5)

    def test_unmarked_carrier_has_plain_reach(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=2.0)
        out = simulate_round(p, SM, [(2.5, True)], c0_stopping=False)
        assert out.m_handoffs == 0
        assert out.t2_duration == pytest.approx(1.0)

    def test_recorded_idle_gap(self):
        out = simulate_round(P11, SC, [0.4], t1_duration=2.5)
        assert out.t1_duration == 2.5


class TestInjectedValidation:
    @pytest.mark.parametrize(
        "times", [[0.0, 0.5], [-0.1], [0.5, 0.5], [0.9, 0.4]]
    )
    def test_bad_orderings_rejected(self, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_round(P11, SC, times)

    def test_mixed_injected_forms(self):
        events = [
            0.3,
            (0.8, False),
            ArrivalEvent.from_params(1.7, False, P11),
        ]
        out = simulate_round(P11, SM, events)
        assert out.m_handoffs == 3


class TestTraces:
    def test_latest_at_expiry_trace_fields(self):
        out = simulate_round(P11, SC, [0.4, 0.9, 1.7], collect_trace=True)
        assert out.trace is not None
        steps = out.trace
        # two boardings plus the final failed decision
        assert len(steps) == 3
        s1, s2, s3 = steps
        assert (s1.k, s1.arrival_count) == (1, 2)
        assert s1.window_length == pytest.approx(1.0)
        assert s1.max_offset == pytest.approx(0.9)
        assert s1.boarded_arrival_time == pytest.approx(0.9)
        assert (s2.k, s2.arrival_count) == (2, 1)
        assert s2.window_length == pytest.approx(0.9)
        assert s2.boarded_arrival_time == pytest.approx(1.7)
        assert (s3.k, s3.arrival_count) == (3, 0)
        assert s3.max_offset is None and s3.boarded_arrival_time is None

    def test_trace_omitted_by_default(self):
        assert simulate_round(P11, SC, [0.4]).trace is None

    def test_window_recursion_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            out = window_recursion_round(P11, rng, collect_trace=True)
            windows = [s.window_length for s in out.trace]
            assert all(0.0 < w <= P11.t_m + 1e-12 for w in windows)
            # chain rule: next window = t_m - window + boarded offset
            for s, nxt in zip(out.trace, out.trace[1:]):
                assert 0.0 < s.max_offset <= s.window_length + 1e-12
                want = P11.t_m - s.window_length + s.max_offset
                assert nxt.window_length == pytest.approx(want, abs=1e-12)
            assert out.t2_duration == pytest.approx(sum(windows), abs=1e-9)
            assert out.trace[-1].arrival_count == 0

    def test_event_walk_trace_obeys_same_recursion(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            out = simulate_round(P11, SC, rng, collect_trace=True)
            for s, nxt in zip(out.trace, out.trace[1:]):
                want = P11.t_m - s.window_length + s.max_offset
                assert nxt.window_length == pytest.approx(want, abs=1e-12)


class TestConservation:
    def test_served_time_decomposition(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            out = simulate_round(P11, SC, rng)
            tail = out.t2_duration - math.fsum(out.service_durations)
            assert 0.0 < tail <= P11.t_m + 1e-12
            assert len(out.service_durations) == out.m_handoffs

    def test_serve_all_tail_is_full_window(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            out = simulate_round(P11, SM, rng)
            tail = out.t2_duration - math.fsum(out.service_durations)
            assert tail == pytest.approx(P11.t_m, abs=1e-12)
            assert out.u_unserved == 0

    def test_stopping_walk_counts_every_arrival_in_coverage(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            out = simulate_round(STOP, SM, rng)
            assert out.m_handoffs >= 0 and out.u_unserved >= 0
            assert out.t2_duration >= STOP.t_m


class TestCoupledRounds:
    def test_pathwise_identities(self):
        rng = np.random.default_rng(314)
        for _ in range(10_000):
            sm_out, sc_out = coupled_round(P11, rng)
            assert sm_out.m_handoffs == sc_out.m_handoffs + sc_out.u_unserved
            assert abs(sm_out.t2_duration - sc_out.t2_duration) <= 1e-9
            assert sm_out.t1_duration == sc_out.t1_duration

    def test_stopping_scenario_rejected(self):
        with pytest.raises(ValueError):
            coupled_round(STOP, np.random.default_rng(1))


class TestStatistics:
    """Frozen-seed Monte Carlo runs against the exact closed forms, 4 SE."""

    def _z(self, mc, target):
        return abs(mc.mean - target) / mc.std_error

    def test_latest_at_expiry_exact_quantities(self):
        s = simulate_many(P11, SC, SimConfig(rounds=60_000, seed=20260825))
        assert self._z(s.first_service_offset, 0.581976706869326) < 4.0
        assert self._z(s.first_gap_offset, 0.392211191177333) < 4.0
        assert self._z(s.p_vertical, math.exp(-1.0)) < 4.0
        assert self._z(s.t1_duration, 1.0) < 4.0
        assert self._z(s.t2_duration, math.e - 1.0) < 4.0
        assert s.rounds == 60_000
        assert s.seed == 20260825
        assert not s.experimental

    def test_serve_all_exact_quantities(self):
        s = simulate_many(P11, SM, SimConfig(rounds=60_000, seed=31337))
        gap_mean = 0.418023293130674
        assert self._z(s.first_service_offset, gap_mean) < 4.0
        assert self._z(s.first_gap_offset, gap_mean) < 4.0
        assert self._z(s.m_handoffs, math.e - 1.0) < 4.0
        assert s.u_unserved.mean == 0.0
        r2_z = abs(s.r2_estimate - (1.0 - math.exp(-1.0))) / s.r2_std_error
        assert r2_z < 4.0

    def test_stopping_no_relay_probability(self):
        s = simulate_many(STOP, SM, SimConfig(rounds=60_000, seed=777))
        assert self._z(s.p_vertical, analytic.p_vertical_hat(STOP, 1)) < 4.0
        assert self._z(s.t1_duration, 1.0) < 4.0

    def test_window_recursion_distribution_moments(self):
        rng = np.random.default_rng(99)
        n = 40_000
        t2 = np.empty(n)
        empty = 0
        for idx in range(n):
            out = window_recursion_round(P11, rng)
            t2[idx] = out.t2_duration
            empty += out.m_handoffs == 0
        se = t2.std(ddof=1) / math.sqrt(n)
        assert abs(t2.mean() - (math.e - 1.0)) < 4.0 * se
        p = empty / n
        se_p = math.sqrt(p * (1.0 - p) / n)
        assert abs(p - math.exp(-1.0)) < 4.0 * se_p

    def test_zero_dwell_matches_plain_model_in_distribution(self):
        # p_s > 0 with t_s = 0 must be the plain process; compare whole
        # distributions, not just means
        zero_dwell = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=0.0)
        a = trace_rounds(P11, SM, SimConfig(rounds=20_000, seed=4242))
        b = trace_rounds(zero_dwell, SM, SimConfig(rounds=20_000, seed=2424))
        t2a = np.array([o.t2_duration for o in a])
        t2b = np.array([o.t2_duration for o in b])
        assert stats.ks_2samp(t2a, t2b).pvalue > 0.01
        ma = np.array([o.m_handoffs for o in a])
        mb = np.array([o.m_handoffs for o in b])
        cap = 8
        table = np.vstack(
            [
                np.bincount(np.minimum(ma, cap), minlength=cap + 1),
                np.bincount(np.minimum(mb, cap), minlength=cap + 1),
            ]
        )
        assert stats.chi2_contingency(table).pvalue > 0.01


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        cfg1 = SimConfig(rounds=10_000, seed=5150, worker_hint=1)
        cfg3 = SimConfig(rounds=10_000, seed=5150, worker_hint=3)
        a = simulate_many(P11, SC, cfg1)
        b = simulate_many(P11, SC, cfg3)
        assert a == b

    def test_same_seed_reproduces(self):
        cfg = SimConfig(rounds=5_000, seed=606)
        assert simulate_many(P11, SM, cfg) == simulate_many(P11, SM, cfg)

    def test_different_seeds_differ(self):
        a = simulate_many(P11, SM, SimConfig(rounds=5_000, seed=1))
        b = simulate_many(P11, SM, SimConfig(rounds=5_000, seed=2))
        assert a.m_handoffs.mean != b.m_handoffs.mean

    def test_trace_rounds_reproduces(self):
        cfg = SimConfig(rounds=50, seed=88)
        a = trace_rounds(P11, SC, cfg)
        b = trace_rounds(P11, SC, cfg)
        assert a == b
        assert a[0].trace is not None


class TestTraceReplay:
    """trace_rounds replays simulate_many's rounds, across block boundaries."""

    ROUNDS = 5_000  # two blocks
    BLOCK = 4096  # simulate_many's block size

    def _block_order_mean(self, values):
        # sum each block in round order, then merge the block sums in block
        # order, as simulate_many does
        total = 0.0
        for start in range(0, len(values), self.BLOCK):
            block = 0.0
            for v in values[start:start + self.BLOCK]:
                block += v
            total += block
        return total / len(values)

    @pytest.mark.parametrize("strategy", [SM, SC])
    @pytest.mark.parametrize(
        "params",
        [STOP, ScenarioParams(lam=1.0, t_m=1.0, p_s=0.3, t_s=0.0),
         ScenarioParams(lam=2.0, t_m=1.0, t_h=0.05)],
        ids=["ps-ts2", "ps-ts0", "plain"],
    )
    def test_traced_rounds_are_the_estimated_rounds(self, params, strategy):
        cfg = SimConfig(rounds=self.ROUNDS, seed=31)
        s = simulate_many(params, strategy, cfg)
        traced = trace_rounds(params, strategy, cfg)
        n = len(traced)
        assert n == self.ROUNDS
        assert sum(o.m_handoffs for o in traced) / n == s.m_handoffs.mean
        assert sum(o.m_handoffs == 0 for o in traced) / n == s.p_vertical.mean
        assert self._block_order_mean([o.t2_duration for o in traced]) == s.t2_duration.mean
        assert all(o.trace is not None for o in traced)


class TestScaleInvariance:
    """Scaling rate by c and every time by 1/c rescales the estimates exactly.

    For c a power of two every drawn gap, comparison and sum scales without
    rounding, so counts and the ratio r2 are bit-identical and every time
    mean and standard error is the c = 1 value divided by c.
    """

    COUNTS = ("p_vertical", "m_handoffs", "u_unserved")
    TIMES = ("first_service_offset", "first_gap_offset", "t2_duration", "t1_duration")

    @pytest.mark.parametrize("strategy", [SM, SC])
    @pytest.mark.parametrize(
        "lam, t_m, t_h, p_s, t_s",
        [(1.0, 1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.3, 0.3, 2.0),
         (2.0, 1.0, 0.05, 0.5, 1.0), (0.5, 2.0, 0.1, 0.0, 0.0)],
    )
    def test_bit_exact_rescaling(self, lam, t_m, t_h, p_s, t_s, strategy):
        cfg = SimConfig(rounds=5_000, seed=9)
        base = simulate_many(ScenarioParams(lam, t_m, t_h, p_s, t_s), strategy, cfg)
        for c in (2.0**-10, 2.0, 2.0**10):
            p = ScenarioParams(lam * c, t_m / c, t_h / c, p_s, t_s / c)
            s = simulate_many(p, strategy, cfg)
            for name in self.COUNTS:
                assert getattr(s, name) == getattr(base, name), (c, name)
            assert (s.r2_estimate, s.r2_std_error) == (base.r2_estimate, base.r2_std_error)
            for name in self.TIMES:
                got, want = getattr(s, name), getattr(base, name)
                assert got.n == want.n
                assert got.mean == want.mean / c, (c, name)
                assert got.std_error == want.std_error / c, (c, name)
                assert got.ci95_half_width == want.ci95_half_width / c, (c, name)


class TestRatioEstimate:
    def test_single_round_totals(self):
        out = simulate_round(
            ScenarioParams(lam=1.0, t_m=1.0, t_h=0.05), SM, [0.4, 0.9], t1_duration=0.3
        )
        got = estimate_r2([out], ScenarioParams(lam=1.0, t_m=1.0, t_h=0.05))
        assert got == pytest.approx((1.9 - 0.05 * 2) / 2.2, rel=1e-12)

    def test_ratio_of_totals_not_mean_of_ratios(self):
        p = ScenarioParams(lam=1.0, t_m=1.0, t_h=0.1)
        rng = np.random.default_rng(17)
        outs = [simulate_round(p, SC, rng) for _ in range(200)]
        got = estimate_r2(outs, p)
        num = math.fsum(o.t2_duration - 0.1 * o.m_handoffs for o in outs)
        den = math.fsum(o.t1_duration + o.t2_duration for o in outs)
        assert got == pytest.approx(num / den, rel=1e-12)

    def test_summary_reaccounting_under_new_cost(self):
        s = simulate_many(P11, SC, SimConfig(rounds=20_000, seed=10))
        base = estimate_r2(s, P11)
        assert base == pytest.approx(s.r2_estimate, rel=1e-9)
        costly = ScenarioParams(lam=1.0, t_m=1.0, t_h=0.05)
        assert estimate_r2(s, costly) < base

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            estimate_r2([], P11)

    def test_summary_ratio_bounded(self):
        s = simulate_many(P11, SC, SimConfig(rounds=5_000, seed=3))
        assert s.r2_estimate <= 1.0
        assert math.isfinite(s.r2_std_error)


class TestExperimentalCombination:
    def test_flagged_and_runs(self):
        s = simulate_many(STOP, SC, SimConfig(rounds=2_000, seed=44))
        assert s.experimental
        assert s.m_handoffs.mean > 0.0

    def test_picks_latest_arrival_among_candidates(self):
        # at the first expiry (3.0, stopping carrier) both arrivals are still
        # in range by their own dwell; the walk joins the latest-arrived one
        # (2.8), not the one with the most remaining dwell (2.5, marked)
        p = ScenarioParams(lam=1.0, t_m=1.0, p_s=0.5, t_s=2.0)
        out = simulate_round(p, SC, [(2.5, True), (2.8, False)], c0_stopping=True)
        assert out.m_handoffs >= 1
        assert out.first_service_offset == pytest.approx(2.8)
