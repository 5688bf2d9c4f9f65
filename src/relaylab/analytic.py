"""Closed forms for relay-handoff rounds under both strategies.

Quantities for the latest-at-expiry policy (``Strategy.SC_LATEST_AT_EXPIRY``):
vertical-handoff probability, first-window statistics, handoff and unserved
counts, and the served-time ratio. Quantities for the serve-all policy
(``Strategy.SM_SERVE_ALL``) additionally cover stopping vehicles through the
effective-stop-probability chain, the expectation series for the handoff
count (summed in closed form), per-ride service means, and the served-time
ratio.

Two kinds of results live here side by side and the comparison harness keeps
them apart: exact results (they gate hard against simulation) and
approximations (reported with their error, never gated). Docstrings say
which is which.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

from .model import ScenarioParams
from .numerics import QuadratureError, cond_max_mean, dilog, integrate, trunc_mean

_PI2_6 = math.pi * math.pi / 6.0
_EPS = sys.float_info.epsilon

# Most explicit terms the stopping series may sum. The sum stops at the
# first of two counts (ln(1 / eps) is about 36): the factors reach their
# limit to float precision after about 36 / (1 - |delta|) of them, and the
# terms fall below float precision of the sum after about 36 / p_low, p_low
# the lowest level. Both pass the guard only when 1 - |delta| and p_low are
# both below about 4e-4, for example p_s = 1e-5 with p_s lam t_s = 100.
SERIES_TERM_GUARD = 100_000

DEFAULT_QUAD_TOL = 1e-9


class SeriesGuardError(ArithmeticError):
    """The stopping series would need more than SERIES_TERM_GUARD explicit terms."""


# ---------------------------------------------------------------------------
# plain scenario, latest-at-expiry policy
# ---------------------------------------------------------------------------

def p_vertical(params: ScenarioParams) -> float:
    """Probability a round ends with no handoff at all (exact).

    The first coverage window of length t_m is empty of arrivals with
    probability e^(-lam t_m); the round then falls back to the fixed
    infrastructure.
    """
    return math.exp(-params.lam * params.t_m)


def expected_tau1_sc(params: ScenarioParams) -> float:
    """Mean arrival offset of the first handoff target (exact).

    Given at least one arrival in the first window (0, t_m], the target is
    the latest arrival; its offset has mean
    (lam t_m - (1 - e^(-lam t_m))) / (lam (1 - e^(-lam t_m))),
    always inside (t_m / 2, t_m).
    """
    return cond_max_mean(params.lam * params.t_m) / params.lam


def _pdf_tau1(s: float, params: ScenarioParams) -> float:
    # lam e^(lam s) / (e^(lam t_m) - 1), written to stay finite for large lam*t_m
    lam = params.lam
    return lam * math.exp(lam * (s - params.t_m)) / -math.expm1(-lam * params.t_m)


def pdf_tau1_sc(s: float, params: ScenarioParams) -> float:
    """Density of the first target's arrival offset on (0, t_m] (exact).

    Raises:
        ValueError: outside the support (0, t_m].
    """
    if not 0.0 < s <= params.t_m:
        raise ValueError(f"s must lie in (0, t_m] = (0, {params.t_m}], got {s!r}")
    return _pdf_tau1(s, params)


def expected_t_given_tau(s: float, params: ScenarioParams) -> float:
    """Mean offset of the latest arrival in a follow-up window of length s (exact).

    Same functional form as expected_tau1_sc with the window t_m replaced by
    s: (lam s - (1 - e^(-lam s))) / (lam (1 - e^(-lam s))).

    Raises:
        ValueError: outside (0, t_m].
    """
    if not 0.0 < s <= params.t_m:
        raise ValueError(f"s must lie in (0, t_m] = (0, {params.t_m}], got {s!r}")
    return cond_max_mean(params.lam * s) / params.lam


def expected_t1_sc(
    params: ScenarioParams,
    method: str = "quadrature",
    tol: float = DEFAULT_QUAD_TOL,
) -> float:
    """Mean second-window offset, averaged over the first window (approximation).

    This composes the conditional mean of the second-window maximum with the
    density of the first one:

        integral over (0, t_m] of expected_t_given_tau(s) * pdf_tau1_sc(s) ds

    ``method="quadrature"`` evaluates that integral directly and is the
    ground truth for every downstream consumer. ``tol`` is relative to the
    window: the absolute target is tol * t_m, so (lam c, t_m / c) gives the
    result divided by c. ``method="closed_form"`` evaluates the equivalent
    dilogarithm expression on the principal branch and returns its real
    part; use build_report to see the (tiny) deviation between the two
    routes.

    Note the composition ignores that larger first windows are more likely
    to contain a second arrival at all, so it sits below the simulated
    conditional mean; the comparison harness reports that gap rather than
    asserting it away.

    The lam -> 0+ limit is t_m / 4.

    Raises:
        ValueError: on an unknown method.
        ZeroDivisionError: closed_form, when e^(lam t_m) rounds to 1.
        OverflowError: closed_form, when e^(lam t_m) exceeds the float range.
        QuadratureError: quadrature, when it cannot converge.
    """
    lam, t_m = params.lam, params.t_m
    if method == "quadrature":
        def integrand(s: float) -> float:
            return _pdf_tau1(s, params) * cond_max_mean(lam * s) / lam

        # tol * t_m underflows to 0 only below t_m ~ 5e-315; keep it positive
        return integrate(integrand, 0.0, t_m, max(tol * t_m, math.ulp(0.0)))
    if method == "closed_form":
        x = lam * t_m
        big = math.exp(x)
        if big == 1.0:
            raise ZeroDivisionError(
                f"closed form divides by e^(lam t_m) - 1, which rounds to 0 at lam t_m = {x!r}")
        bracket = (
            dilog(big)
            - _PI2_6
            + 1.0
            + big * (x - 1.0)
            + x * cmath.log(complex(1.0 - big, 0.0))
        )
        value = bracket / (lam * (big - 1.0)) - 1.0 / lam
        return value.real
    raise ValueError(f"method must be 'quadrature' or 'closed_form', got {method!r}")


def expected_handoffs_sm(params: ScenarioParams) -> float:
    """Mean handoff count per round under serve-all, no stopping (exact).

    The handoff count is geometric with success probability p_vertical, so
    the mean is (1 - P_V) / P_V = e^(lam t_m) - 1, evaluated with expm1 so
    small lam t_m keeps every digit.

    Raises:
        OverflowError: lam t_m beyond the float range (about 709.8).
    """
    return math.expm1(params.lam * params.t_m)


def _window_pair(params: ScenarioParams) -> float:
    # E[tau1] + E[t1], the mean first-window pair the sc approximations share
    return expected_tau1_sc(params) + expected_t1_sc(params)


def expected_unserved_per_round(params: ScenarioParams, n: int) -> float:
    """Mean count of relays never ridden, given n handoffs (approximation).

    Skipped relays accumulate at rate lam over windows whose mean length is
    (E[tau1] + E[t1]) / 2 per handoff: n * lam * (E[tau1] + E[t1]) / 2.

    Raises:
        ValueError: n < 0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    return _unserved(params, n, _window_pair(params))


def _unserved(params: ScenarioParams, n: int, pair: float) -> float:
    return n * params.lam * pair / 2.0


def expected_handoffs_sc(params: ScenarioParams) -> float:
    """Mean handoff count per round under latest-at-expiry (approximation).

    2 E[M_serve_all] / (lam (E[tau1] + E[t1]) + 2); never exceeds the
    serve-all count.
    """
    return _handoffs_sc(params, _window_pair(params))


def _handoffs_sc(params: ScenarioParams, pair: float) -> float:
    return 2.0 * expected_handoffs_sm(params) / (params.lam * pair + 2.0)


def ratio_t2_sc(params: ScenarioParams) -> float:
    """Fraction of a cycle spent served under latest-at-expiry.

    (1 - P_V) - 2 (1 - P_V) t_h / (E[tau1] + E[t1] + 2 / lam), with
    1 - P_V evaluated by expm1.

    Exact at t_h = 0, where it reduces to 1 - P_V; an approximation
    otherwise. Large t_h can push the raw value negative; callers that need
    a flag should use build_report.
    """
    return _ratio_t2_sc(params, lambda: _window_pair(params))


def _ratio_t2_sc(params: ScenarioParams, pair) -> float:
    # pair() gives E[tau1] + E[t1]; it is only called when t_h > 0
    base = -math.expm1(-params.lam * params.t_m)
    if params.t_h == 0.0:
        return base
    return base - 2.0 * base * params.t_h / (pair() + 2.0 / params.lam)


# ---------------------------------------------------------------------------
# stopping scenario, serve-all policy
# ---------------------------------------------------------------------------

def p_s_prime(params: ScenarioParams) -> float:
    """Effective stop probability of the next ridden relay (approximation).

    (1 - e^(-p_s lam t_s)) + e^(-p_s lam t_s) (1 - e^(-lam t_m)) p_s:
    either a stopping relay arrives during the extra dwell window, or a
    relay caught in the regular window happens to stop itself.
    """
    a = -math.expm1(-params.p_s * params.lam * params.t_s)
    q = 1.0 - a
    return a + q * -math.expm1(-params.lam * params.t_m) * params.p_s


def p_s_delta(params: ScenarioParams) -> float:
    """Drift of the effective stop probability, p_s_prime - p_s.

    Evaluated as (1 - p_s) a - p_s q e^(-lam t_m), with q = e^(-p_s lam t_s)
    and a = 1 - q by expm1, which keeps the digits the difference loses to
    cancellation (all of them at p_s = 1 and large p_s lam t_s). Negative
    when the second term wins, for instance at small t_s; always in (-1, 1).
    """
    x = params.p_s * params.lam * params.t_s
    return ((1.0 - params.p_s) * -math.expm1(-x)
            - params.p_s * math.exp(-x) * p_vertical(params))


def _geom_sum(delta: float, terms: int) -> float:
    # sum_{k=0}^{terms-1} delta^k; delta < 1 for every valid scenario
    if terms <= 0:
        return 0.0
    if delta == 0.0:
        return 1.0
    return (1.0 - delta**terms) / (1.0 - delta)


def p_s_prime_seq(params: ScenarioParams, j: int) -> float:
    """Effective stop probability after j handoffs (approximation).

    p_s * (1 - delta^(j+1)) / (1 - delta) for j >= 0; equals p_s at j = 0
    and converges to p_s / (1 - delta).

    Raises:
        ValueError: j < 0.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j!r}")
    return params.p_s * _geom_sum(p_s_delta(params), j + 1)


def _level_weights(params: ScenarioParams) -> tuple[float, float, float]:
    """(pv, w, v) with p_vertical_hat(j) = pv (w + v delta^j) / (w + v).

    w = q (1 + p_s pv) and v = p_s a, where q = e^(-p_s lam t_s) and
    a = 1 - q, so that w + v = 1 - delta. Both are sums of non-negative
    terms: neither 1 - delta nor the limit level loses digits to
    cancellation, however large lam t_m or p_s lam t_s get.
    """
    pv = p_vertical(params)
    x = params.p_s * params.lam * params.t_s
    return pv, math.exp(-x) * (1.0 + params.p_s * pv), params.p_s * -math.expm1(-x)


def p_vertical_hat(params: ScenarioParams, j: int) -> float:
    """No-catchable-relay probability at the j-th ride (j = 1 exact, j >= 2 approximation).

    e^(-lam t_m) [1 - p_s (1 - e^(-p_s lam t_s)) (1 - delta^j) / (1 - delta)],
    evaluated as p_vertical_hat_limit + c delta^j with
    c = e^(-lam t_m) p_s (1 - e^(-p_s lam t_s)) / (1 - delta). Reduces to
    e^(-lam t_m) exactly when p_s = 0 or t_s = 0. Monotone non-increasing
    in j whenever delta >= 0 (not in general).

    Raises:
        ValueError: j < 1.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j!r}")
    pv, w, v = _level_weights(params)
    return pv * (w / (w + v)) + pv * (v / (w + v)) * p_s_delta(params) ** j


def p_vertical_hat_limit(params: ScenarioParams) -> float:
    """Large-j limit of p_vertical_hat.

    e^(-lam t_m) e^(-p_s lam t_s) (1 + p_s e^(-lam t_m)) / (1 - delta), the
    paper's e^(-lam t_m) (1 - p_s (1 - e^(-p_s lam t_s)) / (1 - delta))
    rearranged so that no digit cancels.
    """
    pv, w, v = _level_weights(params)
    return pv * (w / (w + v))


def _terms_to_limit(params: ScenarioParams, pv: float, w: float, v: float,
                    e: float, delta: float) -> int:
    """Explicit factors after which every factor is 1 - p_inf to float precision.

    Factor j of the series is (1 - p_inf) - c delta^j. Replacing every
    factor past n by 1 - p_inf moves the sum by a relative
    sum_{j>n} |c delta^j| / (1 - p_inf) at most, so this is the least n
    that puts the bound below float precision. 1 - |delta| is w + v, or
    (1 - p_s) + p_s_prime when delta < 0, both free of cancellation.
    """
    if v == 0.0 or delta == 0.0:
        return 0
    gap = w + v if delta > 0.0 else (1.0 - params.p_s) + p_s_prime(params)
    rel = pv * v / (w * e + v)  # |c| / (1 - p_inf)
    if rel * abs(delta) <= _EPS * gap:
        return 0
    need = (math.log(_EPS) + math.log(gap) - math.log(rel)) / math.log1p(-gap)
    return max(0, math.ceil(need) - 1)


def _terms_to_decay(low: float) -> float:
    """Explicit terms after which the rest of the sum is below its float precision.

    No factor exceeds r = 1 - low, low being the lowest level, so the terms
    past m add at most term_m r / low, and term_m <= term_1 r^(m-1) while
    the sum is at least term_1. That rest is below float precision of the
    sum once r^m <= eps low.
    """
    if low <= 0.0:
        return math.inf
    if low >= 1.0:
        return 1
    return math.ceil((math.log(_EPS) + math.log(low)) / math.log1p(-low))


def _stopping_sum(params: ScenarioParams) -> tuple[float, int]:
    pv, w, v = _level_weights(params)
    delta = p_s_delta(params)
    e = -math.expm1(-params.lam * params.t_m)  # 1 - pv
    if not pv * w > 0.0:  # underflowed to 0, or NaN from a NaN level
        raise OverflowError("stopping series has no finite sum: "
                            f"its limit level is {pv * w!r}")
    # the lowest level: the limit when delta >= 0, else the first level
    # pv (1 - p_s a), written as pv ((1 - p_s) + p_s q)
    q = math.exp(-params.p_s * params.lam * params.t_s)
    low = min(pv * (w / (w + v)), pv * ((1.0 - params.p_s) + params.p_s * q))
    n = min(_terms_to_limit(params, pv, w, v, e, delta), _terms_to_decay(low))
    if n > SERIES_TERM_GUARD:
        raise SeriesGuardError(
            f"stopping series needs about {n:.3g} explicit terms "
            f"(delta = {delta!r}, lowest level = {low!r}); the guard is {SERIES_TERM_GUARD}"
        )
    r = 1.0 - low
    total = 0.0
    term = 1.0
    power = 1.0
    for k in range(1, n + 1):
        power *= delta
        term *= (w * e + v * (1.0 - pv * power)) / (w + v)  # 1 - p_vertical_hat(k)
        total += term
        if term * r <= _EPS * low * total:
            return total, k  # the rest is below float precision of the sum
    # every later factor is 1 - p_inf: a geometric tail, summed exactly
    return total + term * ((w * e + v) / (pv * w)), n


def expected_handoffs_sm_stopping_sum(params: ScenarioParams) -> float:
    """Mean handoff count with stopping relays, series route (approximation).

    sum over m >= 0 of prod_{j=1}^{m+1} (1 - p_vertical_hat(j)). The levels
    approach their limit p_inf like delta^j, so the first n factors are
    multiplied out explicitly, n being the least count past which every
    factor equals 1 - p_inf to float precision, and the rest is the
    geometric tail term_n (1 - p_inf) / p_inf, added exactly. The sum stops
    sooner, with no tail, once its terms fall below float precision of the
    total. The explicit count (the report's truncation_terms) does not grow
    with lam.

    Raises:
        SeriesGuardError: more than SERIES_TERM_GUARD explicit terms would
            be needed (1 - |delta| and the lowest level both below about
            4e-4).
        OverflowError: the sum exceeds the float range.
    """
    return _stopping_sum(params)[0]


def expected_handoffs_sm_stopping_geo(params: ScenarioParams) -> float:
    """Mean handoff count with stopping relays, geometric shortcut (approximation).

    (1 - p_vertical_hat(1)) / p_vertical_hat(2): first ride survives with
    its own probability, later rides are approximated by the j = 2 level.
    Stays within a couple percent of the series route and reduces to
    e^(lam t_m) - 1 exactly at p_s = 0.
    """
    return (1.0 - p_vertical_hat(params, 1)) / p_vertical_hat(params, 2)


def expected_service_sm_stopping(params: ScenarioParams, j: int) -> float:
    """Mean duration of the j-th ride under serve-all (approximation).

    Three truncated-exponential terms, one per way the ride can end early:

        (1 - P'_(j-1))                    * trunc_mean(p_s lam t_m)
      + (1 - P'_(j-1) delta / (1 - p_s)) * trunc_mean((1 - p_s) lam t_m)
      + p_s_prime * G_(j-1)              * trunc_mean(p_s lam (t_m + t_s))

    with P'_(j-1) = p_s_prime_seq(j - 1) and G_(j-1) the geometric partial
    sum of delta with j terms (so the third weight avoids the 0/0 at
    p_s = 0). The weights are taken as written even though they are not a
    probability decomposition (the middle one can exceed 1). A term whose
    truncation point is zero contributes nothing, which keeps p_s = 1 from
    dividing by zero. Reduces to trunc_mean(lam t_m) at p_s = 0.

    Raises:
        ValueError: j < 1.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j!r}")
    lam, t_m, p_s, t_s = params.lam, params.t_m, params.p_s, params.t_s
    delta = p_s_delta(params)
    seq_prev = params.p_s * _geom_sum(delta, j)  # p_s_prime_seq(j - 1)
    total = 0.0
    x1 = p_s * lam * t_m
    if x1 > 0.0:
        total += (1.0 - seq_prev) * trunc_mean(x1, lam)
    x2 = (1.0 - p_s) * lam * t_m
    if x2 > 0.0:
        total += (1.0 - seq_prev * delta / (1.0 - p_s)) * trunc_mean(x2, lam)
    x3 = p_s * lam * (t_m + t_s)
    if x3 > 0.0:
        total += p_s_prime(params) * _geom_sum(delta, j) * trunc_mean(x3, lam)
    return total


def expected_t2_stopping(params: ScenarioParams) -> float:
    """Mean served duration of a round under serve-all (approximation).

    t_m + p_s t_s + E[M'] (ride_mean(1) + ride_mean(2)) / 2, with E[M'] the
    geometric shortcut. Exact at p_s = 0, where it collapses to the
    renewal identity (1 - P_V) / (lam P_V).
    """
    return _t2_stopping(params, expected_handoffs_sm_stopping_geo(params),
                        expected_service_sm_stopping(params, 1),
                        expected_service_sm_stopping(params, 2))


def _t2_stopping(params: ScenarioParams, geo: float, ride1: float, ride2: float) -> float:
    return params.t_m + params.p_s * params.t_s + geo * (ride1 + ride2) / 2.0


def ratio_t2_sm_stopping(params: ScenarioParams) -> float:
    """Fraction of a cycle spent served under serve-all.

    (A2 - t_h E[M']) / (1 / lam + A2) with A2 = expected_t2_stopping.
    Exact for p_s = 0 at any t_h (and then equal to 1 - P_V when t_h = 0);
    an approximation when stopping is active. Large t_h can push it
    negative; build_report carries the flag.
    """
    return _ratio_t2_sm_stopping(params, expected_t2_stopping(params),
                                 expected_handoffs_sm_stopping_geo(params))


def _ratio_t2_sm_stopping(params: ScenarioParams, a2: float, geo: float) -> float:
    return (a2 - params.t_h * geo) / (1.0 / params.lam + a2)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _emitted(method: str):
    # a report field that the `analytic` command emits as one row with `method`
    return field(metadata={"method": method})


@dataclass(frozen=True)
class AnalyticReport:
    """Every closed-form quantity for one scenario.

    Field order is the row order of the ``analytic`` command. It emits only
    the fields whose ``dataclasses.field`` metadata names a "method".
    ``e_t1_sc`` is the quadrature route, the ground truth, and
    ``e_t1_sc_closed`` the dilogarithm route; ``t1_closed_deviation`` is
    |closed_form - quadrature| so the two routes can be audited without
    re-deriving either. ``r2_*_negative`` flag ratios that came out below
    zero (physically meaningless, numerically possible for large t_h).
    ``truncation_terms`` counts the factors of the stopping series
    multiplied out before its exact geometric tail. ``failures`` pairs each
    field that could not be evaluated (NaN, or a non-finite value) with the
    reason. Four quantities only the comparison harness reads are
    properties, derived on access: ``e_idle_gap`` (1 / lam), ``e_t2_sc``,
    ``e_unserved_sc`` and ``e_unserved_sm``.
    """

    params: ScenarioParams
    p_v: float = _emitted("closed_form")
    e_tau1_sc: float = _emitted("closed_form")
    e_t1_sc: float = _emitted("quadrature")
    e_t1_sc_closed: float = _emitted("closed_form")
    t1_closed_deviation: float = _emitted("")
    e_m_sm: float = _emitted("closed_form")
    e_m_sc: float = _emitted("closed_form")
    e_unserved_per_handoff: float = _emitted("closed_form")
    r2_sc: float = _emitted("closed_form")
    r2_sc_negative: bool
    p_s_prime: float = _emitted("closed_form")
    delta: float = _emitted("closed_form")
    p_v_hat_1: float = _emitted("closed_form")
    p_v_hat_2: float = _emitted("closed_form")
    e_m_sm_stop_sum: float = _emitted("series_sum")
    truncation_terms: int = _emitted("series_sum")
    e_m_sm_stop_geo: float = _emitted("geometric")
    e_tau_sm_stop_1: float = _emitted("closed_form")
    e_tau_sm_stop_2: float = _emitted("closed_form")
    a2_tilde: float = _emitted("closed_form")
    r2_sm_stop: float = _emitted("closed_form")
    r2_sm_stop_negative: bool
    failures: tuple[tuple[str, str], ...] = ()

    @property
    def e_idle_gap(self) -> float:
        """Mean idle gap before a round, 1 / lam: Exp(lam) under either policy (exact)."""
        return 1.0 / self.params.lam

    @property
    def e_t2_sc(self) -> float:
        """Mean served duration of a plain round, (1 - P_V) / (lam P_V) (exact)."""
        return -math.expm1(-self.params.lam * self.params.t_m) / (self.params.lam * self.p_v)

    @property
    def e_unserved_sc(self) -> float:
        """Unridden relays per round under latest-at-expiry, e_m_sm - e_m_sc (approximation)."""
        return self.e_m_sm - self.e_m_sc

    @property
    def e_unserved_sm(self) -> float:
        """Unridden relays per round under serve-all without stopping: none (exact)."""
        return 0.0


def _attempt(compute):
    # the value of compute(), or the numerical error it raised
    try:
        return compute()
    except ArithmeticError as exc:
        return exc


def _value(result):
    # unwrap an _attempt result, re-raising a stored error
    if isinstance(result, ArithmeticError):
        raise result
    return result


def build_report(params: ScenarioParams) -> AnalyticReport:
    """Evaluate the full closed-form battery for one scenario.

    Each intermediate shared by several fields (the first-gap quadrature,
    the stopping ride means, the geometric handoff count) is evaluated once.
    A field whose formula fails numerically (raises ArithmeticError:
    overflow, division by zero, a quadrature that cannot converge, a
    stopping series past its guard) is NaN, and so is every field that
    needs it. Each such field, and each field that came out infinite or NaN
    without raising, is listed in ``failures`` with the reason. The other
    fields are unaffected.
    """
    failures: dict[str, str] = {}

    def cell(name, compute):
        result = _attempt(compute)
        if isinstance(result, ArithmeticError):
            failures[name] = str(result) or type(result).__name__
            return math.nan
        if not math.isfinite(result):
            failures[name] = f"not finite ({result!r})"
        return result

    t1_quad = _attempt(lambda: expected_t1_sc(params, "quadrature"))
    t1_closed = _attempt(lambda: expected_t1_sc(params, "closed_form"))
    pair = _attempt(lambda: expected_tau1_sc(params) + _value(t1_quad))
    stop = _attempt(lambda: _stopping_sum(params))
    geo = _attempt(lambda: expected_handoffs_sm_stopping_geo(params))
    ride1 = _attempt(lambda: expected_service_sm_stopping(params, 1))
    ride2 = _attempt(lambda: expected_service_sm_stopping(params, 2))
    a2 = _attempt(lambda: _t2_stopping(params, _value(geo), _value(ride1), _value(ride2)))
    r2_sc = cell("r2_sc", lambda: _ratio_t2_sc(params, lambda: _value(pair)))
    r2_stop = cell("r2_sm_stop",
                   lambda: _ratio_t2_sm_stopping(params, _value(a2), _value(geo)))
    return AnalyticReport(
        params=params,
        p_v=cell("p_v", lambda: p_vertical(params)),
        e_tau1_sc=cell("e_tau1_sc", lambda: expected_tau1_sc(params)),
        e_t1_sc=cell("e_t1_sc", lambda: _value(t1_quad)),
        e_t1_sc_closed=cell("e_t1_sc_closed", lambda: _value(t1_closed)),
        t1_closed_deviation=cell("t1_closed_deviation",
                                 lambda: abs(_value(t1_closed) - _value(t1_quad))),
        e_m_sm=cell("e_m_sm", lambda: expected_handoffs_sm(params)),
        e_m_sc=cell("e_m_sc", lambda: _handoffs_sc(params, _value(pair))),
        e_unserved_per_handoff=cell("e_unserved_per_handoff",
                                    lambda: _unserved(params, 1, _value(pair))),
        r2_sc=r2_sc,
        r2_sc_negative=r2_sc < 0.0,
        p_s_prime=cell("p_s_prime", lambda: p_s_prime(params)),
        delta=cell("delta", lambda: p_s_delta(params)),
        p_v_hat_1=cell("p_v_hat_1", lambda: p_vertical_hat(params, 1)),
        p_v_hat_2=cell("p_v_hat_2", lambda: p_vertical_hat(params, 2)),
        e_m_sm_stop_sum=cell("e_m_sm_stop_sum", lambda: _value(stop)[0]),
        truncation_terms=cell("truncation_terms", lambda: _value(stop)[1]),
        e_m_sm_stop_geo=cell("e_m_sm_stop_geo", lambda: _value(geo)),
        e_tau_sm_stop_1=cell("e_tau_sm_stop_1", lambda: _value(ride1)),
        e_tau_sm_stop_2=cell("e_tau_sm_stop_2", lambda: _value(ride2)),
        a2_tilde=cell("a2_tilde", lambda: _value(a2)),
        r2_sm_stop=r2_stop,
        r2_sm_stop_negative=r2_stop < 0.0,
        failures=tuple(failures.items()),
    )
