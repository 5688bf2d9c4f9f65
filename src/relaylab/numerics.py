"""Numeric kernels: dilogarithm, truncated-exponential mean, quadrature, CIs.

Everything here is deterministic: the same inputs produce the same bits on
every run and at every parallelism degree, which is what lets the comparison
harness promise byte-identical output files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

Z95 = 1.96  # two-sided 95% normal quantile, by convention

_PI2_6 = math.pi * math.pi / 6.0
_SERIES_EPS = 1e-18
_SERIES_MAX_TERMS = 400
_SMALL_KERNEL_X = 1e-3
_MAX_DEPTH = 48
_MAX_EVALS = 50_000  # integrand evaluations one integrate call may spend


class QuadratureError(ArithmeticError):
    """Adaptive integration failed to converge within the depth bound.

    Attributes:
        best_estimate: the value accumulated so far; unreliable but often
            close, kept so callers can log something actionable.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class MeanCI:
    """Sample mean with a normal-theory 95% confidence half-width.

    ``std_error`` and ``ci95_half_width`` are NaN when ``n < 2`` (a single
    sample has no spread estimate); ``ci_defined`` flags that case.
    """

    mean: float
    std_error: float
    ci95_half_width: float
    n: int

    @property
    def ci_defined(self) -> bool:
        return self.n >= 2 and math.isfinite(self.std_error)


def mean_ci(samples) -> MeanCI:
    """Mean, standard error and 95% half-width of a sample.

    Args:
        samples: non-empty sequence of finite floats.

    Returns:
        MeanCI with std_error = s / sqrt(n) (ddof = 1) and
        ci95_half_width = 1.96 * std_error; both NaN when n == 1.

    Raises:
        ValueError: on an empty sequence.
    """
    xs = [float(x) for x in samples]
    n = len(xs)
    if n == 0:
        raise ValueError("mean_ci needs at least one sample")
    mean = math.fsum(xs) / n
    if n < 2:
        return MeanCI(mean=mean, std_error=math.nan, ci95_half_width=math.nan, n=n)
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    se = math.sqrt(var / n)
    return MeanCI(mean=mean, std_error=se, ci95_half_width=Z95 * se, n=n)


def _dilog_series(x: float) -> float:
    """Power series sum_{k>=1} x^k / k^2, for |x| <= 0.5."""
    term = x
    total = x
    k = 1
    while abs(term) > _SERIES_EPS and k < _SERIES_MAX_TERMS:
        k += 1
        term *= x
        total += term / (k * k)
    return total


def dilog(x: float) -> complex:
    """Dilogarithm Li2 of a real argument on the principal branch.

    Li2(x) = -int_0^x ln(1 - t)/t dt. Real for x <= 1; for x > 1 the
    principal branch gives Re = pi^2/3 - ln(x)^2/2 - Li2(1/x) and
    Im = -pi ln(x).

    Evaluation: direct power series for |x| <= 0.5; Euler reflection
    Li2(x) = pi^2/6 - ln(x) ln(1-x) - Li2(1-x) for x in (0.5, 1); Landen
    transform Li2(x) = -Li2(x/(x-1)) - ln(1-x)^2/2 for x < -0.5 (mapping
    into (1/3, 1)); the inversion identity above for x > 1. Every path
    ends in a series argument of magnitude <= 0.5.

    Args:
        x: finite real argument.

    Returns:
        complex value with exact-zero imaginary part for x <= 1.

    Raises:
        ValueError: if x is not finite.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"dilog argument must be finite, got {x!r}")
    if x == 0.0:
        return complex(0.0, 0.0)
    if x == 1.0:
        return complex(_PI2_6, 0.0)
    if x > 1.0:
        ln = math.log(x)
        re = 2.0 * _PI2_6 - 0.5 * ln * ln - dilog(1.0 / x).real
        return complex(re, -math.pi * ln)
    if x < -0.5:
        w = x / (x - 1.0)
        lg = math.log1p(-x)
        return complex(-dilog(w).real - 0.5 * lg * lg, 0.0)
    if x > 0.5:
        re = _PI2_6 - math.log(x) * math.log1p(-x) - _dilog_series(1.0 - x)
        return complex(re, 0.0)
    return complex(_dilog_series(x), 0.0)


def trunc_mean(x: float, lam: float) -> float:
    """Mean of an Exp(lam) variable conditioned to be at most x / lam.

    trunc_mean(x, lam) = (1 - e^(-x) (1 + x)) / (lam (1 - e^(-x))), the
    expected inter-arrival gap given the gap fits inside a window of
    length x / lam. Limits: 0 at x = 0, and 1 / lam as x -> infinity.
    Strictly increasing in x.

    Args:
        x: dimensionless window size lam * t, >= 0.
        lam: rate, > 0.

    Raises:
        ValueError: x < 0 or lam <= 0.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    if not (x >= 0.0):
        raise ValueError(f"x must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < _SMALL_KERNEL_X:
        # Series around 0: (1 - e^-x (1+x)) / (1 - e^-x) = x/2 - x^2/12 + O(x^4);
        # the direct form's numerator, about x^2/2, cancels, so its relative
        # error grows like eps/(x^2/2) here.
        return x * (0.5 - x / 12.0) / lam
    emx = math.exp(-x)
    return (1.0 - emx * (1.0 + x)) / (lam * -math.expm1(-x))


def cond_max_mean(x: float) -> float:
    """Dimensionless mean of the latest Poisson arrival inside a window.

    For K ~ Poisson(x) arrivals uniform on (0, 1], conditioned on K >= 1,
    the expected maximum is (x - (1 - e^(-x))) / (x (1 - e^(-x))) ... times
    the window itself; this helper returns the mean normalised by 1/rate:
    cond_max_mean(x) = (x - (1 - e^(-x))) / (1 - e^(-x)), so the time-domain
    mean for rate lam and window w is cond_max_mean(lam * w) / lam.

    Increasing in x, with limits x/2 as x -> 0 and x - 1 as x -> infinity.
    """
    if not (x >= 0.0):
        raise ValueError(f"x must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < _SMALL_KERNEL_X:
        # (x - (1 - e^-x)) / (1 - e^-x) = x/2 + x^2/12 + O(x^4)
        return x * (0.5 + x / 12.0)
    return x / -math.expm1(-x) - 1.0


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def integrate(f, a: float, b: float, tol: float = 1e-9) -> float:
    """Deterministic adaptive Simpson quadrature on a finite interval.

    Subdivision always splits at the midpoint, left half first, so the
    evaluation order (and therefore the floating-point result) is a pure
    function of (f, a, b, tol). A halved tolerance moves the result by at
    most tol. A cell stops refining at depth 48, and every cell stops once
    50,000 integrand evaluations are spent, so the cost is bounded even when
    tol lies below the rounding noise of the integral.

    Args:
        f: integrand, callable on [a, b].
        a: lower bound, finite.
        b: upper bound, finite, >= a.
        tol: absolute error target against refinement, > 0.

    Returns:
        Integral estimate with absolute error <= tol.

    Raises:
        ValueError: on bad bounds or tolerance.
        QuadratureError: when the depth bound or the evaluation budget is
            exceeded before the local error contracts; carries the best
            estimate accumulated so far.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if b < a:
        raise ValueError(f"upper bound {b} below lower bound {a}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if a == b:
        return 0.0

    fa, fb = float(f(a)), float(f(b))
    m = 0.5 * (a + b)
    fm = float(f(m))
    whole = _simpson(fa, fm, fb, b - a)
    stuck: list[float] = []  # residual local errors where a bound hit
    evals = [3]

    def recurse(lo, flo, hi, fhi, mid, fmid, approx, budget, depth):
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        f1, f2 = float(f(m1)), float(f(m2))
        evals[0] += 2
        left = _simpson(flo, f1, fmid, mid - lo)
        right = _simpson(fmid, f2, fhi, hi - mid)
        better = left + right
        err = better - approx
        if abs(err) <= 15.0 * budget:
            return better + err / 15.0
        if depth >= _MAX_DEPTH or evals[0] >= _MAX_EVALS:
            stuck.append(abs(err))
            return better + err / 15.0
        half = 0.5 * budget
        out = recurse(lo, flo, mid, fmid, m1, f1, left, half, depth + 1)
        return out + recurse(mid, fmid, hi, fhi, m2, f2, right, half, depth + 1)

    total = recurse(a, fa, b, fb, m, fm, whole, tol, 0)
    if stuck:
        raise QuadratureError(
            f"integrate({a}, {b}) did not converge to tol={tol}: {len(stuck)} cell(s) "
            f"hit the depth or evaluation bound (worst residual {max(stuck):.3g})",
            best_estimate=total,
        )
    return total
