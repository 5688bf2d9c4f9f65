"""Event-driven simulation of relay rounds; the ground truth for the closed forms.

A round starts when the first relay appears after an idle gap (the gap is
``t1_duration``, the served phase is ``t2_duration``). The passenger rides a
chain of relays under one of two policies:

* ``SM_SERVE_ALL`` boards every arrival it can reach, at the arrival moment.
* ``SC_LATEST_AT_EXPIRY`` rides each relay to the end of its coverage, then
  joins the most recently arrived relay still in range.

The round ends with a fallback to fixed infrastructure when no relay is
reachable. With stopping relays (p_s, t_s active) a relay that stops dwells
t_s longer, and the serve-all policy can reach stopping arrivals through the
extended window of a stopped carrier.

``simulate_many`` aggregates rounds in fixed 4096-round blocks, each on its
own counter-derived random substream, and merges block sums in block order,
so a given seed produces bit-identical summaries at any worker count.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .model import ScenarioParams, SimConfig, Strategy
from .numerics import MeanCI

_BLOCK_ROUNDS = 4096
_DRAW_CHUNK = 8192


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalEvent:
    """One relay arrival: when it appeared, whether it stops, when it leaves."""

    time: float
    stopping: bool
    coverage_end: float

    def __post_init__(self) -> None:
        if not self.coverage_end > self.time:
            raise ValueError(
                f"coverage_end must exceed time: {self.coverage_end} <= {self.time}"
            )

    @classmethod
    def from_params(
        cls, time: float, stopping: bool, params: ScenarioParams
    ) -> "ArrivalEvent":
        dwell = params.t_m + (params.t_s if stopping else 0.0)
        return cls(time=time, stopping=stopping, coverage_end=time + dwell)


@dataclass(frozen=True)
class TraceStep:
    """One boarding decision: the window walked, what was in it, what was chosen.

    ``max_offset`` and ``boarded_arrival_time`` are None for the final failed
    decision; ``stop_flag`` is None when the scenario has no stopping relays.
    """

    k: int
    window_length: float
    arrival_count: int
    max_offset: float | None
    boarded_arrival_time: float | None
    stop_flag: bool | None


@dataclass(frozen=True)
class RoundOutcome:
    """One simulated round.

    ``service_durations`` lists the carrying time of each relay that was
    handed off from (length m_handoffs); the final relay's coverage tail is
    t2_duration minus their sum. ``first_service_offset`` is the offset of
    the first boarded relay within its decision window (defined when
    m_handoffs >= 1); ``first_gap_offset`` is the same for the second
    boarding (m_handoffs >= 2).
    """

    m_handoffs: int
    u_unserved: int
    t2_duration: float
    t1_duration: float
    service_durations: tuple[float, ...]
    first_service_offset: float | None
    first_gap_offset: float | None
    trace: tuple[TraceStep, ...] | None = None


# One round as the block engine keeps it: the idle gap, then the walk's
# result. A round without a first or second boarding holds NaN there.
_ROW = np.dtype([(name, float) for name in ("t1", "m", "u", "t2", "first", "second")])


def _mean_of(value, defined=None):
    """Declare a SimSummary field as the mean of one per-round value.

    ``value`` maps a block's rows (an array of dtype _ROW) to one number per
    round. ``defined``, when given, picks the rounds where that number
    exists; the field's MeanCI.n then counts only those.
    """
    return field(metadata={"value": value, "defined": defined})


@dataclass(frozen=True)
class SimSummary:
    """Aggregated estimates over many rounds, with seed provenance.

    The MeanCI fields declare the simulated statistics, in output order:
    the block engine reduces, merges and reports exactly these, each the
    mean of the per-round value its declaration names. ``r2_estimate`` is
    the served-time ratio of totals and ``r2_std_error`` its delta-method
    standard error. ``experimental`` marks the latest-at-expiry policy run
    against stopping relays, a combination with no closed forms.
    """

    params: ScenarioParams
    strategy: Strategy
    rounds: int
    seed: int
    # no relay boarded: the round fell back to fixed infrastructure at once
    p_vertical: MeanCI = _mean_of(lambda r: r["m"] == 0)
    # offsets of the first and second boardings within their decision windows
    first_service_offset: MeanCI = _mean_of(lambda r: r["first"], lambda r: r["m"] >= 1)
    first_gap_offset: MeanCI = _mean_of(lambda r: r["second"], lambda r: r["m"] >= 2)
    m_handoffs: MeanCI = _mean_of(lambda r: r["m"])
    u_unserved: MeanCI = _mean_of(lambda r: r["u"])
    t2_duration: MeanCI = _mean_of(lambda r: r["t2"])
    t1_duration: MeanCI = _mean_of(lambda r: r["t1"])
    r2_estimate: float
    r2_std_error: float
    experimental: bool


_MEANS = tuple(f for f in fields(SimSummary) if "value" in f.metadata)


# ---------------------------------------------------------------------------
# policy walks (shared by every public entry point)
# ---------------------------------------------------------------------------
# Each walk consumes a strictly increasing arrival list (times after the
# round start at 0) and returns (m, u, t2, first_offset, second_offset).
# `services` and `trace` are output lists, or None to skip the bookkeeping.

def _walk_sc(t_m, times, services, trace):
    # Candidate windows are half-open (previous decision, decision]; the
    # stretch before the last boarded arrival is provably empty, so a single
    # forward pointer suffices.
    m = 0
    u = 0
    prev_d = 0.0
    d = t_m
    first = None
    second = None
    i = 0
    n = len(times)
    while True:
        latest = 0.0
        count = 0
        while i < n and times[i] <= d:
            latest = times[i]
            count += 1
            i += 1
        if count == 0:
            if trace is not None:
                trace.append(TraceStep(m + 1, d - prev_d, 0, None, None, None))
            return m, u, d, first, second
        x = latest - prev_d
        m += 1
        u += count - 1
        if m == 1:
            first = x
        elif m == 2:
            second = x
        if services is not None:
            services.append(d - prev_d)
        if trace is not None:
            trace.append(TraceStep(m, d - prev_d, count, x, latest, None))
        prev_d = d
        d = latest + t_m


def _walk_sm(t_m, times, services, trace):
    m = 0
    last = 0.0
    end = t_m
    first = None
    second = None
    for t in times:
        if t > end:
            break
        gap = t - last
        m += 1
        if m == 1:
            first = gap
        elif m == 2:
            second = gap
        if services is not None:
            services.append(gap)
        if trace is not None:
            trace.append(TraceStep(m, gap, 1, gap, t, None))
        last = t
        end = t + t_m
    return m, 0, end, first, second


def _walk_sm_stopping(t_m, t_s, times, marks, c0_flag, services, trace):
    # Reachable from a carrier (boarded at `last`, flag `flag`): any arrival
    # within (last, last + t_m], plus stopping arrivals within
    # (last, last + t_m + t_s] when the carrier itself stops. Board the
    # earliest reachable arrival; arrivals scanned past are lost for good.
    m = 0
    last = 0.0
    flag = c0_flag
    first = None
    second = None
    i = 0
    n = len(times)
    while i < n:
        t = times[i]
        mk = marks[i]
        if t <= last + t_m or (flag and mk and t <= last + t_m + t_s):
            gap = t - last
            m += 1
            if m == 1:
                first = gap
            elif m == 2:
                second = gap
            if services is not None:
                services.append(gap)
            if trace is not None:
                trace.append(TraceStep(m, gap, 1, gap, t, mk))
            last = t
            flag = mk
        elif t > last + t_m + (t_s if flag else 0.0):
            break
        i += 1
    t2 = last + t_m + (t_s if flag else 0.0)
    u = bisect_right(times, t2) - m
    return m, u, t2, first, second


def _walk_sc_stopping(t_m, t_s, times, marks, c0_flag, services, trace):
    # Experimental: no closed forms exist for this combination. At each
    # coverage expiry d, candidates are unridden arrivals still in range by
    # their own dwell (a <= d < a + t_m + t_s*stop(a)); join the latest one.
    m = 0
    prev_d = 0.0
    d = t_m + (t_s if c0_flag else 0.0)
    first = None
    second = None
    ridden: set[int] = set()
    while True:
        hi = bisect_right(times, d)
        floor = d - t_m - t_s
        pick = -1
        j = hi - 1
        while j >= 0 and times[j] > floor:
            if j not in ridden and times[j] + t_m + (t_s if marks[j] else 0.0) > d:
                pick = j
                break
            j -= 1
        if pick < 0:
            if trace is not None:
                trace.append(TraceStep(m + 1, d - prev_d, hi - len(ridden), None, None, None))
            return m, hi - m, d, first, second
        x = times[pick] - prev_d
        m += 1
        ridden.add(pick)
        if m == 1:
            first = x
        elif m == 2:
            second = x
        if services is not None:
            services.append(d - prev_d)
        if trace is not None:
            trace.append(TraceStep(m, d - prev_d, hi - (m - 1), x, times[pick], marks[pick]))
        prev_d = d
        d = times[pick] + t_m + (t_s if marks[pick] else 0.0)


def _run_walk(params, strategy, times, marks, c0_flag, services, trace):
    has_marks = marks is not None
    if strategy is Strategy.SM_SERVE_ALL:
        if has_marks:
            return _walk_sm_stopping(
                params.t_m, params.t_s, times, marks, c0_flag, services, trace
            )
        return _walk_sm(params.t_m, times, services, trace)
    if has_marks and params.t_s > 0.0:
        return _walk_sc_stopping(
            params.t_m, params.t_s, times, marks, c0_flag, services, trace
        )
    return _walk_sc(params.t_m, times, services, trace)


# ---------------------------------------------------------------------------
# random stream plumbing
# ---------------------------------------------------------------------------

class _Stream:
    """Buffered sequential draws from one Generator (chunked for speed).

    Holds a chunk of pending draws, so it only pays for vectorized
    generation when it lives across many rounds (one per block). One-shot
    callers should use _DirectStream instead.
    """

    __slots__ = ("_rng", "_scale", "_exp", "_ei", "_uni", "_ui")

    def __init__(self, rng: np.random.Generator, lam: float):
        self._rng = rng
        self._scale = 1.0 / lam
        self._exp: list[float] = []
        self._ei = 0
        self._uni: list[float] = []
        self._ui = 0

    def exp(self) -> float:
        i = self._ei
        if i == len(self._exp):
            self._exp = self._rng.exponential(self._scale, _DRAW_CHUNK).tolist()
            i = 0
        self._ei = i + 1
        return self._exp[i]

    def uni(self) -> float:
        i = self._ui
        if i == len(self._uni):
            self._uni = self._rng.random(_DRAW_CHUNK).tolist()
            i = 0
        self._ui = i + 1
        return self._uni[i]


class _DirectStream:
    """Unbuffered draws; nothing is consumed beyond what the round needs."""

    __slots__ = ("_rng", "_scale")

    def __init__(self, rng: np.random.Generator, lam: float):
        self._rng = rng
        self._scale = 1.0 / lam

    def exp(self) -> float:
        return float(self._rng.exponential(self._scale))

    def uni(self) -> float:
        return float(self._rng.random())


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # the block index lives in the top counter word, far above the draw
    # counter's carry range, so block streams never overlap
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block]))


def _draw_round(stream: _Stream, p_s: float, horizon: float):
    """One round's raw material: idle gap, first relay's flag, arrival stock.

    The stock stops at the first inter-arrival gap exceeding `horizon`
    (t_m + t_s when stopping marks exist, else t_m); no later arrival can be
    reached or land inside the round, under either policy.
    """
    t1 = stream.exp()
    times: list[float] = []
    if p_s > 0.0:
        c0 = stream.uni() < p_s
        marks: list[bool] = []
        t = 0.0
        while True:
            g = stream.exp()
            if g > horizon:
                return t1, c0, times, marks
            t += g
            times.append(t)
            marks.append(stream.uni() < p_s)
    t = 0.0
    while True:
        g = stream.exp()
        if g > horizon:
            return t1, False, times, None
        t += g
        times.append(t)


def _block_sizes(rounds: int) -> list[int]:
    """Round counts of the fixed-size blocks that make up `rounds` rounds."""
    return [min(_BLOCK_ROUNDS, rounds - start) for start in range(0, rounds, _BLOCK_ROUNDS)]


def _block_draws(params: ScenarioParams, seed: int, block: int, rounds: int):
    """Yield the first `rounds` rounds of block `block`'s substream, in order."""
    stream = _Stream(_block_rng(seed, block), params.lam)
    horizon = params.t_m + (params.t_s if params.p_s > 0.0 else 0.0)
    for _ in range(rounds):
        yield _draw_round(stream, params.p_s, horizon)


# ---------------------------------------------------------------------------
# round-level API
# ---------------------------------------------------------------------------

def _outcome(walk, t1, services, trace) -> RoundOutcome:
    """Package one round's results; `walk` is (m, u, t2, first, second)."""
    m, u, t2, first, second = walk
    return RoundOutcome(
        m_handoffs=m,
        u_unserved=u,
        t2_duration=t2,
        t1_duration=t1,
        service_durations=tuple(services),
        first_service_offset=first,
        first_gap_offset=second,
        trace=None if trace is None else tuple(trace),
    )


def _walked_round(params, strategy, draw, collect_trace: bool) -> RoundOutcome:
    """Walk one round, given as (t1, c0 flag, times, marks), under `strategy`."""
    t1, c0, times, marks = draw
    services: list[float] = []
    trace: list[TraceStep] | None = [] if collect_trace else None
    walk = _run_walk(params, strategy, times, marks, c0, services, trace)
    return _outcome(walk, t1, services, trace)


def _normalize_arrivals(arrivals_source, params):
    """Injected arrival list -> (times, marks or None); validates ordering."""
    times: list[float] = []
    marks: list[bool] = []
    saw_flag = False
    for item in arrivals_source:
        if isinstance(item, ArrivalEvent):
            times.append(float(item.time))
            marks.append(bool(item.stopping))
            saw_flag = True
        elif isinstance(item, (tuple, list)):
            t, flag = item
            times.append(float(t))
            marks.append(bool(flag))
            saw_flag = True
        else:
            times.append(float(item))
            marks.append(False)
    prev = 0.0
    for t in times:
        if not t > prev:
            raise ValueError(
                f"injected arrival times must be positive and strictly increasing, got {times}"
            )
        prev = t
    if saw_flag or params.p_s > 0.0:
        return times, marks
    return times, None


def simulate_round(
    params: ScenarioParams,
    strategy: Strategy,
    arrivals_source,
    *,
    t1_duration: float = 0.0,
    c0_stopping: bool = False,
    collect_trace: bool = False,
) -> RoundOutcome:
    """Run one round against a random stream or an injected arrival list.

    Args:
        arrivals_source: a numpy Generator (arrivals, the idle gap, and all
            stop flags are drawn from it), or a finite iterable of arrival
            times / (time, stopping) pairs / ArrivalEvent.
        t1_duration: idle gap to record in injected mode (drawn in
            generator mode, where this argument is ignored).
        c0_stopping: stop flag of the round-start relay in injected mode.
        collect_trace: attach one TraceStep per boarding decision.

    Raises:
        ValueError: injected arrival times not positive and strictly
            increasing.
    """
    if isinstance(arrivals_source, np.random.Generator):
        stream = _DirectStream(arrivals_source, params.lam)
        horizon = params.t_m + (params.t_s if params.p_s > 0.0 else 0.0)
        draw = _draw_round(stream, params.p_s, horizon)
    else:
        times, marks = _normalize_arrivals(arrivals_source, params)
        draw = (t1_duration, c0_stopping, times, marks)
    return _walked_round(params, strategy, draw, collect_trace)


def window_recursion_round(
    params: ScenarioParams, rng: np.random.Generator, *, collect_trace: bool = False
) -> RoundOutcome:
    """Sample one latest-at-expiry round through its window chain directly.

    Independent of the event walk: window k has length w_k (w_1 = t_m,
    w_{k+1} = t_m - w_k + x_k), holds Poisson(lam w_k) arrivals, and the
    boarded offset x_k is w_k times the max of that many uniforms. Stops at
    the first empty window. Distributionally identical to
    simulate_round(SC_LATEST_AT_EXPIRY); used to cross-validate it.
    """
    lam, t_m = params.lam, params.t_m
    t1 = rng.exponential(1.0 / lam)
    w = t_m
    m = 0
    u = 0
    t2 = 0.0
    boarded_at = 0.0
    first = None
    second = None
    services: list[float] = []
    trace: list[TraceStep] | None = [] if collect_trace else None
    while True:
        k = int(rng.poisson(lam * w))
        t2 += w
        if k == 0:
            if trace is not None:
                trace.append(TraceStep(m + 1, w, 0, None, None, None))
            break
        x = w * float(rng.random(k).max())
        m += 1
        u += k - 1
        if m == 1:
            first = x
        elif m == 2:
            second = x
        services.append(w)
        if trace is not None:
            trace.append(TraceStep(m, w, k, x, boarded_at + x, None))
        boarded_at += w
        w = t_m - w + x
    return _outcome((m, u, t2, first, second), t1, services, trace)


def coupled_round(
    params: ScenarioParams, rng: np.random.Generator
) -> tuple[RoundOutcome, RoundOutcome]:
    """Run both policies on one shared arrival realization (no stopping).

    The serve-all and latest-at-expiry rounds die at the same instant on any
    realization, and every arrival the second policy skips is exactly one
    extra handoff for the first: m_sm = m_sc + u_sc and equal t2.

    Raises:
        ValueError: params describe a stopping scenario.
    """
    if params.stopping:
        raise ValueError("coupled rounds are defined for non-stopping scenarios only")
    draw = _draw_round(_DirectStream(rng, params.lam), 0.0, params.t_m)
    return (_walked_round(params, Strategy.SM_SERVE_ALL, draw, False),
            _walked_round(params, Strategy.SC_LATEST_AT_EXPIRY, draw, False))


# ---------------------------------------------------------------------------
# block engine
# ---------------------------------------------------------------------------

def _total(v: np.ndarray) -> float:
    # a running sum in round order, as a scalar loop adds; np.sum adds
    # pairwise, which would move the last bits
    return np.add.accumulate(v)[-1] if len(v) else 0.0


def _run_block(params, strategy, seed, block, rounds):
    """One block's sums, keyed by statistic; blocks merge them in block order.

    Each declared mean of SimSummary gets (n, sum, sum of squares) of its
    per-round value over the rounds where that value is defined; "r2" gets
    the ratio pieces (sum x, sum x^2, sum y, sum y^2, sum xy), with
    x = t2 - t_h*m and y = t1 + t2.
    """
    rows = np.fromiter(  # None becomes NaN
        ((t1, *_run_walk(params, strategy, times, marks, c0, None, None))
         for t1, c0, times, marks in _block_draws(params, seed, block, rounds)),
        dtype=_ROW, count=rounds,
    )
    sums = {}
    for f in _MEANS:
        v = np.asarray(f.metadata["value"](rows), dtype=float)
        if f.metadata["defined"] is not None:
            v = v[f.metadata["defined"](rows)]
        sums[f.name] = np.array([len(v), _total(v), _total(v * v)])
    x = rows["t2"] - params.t_h * rows["m"]
    y = rows["t1"] + rows["t2"]
    sums["r2"] = np.array([_total(x), _total(x * x), _total(y), _total(y * y), _total(x * y)])
    return sums


def _block_job(args):
    return _run_block(*args)


def _moments_meanci(n: float, total: float, total_sq: float) -> MeanCI:
    n = int(n)
    if n == 0:
        return MeanCI(math.nan, math.nan, math.nan, 0)
    mean = total / n
    if n == 1:
        return MeanCI(mean, math.nan, math.nan, 1)
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    se = math.sqrt(var / n)
    return MeanCI(mean, se, 1.96 * se, n)


def _ratio_of_totals(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy) -> tuple[float, float]:
    """Ratio of totals sum x / sum y over n rounds, and its delta-method SE."""
    ratio = sum_x / sum_y
    if n < 2:
        return ratio, math.nan
    mean_x = sum_x / n
    mean_y = sum_y / n
    sxx = max(sum_xx - n * mean_x * mean_x, 0.0)
    syy = max(sum_yy - n * mean_y * mean_y, 0.0)
    sxy = sum_xy - n * mean_x * mean_y
    var_r = max(sxx - 2.0 * ratio * sxy + ratio * ratio * syy, 0.0) / (n - 1)
    return ratio, math.sqrt(var_r / n) / mean_y


def simulate_many(
    params: ScenarioParams, strategy: Strategy, config: SimConfig
) -> SimSummary:
    """Aggregate config.rounds independent rounds into a SimSummary.

    Rounds are grouped into fixed 4096-round blocks; block b draws from a
    Philox substream keyed by (config.seed, b) and block sums merge in block
    order, so the summary is bit-identical for a given seed whether
    worker_hint is 1 or 100.
    """
    jobs = [(params, strategy, config.seed, b, size)
            for b, size in enumerate(_block_sizes(config.rounds))]
    if config.worker_hint > 1 and len(jobs) > 1:
        workers = min(config.worker_hint, len(jobs))
        chunk = max(1, len(jobs) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            accs = list(pool.map(_block_job, jobs, chunksize=chunk))
    else:
        accs = [_run_block(*job) for job in jobs]
    totals = {name: sum(acc[name] for acc in accs).tolist() for name in accs[0]}
    n = config.rounds
    r2, r2_se = _ratio_of_totals(n, *totals["r2"])
    return SimSummary(
        params=params,
        strategy=strategy,
        rounds=n,
        seed=config.seed,
        **{f.name: _moments_meanci(*totals[f.name]) for f in _MEANS},
        r2_estimate=r2,
        r2_std_error=r2_se,
        experimental=strategy is Strategy.SC_LATEST_AT_EXPIRY and params.stopping,
    )


def trace_rounds(
    params: ScenarioParams, strategy: Strategy, config: SimConfig
) -> list[RoundOutcome]:
    """Replay the first config.rounds rounds of simulate_many, with traces.

    Round i is round i of simulate_many at config.seed: both draw block b
    from the substream keyed (config.seed, b). Meant for small trace dumps
    (the batch harness's --traces path), not for estimation.
    """
    return [
        _walked_round(params, strategy, draw, True)
        for b, size in enumerate(_block_sizes(config.rounds))
        for draw in _block_draws(params, config.seed, b, size)
    ]


def estimate_r2(source, params: ScenarioParams) -> float:
    """Served-time ratio from totals: (sum t2 - t_h sum m) / (sum t1 + sum t2).

    ``source`` is a SimSummary (its stored means are reused, so the ratio
    can be re-accounted under a different t_h) or an iterable of
    RoundOutcome. A ratio of totals, not a mean of per-round ratios.

    Raises:
        ValueError: no rounds to estimate from.
    """
    if isinstance(source, SimSummary):
        mean_m = source.m_handoffs.mean
        mean_t1 = source.t1_duration.mean
        mean_t2 = source.t2_duration.mean
        return (mean_t2 - params.t_h * mean_m) / (mean_t1 + mean_t2)
    outcomes = list(source)
    if not outcomes:
        raise ValueError("estimate_r2 needs at least one round")
    sum_m = sum(o.m_handoffs for o in outcomes)
    sum_t1 = math.fsum(o.t1_duration for o in outcomes)
    sum_t2 = math.fsum(o.t2_duration for o in outcomes)
    return (sum_t2 - params.t_h * sum_m) / (sum_t1 + sum_t2)
