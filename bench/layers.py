"""Per-layer accounting for the traced passes, and the layer probes.

Spans are recorded around the public functions at each layer boundary by
swapping module attributes for timing wrappers; no program file changes.
Random words are counted from the advance of each Philox counter, which
the block engine builds one of per block; blocks run in worker processes
are not seen, and the CLI runs none by default.
"""
from __future__ import annotations

import inspect
import time
import types
from contextlib import contextmanager

import numpy as np

_CLI_SPANS = {
    "parse_run_spec": "cli.parse",
    "emit": "cli.emit",
    "hard_violations": "cli.hard_violations",
    "trace_rounds": "sim.trace_rounds",
}


def _counter(bitgen) -> tuple[int, int]:
    state = bitgen.state
    c = state["state"]["counter"]
    return sum(int(w) << (64 * i) for i, w in enumerate(c)), int(state["buffer_pos"])


def _philox_words(start: tuple[int, int], end: tuple[int, int]) -> int:
    """64-bit words drawn between two Philox states (4 words per counter step)."""
    (c0, p0), (c1, p1) = start, end
    return 4 * (c1 - c0) - (4 - p1) + (4 - p0)


class Tracer:
    """Spans (name, start, end, parent, job) and counts for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: str | None = None
        self.integrand_evals = 0
        self.sim_rounds = 0
        self._bitgens: list[tuple] = []  # (bitgen, start state, built in simulate_many)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def wrap_simulate_many(self, fn):
        traced = self.wrap("sim.simulate_many", fn)

        def counted_simulate_many(params, strategy, config):
            self.sim_rounds += config.rounds
            return traced(params, strategy, config)
        return counted_simulate_many

    def wrap_integrate(self, fn):
        traced = self.wrap("numerics.integrate", fn)

        def counted_integrate(f, *args, **kwargs):
            def counted(x):
                self.integrand_evals += 1
                return f(x)
            return traced(counted, *args, **kwargs)
        return counted_integrate

    def wrap_philox(self, cls):
        def philox(*args, **kwargs):
            bitgen = cls(*args, **kwargs)
            in_sim = any(self.spans[i][0] == "sim.simulate_many" for i in self._stack)
            self._bitgens.append((bitgen, _counter(bitgen), in_sim))
            return bitgen
        return philox

    def rng_words(self) -> tuple[int, int]:
        """(words drawn inside simulate_many, Philox generators built)."""
        words = sum(_philox_words(start, _counter(bg))
                    for bg, start, in_sim in self._bitgens if in_sim)
        return words, len(self._bitgens)

    @contextmanager
    def installed(self, cli, analytic):
        """Swap in the wrappers; restore the originals on exit."""
        patches = [(cli, attr, self.wrap(name, getattr(cli, attr)))
                   for attr, name in _CLI_SPANS.items()]
        patches.append((cli, "simulate_many", self.wrap_simulate_many(cli.simulate_many)))
        # cli reaches the closed forms as attributes of its `analytic` name;
        # a stand-in module there traces those calls but not analytic's calls
        # to itself, which run a million times in the stopping series.
        facade = types.ModuleType(analytic.__name__)
        facade.__dict__.update(vars(analytic))
        for attr, fn in vars(analytic).items():
            if (inspect.isfunction(fn) and fn.__module__ == analytic.__name__
                    and not attr.startswith("_")):
                setattr(facade, attr, self.wrap(f"analytic.{attr}", fn))
        patches.append((cli, "analytic", facade))
        patches.append((analytic, "integrate", self.wrap_integrate(analytic.integrate)))
        patches.append((np.random, "Philox", self.wrap_philox(np.random.Philox)))
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Busy and self times, in seconds, plus call counts, for the pass."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def total(pred):
            return sum(d for s, d in zip(self.spans, dur) if pred(s))

        words, blocks = self.rng_words()
        return {
            "sim.simulate_many_s": total(lambda s: s[0] == "sim.simulate_many"),
            "sim.trace_rounds_s": total(lambda s: s[0] == "sim.trace_rounds"),
            "sim.rounds": self.sim_rounds,
            "sim.blocks": blocks,
            "sim.rng_words": words,
            "analytic.s": total(lambda s: s[0].startswith("analytic.")),
            "analytic.build_report_s": total(lambda s: s[0] == "analytic.build_report"),
            "numerics.integrate_calls": sum(s[0] == "numerics.integrate" for s in self.spans),
            "numerics.integrate_evals": self.integrand_evals,
            "numerics.integrate_s": total(lambda s: s[0] == "numerics.integrate"),
            "cli.parse_s": total(lambda s: s[0] == "cli.parse"),
            "cli.emit_s": total(lambda s: s[0] == "cli.emit"),
            "cli.self_s": sum(d - c for s, d, c in zip(self.spans, dur, child)
                              if s[0] == "cli.main"),
        }


# ---------------------------------------------------------------------------
# probes (run with the wrappers off)
# ---------------------------------------------------------------------------

def _predraw(rng: np.random.Generator, lam, horizon, p_s):
    t1 = float(rng.exponential(1.0 / lam))
    c0 = bool(p_s > 0.0 and rng.random() < p_s)
    times = []
    t = 0.0
    while True:
        g = float(rng.exponential(1.0 / lam))
        if g > horizon:
            break
        t += g
        times.append(t)
    if p_s > 0.0:
        return t1, c0, [(x, bool(rng.random() < p_s)) for x in times]
    return t1, c0, times


def probe(sim, model, analytic, job_list, rounds: int, seed: int) -> dict[str, float]:
    """Single-layer timings over the scenarios of a job list, wrappers off.

    Each (scenario, strategy) a simulation job runs gets ``rounds`` calls of
    simulate_round on pre-drawn injected lists (the walk plus input
    validation) and as many with a Generator (one-shot draw plus walk).
    Every scenario gets one expected_handoffs_sm_stopping_sum call, timed
    whether it answers or hits the series cap.
    """
    points = sorted({p for job in job_list for p in job.points})
    scenarios = sorted({(*p, job.strategy) for job in job_list
                        if job.argv[0] != "analytic" for p in job.points})
    walk = draw_walk = 0.0
    for i, (lam, tm, th, ps, ts, strategy) in enumerate(scenarios):
        params = model.ScenarioParams(lam=lam, t_m=tm, t_h=th, p_s=ps, t_s=ts)
        strat = model.Strategy(strategy)
        rng = np.random.Generator(np.random.PCG64([seed, i]))
        lists = [_predraw(rng, lam, tm + (ts if ps > 0.0 else 0.0), ps)
                 for _ in range(rounds)]
        start = time.perf_counter()
        for t1, c0, arrivals in lists:
            sim.simulate_round(params, strat, arrivals, t1_duration=t1, c0_stopping=c0)
        walk += time.perf_counter() - start
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, i, 0]))
        start = time.perf_counter()
        for _ in range(rounds):
            sim.simulate_round(params, strat, gen)
        draw_walk += time.perf_counter() - start
    series = 0.0
    for lam, tm, th, ps, ts in points:
        params = model.ScenarioParams(lam=lam, t_m=tm, t_h=th, p_s=ps, t_s=ts)
        start = time.perf_counter()
        try:
            analytic.expected_handoffs_sm_stopping_sum(params)
        except ArithmeticError:
            pass
        series += time.perf_counter() - start
    n = rounds * len(scenarios)
    return {
        "sim.walk_us_per_round": 1e6 * walk / n if n else 0.0,
        "sim.draw_walk_us_per_round": 1e6 * draw_walk / n if n else 0.0,
        "analytic.series_s": series,
    }
