"""Property tests over the whole valid parameter space.

`analytic` must answer every valid scenario in bounded work: each cell is
either a finite number or empty with exactly one stderr note naming it, the
stopping series stays under its explicit-term guard, and the first-gap
quadrature under its evaluation budget. The bounds are structural counts,
not wall-clock deadlines.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math

import pytest
from hypothesis import example, given, strategies as st

from relaylab import analytic, cli, numerics


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@given(
    lam=_log_uniform(1e-6, 1e3),
    t_m=_log_uniform(1e-3, 1e2),
    t_h=st.one_of(st.just(0.0), _log_uniform(1e-4, 10.0)),
    p_s=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    t_s=st.one_of(st.just(0.0), _log_uniform(1e-3, 1e4)),
)
@example(lam=800.0, t_m=1.0, t_h=0.0, p_s=0.0, t_s=0.0)         # overflow
@example(lam=1e-300, t_m=1e-300, t_h=0.0, p_s=0.0, t_s=0.0)     # lam t_m underflows
@example(lam=1.0, t_m=1e-320, t_h=0.0, p_s=0.0, t_s=0.0)        # tol * t_m underflows
@example(lam=1.0, t_m=1.0, t_h=0.0, p_s=1e-5, t_s=1e7)          # series guard
def test_analytic_cells_are_finite_or_noted(lam, t_m, t_h, p_s, t_s):
    evals = 0
    integrate = analytic.integrate

    def counted_integrate(f, *args):
        def g(x):
            nonlocal evals
            evals += 1
            return f(x)
        return integrate(g, *args)

    argv = ["analytic", "--lambda", repr(lam), "--tm", repr(t_m), "--th", repr(t_h),
            "--ps", repr(p_s), "--ts", repr(t_s)]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(analytic, "integrate", counted_integrate)
        status = cli.main(argv)
    assert status == 0, err.getvalue()

    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    empty = [r["quantity"] for r in rows if r["analytic"] == ""]
    for r in rows:
        if r["analytic"] != "":
            assert math.isfinite(float(r["analytic"])), r
    notes = err.getvalue().splitlines()
    assert len(notes) == len(empty)
    for quantity, note in zip(empty, notes):
        assert note.startswith(f"relaylab: note: {quantity} left empty: ")

    terms = next(r["analytic"] for r in rows if r["quantity"] == "truncation_terms")
    assert terms == "" or int(terms) <= analytic.SERIES_TERM_GUARD
    # one quadrature per report; past the budget only the open cells finish
    assert evals <= numerics._MAX_EVALS + 4 * numerics._MAX_DEPTH
