"""The in-tree Brent root finder against scipy.optimize, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import optimize

import robustfolio as rf
from robustfolio._brent import brentq
from robustfolio.baseline_solver import _feasible_interval_raw
from robustfolio.errors import NumericalFailure

# (xtol, rtol) of the two call sites: the baseline gradient root and the
# Davis price root
ROOT_TOLERANCES = [(1e-15, 8.882e-16), (1e-10, 8.882e-16)]


def assert_same_root(f, lo, hi, xtol, rtol):
    want = optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol, maxiter=200)
    got = brentq(f, lo, hi, xtol, rtol, 200)
    assert type(got) is float
    assert got == want, (got, want)
    # a stop test that never holds changes no step
    assert brentq(f, lo, hi, xtol, rtol, 200, stop=lambda *args: False) == want


@st.composite
def monotone_functions(draw):
    """(f, lo, hi) with f monotone on [lo, hi] and a sign change there."""
    root = draw(st.floats(-5.0, 5.0))
    scale = draw(st.floats(1e-3, 1e3))
    kind = draw(st.sampled_from(["cubic", "atan", "exp", "linear", "flat_tail"]))
    lo = root - draw(st.floats(1e-6, 10.0))
    hi = root + draw(st.floats(1e-6, 10.0))
    if kind == "cubic":
        slope = draw(st.floats(0.0, 2.0))

        def f(x):
            return scale * ((x - root) ** 3 + slope * (x - root))
    elif kind == "atan":
        def f(x):
            return math.atan(scale * (x - root))
    elif kind == "exp":
        def f(x):
            return math.exp(min(scale * (x - root), 700.0)) - 1.0
    elif kind == "linear":
        def f(x):
            return -scale * (x - root)
    else:  # nearly flat away from the root, steep near it
        def f(x):
            return math.tanh(scale * (x - root)) ** 3
    return f, lo, hi


@settings(max_examples=300, deadline=None)
@given(case=monotone_functions(), tols=st.sampled_from(ROOT_TOLERANCES))
def test_brentq_matches_scipy_on_monotone_functions(case, tols):
    f, lo, hi = case
    assume(f(lo) * f(hi) < 0.0)
    assert_same_root(f, lo, hi, *tols)


UTILITIES = [rf.log_shifted(1.0), rf.exponential(1.0), rf.exponential(3.0),
             rf.power(2.0, 1.0), rf.capped_exponential(1.0, 0.1)]


@settings(max_examples=300, deadline=None)
@given(pts=st.lists(st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) > 1e-9),
                     min_size=2, max_size=12),
       raw_w=st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12),
       utility=st.sampled_from(UTILITIES), shift=st.floats(-0.2, 0.2),
       tols=st.sampled_from(ROOT_TOLERANCES))
def test_brentq_matches_scipy_on_utility_gradients(pts, raw_w, utility, shift, tols):
    # pi -> E[X u'(pi X + e)], the baseline solver's gradient, on a random
    # measure over the domain-feasible strategies
    x = np.array(pts)
    assume(x.min() < 0.0 < x.max())
    w = np.array(raw_w[:x.size])
    w = w / w.sum()
    lo, hi = _feasible_interval_raw(x, shift, utility, -50.0, 50.0)
    assume(lo < hi)

    def grad(p):
        return float(np.dot(w * utility.u_prime(p * x + shift), x))

    assume(grad(lo) > 0.0 > grad(hi))
    assert_same_root(grad, float(lo), float(hi), *tols)


def test_brentq_refuses_nan_missing_bracket_and_slow_convergence():
    with pytest.raises(NumericalFailure, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, 1e-12, 8.882e-16, 200)
    with pytest.raises(NumericalFailure, match="sign change"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 8.882e-16, 200)
    steep = lambda x: math.tanh(50.0 * (x - 0.3))  # noqa: E731
    with pytest.raises(RuntimeError):
        optimize.brentq(steep, 0.0, 1.0, xtol=1e-15, rtol=8.882e-16, maxiter=3)
    with pytest.raises(NumericalFailure, match="did not converge"):
        brentq(steep, 0.0, 1.0, 1e-15, 8.882e-16, 3)
    # roots at the bracket ends come back unchanged
    assert brentq(lambda x: x, 0.0, 1.0, 1e-12, 8.882e-16, 200) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12, 8.882e-16, 200) == 1.0


def test_brentq_stop_returns_the_point_it_accepts():
    # the stop sees the best point, its value and the other end of the
    # bracket, and Brent returns that point once the test holds
    f = lambda x: math.atan(x - 0.3)  # noqa: E731
    seen = []

    def stop(x, fx, other):
        seen.append((x, fx, other))
        return abs(other - x) < 1e-3

    root = brentq(f, 0.0, 1.0, 1e-15, 8.882e-16, 200, stop=stop)
    x, fx, other = seen[-1]
    assert root == x and fx == f(x) and abs(other - x) < 1e-3
    assert all(abs(o - x) >= 1e-3 for x, _, o in seen[:-1])
    assert (0.0 - root) * (1.0 - root) < 0.0 and (f(root) < 0.0) != (f(other) < 0.0)
    assert len(seen) < 10
