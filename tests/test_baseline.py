"""Baseline expected-utility solver, pricing measure, and Davis price."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustfolio as rf
from robustfolio import (
    ArbitrageError,
    BoundaryOptimumError,
    ConfigError,
    DomainCompatibilityError,
    NumericalFailure,
    baseline_solver,
)
from robustfolio._brent import run
from robustfolio.baseline_solver import (_NEWTON_TOL, _concave_argmax, _concave_max_lanes,
                                         _concave_max_raw, _feasible_interval_raw)

from conftest import binomial_log_spec, normal_exp_spec, wide_interval

INF = rf.WassersteinOrder(math.inf)


def zero_mean_spec() -> rf.ProblemSpec:
    # three-atom law recentered so E[X] = 0 exactly
    w = np.array([0.35, 0.4, 0.25])
    pts = np.array([-1.0, 0.4, 1.2])
    model = rf.explicit(pts - float(pts @ w), w,
                        state_space=rf.StateSpace.interval(-2.0, 2.0))
    return rf.ProblemSpec(model=model, utility=rf.exponential(1.0),
                          action_space=rf.StateSpace.interval(-5.0, 5.0),
                          order=INF)


# ---------------------------------------------------------------------------
# solve_baseline
# ---------------------------------------------------------------------------

def test_binomial_log_closed_form():
    spec = binomial_log_spec(0.25, action=(-0.75, 0.75))
    sol = rf.solve_baseline(spec)
    assert sol.pi_star_scalar == pytest.approx(0.5, abs=1e-12)
    v0 = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert sol.V0 == pytest.approx(v0, abs=1e-12)
    assert not sol.boundary
    assert np.linalg.norm(sol.foc_residual) <= 1e-10


def test_normal_exponential_closed_form():
    sol = rf.solve_baseline(normal_exp_spec())
    assert sol.pi_star_scalar == pytest.approx(2.5, abs=1e-6)
    assert sol.V0 == pytest.approx(-math.exp(-0.125), abs=1e-6)


def test_degenerate_lemma_forward():
    # E[X] = 0 forces pi* = 0 and V0 = u(0)
    sol = rf.solve_baseline(zero_mean_spec())
    assert abs(sol.pi_star_scalar) <= 1e-10
    assert sol.pi_is_zero
    assert sol.V0 == pytest.approx(-1.0, abs=1e-12)


def test_degenerate_lemma_reverse():
    # nonzero mean forces |pi*| > 0
    for a in (0.05, 0.2, 0.45):
        sol = rf.solve_baseline(binomial_log_spec(a))
        assert abs(sol.pi_star_scalar) > 1e-6


def test_gradient_vanishes_at_interior_optimum():
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    h = 1e-6
    pi = sol.pi_star_scalar

    def obj(p):
        w = spec.model.support_1d * p
        return spec.model.expectation(spec.utility.u(w))

    num_grad = (obj(pi + h) - obj(pi - h)) / (2.0 * h)
    assert abs(num_grad) <= 1e-6


def test_hessian_matches_finite_differences():
    for spec in (binomial_log_spec(0.25), normal_exp_spec()):
        sol = rf.solve_baseline(spec)
        pi = sol.pi_star_scalar
        h = 1e-5

        def obj(p):
            w = spec.model.support_1d * p
            return spec.model.expectation(spec.utility.u(w))

        fd = (obj(pi + h) - 2.0 * obj(pi) + obj(pi - h)) / (h * h)
        assert sol.hessian[0, 0] == pytest.approx(fd, rel=1e-4)


def test_boundary_solution_flagged():
    spec = binomial_log_spec(0.25, action=(0.0, 0.2))
    sol = rf.solve_baseline(spec)
    assert sol.boundary
    assert sol.pi_star_scalar == pytest.approx(0.2, abs=1e-10)
    with pytest.raises(BoundaryOptimumError):
        rf.value_sensitivity(spec, sol)


def test_arbitrage_rejected_at_spec_construction():
    model = rf.explicit([0.5, 1.0], [0.5, 0.5])
    with pytest.raises(ArbitrageError):
        rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                       action_space=rf.StateSpace.interval(-1.0, 1.0),
                       order=INF)
    # the only loss sits on a zero-weight atom, so going long never loses
    model = rf.explicit([-1.0, 1.0], [1.0, 0.0])
    with pytest.raises(ArbitrageError) as err:
        rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                       action_space=rf.StateSpace.interval(-1.0, 1.0),
                       order=INF)
    assert err.value.exit_code == 3


def test_incompatible_action_space_rejected():
    # every strategy in A pushes wealth out of the log domain
    with pytest.raises(rf.DomainCompatibilityError):
        binomial_log_spec(0.25, action=(2.0, 3.0))


def test_action_space_dimension_checked():
    with pytest.raises(ConfigError):
        rf.ProblemSpec(model=rf.binomial(0.25), utility=rf.log_shifted(1.0),
                       action_space=rf.StateSpace((-1.0, -1.0), (1.0, 1.0)),
                       order=INF)


def test_multidimensional_solve():
    # two independent coordinates: the 2-d solve must match two 1-d solves
    pts_1d = np.array([-1.0, 1.0])
    w_1d = np.array([0.25, 0.75])
    pts = np.array([[x, y] for x in pts_1d for y in pts_1d])
    w = np.array([wx * wy for wx in w_1d for wy in w_1d])
    model = rf.DiscreteMeasure(points=pts, weights=w)
    spec = rf.ProblemSpec(model=model, utility=rf.exponential(1.0),
                          action_space=rf.StateSpace((-5.0, -5.0), (5.0, 5.0)),
                          order=INF)
    sol = rf.solve_baseline(spec)
    spec_1d = rf.ProblemSpec(model=rf.explicit(pts_1d, w_1d),
                             utility=rf.exponential(1.0),
                             action_space=rf.StateSpace.interval(-5.0, 5.0),
                             order=INF)
    sol_1d = rf.solve_baseline(spec_1d)
    assert sol.pi_star == pytest.approx([sol_1d.pi_star_scalar] * 2, abs=1e-8)
    with pytest.raises(ConfigError):
        sol.pi_star_scalar


def test_projected_newton_with_an_active_bound():
    # 40 random two-asset returns, log utility: on A = [-10, 10]^2 the optimum
    # (2.1295, 3.8475) is interior; on A = [-3, 3]^2 the second coordinate
    # binds and the first solves its own first-order condition (L-BFGS-B
    # finds (2.0767, 3.0) with V0 = 0.22682368832944189). A full Newton step
    # clipped to the box used to stall there and raise NumericalFailure.
    pts = np.random.default_rng(0).normal([0.08, 0.05], [0.2, 0.15], (40, 2))
    spec = rf.ProblemSpec(model=rf.DiscreteMeasure(points=pts, weights=np.full(40, 1 / 40)),
                          utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace((-3.0, -3.0), (3.0, 3.0)),
                          order=INF)
    sol = rf.solve_baseline(spec)
    assert sol.boundary
    assert sol.pi_star[1] == 3.0
    assert sol.pi_star[0] == pytest.approx(2.0767499, abs=1e-5)
    # the free coordinate meets the solver's tolerance (the last step lowers
    # f by an ulp to get there); the bound one is held by a gradient
    # pointing out of the box
    assert abs(sol.foc_residual[0]) <= _NEWTON_TOL and sol.foc_residual[1] > 0.0
    assert sol.V0 == pytest.approx(0.22682368832944189, abs=1e-12)
    assert sol.V0 >= 0.22682368832944189  # at least as high as L-BFGS-B's


def test_with_order_swaps_the_order_without_checking_again(monkeypatch):
    # no check of construction reads the order: the copy shares every other
    # field and runs none of them
    spec = binomial_log_spec(0.25)
    checks = []
    monkeypatch.setattr(baseline_solver, "no_arbitrage_check",
                        lambda model: checks.append(model) or True)
    moved = spec.with_order(rf.WassersteinOrder(2.0))
    assert checks == []
    assert moved.order.p == 2.0 and spec.order.is_inf
    for name in ("model", "utility", "action_space", "payoff", "state_space"):
        assert getattr(moved, name) is getattr(spec, name)
    rf.ProblemSpec(model=spec.model, utility=spec.utility, action_space=spec.action_space)
    assert len(checks) == 1


def test_concave_argmax_replaces_infinite_ends_by_doubling():
    # a root at 3 on the whole line, an end pinned at 5 beyond an infinite
    # lower end, and a root at -40 past several doublings
    pi, _ = _concave_argmax(lambda t: 3.0 - t, -math.inf, math.inf)
    assert pi == pytest.approx(3.0, abs=1e-14)
    assert _concave_argmax(lambda t: 7.0 - t, -math.inf, 5.0) == (5.0, True)
    pi, _ = _concave_argmax(lambda t: -40.0 - t, -math.inf, 0.0)
    assert pi == pytest.approx(-40.0, abs=1e-13)


def test_concave_argmax_refuses_a_slope_that_never_turns():
    with pytest.raises(NumericalFailure, match="float range"):
        _concave_argmax(lambda t: 1.0, 0.0, math.inf)
    with pytest.raises(NumericalFailure, match="float range"):
        _concave_argmax(lambda t: -1.0, -math.inf, 1.0)


def test_concave_argmax_brackets_from_a_start():
    # from a start, steps double the way the gradient points until it turns:
    # 0 + 0.5, 1, 2, 4 passes the root at 3, and the ends are never asked for
    asked = []

    def grad(t):
        asked.append(t)
        return 3.0 - t

    pi, pinned = _concave_argmax(grad, -10.0, 10.0, start=0.0, step=0.5)
    assert asked[:5] == [0.0, 0.5, 1.0, 2.0, 4.0]
    assert -10.0 not in asked and 10.0 not in asked
    assert pi == pytest.approx(3.0, abs=1e-14) and not pinned
    # a step past an end brackets with that end, which the gradient pins
    assert _concave_argmax(lambda t: -5.0 - t, -2.0, 10.0, start=4.0, step=1.0) == (-2.0, True)
    # a start on an end the gradient points out of, and a start on the root
    assert _concave_argmax(lambda t: 7.0 - t, -10.0, 5.0, start=5.0, step=0.5) == (5.0, True)
    assert _concave_argmax(lambda t: 7.0 - t, -10.0, 10.0, start=7.0, step=0.5) == (7.0, False)
    # an infinite step brackets with the end, as a search without a start
    pi, _ = _concave_argmax(lambda t: 3.0 - t, 0.0, math.inf, start=1.0)
    assert pi == pytest.approx(3.0, abs=1e-14)


@pytest.mark.parametrize("x, w, utility, a_lo, a_hi, endowment", [
    ([-1.0, 1.0], [0.25, 0.75], rf.log_shifted(1.0), -0.95, 0.95, 0.0),  # root
    ([-1.0, 1.0], [0.1, 0.9], rf.log_shifted(1.0), -0.5, 0.5, 0.0),  # pinned at A's end
    ([-1.0, 0.5, 2.0], [0.3, 0.4, 0.3], rf.exponential(1.0), -math.inf, math.inf, 0.0),
    ([-0.5, 1.5], [0.6, 0.4], rf.exponential(2.0), -math.inf, 0.0, 0.0),  # pinned at 0
    ([-1.0, 0.2, 1.0], [0.2, 0.5, 0.3], rf.capped_exponential(1.0, 0.1), -50.0, 50.0,
     np.array([0.01, -0.02, 0.03])),
])
def test_concave_max_asks_the_gradient_once_per_point(x, w, utility, a_lo, a_hi, endowment):
    # the end tests, the doubling of an infinite end, Brent and the Newton
    # polish share one set of gradient values: u' sees each wealth vector once
    wealths = []
    u_prime = utility.u_prime
    recording = dataclasses.replace(
        utility, u_prime=lambda v: wealths.append(np.array(v).tobytes()) or u_prime(v))
    _concave_max_raw(np.array(x), np.array(w), recording, a_lo, a_hi, endowment)
    assert wealths
    assert len(set(wealths)) == len(wealths)


# ---------------------------------------------------------------------------
# lockstep lanes: the bits and the errors of one solve at a time
# ---------------------------------------------------------------------------

def nan_band(utility: rf.Utility, lo: float, hi: float) -> rf.Utility:
    """``utility`` whose u' is NaN at wealths in (lo, hi)."""
    u_prime = utility.u_prime
    return dataclasses.replace(utility, u_prime=lambda v: np.where(
        (np.asarray(v) > lo) & (np.asarray(v) < hi), np.nan, u_prime(v)))


LANE_UTILITIES = st.one_of(
    st.builds(rf.log_shifted, st.sampled_from([0.5, 1.0, 2.0])),
    st.builds(rf.exponential, st.sampled_from([0.5, 1.0, 3.0])),
    st.builds(rf.power, st.sampled_from([0.5, 2.0, 3.0]), st.sampled_from([1.0, 2.0])),
    st.builds(rf.capped_exponential, st.just(1.0), st.sampled_from([0.1, 0.5, 2.0])),
)
# A: open both ways, wide, with an infinite end, pinning the optimum on
# an end, or empty of feasible strategies for the domain-bounded utilities
LANE_ACTIONS = st.sampled_from([(-math.inf, math.inf), (-50.0, 50.0), (-math.inf, 0.0),
                                (0.0, math.inf), (0.0, 0.05), (-0.05, 0.0), (40.0, 50.0)])
COORDINATE = st.floats(0.05, 2.0).map(lambda v: round(v, 3))


@st.composite
def lane_problems(draw, utilities):
    """One lane: positive-weight atoms on both sides of 0, some zero-weight
    atoms, an A from LANE_ACTIONS and an endowment of 0 or one per atom."""
    neg = [-v for v in draw(st.lists(COORDINATE, min_size=1, max_size=4))]
    pos = draw(st.lists(COORDINATE, min_size=1, max_size=4))
    idle = draw(st.lists(st.floats(-3.0, 3.0).map(lambda v: round(v, 2)), max_size=2))
    x = np.array(neg + pos + idle)
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(neg) + len(pos),
                               max_size=len(neg) + len(pos))) + [0.0] * len(idle))
    order = draw(st.permutations(range(x.size)))
    x, w = x[order], w[order] / w.sum()
    e = draw(st.one_of(st.just(0.0), st.lists(st.floats(-0.1, 0.1), min_size=x.size,
                                              max_size=x.size).map(np.array)))
    a_lo, a_hi = draw(LANE_ACTIONS)
    return x, w, draw(st.sampled_from(utilities)), a_lo, a_hi, e


@st.composite
def lane_families(draw):
    """1 to 6 lanes over 1 or 2 utilities, each perhaps with a NaN band of u'."""
    utilities = draw(st.lists(LANE_UTILITIES, min_size=1, max_size=2))
    if draw(st.booleans()):
        lo = draw(st.floats(-1.0, 1.0))
        utilities = [nan_band(u, lo, lo + 0.1) for u in utilities]
    return draw(st.lists(lane_problems(utilities), min_size=1, max_size=6))


def outcomes(results) -> tuple[list, tuple | None]:
    """The items of an iterable up to the error it raises, and that error."""
    done = []
    try:
        for item in results:
            done.append(item)
    except Exception as exc:
        return done, (type(exc), str(exc))
    return done, None


def one_at_a_time(problems):
    for problem in problems:
        yield _concave_max_raw(*problem)


def by_hand(x, w, utility, a_lo, a_hi, e):
    """``_concave_max_raw`` without ``_Lane``: the steps of ``_max_steps`` on
    the feasible interval of every atom, answered by sums over the atoms of
    positive weight alone, each with its own endowment."""
    lo, hi = _feasible_interval_raw(x, e, utility, a_lo, a_hi)
    if not lo < hi:
        raise DomainCompatibilityError("empty feasible strategy interval")
    keep = w > 0.0
    x, w, e = x[keep], w[keep], (np.zeros(x.size) + e)[keep]

    def answer(request):
        if isinstance(request, tuple):
            return float((w * utility.u_double_prime(request[0] * x + e)).dot(x * x))
        return float((w * utility.u_prime(request * x + e)).dot(x))

    return run(baseline_solver._max_steps(lo, hi, a_lo, a_hi), answer)


def by_hand_quietly(problems):
    """``by_hand`` of each problem; its warnings are the loop's own."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return outcomes(by_hand(*problem) for problem in problems)


def as_bits(maxima) -> list:
    return [(float(pi).hex(), boundary) for pi, boundary in maxima]


@settings(max_examples=300, deadline=None)
@given(problems=lane_families())
def test_lockstep_lanes_give_the_bits_and_errors_of_one_at_a_time(problems):
    # ragged lanes, zero-weight atoms, optima pinned on A, infinite ends,
    # endowments and NaN gradients: the lockstep driver gives each lane's
    # answer bit for bit, and the error the loop would raise first; its
    # padded cells warn of nothing the lanes alone do not. Both build
    # ``_Lane``, so both are also checked against a solve that does not: a
    # lane that dropped an atom's endowment with its zero weight wrongly
    # would fail both alike
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        want, want_error = outcomes(one_at_a_time(problems))
        alone = len(seen)
        got, got_error = outcomes(_concave_max_lanes(problems))
    assert as_bits(got) == as_bits(want)
    assert got_error == want_error
    assert alone or not seen
    hand, hand_error = by_hand_quietly(problems)
    assert as_bits(want) == as_bits(hand)
    assert want_error == hand_error


def test_lockstep_raises_the_first_failing_lane_in_order():
    # lane 0 meets its NaN band only once Brent nears its root at 0.5; lane
    # 1 meets it at its first point: the loop raises lane 0's error, and
    # so does the lockstep driver, though lane 1 fails rounds earlier
    u = nan_band(rf.log_shifted(1.0), 0.45, 0.55)
    x, w = np.array([-1.0, 1.0]), np.array([0.25, 0.75])
    problems = [(x, w, u, -0.9, 0.9, 0.0), (x, w, u, 0.46, 0.9, 0.0)]
    want, want_error = outcomes(one_at_a_time(problems))
    with pytest.raises(NumericalFailure, match="NaN") as lane_1:
        _concave_max_raw(*problems[1])
    assert want == [] and want_error[0] is NumericalFailure
    assert want_error[1] != str(lane_1.value)
    assert outcomes(_concave_max_lanes(problems)) == (want, want_error)
    # the same when lane 1's own wealth makes u' raise, in the round's
    # one u' call for both lanes

    def refusing(v):
        if np.any(np.asarray(v) > 1.5):
            raise ValueError("wealth above 1.5")
        return u.u_prime(v)

    strict = dataclasses.replace(u, u_prime=refusing)
    problems = [(x, w, strict, -0.9, 0.9, 0.0),
                (np.array([-0.25, 2.0]), w, strict, 0.8, 0.9, 0.0)]
    with pytest.raises(ValueError, match="above 1.5"):
        _concave_max_raw(*problems[1])
    assert outcomes(_concave_max_lanes(problems)) == outcomes(one_at_a_time(problems))
    assert outcomes(_concave_max_lanes(problems[1:] + problems[:1]))[1][0] is ValueError


CATALOG = {"log_shifted": rf.log_shifted(1.0), "power": rf.power(3.0, 1.0),
           "exponential": rf.exponential(2.0), "capped_exponential": rf.capped_exponential(2.0, 0.5)}
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def lane_points(draw, member: str):
    """(atoms, weights, strategy): the wealths pi * x hold signed zeros,
    ordinary values and, for the exponential members, wealths whose exp
    argument -gamma * pi * x passes 709.78 (gamma = 2, |pi x| >= 400); an
    atom may have no weight."""
    # wealth inside the log and power domains at |pi| <= 1
    near = st.floats(-0.4, 0.4, allow_subnormal=False)
    atom = st.one_of(SIGNED_ZEROS, near)
    if member.endswith("exponential"):
        atom = st.one_of(atom, st.floats(400.0, 1e4), st.floats(-1e4, -400.0))
    x = np.array(draw(st.lists(atom, min_size=1, max_size=6)))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=x.size,
                               max_size=x.size).filter(any)))
    return x, w / w.sum(), draw(st.one_of(SIGNED_ZEROS, st.floats(-1.0, 1.0, allow_subnormal=False)))


@pytest.mark.parametrize("member", sorted(CATALOG))
@settings(max_examples=100)
@given(data=st.data())
def test_a_lane_of_zero_endowment_keeps_the_bits_of_explicit_zeros(member, data):
    # a lane without endowment evaluates at pi * x alone, one with zeros at
    # pi * x + 0.0, which turns -0.0 into 0.0: the u' and u'' sums agree bit
    # for bit (a sum of saturated terms is inf or NaN, and warns so, on both
    # alike), and past exp's range u, u' and u'' saturate to -inf, inf and
    # -inf without a warning
    u = CATALOG[member]
    x, w, pi = data.draw(lane_points(member))
    bare = baseline_solver._Lane(x, w, u, -1.0, 1.0)
    zeros = baseline_solver._Lane(x, w, u, -1.0, 1.0, np.zeros(x.size))
    assert bare.e is None and zeros.e is not None
    with np.errstate(over="ignore", invalid="ignore"):
        for request in (pi, (pi,)):
            assert np.float64(bare.answer(request)).tobytes() == \
                np.float64(zeros.answer(request)).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wealth = pi * x
        values = u.u(wealth), u.u_prime(wealth), u.u_double_prime(wealth)
    overflow = -2.0 * wealth > 709.78
    if member == "exponential":
        assert [v[overflow].tolist() for v in values] == [
            [-math.inf] * overflow.sum(), [math.inf] * overflow.sum(), [-math.inf] * overflow.sum()]
    assert all(np.isfinite(v[~overflow]).all() for v in values)


def solution_bits(sol: rf.BaselineSolution) -> tuple:
    return (sol.pi_star.tobytes(), sol.boundary, float(sol.V0).hex(),
            sol.foc_residual.tobytes(), sol.hessian.tobytes())


@settings(max_examples=150, deadline=None)
@given(problems=lane_families())
def test_solve_baselines_and_endowments_match_one_at_a_time(problems):
    specs = []
    for x, w, utility, a_lo, a_hi, _ in problems:
        try:
            specs.append(rf.ProblemSpec(model=rf.explicit(x, w), utility=utility,
                                        action_space=rf.StateSpace.interval(a_lo, a_hi)))
        except rf.RobustfolioError:
            pass
    want, want_error = outcomes(rf.solve_baseline(spec) for spec in specs)
    got, got_error = outcomes(rf.solve_baselines(specs))
    assert [solution_bits(s) for s in got] == [solution_bits(s) for s in want]
    assert got_error == want_error
    # the perturbed problems of one model, with endowment vectors
    if specs:
        spec = specs[0]
        endowments = [np.asarray(e) + np.zeros(spec.model.n_atoms)
                      for *_, e in problems if np.size(e) in (1, spec.model.n_atoms)]
        want, want_error = outcomes(rf.solve_with_endowment(spec, e) for e in endowments)
        got, got_error = outcomes(rf.solve_with_endowments(spec, endowments))
        assert ([(float(v).hex(), pi.tobytes()) for v, pi in got]
                == [(float(v).hex(), pi.tobytes()) for v, pi in want])
        assert got_error == want_error
        # the model keeps its zero-weight atoms, each with its endowment
        hand, hand_error = by_hand_quietly(
            baseline_solver._problem(spec, e) for e in endowments)
        assert [pi.tobytes() for _, pi in want] == [np.array([pi]).tobytes() for pi, _ in hand]
        assert want_error == hand_error


def _interval_by_atoms(x, endowment, domain, a_lo, a_hi):
    """Reference: intersect the per-atom half-lines one atom at a time."""
    margin = 1e-9
    e = np.zeros(len(x)) + endowment
    d_lo, d_hi = domain
    lo, hi = a_lo, a_hi
    for xi, ei in zip(x, e):
        if xi > 0.0:
            if not math.isinf(d_lo):
                lo = max(lo, (d_lo + margin - ei) / xi)
            if not math.isinf(d_hi):
                hi = min(hi, (d_hi - margin - ei) / xi)
        elif xi < 0.0:
            if not math.isinf(d_lo):
                hi = min(hi, (d_lo + margin - ei) / xi)
            if not math.isinf(d_hi):
                lo = max(lo, (d_hi - margin - ei) / xi)
        elif not (d_lo + margin <= ei <= d_hi - margin):
            return 1.0, 0.0
    return lo, hi


@settings(max_examples=300)
@given(x=st.lists(st.floats(-3.0, 3.0).map(lambda v: round(v, 3)), min_size=1, max_size=6),
       endowment=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
       domain=st.sampled_from([(-1.0, math.inf), (-math.inf, math.inf), (-2.0, 3.0),
                               (-0.25, math.inf)]),
       action=st.sampled_from([(-5.0, 5.0), (-math.inf, math.inf), (0.0, 2.0),
                               (-math.inf, 0.0)]))
def test_feasible_interval_is_the_intersection_of_per_atom_half_lines(x, endowment, domain,
                                                                       action):
    utility = dataclasses.replace(rf.log_shifted(1.0), domain=domain)
    got = _feasible_interval_raw(np.array(x), endowment, utility, *action)
    assert got == _interval_by_atoms(x, endowment, domain, *action)


@pytest.mark.parametrize("atom", [2.2e-313, -2.2e-313, 5e-324])
@pytest.mark.parametrize("action", [(-0.5, 0.5), (-math.inf, math.inf)])
def test_a_subnormal_atom_bounds_the_feasible_interval_at_its_limit(atom, action):
    # (1e-9 - 1) / 2.2e-313 overflows: the quotient's limit, -inf (+inf for
    # a negative atom), never binds, and it comes without a warning (the
    # pytest configuration raises RuntimeWarnings)
    utility = rf.log_shifted(1.0)
    got = _feasible_interval_raw(np.array([atom, -1.0, 1.0]), 0.0, utility, *action)
    assert got == _feasible_interval_raw(np.array([-1.0, 1.0]), 0.0, utility, *action)


# ---------------------------------------------------------------------------
# pricing measure
# ---------------------------------------------------------------------------

def test_q_u_binomial_is_half_half():
    for a in (0.1, 0.25, 0.4):
        spec = binomial_log_spec(a)
        q_u = rf.q_u_measure(spec, rf.solve_baseline(spec))
        assert q_u.weights == pytest.approx([0.5, 0.5], abs=1e-12)


def test_q_u_martingale_property():
    for spec in (binomial_log_spec(0.3), normal_exp_spec()):
        q_u = rf.q_u_measure(spec, rf.solve_baseline(spec))
        assert abs(q_u.expectation(q_u.support_1d)) <= 1e-8


def test_q_u_second_moment_normal():
    spec = normal_exp_spec()
    q_u = rf.q_u_measure(spec, rf.solve_baseline(spec))
    assert q_u.expectation(q_u.support_1d ** 2) == pytest.approx(0.04, abs=1e-6)


def test_q_u_at_pi_zero_is_the_model():
    spec = zero_mean_spec()
    q_u = rf.q_u_measure(spec, rf.solve_baseline(spec))
    assert q_u.weights == pytest.approx(spec.model.weights, abs=1e-12)


def test_q_u_refuses_boundary_optimum():
    spec = binomial_log_spec(0.25, action=(0.0, 0.2))
    sol = rf.solve_baseline(spec)
    with pytest.raises(BoundaryOptimumError):
        rf.q_u_measure(spec, sol)


def test_solve_baseline_builds_no_measure(monkeypatch):
    # only a price reads Q_u, and most solves never price: q_u_measure
    # builds it on demand
    spec = normal_exp_spec()
    built = []
    check = rf.DiscreteMeasure.__post_init__
    monkeypatch.setattr(rf.DiscreteMeasure, "__post_init__",
                        lambda self: built.append(self.kind) or check(self))
    sol = rf.solve_baseline(spec)
    assert built == []
    rf.q_u_measure(spec, sol)
    assert built == ["q_u"]


# ---------------------------------------------------------------------------
# Davis price
# ---------------------------------------------------------------------------

def test_davis_price_binomial():
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    assert rf.davis_price(spec, sol, rf.power_payoff(3)) == pytest.approx(0.0, abs=1e-12)
    assert rf.davis_price(spec, sol, rf.call_payoff(0.0)) == pytest.approx(0.5, abs=1e-12)


def test_davis_price_constant_payoff():
    xs = np.linspace(-2.0, 2.0, 5)
    const = rf.custom_payoff(xs, np.full(5, 0.7))
    for spec in (binomial_log_spec(0.3), normal_exp_spec()):
        sol = rf.solve_baseline(spec)
        assert rf.davis_price(spec, sol, const) == pytest.approx(0.7, abs=1e-12)


def test_davis_price_linear_in_payoff():
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    g1, g2 = rf.call_payoff(0.0), rf.power_payoff(2)
    combo = rf.Payoff(kind="custom",
                      value=lambda x: 2.0 * g1(x) - 3.0 * g2(x),
                      grad=lambda x: 2.0 * g1.grad(x) - 3.0 * g2.grad(x))
    lhs = rf.davis_price(spec, sol, combo)
    rhs = 2.0 * rf.davis_price(spec, sol, g1) - 3.0 * rf.davis_price(spec, sol, g2)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_davis_price_via_root_binomial():
    spec = binomial_log_spec(0.25)
    price = rf.davis_price_via_root(spec, rf.call_payoff(0.0), (0.1, 0.9))
    assert price == pytest.approx(0.5, abs=1e-5)


def test_davis_price_via_root_normal():
    spec = normal_exp_spec()
    price = rf.davis_price_via_root(spec, rf.power_payoff(2), (0.01, 0.1))
    assert price == pytest.approx(0.04, abs=1e-4)


def test_davis_price_via_root_constant_one():
    xs = np.linspace(-2.0, 2.0, 5)
    one = rf.custom_payoff(xs, np.ones(5))
    spec = binomial_log_spec(0.25)
    price = rf.davis_price_via_root(spec, one, (0.5, 1.5))
    assert price == pytest.approx(1.0, abs=1e-8)


def test_davis_price_via_root_needs_sign_change():
    spec = binomial_log_spec(0.25)
    with pytest.raises(NumericalFailure):
        rf.davis_price_via_root(spec, rf.call_payoff(0.0), (0.9, 1.5))


def test_perturbed_optimizer_continuity():
    # the eps-perturbed optimizer converges to pi* as eps -> 0
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    g = rf.call_payoff(0.0)
    price = rf.davis_price(spec, sol, g)
    g_vals = g(spec.model.support_1d)
    deviations = []
    for eps in (1e-2, 1e-3, 1e-4):
        _, pi_eps = rf.solve_with_endowment(spec, eps * (g_vals / price - 1.0))
        deviations.append(abs(float(pi_eps[0]) - sol.pi_star_scalar))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] <= 1e-3


# ---------------------------------------------------------------------------
# payoff catalog
# ---------------------------------------------------------------------------

def test_payoff_values_away_from_kinks():
    x = np.array([-0.6, -0.2, 0.3, 0.9])
    assert rf.power_payoff(3)(x) == pytest.approx(x ** 3)
    assert rf.call_payoff(0.0)(x) == pytest.approx(np.maximum(x, 0.0))
    assert rf.butterfly_payoff(0.5)(x) == pytest.approx(np.maximum(0.5 - np.abs(x), 0.0))
    assert rf.abs_shift_payoff(0.5)(x) == pytest.approx(np.abs(x + 0.5))


def test_payoff_smoothing_band():
    g = rf.call_payoff(0.0, smoothing=1e-4)
    # inside the band the payoff is the quadratic cap, C^1 at the edges
    assert g(np.array([0.0]))[0] == pytest.approx(2.5e-5, rel=1e-12)
    assert g.grad(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
    assert g.grad(np.array([1e-4]))[0] == pytest.approx(1.0, abs=1e-12)
    assert g.grad(np.array([-1e-4]))[0] == pytest.approx(0.0, abs=1e-12)


def test_custom_payoff_interpolation():
    xs = np.array([-1.0, 0.0, 1.0])
    ys = np.array([1.0, 0.0, 1.0])
    g = rf.custom_payoff(xs, ys)
    assert g(np.array([0.5]))[0] == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        rf.custom_payoff([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ConfigError):
        rf.custom_payoff([0.0], [1.0])


def test_make_payoff_dispatch():
    g = rf.make_payoff({"kind": "call", "strike": 0.1})
    assert g.params["strike"] == 0.1
    with pytest.raises(ConfigError):
        rf.make_payoff({"kind": "digital"})
    with pytest.raises(ConfigError):
        rf.make_payoff({"kind": "power", "exponent": 2})


def test_power_payoff_validation():
    with pytest.raises(ConfigError):
        rf.power_payoff(0)
    with pytest.raises(ConfigError):
        rf.butterfly_payoff(-0.5)
