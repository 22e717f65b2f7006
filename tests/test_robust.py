"""Robust solves: exact p=inf reduction and the finite-p adversarial oracle."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

import robustfolio as rf
from robustfolio import (AssumptionViolation, ConfigError, DegenerateSensitivityError,
                         DomainCompatibilityError, NumericalFailure, robust_solver)
from robustfolio.baseline_solver import PI_ZERO_THRESHOLD, _feasible_interval_raw
from robustfolio.robust_solver import (_checked_multiplier, _cost_order, _displacement_grid,
                                       _merged, _multiplier_plans, _window)
from robustfolio.sensitivity import zero_strategy

from conftest import ROOT, binomial_log_spec, load_bench, normal_exp_spec

INF = rf.WassersteinOrder(math.inf)
EPS = float(np.finfo(float).eps)

# binomial(0.25) on S = [-1.25, 1.25], log_shifted(1), pi = 0.5, delta = 0.1,
# p = 2: the inner infimum recorded once, and frozen, from a brute-force
# recipe that is no longer in the library (a uniform displacement grid of
# step 1e-4, two fragments per atom, no refinement); the adaptive search must
# stay on it.
FROZEN_INNER_INF_BINOMIAL_P2 = 0.06850930722573843


def zero_mean_spec(p: float = math.inf) -> rf.ProblemSpec:
    w = np.array([0.35, 0.4, 0.25])
    pts = np.array([-1.0, 0.4, 1.2])
    model = rf.explicit(pts - float(pts @ w), w,
                        state_space=rf.StateSpace.interval(-2.0, 2.0))
    return rf.ProblemSpec(model=model, utility=rf.exponential(1.0),
                          action_space=rf.StateSpace.interval(-5.0, 5.0),
                          order=rf.WassersteinOrder(p))


# ---------------------------------------------------------------------------
# p = inf exact solve
# ---------------------------------------------------------------------------

def test_robust_inf_normal_closed_form():
    spec = normal_exp_spec()
    for delta in (0.0, 0.02, 0.05, 0.1):
        sol = rf.robust_solve_inf(spec, delta)
        v = -math.exp(-((0.1 - delta) ** 2) / 0.08)
        pi = (0.1 - delta) / 0.04
        assert sol.V_delta == pytest.approx(v, abs=1e-6)
        assert sol.pi_delta[0] == pytest.approx(pi, abs=1e-5)
        assert sol.method == "inf_exact"


def test_robust_inf_binomial_closed_form():
    # reduced two-point first-order condition at delta = 0.1
    spec = binomial_log_spec(0.25)
    sol = rf.robust_solve_inf(spec, 0.1)
    assert sol.pi_delta[0] == pytest.approx(0.4 / 0.99, abs=1e-8)


def test_robust_inf_delta_zero_is_baseline():
    spec = binomial_log_spec(0.25)
    base = rf.solve_baseline(spec)
    sol = rf.robust_solve_inf(spec, 0.0)
    assert sol.V_delta == pytest.approx(base.V0, abs=1e-12)
    assert sol.pi_delta[0] == pytest.approx(base.pi_star_scalar, abs=1e-10)
    assert sol.transport_cost == 0.0


def test_robust_inf_adversary_is_shifted_model():
    spec = binomial_log_spec(0.25)
    sol = rf.robust_solve_inf(spec, 0.1)
    # optimal position is long, so every atom moves down by delta
    assert sol.adversary.support_1d == pytest.approx([-1.1, 0.9], abs=1e-12)
    assert sol.adversary.weights == pytest.approx([0.25, 0.75], abs=1e-15)
    assert sol.transport_cost <= 0.1 * (1.0 + 1e-9)


def test_robust_inf_past_the_mean_parks_at_zero():
    # once delta exceeds E[X] the investor stays flat and the saddle
    # adversary recenters the model
    spec = normal_exp_spec()
    sol = rf.robust_solve_inf(spec, 0.15)
    assert abs(sol.pi_delta[0]) <= 1e-10
    assert sol.V_delta == pytest.approx(-1.0, abs=1e-9)
    mean_adv = float(sol.adversary.weights @ sol.adversary.support_1d)
    assert abs(mean_adv) <= 1e-10


def test_robust_inf_monotone_in_delta():
    spec = binomial_log_spec(0.25)
    sols = rf.solve_delta_grid(spec, np.arange(0.0, 0.31, 0.05))
    values = [s.V_delta for s in sols]
    assert all(type(v) is float for v in values)
    for hi, lo in zip(values[:-1], values[1:]):
        assert lo <= hi + 1e-12


def test_robust_inf_optimizer_converges_to_baseline():
    spec = binomial_log_spec(0.25)
    base = rf.solve_baseline(spec)
    devs = []
    for delta in (0.1, 0.05, 0.01, 0.001):
        sol = rf.robust_solve_inf(spec, delta)
        devs.append(abs(sol.pi_delta[0] - base.pi_star_scalar))
    for hi, lo in zip(devs[:-1], devs[1:]):
        assert lo < hi


# ---------------------------------------------------------------------------
# finite-p inner oracle
# ---------------------------------------------------------------------------

def test_inner_inf_delta_zero_and_pi_zero():
    P = rf.binomial(0.25)
    u = rf.log_shifted(1.0)
    order = rf.WassersteinOrder(2.0)
    base_value = P.expectation(u.u(0.5 * P.support_1d))
    value, adv = rf.adversary_inner_inf(P, u, 0.5, 0.0, order)
    assert value == pytest.approx(base_value, abs=1e-15)
    assert adv is P
    value, adv = rf.adversary_inner_inf(P, u, 0.0, 0.3, order)
    assert value == pytest.approx(u.u(0.0), abs=1e-15)


def test_inner_inf_frozen_reference_value():
    P = rf.binomial(0.25, state_space=rf.StateSpace.interval(-1.25, 1.25))
    u = rf.log_shifted(1.0)
    order = rf.WassersteinOrder(2.0)
    value, adv = rf.adversary_inner_inf(P, u, 0.5, 0.1, order)
    assert value == pytest.approx(FROZEN_INNER_INF_BINOMIAL_P2, abs=1e-5)
    # and the attained adversary must certify its own value and budget
    cost = rf.wasserstein_distance(P, adv, order)
    assert cost <= 0.1 * (1.0 + 1e-9)
    attained = adv.expectation(u.u(0.5 * adv.support_1d))
    assert attained == pytest.approx(value, abs=1e-12)


def test_inner_inf_sandwich():
    P = rf.binomial(0.25, state_space=rf.StateSpace.interval(-1.25, 1.25))
    u = rf.log_shifted(1.0)
    order = rf.WassersteinOrder(2.0)
    pi = 0.5
    base_value = P.expectation(u.u(pi * P.support_1d))
    # moving everything to the bottom of S is the worst conceivable case
    floor_value = float(u.u(pi * -1.25))
    for delta in (0.01, 0.1, 0.3):
        value, _ = rf.adversary_inner_inf(P, u, pi, delta, order)
        assert value < base_value
        assert value > floor_value


def test_inner_inf_value_nonincreasing_in_delta():
    P = rf.binomial(0.25, state_space=rf.StateSpace.interval(-1.25, 1.25))
    u = rf.log_shifted(1.0)
    order = rf.WassersteinOrder(2.0)
    values = [rf.adversary_inner_inf(P, u, 0.5, d, order)[0]
              for d in (0.0, 0.02, 0.05, 0.1, 0.2)]
    for hi, lo in zip(values[:-1], values[1:]):
        assert lo <= hi + 1e-12


def test_inner_inf_argument_validation():
    P = rf.binomial(0.25)
    u = rf.log_shifted(1.0)
    with pytest.raises(ConfigError):
        rf.adversary_inner_inf(P, u, 0.5, 0.1, INF)
    with pytest.raises(ConfigError):
        rf.adversary_inner_inf(P, u, 0.5, -0.1, rf.WassersteinOrder(2.0))
    with pytest.raises(ConfigError):
        rf.adversary_inner_inf(P, u, 0.5, math.nan, rf.WassersteinOrder(2.0))
    big = rf.explicit(np.linspace(-1.0, 1.0, 17), np.full(17, 1.0 / 17.0))
    with pytest.raises(ConfigError):
        rf.adversary_inner_inf(big, u, 0.1, 0.1, rf.WassersteinOrder(2.0))


def test_inner_inf_needs_bounded_displacement():
    P = rf.explicit([-1.0, 1.0], [0.25, 0.75])  # no state space declared
    with pytest.raises((DomainCompatibilityError, DegenerateSensitivityError)):
        rf.adversary_inner_inf(P, rf.log_shifted(1.0), 0.5, 0.1,
                               rf.WassersteinOrder(2.0))


def transport_lp_value(P, u, pi, delta, p, grid_points):
    """The oracle's unrefined grid program solved by a generic LP: every atom
    moves against the position along its ``_displacement_grid``, mass m_ij of
    atom i goes to displacement s_j, and
    min sum_ij w_i m_ij u(pi (x_i + s_j)) s.t. sum_j m_ij = 1,
    sum_ij w_i m_ij |s_j|^p <= delta^p, m >= 0."""
    x, w = P.support_1d, P.weights
    floor, ceil = P.state_space.lower[0], P.state_space.upper[0]
    c, a_cost, a_eq = [], [], []
    for i, xi in enumerate(x):
        lo, hi = (floor - xi, 0.0) if pi > 0.0 else (0.0, ceil - xi)
        s = _displacement_grid(lo, hi, grid_points)
        c.append(w[i] * u.u(pi * (xi + s)))
        a_cost.append(w[i] * np.abs(s) ** p)
        a_eq.append(np.full(s.size, float(i)))
    rows = np.concatenate(a_eq)
    res = linprog(np.concatenate(c), A_ub=np.concatenate(a_cost)[None, :],
                  b_ub=[delta ** p],
                  A_eq=(rows[None, :] == np.arange(len(x))[:, None]).astype(float),
                  b_eq=np.ones(len(x)), bounds=(0.0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return res.fun


@pytest.mark.parametrize("points, weights, pi, p", [
    ([-1.0, 1.0], [0.25, 0.75], 0.5, 2.0),
    ([-0.6, -0.1, 0.4], [0.3, 0.3, 0.4], -0.7, 3.0),
    ([-0.8, -0.2, 0.3, 0.9], [0.1, 0.2, 0.3, 0.4], 0.6, 1.5),
])
def test_inner_inf_matches_transport_lp(monkeypatch, points, weights, pi, p):
    # the oracle on a 64-point base grid with no refinement pass
    monkeypatch.setattr(robust_solver, "_GRID_POINTS", 64)
    monkeypatch.setattr(robust_solver, "_REFINEMENTS", 0)
    P = rf.explicit(points, weights, state_space=rf.StateSpace.interval(-1.25, 1.25))
    u = rf.log_shifted(1.0)
    for delta in (0.02, 0.1, 0.3):
        value, _ = rf.adversary_inner_inf(P, u, pi, delta, rf.WassersteinOrder(p))
        assert value == pytest.approx(transport_lp_value(P, u, pi, delta, p, 64),
                                      abs=1e-10)


@st.composite
def bounded_measures(draw):
    n = draw(st.integers(1, 4))
    pts = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return rf.explicit(pts, w / w.sum(), state_space=rf.StateSpace.interval(-1.5, 1.5))


@settings(max_examples=40, deadline=None)
@given(P=bounded_measures(), p=st.sampled_from([1.5, 2.0, 3.0]),
       pi=st.floats(-2.0, 2.0).filter(lambda t: abs(t) > 1e-3),
       delta=st.floats(0.01, 0.5))
def test_inner_inf_certificates(P, p, pi, delta):
    u = rf.exponential(1.0)
    order = rf.WassersteinOrder(p)
    value, adv = rf.adversary_inner_inf(P, u, pi, delta, order)
    assert type(value) is float
    assert rf.wasserstein_distance(P, adv, order) <= delta * (1.0 + 1e-9)
    assert adv.expectation(u.u(pi * adv.support_1d)) == pytest.approx(value, abs=1e-12)
    assert value <= P.expectation(u.u(pi * P.support_1d))
    wider, _ = rf.adversary_inner_inf(P, u, pi, 2.0 * delta, order)
    assert wider <= value + 1e-12


@settings(max_examples=60, deadline=None)
@given(P=bounded_measures(),
       utility=st.sampled_from([rf.exponential(1.0), rf.log_shifted(2.0),
                                rf.capped_exponential(1.0, 0.1)]),
       half_width=st.sampled_from([0.5, 5.0]))
def test_baseline_solve_does_not_depend_on_the_order(P, utility, half_width):
    # the figure presets solve each model once and take every order's
    # sensitivities on that solution; that is exact only if the order never
    # enters the baseline solve
    x = P.support_1d
    assume(x.min() < -1e-3 and x.max() > 1e-3)  # no arbitrage
    spec = rf.ProblemSpec(model=P, utility=utility,
                          action_space=rf.StateSpace.interval(-half_width, half_width))
    fields = ("pi_star", "V0", "foc_residual", "hessian")
    want = rf.solve_baseline(spec)
    for p in (1.5, 2.0, 3.0, math.inf):
        got = rf.solve_baseline(dataclasses.replace(spec, order=rf.WassersteinOrder(p)))
        for name in fields:
            assert (np.asarray(getattr(got, name)).tobytes()
                    == np.asarray(getattr(want, name)).tobytes()), (p, name)
        assert got.boundary == want.boundary


@st.composite
def multiplier_problems(draw):
    """Padded (atoms x grid) cost/value arrays laid out as the oracle lays
    them out: each row sorted by cost with its zero-displacement cell first,
    then pad cells of cost 0 and value inf; and a budget."""
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(2, 25), min_size=n, max_size=n))
    width = max(sizes) + draw(st.integers(0, 3))
    cost = np.zeros((n, width))
    val = np.full((n, width), np.inf)
    for i, m in enumerate(sizes):
        cost[i, 1:m] = np.sort(draw(st.lists(st.floats(1e-6, 10.0), min_size=m - 1,
                                             max_size=m - 1)))
        val[i, :m] = draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return w / w.sum(), cost, val, draw(st.floats(1e-3, 10.0))


def plan_spend_and_value(w, cost, val, j):
    rows = np.arange(w.size)
    return w @ cost[rows, j], w @ val[rows, j]


def mixed_value(w, cost, val, budget, j_hi, j_lo):
    """Value of the mix of the two plans that spends the budget exactly."""
    s_hi, a_hi = plan_spend_and_value(w, cost, val, j_hi)
    s_lo, a_lo = plan_spend_and_value(w, cost, val, j_lo)
    if s_lo == s_hi:
        return a_hi
    return a_hi + (budget - s_hi) / (s_lo - s_hi) * (a_lo - a_hi)


@settings(max_examples=120)
@given(problem=multiplier_problems(),
       guess=st.one_of(st.just(0.0), st.floats(1.0 - 5e-3, 1.0 + 5e-3), st.floats(1e-2, 1e2),
                       st.sampled_from([1e-6, 1e6])),
       width=st.sampled_from([1e-12, 1e-6, 1e-2]))
def test_multiplier_plans_bracket_the_budget_from_any_guess(problem, guess, width):
    # a warm start from a good, a poor or no guess (a multiple of the binding
    # multiplier), probed at any width, lands on the cold search's plans:
    # they bracket the budget and their budget-spending mix has its value
    w, cost, val, budget = problem
    j_hi0, j_lo0, lam_star = _multiplier_plans(w, cost, val, budget)
    j_hi, j_lo, lam = _multiplier_plans(w, cost, val, budget, guess * lam_star, width)
    plain = np.argmin(val, axis=1)
    if plan_spend_and_value(w, cost, val, plain)[0] <= budget:
        assert np.array_equal(j_hi, plain) and np.array_equal(j_lo, plain)
        assert lam == lam_star == 0.0
        return
    assert np.array_equal(j_hi, j_hi0) and np.array_equal(j_lo, j_lo0)
    assert lam == pytest.approx(lam_star, rel=1e-12)
    assert plan_spend_and_value(w, cost, val, j_hi)[0] <= budget
    assert plan_spend_and_value(w, cost, val, j_lo)[0] > budget
    want = mixed_value(w, cost, val, budget, j_hi0, j_lo0)
    got = mixed_value(w, cost, val, budget, j_hi, j_lo)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * (w @ np.abs(val[:, 0])))


@settings(max_examples=120)
@given(problem=multiplier_problems())
def test_the_last_calls_plans_pass_the_check_only_where_they_solve_the_program(problem):
    # a warm pass keeps the last oracle call's plans if they pass the
    # multiplier search's own stopping test on its values: the cold plans
    # pass it, at their multiplier; no pair that misses the budget does; and
    # any pair that passes has the optimal value when mixed
    w, cost, val, budget = problem
    j_hi, j_lo, lam_star = _multiplier_plans(w, cost, val, budget)
    lam = _checked_multiplier(w, cost, val, budget, j_hi, j_lo)
    if lam_star == 0.0:  # the plain argmin fits: no pair brackets the budget
        assert lam is None
        return
    assert lam == pytest.approx(lam_star, rel=1e-12)
    assert _checked_multiplier(w, cost, val, budget, j_lo, j_hi) is None
    assert _checked_multiplier(w, cost, val, budget, j_hi, j_hi) is None
    optimum = mixed_value(w, cost, val, budget, j_hi, j_lo)
    scale = 1e-12 * (w @ np.abs(val[:, 0]))
    # the cold plans of a budget 10% larger hold here only where they
    # bracket this budget too (one breakpoint binds both budgets)
    wider = _multiplier_plans(w, cost, val, 1.1 * budget)[:2]
    spends = [plan_spend_and_value(w, cost, val, j)[0] for j in wider]
    held = _checked_multiplier(w, cost, val, budget, *wider)
    assert (held is not None) == (spends[0] <= budget < spends[1])
    # the cold search's first bracket, the zero-displacement plan and the
    # plain argmin, holds only where the search stops on it
    first = (np.argmin(np.where(cost == 0.0, val, np.inf), axis=1), np.argmin(val, axis=1))
    for pair in (wider, first):
        if _checked_multiplier(w, cost, val, budget, *pair) is not None:
            assert mixed_value(w, cost, val, budget, *pair) == pytest.approx(
                optimum, rel=1e-12, abs=scale)


def test_the_check_refuses_the_plans_of_a_larger_budget():
    # two atoms whose moves gain 1 and 0.5 per unit of spend, the first's
    # spending 1: budget 0.95 moves part of the first (multiplier 1), and
    # budget 1.045 all of it and part of the second (multiplier 0.5)
    w = np.array([0.5, 0.5])
    cost = np.array([[0.0, 2.0], [0.0, 2.0]])
    val = np.array([[0.0, -2.0], [0.0, -1.0]])
    j_hi, j_lo, lam = _multiplier_plans(w, cost, val, 0.95)
    assert lam == 1.0 and _checked_multiplier(w, cost, val, 0.95, j_hi, j_lo) == 1.0
    wider = _multiplier_plans(w, cost, val, 1.1 * 0.95)
    assert wider[2] == 0.5
    assert _checked_multiplier(w, cost, val, 1.1 * 0.95, *wider[:2]) == 0.5
    assert _checked_multiplier(w, cost, val, 0.95, *wider[:2]) is None


def test_multiplier_plans_refuse_a_grid_without_its_zero_cell():
    cost = np.array([[0.5, 1.0, 2.0]])
    val = np.array([[1.0, 0.0, -1.0]])
    with pytest.raises(rf.NumericalFailure):
        _multiplier_plans(np.ones(1), cost, val, 0.1)


# ---------------------------------------------------------------------------
# finite-p outer solve
# ---------------------------------------------------------------------------

@st.composite
def bounded_problems(draw):
    """Random 2-4-atom model with atoms on both sides of 0, at least 0.3
    inside S = [-1.25, 1.25], which caps the ball at every order."""
    n_neg = draw(st.integers(1, 2))
    n_pos = draw(st.integers(1, 2))
    pts = (draw(st.lists(st.floats(-0.95, -0.01), min_size=n_neg, max_size=n_neg))
           + draw(st.lists(st.floats(0.01, 0.95), min_size=n_pos, max_size=n_pos)))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(pts),
                               max_size=len(pts))))
    model = rf.explicit(pts, w / w.sum(), state_space=rf.StateSpace.interval(-1.25, 1.25))
    return rf.ProblemSpec(model=model,
                          utility=draw(st.sampled_from([rf.log_shifted(1.0),
                                                        rf.power(2.0, 1.0)])),
                          action_space=rf.StateSpace.interval(-0.75, 0.75),
                          order=INF)


@settings(max_examples=8)
@given(spec=bounded_problems(), delta=st.floats(0.01, 0.12))
def test_robust_value_rises_with_the_order_and_falls_with_the_radius(spec, delta):
    # W_p <= W_p' for p <= p' nests the balls: V_1.5 <= V_3 <= V_inf; every
    # certified cost is within its radius, and V is nonincreasing in delta
    values = []
    for p in (1.5, 3.0, math.inf):
        spec_p = dataclasses.replace(spec, order=rf.WassersteinOrder(p))
        sols = [rf.robust_solve(spec_p, d) for d in (delta, 2.0 * delta)]
        for sol in sols:
            assert sol.transport_cost <= sol.delta
        narrow, wide = (s.V_delta for s in sols)
        assert wide <= narrow + 1e-9 * (1.0 + abs(narrow))
        values.append(narrow)
    for lower, upper in zip(values, values[1:]):
        assert lower <= upper + 1e-9 * (1.0 + abs(upper))


@settings(max_examples=12)
@given(spec=bounded_problems(), p=st.sampled_from([1.5, 2.0, 3.0]), delta=st.floats(0.01, 0.12))
def test_no_strategy_next_to_the_robust_p_answer_beats_it(spec, p, delta):
    # a check on the answer, not on the search that found it: the inner
    # infimum at pi_delta +- h, h at 1e-4 and 1e-7 of max(1, |pi_delta|),
    # stays below V_delta up to V's rounding (8 eps E|u| on the worst case)
    spec = dataclasses.replace(spec, order=rf.WassersteinOrder(p))
    sol = rf.robust_solve_p(spec, delta)
    pi = sol.pi_delta_scalar
    y = sol.adversary.support_1d
    rounding = 8.0 * EPS * float(sol.adversary.weights @ np.abs(spec.utility.u(pi * y)))
    lo, hi = spec.action_space.lower[0], spec.action_space.upper[0]
    for h in (1e-4, 1e-7):
        for t in (pi - h * max(1.0, abs(pi)), pi + h * max(1.0, abs(pi))):
            if lo <= t <= hi:
                inner, _ = rf.adversary_inner_inf(spec.model, spec.utility, t, delta, spec.order)
                assert sol.V_delta >= inner - rounding, (t, sol.V_delta - inner)


def test_robust_p_delta_zero_is_baseline():
    spec = binomial_log_spec(0.25, p=2.0, state=(-1.25, 1.25),
                             action=(-0.75, 0.75))
    base = rf.solve_baseline(spec)
    sol = rf.robust_solve_p(spec, 0.0)
    assert sol.V_delta == pytest.approx(base.V0, abs=1e-12)
    assert sol.method == "finite_p_oracle"


def test_robust_p_slope_matches_value_sensitivity():
    spec = binomial_log_spec(0.25, p=2.0, state=(-1.25, 1.25),
                             action=(-0.75, 0.75))
    base = rf.solve_baseline(spec)
    v_prime = rf.value_sensitivity(spec, base)
    rel_errs = []
    for delta in (1e-2, 1e-3):
        sol = rf.robust_solve_p(spec, delta)
        slope = (sol.V_delta - base.V0) / delta
        rel_errs.append(abs(slope - v_prime) / abs(v_prime))
    assert rel_errs[0] <= 0.10
    assert rel_errs[1] <= 0.015


def test_robust_p_monotone_grid_and_budget():
    spec = binomial_log_spec(0.25, p=2.0, state=(-1.25, 1.25),
                             action=(-0.75, 0.75))
    sols = rf.solve_delta_grid(spec, [0.0, 0.02, 0.05, 0.1, 0.15, 0.2])
    values = [s.V_delta for s in sols]
    assert all(type(v) is float for v in values)  # as at p = inf
    for hi, lo in zip(values[:-1], values[1:]):
        assert lo <= hi + 1e-12
    for s in sols:
        assert s.transport_cost <= s.delta * (1.0 + 1e-9)


def test_robust_p_optimizer_converges_to_baseline():
    spec = binomial_log_spec(0.25, p=2.0, state=(-1.25, 1.25),
                             action=(-0.75, 0.75))
    base = rf.solve_baseline(spec)
    devs = []
    for delta in (0.1, 0.01, 0.001):
        sol = rf.robust_solve_p(spec, delta)
        devs.append(abs(sol.pi_delta[0] - base.pi_star_scalar))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 5e-3


def test_robust_p_value_below_inf_value():
    # the W_inf ball sits inside the W_p ball of the same radius, so the
    # finite-p worst case is at most the p=inf worst case
    spec_p = binomial_log_spec(0.25, p=2.0, state=(-1.25, 1.25),
                               action=(-0.75, 0.75))
    spec_inf = binomial_log_spec(0.25, state=(-1.25, 1.25),
                                 action=(-0.75, 0.75))
    for delta in (0.02, 0.1):
        v_p = rf.robust_solve_p(spec_p, delta).V_delta
        v_inf = rf.robust_solve_inf(spec_inf, delta).V_delta
        assert v_p <= v_inf + 1e-9


def criterion_08_spec(p: float, a: float = 0.25) -> rf.ProblemSpec:
    return binomial_log_spec(a, p=p, state=(-1.25, 1.25), action=(-0.75, 0.75))


# criterion 08 at delta = 0.1: the largest displacement is 2.25 (the atom at 1
# to the edge -1.25 of S), whose cost in budgets, (2.25 / 0.1)^p, leaves
# float range past p = ln(float max) / ln(22.5) = 227.97

def test_robust_p_solves_the_highest_order_in_float_range():
    # (RuntimeWarnings are errors in the test suite: no overflow either)
    v = rf.robust_solve(criterion_08_spec(227.0), 0.1).V_delta
    assert v <= rf.robust_solve(criterion_08_spec(math.inf), 0.1).V_delta


@pytest.mark.parametrize("p", [228.0, 235.0, 320.0, 400.0])
def test_robust_p_refuses_an_order_past_float_range(p):
    # the multiplier search overflowed from p = 231 and, once delta^p left
    # the normal floats (p = 320, 400), found no multiplier
    with pytest.raises(ConfigError, match="use p = inf") as refusal:
        rf.robust_solve(criterion_08_spec(p), 0.1)
    message = str(refusal.value)
    assert f"p = {p}" in message and "delta = 0.1" in message and "2.25" in message
    # the ball infimum of a price is the same transport program
    with pytest.raises(ConfigError, match="use p = inf"):
        robust_solver._ball_infimum_of_price(criterion_08_spec(p), rf.call_payoff(0.1), 0.1)


def test_robust_value_rises_with_the_order_toward_the_inf_value():
    # the W_p balls shrink as p grows, toward the W_inf ball of the same
    # radius; recorded: 0.0782116, 0.0817991, 0.0837374, 0.0851236, 0.0855920
    # for p = 1.5, 2, 3, 8, 50 and 0.0856695 at p = inf
    values = [rf.robust_solve(criterion_08_spec(p), 0.1).V_delta
              for p in (1.5, 2.0, 3.0, 8.0, 50.0)]
    v_inf = rf.robust_solve(criterion_08_spec(math.inf), 0.1).V_delta
    assert all(lower < upper for lower, upper in zip(values, values[1:]))
    assert values[-1] <= v_inf
    assert v_inf - values[-1] < 1e-4


@settings(max_examples=12)
@given(a=st.floats(0.1, 0.4), delta=st.floats(0.01, 0.3),
       orders=st.lists(st.sampled_from([1.5, 2.0, 3.0, 8.0]), min_size=2, max_size=2,
                       unique=True).map(sorted))
@example(a=0.1, delta=0.3, orders=[3.0, 8.0])  # S binds on the p = inf shift
@example(a=0.125, delta=0.0390625, orders=[3.0, 8.0])  # a shed fragment at p = 8
def test_robust_value_is_nondecreasing_in_the_order(a, delta, orders):
    v1, v2 = (rf.robust_solve(criterion_08_spec(p, a), delta).V_delta for p in orders)
    assert v1 <= v2 + 1e-10
    assert v2 <= rf.robust_solve(criterion_08_spec(math.inf, a), delta).V_delta + 1e-10


def test_state_space_caps_the_inf_ball_as_it_caps_the_finite_p_balls():
    # a = 0.1, delta = 0.3: the atom at -1 can move only to the edge -1.25 of
    # S, not to -1.3; the uncapped shift gave V_inf = 0.16760 < V_8 = 0.17644
    sol = rf.robust_solve(criterion_08_spec(math.inf, 0.1), 0.3)
    np.testing.assert_allclose(sol.adversary.support_1d, [-1.25, 0.7], rtol=0.0, atol=1e-15)
    assert sol.adversary.state_space == criterion_08_spec(math.inf).state_space
    assert sol.transport_cost == 0.3
    assert sol.V_delta == pytest.approx(0.17758469739529156, abs=1e-14)
    assert rf.robust_solve(criterion_08_spec(8.0, 0.1), 0.3).V_delta <= sol.V_delta
    # the mirror image goes short, and S caps the move up at 1.25
    mirror = dataclasses.replace(criterion_08_spec(math.inf, 0.1),
                                 model=rf.explicit([1.0, -1.0], [0.1, 0.9],
                                                   state_space=rf.StateSpace.interval(-1.25, 1.25)))
    short = rf.robust_solve(mirror, 0.3)
    assert short.pi_delta_scalar == -sol.pi_delta_scalar
    np.testing.assert_allclose(short.adversary.support_1d, [1.25, -0.7], rtol=0.0, atol=1e-15)
    assert short.V_delta == pytest.approx(sol.V_delta, abs=1e-15)


def test_certificate_prices_the_plan_not_a_recoupling():
    # the oracle sheds 3.4e-17 of the atom at -1 back to -1; re-coupling the
    # renormalized adversary with P paired that fragment with the atom at +1
    # (distance 2, times 2^8 at p = 8) and reported cost 0.0390703 > delta
    delta = 0.0390625
    sol = rf.robust_solve(criterion_08_spec(8.0, 0.125), delta)
    assert sol.transport_cost == pytest.approx(delta, rel=1e-12)
    assert sol.transport_cost <= delta
    # every fragment is paired with the atom it came from, within 0.05 of it
    y = sol.adversary.support_1d
    sources = np.array(sol.adversary.params["sources"])
    np.testing.assert_array_equal(sources, np.where(y < 0.0, -1.0, 1.0))
    assert np.max(np.abs(y - sources)) < 0.05


def test_robust_p_degenerate_model_stays_flat():
    spec = zero_mean_spec(p=2.0)
    for delta in (0.05, 0.2):
        sol = rf.robust_solve_p(spec, delta)
        assert abs(sol.pi_delta[0]) <= 1e-8
        assert sol.V_delta == pytest.approx(-1.0, abs=1e-9)


def test_robust_p_certifies_a_model_with_repeated_atoms():
    # two atoms at one point: the oracle's adversary splits one of them, and
    # measuring its cost must pair the fragments with their own atoms even
    # though renormalized weights differ by an ulp
    model = rf.explicit([-0.5, -0.5, 0.109375], np.array([128.0, 128.0, 29.0]) / 285.0,
                        state_space=rf.StateSpace.interval(-1.0, 1.0))
    spec = rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(-0.5, 0.0),
                          order=rf.WassersteinOrder(3.0))
    sol = rf.robust_solve_p(spec, 0.001953125)
    assert sol.transport_cost <= 0.001953125


def test_robust_p_argument_validation():
    spec_inf = binomial_log_spec(0.25)
    with pytest.raises(ConfigError):
        rf.robust_solve_p(spec_inf, 0.1)
    spec = binomial_log_spec(0.25, p=2.0, state=(-1.25, 1.25))
    with pytest.raises(ConfigError):
        rf.robust_solve_p(spec, -0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            rf.robust_solve_p(spec, bad)
        with pytest.raises(ConfigError):
            rf.robust_solve_inf(spec_inf, bad)
        with pytest.raises(ConfigError):
            rf.robust_davis_price(spec_inf, rf.call_payoff(0.0), bad)
    with pytest.raises(DegenerateSensitivityError):
        rf.robust_solve_p(rf.ProblemSpec(model=rf.normal(0.1, 0.2, 16),
                                         utility=rf.exponential(1.0),
                                         action_space=rf.StateSpace.interval(-5.0, 5.0),
                                         order=rf.WassersteinOrder(2.0)), 0.01)


@pytest.mark.parametrize("p, value_at_006", [(1.5, 0.005606700076295254),
                                              (3.0, 0.005758023512131871)])
def test_robust_p_settles_a_zero_optimum_from_the_slopes_at_zero(oracle_calls, p, value_at_006):
    # at delta = 0.12 both one-sided slopes at 0 point back to 0, so pi = 0
    # needs no search, and the slopes come in closed form, so no oracle call
    # (the oracle's slopes at +-2 PI_ZERO_THRESHOLD used to settle it); at
    # 0.06 the search on the side the slopes pick finds the recorded value
    model = rf.explicit([-0.37, -0.06, 0.33, 0.39], [0.35, 0.05, 0.04, 0.56],
                        state_space=rf.StateSpace.interval(-1.25, 1.25))
    spec = rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(-0.75, 0.75),
                          order=rf.WassersteinOrder(p))
    sol = rf.robust_solve_p(spec, 0.12)
    assert sol.pi_delta_scalar == 0.0 and sol.V_delta == 0.0
    assert oracle_calls == []
    assert sol.transport_cost <= 0.12
    assert rf.robust_solve_p(spec, 0.06).V_delta == pytest.approx(value_at_006, rel=0.0, abs=1e-12)


def oracle_slopes_near_zero(spec: rf.ProblemSpec, delta: float) -> tuple[float, float]:
    """The oracle's Danskin slopes at +-2 PI_ZERO_THRESHOLD, just outside
    its zero band: E[X u'(pi X)] on its worst case there."""
    slopes = []
    for t in (2.0 * PI_ZERO_THRESHOLD, -2.0 * PI_ZERO_THRESHOLD):
        _, adv = rf.adversary_inner_inf(spec.model, spec.utility, t, delta, spec.order)
        y = adv.support_1d
        slopes.append(float(np.dot(adv.weights * spec.utility.u_prime(t * y), y)))
    return slopes[0], slopes[1]


def assert_slopes_at_zero_bound_the_oracle(spec: rf.ProblemSpec, delta: float, gap: float):
    # the oracle minimizes on a grid inside the ball, so its worst case moves
    # the mean less than the pinned shift does: its right slope lies above
    # the closed form and its left slope below
    right, left = robust_solver._slopes_at_zero(spec, delta)
    oracle_right, oracle_left = oracle_slopes_near_zero(spec, delta)
    assert right <= oracle_right + 1e-9
    assert left >= oracle_left - 1e-9
    assert abs(right - oracle_right) <= gap and abs(left - oracle_left) <= gap


FINITE_P_CASES = list(load_bench("workloads").finite_p_cases(None))


@pytest.mark.parametrize("family, value", [case[1:] for case in FINITE_P_CASES],
                         ids=[case[0] for case in FINITE_P_CASES])
def test_slopes_at_zero_match_the_oracle_on_the_benchmark_models(family, value):
    # the largest gap, 2.37e-6, is the left slope of truncnormal mu = 0.19
    spec, radii, _ = load_bench("workloads").finite_p_instance(family, value)
    for delta in radii:
        assert_slopes_at_zero_bound_the_oracle(spec, delta, 3e-6)


@settings(max_examples=40, deadline=None)
@given(P=bounded_measures(), p=st.sampled_from([1.5, 2.0, 3.0]),
       utility=st.sampled_from([rf.exponential(1.0), rf.log_shifted(2.0)]),
       delta=st.floats(0.01, 0.5))
def test_slopes_at_zero_match_the_oracle(P, p, utility, delta):
    # 1500 seeded draws of these models put the largest gap at 5.0e-6
    x = P.support_1d
    assume(x.min() < -1e-3 and x.max() > 1e-3)  # no arbitrage
    spec = rf.ProblemSpec(model=P, utility=utility,
                          action_space=rf.StateSpace.interval(-0.5, 0.5),
                          order=rf.WassersteinOrder(p))
    assert_slopes_at_zero_bound_the_oracle(spec, delta, 1e-5)


def finite_p_solutions(family, value):
    """(spec, robust solutions) of one benchmark finite_p case."""
    spec, radii, _ = load_bench("workloads").finite_p_instance(family, value)
    if family == "grid-binomial":
        return spec, robust_solver.solve_delta_grid(spec, radii)
    return spec, [rf.robust_solve_p(spec, radii[0])]


def finite_p_bits(family, value) -> dict:
    """The answers of one benchmark finite_p case as float.hex: V, pi_delta
    and transport cost per radius, the price where the case has a payoff,
    and a sha256 of each adversary's points and weights (as float.hex)."""
    spec, sols = finite_p_solutions(family, value)
    payoff = load_bench("workloads").finite_p_instance(family, value)[2]

    def digest(adv):
        words = map(float.hex, np.concatenate([adv.support_1d, adv.weights]).tolist())
        return hashlib.sha256(" ".join(words).encode()).hexdigest()

    out = {"V": [s.V_delta.hex() for s in sols],
           "pi_delta": [s.pi_delta_scalar.hex() for s in sols],
           "transport_cost": [float(s.transport_cost).hex() for s in sols],
           "adversary": [digest(s.adversary) for s in sols]}
    if payoff is not None:
        out["price"] = rf.robust_davis_price(spec, payoff, sols[0].delta, sols[0]).hex()
    return out


@pytest.mark.parametrize("name, family, value", FINITE_P_CASES,
                         ids=[case[0] for case in FINITE_P_CASES])
def test_finite_p_answers_keep_their_bits(name, family, value):
    # recorded before the oracle's grid bookkeeping (refinement windows, the
    # merge, rows in cost order) was rewritten: the rewrite makes cheaper
    # calls with the same results, so every answer keeps its bits
    recorded = json.loads((ROOT / "tests" / "data" / "finite_p_bits.json").read_text())
    assert finite_p_bits(family, value) == recorded[name]


# cases where an oracle call that starts from the last call's passes lands on
# another plan of the same value to rounding (a near tie between grid cells)
NEAR_TIE_CASES = {"solve-truncnormal.mu=0.17", "solve-truncnormal.mu=0.19"}


@pytest.mark.parametrize("name, family, value", FINITE_P_CASES,
                         ids=[case[0] for case in FINITE_P_CASES])
def test_oracle_memory_leaves_the_answer_at_the_returned_strategy(name, family, value):
    # a memory-free oracle call at the returned strategy gives V, and a worst
    # case worth V, to 4 eps |V|; bit for bit outside the near ties
    spec, sols = finite_p_solutions(family, value)
    model = dataclasses.replace(spec.model, state_space=spec.state_space)
    for sol in sols:
        pi = sol.pi_delta_scalar

        def worth(adv):
            return float(adv.weights @ spec.utility.u(pi * adv.support_1d))

        value, adversary = rf.adversary_inner_inf(model, spec.utility, pi, sol.delta, spec.order)
        assert abs(sol.V_delta - value) <= 4.0 * EPS * abs(value)
        assert abs(worth(sol.adversary) - worth(adversary)) <= 4.0 * EPS * abs(value)
        if name not in NEAR_TIE_CASES:
            assert sol.V_delta == value
            assert np.array_equal(sol.adversary.points, adversary.points)
            assert np.array_equal(sol.adversary.weights, adversary.weights)


def test_oracle_calls_reuse_the_last_calls_passes(monkeypatch):
    # grid-binomial a = 0.25, 26 oracle calls over four radii: later calls
    # take refined passes from the call before, and every call returns what
    # a memory-free call returns
    reused = []
    minimize = robust_solver._transport_minimize

    def traced(*args, memory=None, **kwargs):
        before = [step.disp for step in memory.passes] if memory is not None else []
        out = minimize(*args, memory=memory, **kwargs)
        if memory is not None:
            reused.append(sum(1 for k, step in enumerate(memory.passes)
                              if k < len(before) and step.disp is before[k]))
            free = minimize(*args, **kwargs)
            assert out[0] == free[0]
            assert all(np.array_equal(a, b) for a, b in zip(out[1:], free[1:]))
        return out

    monkeypatch.setattr(robust_solver, "_transport_minimize", traced)
    finite_p_solutions("grid-binomial", 0.25)
    passes = robust_solver._REFINEMENTS + 1
    assert len(reused) == 26
    assert sum(1 for k in reused if k >= 2) == 19  # one refined pass or more
    assert reused.count(passes) == 16


def test_warm_passes_search_for_the_multiplier_only_where_the_last_plans_fail(monkeypatch):
    # grid-binomial a = 0.25: 26 oracle calls of up to 4 passes made 104
    # multiplier searches when every pass searched
    searches = []
    search = robust_solver._multiplier_plans

    def traced(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(robust_solver, "_multiplier_plans", traced)
    finite_p_solutions("grid-binomial", 0.25)
    assert len(searches) == 45


def float_bits(a: np.ndarray) -> list[int]:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@st.composite
def window_ends(draw):
    """(a, b) of a refinement window around s: a gap of a few ulps of s up
    to a unit, on either side of 0."""
    s = draw(st.floats(-2.0, 2.0, allow_subnormal=False))
    if draw(st.booleans()):
        gap = draw(st.integers(1, 64)) * math.ulp(s if s != 0.0 else 1e-300)
    else:
        gap = draw(st.floats(1e-300, 1.0))
    a, b = s - gap, s + gap
    assume(a < b and (b - a) / 32 > 0.0)
    return a, b


@st.composite
def bounded_grids(draw):
    """(grid, lo, hi): a sorted grid of distinct points on [lo, hi], holding
    0; lo = 0 or hi = 0 (the one-signed grids of inner infima) or neither."""
    side = draw(st.sampled_from(["up", "down", "both"]))
    lo = 0.0 if side == "up" else -draw(st.floats(1e-6, 2.0))
    hi = 0.0 if side == "down" else draw(st.floats(1e-6, 2.0))
    pts = draw(st.lists(st.floats(lo, hi), max_size=40))
    return np.unique(np.array(pts + [lo, 0.0, hi])), lo, hi


@settings(max_examples=300)
@given(ends=window_ends(), cut=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
def test_window_is_linspace_bit_for_bit(ends, cut):
    # also once clipped (maximum, then minimum, as np.clip) to bounds that
    # may cut into it
    a, b = ends
    s, gap = 0.5 * (a + b), 0.5 * (b - a)
    lo, hi = s - cut[0] * gap, s + cut[1] * gap
    window, reference = _window(a, b), np.linspace(a, b, 33)
    assert float_bits(window) == float_bits(reference)
    clipped = np.minimum(np.maximum(window, lo), hi)
    assert float_bits(clipped) == float_bits(np.clip(reference, lo, hi))


@settings(max_examples=200)
@given(case=bounded_grids(), data=st.data())
def test_merge_is_unique_of_the_clipped_concatenation(case, data):
    # windows around grid points, some past the bounds, as refinement lays
    # them; the merge sorts and drops equal neighbours, so the two zeros
    # compare equal and either may stay
    grid, lo, hi = case
    picks = data.draw(st.lists(st.sampled_from(grid.tolist()), min_size=1, max_size=3))
    gaps = data.draw(st.lists(st.floats(1e-12, 1.0), min_size=len(picks), max_size=len(picks)))
    wins = [_window(s - g, s + g) for s, g in zip(picks, gaps)]
    expected = np.unique(np.clip(np.concatenate([grid] + wins), lo, hi))
    assert _merged(grid, wins, lo, hi).tolist() == expected.tolist()


@settings(max_examples=200)
@given(case=bounded_grids())
def test_cost_order_is_the_stable_argsort_and_sorts_back(case):
    grid, lo, hi = case
    row = grid[np.argsort(np.abs(grid), kind="stable")]
    assert float_bits(_cost_order(grid, lo, hi)) == float_bits(row)
    assert float_bits(_cost_order(row, lo, hi, back=True)) == float_bits(np.sort(row))


def test_a_plan_takes_the_first_of_twin_cells():
    # overlapping refinement windows lay one displacement twice, an ulp
    # apart (as on grid-binomial a = 0.25 at delta = 0.1): a plan on either
    # twin takes the first, nearer 0, even past a mirror point of equal cost
    s = -0.16235392320534223
    disp = np.array([[0.0, 0.1, s, np.nextafter(s, -1.0), 0.2],
                     [0.0, -0.1, 0.1, np.nextafter(0.1, 1.0), 0.3],
                     [0.0, 0.1, -0.1, np.nextafter(0.1, 1.0), 0.3]])
    j_hi, j_lo = np.array([3, 3, 3]), np.array([4, 3, 2])
    hi, lo = robust_solver._first_twin(disp, j_hi, j_lo)
    assert hi.tolist() == [2, 2, 1] and lo.tolist() == [4, 2, 2]
    assert j_hi.tolist() == [3, 3, 3] and j_lo.tolist() == [4, 3, 2]


def test_oracle_memory_lives_in_one_solve():
    # the same solve before and after another returns the same bits
    first = finite_p_solutions("solve-truncnormal", 0.17)[1][0]
    finite_p_solutions("grid-binomial", 0.3)
    again = finite_p_solutions("solve-truncnormal", 0.17)[1][0]
    assert again.V_delta == first.V_delta
    assert np.array_equal(again.pi_delta, first.pi_delta)
    assert np.array_equal(again.adversary.points, first.adversary.points)
    assert np.array_equal(again.adversary.weights, first.adversary.weights)


def test_robust_p_asks_the_oracle_once_per_strategy(oracle_calls):
    rf.robust_solve_p(criterion_08_spec(2.0), 0.1)
    assert oracle_calls
    assert len(set(oracle_calls)) == len(oracle_calls)


def test_robust_p_stops_at_the_rounding_of_v_across_a_slope_jump(oracle_calls):
    # binomial(0.25) at delta = 0.1, p = 2: the oracle's slope jumps by 4e-7
    # near the optimum, which the search used to bisect to xtol 1e-15 in 39
    # oracle calls. It now starts next to the optimum, at pi*(0) +
    # delta pi*'(0), and stops once no step can raise V past its rounding;
    # V and pi were recorded with that full bisection.
    sol = rf.robust_solve_p(criterion_08_spec(2.0), 0.1)
    assert abs(sol.V_delta - 0.08179905705942825) <= 1e-15
    assert abs(sol.pi_delta_scalar - 0.3771708636963544) <= 1e-8
    assert sol.transport_cost <= 0.1
    assert len(oracle_calls) == 11


def test_robust_p_starts_a_baseline_pinned_on_a_at_its_end(oracle_calls):
    # truncnormal mu = 0.19: pi* sits on the end 18 of A, where the closed
    # forms refuse, so the start pi*(0) = 18 is an end of the side and the
    # search runs from the ends as before: the same 6 oracle calls, V and pi
    spec, radii, _ = load_bench("workloads").finite_p_instance("solve-truncnormal", 0.19)
    assert rf.solve_baseline(spec).boundary
    sol = rf.robust_solve_p(spec, radii[0])
    assert oracle_calls[0] == 18.0
    assert len(oracle_calls) == 6
    assert sol.V_delta == -0.17688689883513126
    assert sol.pi_delta_scalar == 17.826560978008644


def test_delta_grid_solves_each_distinct_radius_once_in_ascending_order(monkeypatch):
    # a repeated radius solves once, and 0 is the baseline point (0, pi*(0))
    # that starts the radius line, so no line divides by a zero step
    solved = []
    solve = robust_solver.robust_solve_p

    def traced(spec, delta, **kwargs):
        solved.append(delta)
        return solve(spec, delta, **kwargs)

    monkeypatch.setattr(robust_solver, "robust_solve_p", traced)
    spec = criterion_08_spec(2.0)
    sols = rf.solve_delta_grid(spec, [0.1, 0.0, 0.1, 0.05])
    assert solved == [0.05, 0.1]
    assert [s.delta for s in sols] == [0.1, 0.0, 0.1, 0.05]
    assert sols[0].V_delta == sols[2].V_delta
    assert np.array_equal(sols[0].pi_delta, sols[2].pi_delta)
    assert sols[1].V_delta == rf.solve_baseline(spec).V0
    assert sols[1].V_delta > sols[3].V_delta > sols[0].V_delta
    inf_sols = rf.solve_delta_grid(criterion_08_spec(math.inf), [0.1, 0.0, 0.1, 0.05])
    assert [s.delta for s in inf_sols] == [0.1, 0.0, 0.1, 0.05]
    assert inf_sols[0].V_delta == inf_sols[2].V_delta

    # the monotonicity check still runs, on the sorted radii
    monkeypatch.setattr(robust_solver, "robust_solve_p", lambda spec, delta, **kwargs: (
        dataclasses.replace(solve(spec, delta, **kwargs), V_delta=1.0 + delta)))
    with pytest.raises(NumericalFailure, match=r"V\(0.05\) = 1.05 < V\(0.1\) = 1.1"):
        rf.solve_delta_grid(spec, [0.1, 0.1, 0.05])


def test_inf_delta_grid_solves_each_distinct_radius_once(monkeypatch, lockstep_lanes):
    # at p = inf each distinct radius is searched once, in ascending order;
    # the radii whose side of zero is not {0} (here 0, 0.02 and 0.04, below
    # |E[X]| = 0.05) are lanes of one lockstep solve, the pi = 0 answers
    # need none, and each solution has the bits of robust_solve_inf's
    spec = normal_exp_spec(mu=0.05)
    radii = [0.1, 0.0, 0.02, 0.1, 0.04, 0.3]
    want = {d: rf.robust_solve_inf(spec, d) for d in radii}
    searched = []
    search = robust_solver._inf_search
    monkeypatch.setattr(robust_solver, "_inf_search",
                        lambda spec, d: searched.append(d) or search(spec, d))
    monkeypatch.setattr(robust_solver, "robust_solve_inf", None)
    sols = rf.solve_delta_grid(spec, radii)
    assert searched == [0.0, 0.02, 0.04, 0.1, 0.3]
    assert [len(lanes) for lanes in lockstep_lanes] == [3]
    for d, sol in zip(radii, sols):
        assert sol.delta == d and sol.V_delta == want[d].V_delta
        assert sol.pi_delta.tobytes() == want[d].pi_delta.tobytes()
        assert sol.adversary.points.tobytes() == want[d].adversary.points.tobytes()
    assert [s.pi_delta_scalar == 0.0 for s in sols] == [True, False, False, True, False, True]


def test_finite_p_search_may_probe_the_domain_bound_end_of_its_interval():
    # A = [-3, 3] reaches past the utility domain on S = [-1, 1], so the
    # search interval ends where wealth at a corner of S is d_lo + margin.
    # The start (pi*(0) = -3, clipped) lies on that end, and the oracle used
    # to refuse wealth on the margin itself: DomainCompatibilityError,
    # though the optimum is interior
    model = rf.explicit([-1.0, -1.0, -1.0, 0.1488], [0.163, 0.610, 0.172, 0.055],
                        state_space=rf.StateSpace.interval(-1.0, 1.0))
    spec = rf.ProblemSpec(model=model, utility=rf.power(2.0, 1.0),
                          action_space=rf.StateSpace.interval(-3.0, 3.0),
                          order=rf.WassersteinOrder(2.0))
    lo, hi = _feasible_interval_raw(np.array([-1.0, 1.0]), 0.0, spec.utility, -3.0, 3.0)
    assert -3.0 < lo and hi < 3.0
    for end in (lo, hi):  # the oracle accepts both ends of the interval
        value, _ = rf.adversary_inner_inf(model, spec.utility, end, 0.05, spec.order)
        assert math.isfinite(value)
    sol = rf.robust_solve_p(spec, 0.05)
    assert lo + 0.1 < sol.pi_delta_scalar < -0.5
    assert sol.transport_cost <= 0.05 and sol.V_delta < rf.solve_baseline(spec).V0
    # the refusal still holds one ulp past the end
    with pytest.raises(DomainCompatibilityError, match="utility-domain boundary"):
        rf.adversary_inner_inf(model, spec.utility, math.nextafter(lo, -math.inf), 0.05,
                               spec.order)


@pytest.mark.parametrize("delta, searches", [(0.1, 1), (0.6, 0)])
def test_robust_inf_runs_one_concave_search_per_radius(monkeypatch, delta, searches):
    # the slopes at 0 pick the side (binomial(0.25): E_P[X] = 0.5), and past
    # the mean they answer pi = 0 without a search
    calls = []
    search = robust_solver._concave_max_raw
    monkeypatch.setattr(robust_solver, "_concave_max_raw",
                        lambda *args: calls.append(args) or search(*args))
    sol = rf.robust_solve_inf(binomial_log_spec(0.25), delta)
    assert len(calls) == searches
    assert (sol.pi_delta_scalar == 0.0) == (searches == 0)


def test_robust_solve_dispatches_on_order():
    spec = binomial_log_spec(0.25)
    assert rf.robust_solve(spec, 0.05).method == "inf_exact"
    spec = binomial_log_spec(0.25, p=2.0, state=(-1.25, 1.25),
                             action=(-0.75, 0.75))
    assert rf.robust_solve(spec, 0.05).method == "finite_p_oracle"


# ---------------------------------------------------------------------------
# robust Davis price
# ---------------------------------------------------------------------------

def test_robust_davis_binomial_point_values():
    spec = binomial_log_spec(0.25)
    assert rf.robust_davis_price(spec, rf.power_payoff(3), 0.1) == pytest.approx(
        -0.198, abs=1e-10)
    assert rf.robust_davis_price(spec, rf.call_payoff(0.0), 0.1) == pytest.approx(
        0.495, abs=1e-10)
    assert rf.robust_davis_price(spec, rf.abs_shift_payoff(0.5), 0.1) == pytest.approx(
        1.04, abs=1e-10)


def test_robust_davis_price_refuses_a_solution_from_another_radius():
    # the solution at 0.1 used to price at 0.2 as it prices at 0.1 (0.495,
    # where the price at 0.2 is 0.48)
    spec = binomial_log_spec(0.25)
    g = rf.call_payoff(0.0)
    sol = rf.robust_solve(spec, 0.1)
    assert rf.robust_davis_price(spec, g, 0.2) == pytest.approx(0.48, abs=1e-10)
    with pytest.raises(ConfigError, match="radius 0.1, not at the price's radius 0.2"):
        rf.robust_davis_price(spec, g, 0.2, sol)
    assert rf.robust_davis_price(spec, g, 0.1, sol) == pytest.approx(0.495, abs=1e-10)


def test_robust_davis_at_delta_zero_is_davis():
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    for g in (rf.power_payoff(3), rf.call_payoff(0.0)):
        assert rf.robust_davis_price(spec, g, 0.0) == pytest.approx(
            rf.davis_price(spec, sol, g), abs=1e-12)


def test_robust_davis_price_increase_witness():
    spec = binomial_log_spec(0.25)
    g = rf.abs_shift_payoff(0.5)
    p0 = rf.robust_davis_price(spec, g, 0.0)
    p_small = rf.robust_davis_price(spec, g, 0.05)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert p_small > p0


def test_robust_davis_normal_sigma_squared_all_delta():
    spec = normal_exp_spec()
    for delta in (0.0, 0.05, 0.1, 0.2):
        price = rf.robust_davis_price(spec, rf.power_payoff(2), delta)
        assert price == pytest.approx(0.04, abs=1e-6)


def test_robust_davis_zero_mean_whole_ball_branch():
    # pi*_delta = 0 with zero baseline mean: price is the ball infimum of
    # E[g], nonincreasing in delta
    spec = zero_mean_spec()
    g = rf.power_payoff(2)
    prices = [rf.robust_davis_price(spec, g, d) for d in (0.0, 0.05, 0.1, 0.2)]
    base = spec.model.expectation(g(spec.model.support_1d))
    assert prices[0] == pytest.approx(base, abs=1e-12)
    for hi, lo in zip(prices[:-1], prices[1:]):
        assert lo <= hi + 1e-12


# a zero-mean model at p = inf, so the price is the ball infimum of E[g]: the
# sum of one window minimum per atom
ZERO_MEAN_ATOM = 0.6797857857045941
# a table payoff with narrow dips around -0.91, between the points of a
# window's base grid
TABLE_XS = [-0.9195936540699688, -0.9140573453231446, -0.9098299756716499,
            -0.8996783062102456, 0.4276690489601287, 1.4866195684798416]
TABLE_YS = [0.4789065717204717, -0.2824669179802224, 0.8974760037379441,
            -0.22669585710878537, 0.9655885145535479, 0.004635228656000523]


def window_min_spec(p: float = math.inf, atom: float = ZERO_MEAN_ATOM,
                    edge: float = 1.5) -> rf.ProblemSpec:
    model = rf.explicit([-atom, atom], [0.5, 0.5],
                        state_space=rf.StateSpace.interval(-edge, edge))
    return rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(-0.5, 0.5),
                          order=rf.WassersteinOrder(p))


def node_minimum(xs, ys, atom: float, delta: float, edge: float) -> float:
    """The ball infimum of a table payoff at p = inf on the model
    explicit([-atom, atom], [0.5, 0.5]) in S = [-edge, edge]: a
    piecewise-linear payoff is least on each window at an end or a node."""
    total = 0.0
    for x in (-atom, atom):
        lo, hi = max(x - delta, -edge), min(x + delta, edge)
        nodes = [lo, hi] + [t for t in xs if lo <= t <= hi]
        total += 0.5 * float(np.min(np.interp(nodes, xs, ys)))
    return total


def test_ball_infimum_finds_a_table_minimum_between_grid_points():
    delta = 0.3
    # a piecewise-linear payoff is least at a window end or at a table node
    exact = 0.0
    for x in (-ZERO_MEAN_ATOM, ZERO_MEAN_ATOM):
        lo, hi = max(x - delta, -1.5), min(x + delta, 1.5)
        nodes = [lo, hi] + [t for t in TABLE_XS if lo <= t <= hi]
        exact += 0.5 * float(np.min(np.interp(nodes, TABLE_XS, TABLE_YS)))
    assert exact == pytest.approx(0.09104938033379179, abs=1e-16)
    price = rf.robust_davis_price(window_min_spec(), rf.custom_payoff(TABLE_XS, TABLE_YS),
                                  delta)
    assert price == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_ball_infimum_refuses_a_nan_payoff(p):
    payoff = dataclasses.replace(rf.power_payoff(2),
                                 value=lambda x: np.where(np.asarray(x) > 0.5, np.nan, x))
    with pytest.raises(NumericalFailure, match="NaN"):
        rf.robust_davis_price(window_min_spec(p), payoff, 0.3)


# a table whose dip at its second node is narrower than a cell of the base grid
# and far from the best base point; its nodes are its kinks, so both orders
# put the dip on their grids
DIP_ATOM = 0.09085990739925282
DIP_XS = [-0.05360310961002867, -0.053537081542747944, -0.0535282796674666,
          0.5561710304456602, 0.7586011804683679]
DIP_YS = [0.5535541784763438, -0.9848889164082337, 0.5722476238097518,
          0.1132950426221997, 0.22013587264244427]


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_ball_infimum_finds_a_dip_between_base_grid_points(p):
    delta = 0.24663091301599893
    exact = node_minimum(DIP_XS, DIP_YS, DIP_ATOM, delta, 2.0)
    assert exact == -0.9848889164082337  # both windows hold the dip
    price = rf.robust_davis_price(window_min_spec(p, DIP_ATOM, 2.0),
                                  rf.custom_payoff(DIP_XS, DIP_YS), delta)
    if math.isinf(p):
        assert price == pytest.approx(exact, abs=1e-13)
    else:  # the W_2 ball holds the W_inf ball
        assert price <= exact + 1e-12


@st.composite
def clustered_tables(draw):
    """(xs, ys, atom, delta): a table with three nodes within 2e-4 of each
    other, inside the window of one atom of explicit([-atom, atom])."""
    atom = draw(st.floats(0.01, 1.0))
    delta = draw(st.floats(0.01, 0.4))
    centre = draw(st.sampled_from([-atom, atom])) + draw(st.floats(-delta, delta))
    gaps = np.cumsum(draw(st.lists(st.floats(1e-6, 1e-4), min_size=2, max_size=2)))
    far = draw(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2))
    xs = np.sort(np.concatenate([[centre], centre + gaps, far]))
    assume(np.all(np.diff(xs) > 0.0))
    ys = draw(st.lists(st.floats(-1.0, 1.0), min_size=xs.size, max_size=xs.size))
    return xs, np.array(ys), atom, delta


@settings(max_examples=40, deadline=None)
@given(case=clustered_tables())
@example(case=(  # x + (k - x) rounds an ulp off a node; the slope made it 4.4e-13
    np.array([-0.5782571054398641, 0.018180742695422775, 0.018187436903720725,
              0.01825244661966155, 1.4549322499346906]),
    np.array([-0.3875146388730051, -0.09764178050334937, -0.31171011500917145,
              0.11767330210777405, -0.5747690906604814]),
    0.17389533089983916, 0.20010416133452513))
def test_ball_infimum_at_p_inf_is_the_table_node_minimum(case):
    # each node is evaluated at the node itself, not at x + (k - x)
    xs, ys, atom, delta = case
    price = rf.robust_davis_price(window_min_spec(math.inf, atom, 1.5),
                                  rf.custom_payoff(xs, ys), delta)
    assert price == pytest.approx(node_minimum(xs, ys, atom, delta, 1.5), abs=1e-13)


@st.composite
def zero_mean_pricing(draw):
    """(model, payoff): a zero-mean 2-5-atom model on S = [-1, 1] and a
    catalog or table payoff."""
    n = draw(st.integers(2, 5))
    pts = np.array(draw(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n,
                                 unique=True)))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    w = w / w.sum()
    pts = pts - pts @ w
    assume(np.all(np.abs(pts) < 1.0) and np.min(np.abs(np.diff(np.sort(pts)))) > 1e-3)
    nodes = np.sort(draw(st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=6)))
    assume(np.min(np.diff(nodes)) > 1e-3)
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(nodes), max_size=len(nodes)))
    payoff = draw(st.one_of(
        st.integers(1, 3).map(rf.power_payoff),
        st.floats(-1.0, 1.0).map(rf.call_payoff),
        st.floats(0.05, 1.0).map(rf.butterfly_payoff),
        st.floats(-1.0, 1.0).map(rf.abs_shift_payoff),
        st.just(rf.custom_payoff(nodes, values)),
    ))
    return rf.explicit(pts, w, state_space=rf.StateSpace.interval(-1.0, 1.0)), payoff


@settings(max_examples=30, deadline=None)
@given(case=zero_mean_pricing(), delta=st.floats(1e-3, 0.3))
def test_ball_infimum_price_falls_as_the_ball_grows(case, delta):
    # W_1.5 <= W_3 <= W_inf, so the W_1.5 ball holds the W_3 ball, which
    # holds the W_inf ball; the price there is the infimum of E[g]
    model, payoff = case
    prices = []
    for p in (1.5, 3.0, math.inf):
        spec = rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                              action_space=rf.StateSpace.interval(-0.5, 0.5),
                              order=rf.WassersteinOrder(p))
        assert zero_strategy(spec, delta).ball_infimum
        prices.append(rf.robust_davis_price(spec, payoff, delta))
    assert prices[0] <= prices[1] + 1e-10
    assert prices[1] <= prices[2] + 1e-10


@st.composite
def outer_problems(draw):
    """Random 2-6-atom explicit model on S = [-1, 1] with an atom on each side
    of 0, a utility defined on all wealth pi * s, and an action interval
    inside [-0.75, 0.75] that may hold 0 inside, on an end, or not at all."""
    n_neg = draw(st.integers(1, 3))
    n_pos = draw(st.integers(1, 3))
    pts = (draw(st.lists(st.floats(-0.95, -0.01), min_size=n_neg, max_size=n_neg))
           + draw(st.lists(st.floats(0.01, 0.95), min_size=n_pos, max_size=n_pos)))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(pts),
                               max_size=len(pts))))
    end = st.one_of(st.just(0.0), st.floats(-0.75, 0.75))
    a_lo, a_hi = sorted([draw(end), draw(end)])
    assume(a_hi - a_lo >= 0.05)
    utility = draw(st.sampled_from([rf.log_shifted(1.0), rf.power(2.0, 1.0)]))
    model = rf.explicit(pts, w / w.sum(), state_space=rf.StateSpace.interval(-1.0, 1.0))
    return rf.ProblemSpec(model=model, utility=utility,
                          action_space=rf.StateSpace.interval(a_lo, a_hi),
                          order=rf.WassersteinOrder(draw(st.sampled_from([1.5, 2.0, 3.0]))))


@settings(max_examples=30, deadline=None)
@given(spec=outer_problems(), delta=st.floats(1e-3, 0.2))
def test_robust_p_outer_search_beats_its_neighbours(spec, delta):
    # the root find on the Danskin slope lands in A and no probe of the
    # inner value, at the ends of A, at 0 or next to the optimum, beats it
    sol = rf.robust_solve_p(spec, delta)
    lo, hi = spec.action_space.lower[0], spec.action_space.upper[0]
    pi = sol.pi_delta_scalar
    assert lo <= pi <= hi
    step = 1e-6 * (hi - lo)
    probes = [lo, hi] + [t for t in (0.0, pi - step, pi + step) if lo <= t <= hi]
    for t in probes:
        inner, _ = rf.adversary_inner_inf(spec.model, spec.utility, t, delta, spec.order)
        assert sol.V_delta >= inner - 1e-12, t


# ---------------------------------------------------------------------------
# the pi = 0 rules
# ---------------------------------------------------------------------------

def four_atom_spec(weights, action, p) -> rf.ProblemSpec:
    model = rf.explicit([-0.5, -0.2, 0.2, 0.5], weights,
                        state_space=rf.StateSpace.interval(-1.0, 1.0))
    return rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(*action),
                          order=rf.WassersteinOrder(p))


ZERO_MEAN = [0.25] * 4
NEGATIVE_DRIFT = [0.3, 0.25, 0.25, 0.2]  # E_P[X] = -0.05


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("weights, action, branch", [
    ([0.1, 0.2, 0.3, 0.4], (-0.75, 0.75), "trading"),
    (ZERO_MEAN, (-0.75, 0.75), "ball infimum"),
    ([0.2, 0.25, 0.25, 0.3], (-0.75, 0.75), "saddle"),  # E_P[X] = 0.05 < delta
    (NEGATIVE_DRIFT, (0.0, 0.75), "pinned"),
])
def test_robust_davis_price_is_a_float_on_every_branch(weights, action, branch, p):
    spec = four_atom_spec(weights, action, p)
    sol = rf.robust_solve(spec, 0.1)
    zero = zero_strategy(spec, 0.1)
    if sol.pi_delta_scalar != 0.0:
        taken = "trading"
    elif zero.ball_infimum:
        taken = "ball infimum"
    else:
        taken = "saddle" if zero.direction is None else "pinned"
    assert taken == branch
    assert type(rf.robust_davis_price(spec, rf.call_payoff(0.0), 0.1, sol)) is float


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("weights, action", [
    ([0.2, 0.25, 0.25, 0.3], (-0.75, 0.75)),
    (NEGATIVE_DRIFT, (0.0, 0.75)),
], ids=["saddle", "pinned"])
def test_zero_price_takes_the_shift_from_the_solution(monkeypatch, weights, action, p):
    # the pi = 0 adversary already holds zero_strategy's shift; the price asks
    # the rule only for its branch, which no radius changes
    spec = four_atom_spec(weights, action, p)
    sol = rf.robust_solve(spec, 0.1)
    g = rf.call_payoff(0.0)
    shifted = spec.model.support_1d - zero_strategy(spec, 0.1).shift
    radii = []
    rule = robust_solver.zero_strategy
    monkeypatch.setattr(robust_solver, "zero_strategy",
                        lambda s, d: radii.append(d) or rule(s, d))
    price = rf.robust_davis_price(spec, g, 0.1, sol)
    assert radii == [0.0]
    assert price == float(spec.model.weights @ g(shifted))


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("weights, action", [
    (ZERO_MEAN, (-0.75, 0.75)),
    (NEGATIVE_DRIFT, (0.0, 0.75)),
    (ZERO_MEAN, (0.0, 0.75)),  # 0 on the boundary of A decides over the mean
], ids=["interior-zero-mean", "pinned-negative-drift", "pinned-zero-mean"])
def test_zero_strategy_price_slope_and_adversary(weights, action, p):
    spec = four_atom_spec(weights, action, p)
    g = rf.call_payoff(0.0)
    slope = (rf.robust_davis_price(spec, g, 1e-4) - rf.robust_davis_price(spec, g, 0.0)) / 1e-4
    assert slope == pytest.approx(rf.davis_sensitivity(spec, rf.solve_baseline(spec), g),
                                  abs=1e-6)
    # robust_solve_p and robust_solve_inf report the same zero-strategy shift
    sol = rf.robust_solve(spec, 0.1)
    assert sol.pi_delta_scalar == 0.0
    np.testing.assert_allclose(sol.adversary.support_1d,
                               spec.model.support_1d - zero_strategy(spec, 0.1).shift,
                               rtol=0.0, atol=1e-15)


def test_pinned_zero_strategy_stops_atoms_at_the_state_space_edge():
    # pi = 0 pinned by A = [0, 0.75]: the atom at -0.95 can move only to the
    # edge -1 of S, and the other two move t, which spends the budget (at
    # p = 2) or is the radius (at p = inf)
    model = rf.explicit([-0.95, -0.2, 0.5], [0.4, 0.3, 0.3],
                        state_space=rf.StateSpace.interval(-1.0, 1.0))
    delta, g = 0.1, rf.call_payoff(-0.97)
    for p in (2.0, math.inf):
        spec = rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                              action_space=rf.StateSpace.interval(0.0, 0.75),
                              order=rf.WassersteinOrder(p))
        t = delta if math.isinf(p) else math.sqrt((delta ** 2 - 0.4 * 0.05 ** 2) / 0.6)
        np.testing.assert_allclose(zero_strategy(spec, delta).shift, [0.05, t, t],
                                   rtol=0.0, atol=1e-15)
        sol = rf.robust_solve(spec, delta)
        assert sol.pi_delta_scalar == 0.0
        np.testing.assert_allclose(sol.adversary.support_1d, [-1.0, -0.2 - t, 0.5 - t],
                                   rtol=0.0, atol=1e-15)
        assert sol.transport_cost == pytest.approx(delta, rel=1e-12)
        assert sol.transport_cost <= delta
        price = rf.robust_davis_price(spec, g, delta, sol)
        assert price == pytest.approx(0.3 * (0.77 - t) + 0.3 * (1.47 - t), abs=1e-12)
        # the limit of the marginal-utility prices along feasible pi -> 0+
        near = dataclasses.replace(spec, action_space=rf.StateSpace.interval(1e-6, 0.75))
        sol_near = rf.robust_solve(near, delta)
        assert sol_near.pi_delta_scalar == 1e-6
        assert price == pytest.approx(rf.robust_davis_price(near, g, delta, sol_near), abs=2e-6)


def test_pinned_zero_strategy_parks_every_atom_when_the_edge_is_within_reach():
    # the whole model sits closer to the edge than the radius: every atom
    # moves to the edge and the budget is not spent
    model = rf.explicit([-0.97, 0.02], [0.5, 0.5],
                        state_space=rf.StateSpace.interval(-1.0, 1.0))
    spec = rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(0.0, 0.75),
                          order=rf.WassersteinOrder(2.0))
    np.testing.assert_allclose(zero_strategy(spec, 2.0).shift, [0.03, 1.02],
                               rtol=0.0, atol=1e-15)


def saddle_edge_spec(p: float = 2.0) -> rf.ProblemSpec:
    # E_P[X] = 0.1, and the atom at -0.95 is 0.05 from the edge of S
    model = rf.explicit([-0.95, 0.55], [0.3, 0.7],
                        state_space=rf.StateSpace.interval(-1.0, 1.0))
    return rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(-0.75, 0.75),
                          order=rf.WassersteinOrder(p))


def test_saddle_zero_strategy_stops_atoms_at_the_state_space_edge():
    # pi = 0 interior to A at delta = 0.2: the atom at -0.95 can move only to
    # the edge -1 of S, and the other carries the rest of the mean (the
    # uniform shift put an atom at -1.05 and priced the call 0.994)
    delta, g = 0.2, rf.call_payoff(-0.97)
    t = (0.1 - 0.3 * 0.05) / 0.7
    for p in (2.0, math.inf):
        spec = saddle_edge_spec(p)
        np.testing.assert_allclose(zero_strategy(spec, delta).shift, [0.05, t],
                                   rtol=0.0, atol=1e-15)
        sol = rf.robust_solve(spec, delta)
        assert sol.pi_delta_scalar == 0.0
        np.testing.assert_allclose(sol.adversary.support_1d, [-1.0, 0.55 - t],
                                   rtol=0.0, atol=1e-15)
        cost = t if math.isinf(p) else math.sqrt(0.3 * 0.05 ** 2 + 0.7 * t ** 2)
        assert sol.transport_cost == pytest.approx(cost, rel=1e-12)
        assert sol.transport_cost <= delta
        assert rf.martingale_check_robust(spec, sol) <= 1e-15
        price = rf.robust_davis_price(spec, g, delta, sol)
        assert price == pytest.approx(0.7 * (0.55 - t + 0.97), abs=1e-12)


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_saddle_zero_strategy_is_the_uniform_mean_when_no_edge_binds(p):
    spec = four_atom_spec([0.2, 0.25, 0.25, 0.3], (-0.75, 0.75), p)
    mean = float(spec.model.weights @ spec.model.support_1d)
    assert np.array_equal(zero_strategy(spec, 0.1).shift, np.full(4, mean))


def test_robust_solve_p_refuses_pi_zero_without_a_zero_mean_ball_member(monkeypatch):
    # at delta = 0.05 the cheapest mean-zeroing shift (cost 0.105) is out of
    # reach, so the saddle shift spends the budget instead; a pi = 0 answer
    # (forced here; the one-sided slopes at 0 pick a side) is refused rather than
    # reported with an adversary that still has a drift
    spec = saddle_edge_spec()
    np.testing.assert_allclose(zero_strategy(spec, 0.05).shift, [0.05, 0.05],
                               rtol=0.0, atol=1e-15)
    monkeypatch.setattr(robust_solver, "_side_of_zero",
                        lambda lo, hi, right, left, at=0.0: (0.0, 0.0))
    with pytest.raises(AssumptionViolation, match="zeroes the mean"):
        rf.robust_solve_p(spec, 0.05)


def test_robust_davis_first_order_diagnostics():
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    g = rf.power_payoff(3)
    assert rf.robust_davis_first_order(spec, g, 0.0) == pytest.approx(
        rf.davis_price(spec, sol, g), abs=1e-12)
    gaps = []
    for delta in (0.1, 0.05):
        exact = -2.0 * delta + 2.0 * delta ** 3
        gaps.append(abs(rf.robust_davis_first_order(spec, g, delta) - exact))
    assert gaps[0] / gaps[1] >= 3.0  # quadratic error decay


def test_robust_davis_first_order_normal():
    spec = normal_exp_spec()
    approx = rf.robust_davis_first_order(spec, rf.power_payoff(2), 0.05)
    assert approx == pytest.approx(0.04, abs=2e-3)


# ---------------------------------------------------------------------------
# robust pricing measure
# ---------------------------------------------------------------------------

def test_martingale_check_robust_binomial():
    spec = binomial_log_spec(0.25)
    for delta in (0.0, 0.05, 0.1):
        sol = rf.robust_solve_inf(spec, delta)
        assert rf.martingale_check_robust(spec, sol) <= 1e-10


def test_martingale_check_robust_normal():
    spec = normal_exp_spec()
    sol = rf.robust_solve_inf(spec, 0.05)
    assert rf.martingale_check_robust(spec, sol) <= 1e-8


def test_martingale_check_robust_finite_p():
    spec = binomial_log_spec(0.25, p=2.0, state=(-1.25, 1.25),
                             action=(-0.75, 0.75))
    sol = rf.robust_solve_p(spec, 0.05)
    # the finite-p pricing measure is martingale up to oracle resolution
    assert rf.martingale_check_robust(spec, sol) <= 1e-3
