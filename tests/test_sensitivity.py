"""First-order sensitivities: value, optimizer, Davis price, comparators."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import robustfolio as rf
from robustfolio import AssumptionViolation, ConfigError, DegenerateSensitivityError, \
    sensitivity

from conftest import binomial_exp_spec, binomial_log_spec, normal_exp_spec

INF = rf.WassersteinOrder(math.inf)


def p_for_q(q: float) -> float:
    return math.inf if q == 1.0 else q / (q - 1.0)


def zero_mean_spec(utility=None) -> rf.ProblemSpec:
    w = np.array([0.35, 0.4, 0.25])
    pts = np.array([-1.0, 0.4, 1.2])
    model = rf.explicit(pts - float(pts @ w), w,
                        state_space=rf.StateSpace.interval(-2.0, 2.0))
    return rf.ProblemSpec(model=model,
                          utility=utility or rf.exponential(1.0),
                          action_space=rf.StateSpace.interval(-5.0, 5.0),
                          order=rf.WassersteinOrder(2.0))


# ---------------------------------------------------------------------------
# value sensitivity
# ---------------------------------------------------------------------------

def test_binomial_log_value_sensitivity_q1():
    for a in (0.05, 0.15, 0.25, 0.35, 0.45):
        spec = binomial_log_spec(a)
        sol = rf.solve_baseline(spec)
        # E[u'(pi* X)] = 1 for shifted log, so V'(0) = -pi*
        assert rf.value_sensitivity(spec, sol) == pytest.approx(-(1.0 - 2.0 * a),
                                                                abs=1e-12)


def test_binomial_exp_value_sensitivity_general_q():
    a = 0.25
    for q in (1.0, 1.5, 2.0, 2.5):
        spec = binomial_exp_spec(a, p=p_for_q(q))
        sol = rf.solve_baseline(spec)
        fx = rf.fixture("binomial_exp", a=a, gamma=1.0, q=q)
        assert rf.value_sensitivity(spec, sol) == pytest.approx(fx.value_prime0,
                                                                abs=1e-10)
    # spot value from direct two-atom arithmetic at q=2
    spec = binomial_exp_spec(0.25, p=2.0)
    sol = rf.solve_baseline(spec)
    assert rf.value_sensitivity(spec, sol) == pytest.approx(-0.5493061443340549,
                                                            abs=1e-10)


def test_value_sensitivity_zero_at_pi_zero():
    spec = zero_mean_spec()
    sol = rf.solve_baseline(spec)
    assert rf.value_sensitivity(spec, sol) == 0.0


def test_value_sensitivity_nonincreasing_in_q():
    spec0 = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec0)
    values = []
    for q in (1.0, 1.5, 2.0, 4.0):
        spec = binomial_log_spec(0.25, p=p_for_q(q))
        values.append(rf.value_sensitivity(spec, sol))
    for hi, lo in zip(values[:-1], values[1:]):
        assert lo <= hi + 1e-14


def test_value_sensitivity_fd_agreement_inf():
    # |slope(1e-3) - V'(0)| <= 10 |slope(1e-2) - V'(0)| : first-order residual
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    v_prime = rf.value_sensitivity(spec, sol)
    errs = []
    for delta in (1e-2, 1e-3):
        robust = rf.robust_solve_inf(spec, delta)
        errs.append(abs((robust.V_delta - sol.V0) / delta - v_prime))
    assert errs[1] <= 10.0 * errs[0]
    assert errs[1] <= 0.01 * abs(v_prime)


# ---------------------------------------------------------------------------
# optimizer sensitivity
# ---------------------------------------------------------------------------

def test_binomial_log_optimizer_sensitivity_q1():
    for a in (0.1, 0.25, 0.4):
        spec = binomial_log_spec(a)
        sol = rf.solve_baseline(spec)
        pi_prime, kappa = rf.optimizer_sensitivity(spec, sol)
        assert pi_prime[0] == pytest.approx(-1.0, abs=1e-10)
        if a == 0.25:
            assert kappa == pytest.approx(4.0 / 3.0, abs=1e-10)
            assert sol.hessian[0, 0] == pytest.approx(-4.0 / 3.0, abs=1e-10)


def test_binomial_log_optimizer_sensitivity_general_q():
    for a in (0.1, 0.25, 0.4):
        for q in (1.5, 2.0, 2.5):
            spec = binomial_log_spec(a, p=p_for_q(q))
            sol = rf.solve_baseline(spec)
            pi_prime, _ = rf.optimizer_sensitivity(spec, sol)
            fx = rf.fixture("binomial_log", a=a, q=q)
            assert pi_prime[0] == pytest.approx(fx.pi_prime0, abs=1e-10)
    spec = binomial_log_spec(0.25, p=2.0)
    pi_prime, _ = rf.optimizer_sensitivity(spec, rf.solve_baseline(spec))
    assert pi_prime[0] == pytest.approx(-1.4433756729740645, abs=1e-10)


def test_normal_exp_optimizer_sensitivity():
    spec = normal_exp_spec()
    pi_prime, _ = rf.optimizer_sensitivity(spec, rf.solve_baseline(spec))
    assert pi_prime[0] == pytest.approx(-25.0, abs=1e-5)


def test_optimizer_sensitivity_undefined_at_pi_zero():
    spec = zero_mean_spec()
    sol = rf.solve_baseline(spec)
    with pytest.raises(AssumptionViolation):
        rf.optimizer_sensitivity(spec, sol)


def test_optimizer_fd_agreement():
    for spec in (binomial_log_spec(0.25), normal_exp_spec()):
        sol = rf.solve_baseline(spec)
        pi_prime, _ = rf.optimizer_sensitivity(spec, sol)
        delta = 1e-3
        robust = rf.robust_solve_inf(spec, delta)
        slope = (robust.pi_delta[0] - sol.pi_star_scalar) / delta
        assert slope == pytest.approx(pi_prime[0], abs=5e-3)


def two_asset_spec() -> rf.ProblemSpec:
    pts = np.random.default_rng(0).normal([0.08, 0.05], [0.2, 0.15], (40, 2))
    return rf.ProblemSpec(model=rf.DiscreteMeasure(points=pts, weights=np.full(40, 1 / 40)),
                          utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace((-10.0, -10.0), (10.0, 10.0)),
                          order=INF)


def test_optimizer_sensitivity_two_assets_matches_the_robust_optimizer():
    # at p = inf the robust optimizer is argmax E[u(<X, pi> - delta |pi|_2)];
    # its Richardson difference quotient 2 s(1e-3) - s(2e-3) is pi*'(0) to
    # O(delta^2), and in d = 2 it has a component across pi*
    spec = two_asset_spec()
    sol = rf.solve_baseline(spec)
    pi_prime, _ = rf.optimizer_sensitivity(spec, sol)
    x, w, u = spec.model.points, spec.model.weights, spec.utility

    def robust_optimizer(delta: float) -> np.ndarray:
        def loss(pi):
            return -w @ u.u(x @ pi - delta * np.linalg.norm(pi))

        def grad(pi):
            up = w * u.u_prime(x @ pi - delta * np.linalg.norm(pi))
            return -(up @ x - delta * up.sum() * pi / np.linalg.norm(pi))

        res = minimize(loss, sol.pi_star, jac=grad, method="BFGS",
                       options={"gtol": 1e-13, "maxiter": 1000})
        # BFGS stalls near 1e-9 in rounding; a gradient of 1e-8 moves pi by
        # under 1e-6 (|H^-1| < 40), the quotients by under 1e-3: far inside
        # the tolerance below
        assert np.linalg.norm(grad(res.x)) <= 1e-8
        return res.x

    s1, s2 = ((robust_optimizer(d) - sol.pi_star) / d for d in (1e-3, 2e-3))
    np.testing.assert_allclose(pi_prime, 2.0 * s1 - s2, rtol=1e-3, atol=0.0)


def test_optimizer_sensitivity_two_assets_reweights_the_portfolio():
    # robustness changes the relative weighting of the assets, not only the
    # scale: pi*'(0) is not parallel to pi*
    spec = two_asset_spec()
    sol = rf.solve_baseline(spec)
    pi_prime, _ = rf.optimizer_sensitivity(spec, sol)
    cross = pi_prime[0] * sol.pi_star[1] - pi_prime[1] * sol.pi_star[0]
    assert abs(cross) >= 0.1 * np.linalg.norm(pi_prime) * np.linalg.norm(sol.pi_star)


def test_davis_prices_refuse_two_assets():
    # every payoff is a function of one price increment: a typed refusal, not
    # a TypeError from applying it to (n, 2) points
    spec = two_asset_spec()
    sol = rf.solve_baseline(spec)
    g = rf.power_payoff(2)
    for price in (lambda: rf.davis_price(spec, sol, g),
                  lambda: rf.sensitivity_report(spec, sol, g),
                  lambda: rf.davis_price_via_root(spec, g, (0.01, 1.0))):
        with pytest.raises(ConfigError, match="1-d support"):
            price()


# ---------------------------------------------------------------------------
# transport direction
# ---------------------------------------------------------------------------

def test_transport_direction_constant_for_q1():
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    T = rf.transport_direction(spec, sol, np.array([-1.0, 1.0]))
    assert np.allclose(T, 1.0, atol=1e-12)


def test_transport_direction_binomial_q2():
    spec = binomial_log_spec(0.25, p=2.0)
    sol = rf.solve_baseline(spec)
    T = rf.transport_direction(spec, sol, np.array([-1.0, 1.0]))
    scale = (4.0 / 3.0) ** -0.5
    assert T[0, 0] == pytest.approx(2.0 * scale, abs=1e-10)
    assert T[1, 0] == pytest.approx((2.0 / 3.0) * scale, abs=1e-10)


def test_transport_direction_value_identity():
    # -<E[u'(<X,pi*>) T(X)], pi*> = V'(0) ties the two closed forms together
    for q in (1.0, 1.5, 2.0):
        spec = binomial_log_spec(0.3, p=p_for_q(q))
        sol = rf.solve_baseline(spec)
        x = spec.model.support_1d
        T = rf.transport_direction(spec, sol, x)[:, 0]
        up = spec.utility.u_prime(x * sol.pi_star_scalar)
        lhs = -spec.model.expectation(up * T) * sol.pi_star_scalar
        assert lhs == pytest.approx(rf.value_sensitivity(spec, sol), abs=1e-12)


# ---------------------------------------------------------------------------
# Davis sensitivity
# ---------------------------------------------------------------------------

def test_davis_sensitivity_binomial():
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    assert rf.davis_sensitivity(spec, sol, rf.power_payoff(3)) == pytest.approx(
        -2.0, abs=1e-10)
    assert rf.davis_sensitivity(spec, sol, rf.call_payoff(0.0)) == pytest.approx(
        0.0, abs=1e-10)


def test_davis_sensitivity_pi_zero_branch():
    # at pi* = 0 the derivative is the whole-ball slope -(E|g'|^q)^(1/q)
    spec = zero_mean_spec()
    sol = rf.solve_baseline(spec)
    g = rf.power_payoff(2)
    got = rf.davis_sensitivity(spec, sol, g)
    grad = g.grad(spec.model.support_1d)
    q = spec.order.q
    expected = -spec.model.expectation(np.abs(grad) ** q) ** (1.0 / q)
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_davis_sensitivity_pi_zero_branch_with_a_payoff_flat_on_the_atoms():
    # a call struck past every atom has g' = 0 on them: the slope is 0
    spec = zero_mean_spec()
    sol = rf.solve_baseline(spec)
    assert rf.davis_sensitivity(spec, sol, rf.call_payoff(5.0)) == 0.0


def test_davis_sensitivity_sign_unconstrained():
    # the |x + x0| payoff has a positive first-order price response
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    got = rf.davis_sensitivity(spec, sol, rf.abs_shift_payoff(0.5))
    assert got == pytest.approx(0.5, abs=1e-10)
    assert got > 0.0


# ---------------------------------------------------------------------------
# KL comparator
# ---------------------------------------------------------------------------

def test_kl_sensitivity_binomial_exp():
    for a in (0.1, 0.25, 0.4):
        spec = binomial_exp_spec(a)
        sol = rf.solve_baseline(spec)
        expected = -math.sqrt(2.0 * (1.0 - 4.0 * a * (1.0 - a)))
        assert rf.kl_value_sensitivity(spec, sol) == pytest.approx(expected,
                                                                   abs=1e-12)


def test_kl_sensitivity_binomial_log():
    a = 0.25
    spec = binomial_log_spec(a)
    sol = rf.solve_baseline(spec)
    u1, u2 = math.log(2.0 * a), math.log(2.0 - 2.0 * a)
    mean = a * u1 + (1.0 - a) * u2
    var = a * (u1 - mean) ** 2 + (1.0 - a) * (u2 - mean) ** 2
    assert rf.kl_value_sensitivity(spec, sol) == pytest.approx(-math.sqrt(2.0 * var),
                                                               abs=1e-12)


def test_kl_sensitivity_zero_at_pi_zero():
    spec = zero_mean_spec()
    sol = rf.solve_baseline(spec)
    assert rf.kl_value_sensitivity(spec, sol) == pytest.approx(0.0, abs=1e-12)


def test_kl_sensitivity_rejects_quadrature_models():
    spec = normal_exp_spec()
    sol = rf.solve_baseline(spec)
    with pytest.raises(AssumptionViolation):
        rf.kl_value_sensitivity(spec, sol)


# ---------------------------------------------------------------------------
# degeneracy guard
# ---------------------------------------------------------------------------

def test_guard_rejects_exponential_finite_p_unbounded():
    spec = rf.ProblemSpec(model=rf.normal(0.1, 0.2, 64),
                          utility=rf.exponential(1.0),
                          action_space=rf.StateSpace.interval(-50.0, 50.0),
                          order=rf.WassersteinOrder(2.0))
    with pytest.raises(DegenerateSensitivityError):
        rf.value_sensitivity(spec, rf.solve_baseline(spec))


def test_guard_rejects_tiny_kappa_capped():
    # kappa below the floor behaves like a bare exponential tail
    spec = rf.ProblemSpec(model=rf.normal(0.05, 0.2, 64),
                          utility=rf.capped_exponential(0.5, 9e-4),
                          action_space=rf.StateSpace.interval(-50.0, 50.0),
                          order=rf.WassersteinOrder(2.0))
    with pytest.raises(DegenerateSensitivityError):
        rf.value_sensitivity(spec, rf.solve_baseline(spec))
    # an unrepresentable slope is a config error, not a crash
    with pytest.raises(rf.ConfigError):
        rf.capped_exponential(1.0, 1e-4)


def edge_spec(points, weights, action, p) -> rf.ProblemSpec:
    model = rf.explicit(points, weights, state_space=rf.StateSpace.interval(-1.0, 1.0))
    return rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(*action),
                          order=rf.WassersteinOrder(p))


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_edge_guard_refuses_an_atom_that_cannot_move(p):
    # pi* = 0.5 > 0 moves every atom down, but the atom at -1 sits on the
    # lower edge of S: the robust slope at 0+ is -0.28868 (p = 2) and -0.25
    # (p = inf), where the closed form V'(0) reads -0.57735 and -0.5
    spec = edge_spec([-1.0, 1.0], [0.25, 0.75], (-0.75, 0.75), p)
    sol = rf.solve_baseline(spec)
    slope = (rf.robust_solve(spec, 1e-6).V_delta - sol.V0) / 1e-6
    assert slope == pytest.approx(-0.28867513 if p == 2.0 else -0.25, abs=1e-6)
    for closed_form in (rf.value_sensitivity, rf.optimizer_sensitivity,
                        lambda s, b: rf.davis_sensitivity(s, b, rf.call_payoff(0.0))):
        with pytest.raises(AssumptionViolation, match="edge of the state space"):
            closed_form(spec, sol)
    # the upper edge is behind the move, so an atom there is no obstacle
    spec = edge_spec([-0.5, 1.0], [0.6, 0.4], (-0.75, 0.75), p)
    assert rf.value_sensitivity(spec, rf.solve_baseline(spec)) < 0.0


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("points, weights, action", [
    ([-1.0, 0.5], [0.4, 0.6], (0.0, 0.75)),  # pi* = 0 pinned: atoms move down
    ([-0.5, 1.0], [2 / 3, 1 / 3], (-0.75, 0.75)),  # zero mean: either edge
], ids=["pinned", "ball-infimum"])
def test_edge_guard_refuses_the_zero_price_slope_at_an_edge(points, weights, action, p):
    spec = edge_spec(points, weights, action, p)
    sol = rf.solve_baseline(spec)
    assert sol.pi_is_zero
    assert rf.value_sensitivity(spec, sol) == 0.0  # V is u(0) at every radius
    with pytest.raises(AssumptionViolation, match="edge of the state space"):
        rf.davis_sensitivity(spec, sol, rf.power_payoff(1))


@pytest.mark.parametrize("p, points, weights, space", [
    (1100.0, [-1.0, 1.0], [0.25, 0.75], (-1.25, 1.25)),  # 2^1100, 2.25^1100 overflow
    (227.0, [-1.0, 1.0, 25.0], [0.3, 0.6, 0.1], (-1.25, 30.0)),  # 26.25^227 overflows
], ids=["p1100", "p227"])
def test_pinned_shift_spends_a_wide_radius_at_a_high_order(p, points, weights, space):
    # the reach was solved from delta^p and dist^p in floats, which overflow
    # at delta = 2 (an OverflowError, or a RuntimeWarning from the far atom
    # however early the reach settled); in units of delta they stay in range
    spec = rf.ProblemSpec(model=rf.explicit(points, weights, rf.StateSpace.interval(*space)),
                          utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(-0.75, 0.75),
                          order=rf.WassersteinOrder(p))
    shift = sensitivity.pinned_shift(spec, 2.0, 1.0)
    dist = np.array(points) - space[0]
    assert np.all((0.0 <= shift) & (shift <= dist))
    assert shift[0] == dist[0]  # the atom next to the edge stops there
    assert np.sum(np.array(weights) * (shift / 2.0) ** p) == pytest.approx(1.0, rel=1e-12)


def test_guard_inert_at_p_inf_and_bounded_support():
    # p = inf: fine even on the unbounded quadrature model
    sol = rf.solve_baseline(normal_exp_spec())
    assert rf.value_sensitivity(normal_exp_spec(), sol) < 0.0
    # finite p with bounded support and interior optimum: fine
    spec = rf.ProblemSpec(model=rf.truncated_normal(0.05, 0.2, 0.4, 12),
                          utility=rf.exponential(1.0),
                          action_space=rf.StateSpace.interval(-5.0, 5.0),
                          order=rf.WassersteinOrder(2.0))
    sol = rf.solve_baseline(spec)
    assert not sol.boundary
    assert math.isfinite(rf.value_sensitivity(spec, sol))


def test_exponential_asymptotics_in_a():
    # q = 1.5: V'(0) -> 0; q = 2.5: V'(0) diverges, below -10 for a <= 1e-4
    vals = {q: [] for q in (1.5, 2.5)}
    for a in (1e-2, 1e-3, 1e-4):
        for q in (1.5, 2.5):
            spec = binomial_exp_spec(a, p=p_for_q(q))
            vals[q].append(rf.value_sensitivity(spec, rf.solve_baseline(spec)))
    assert abs(vals[1.5][0]) > abs(vals[1.5][1]) > abs(vals[1.5][2])
    assert vals[2.5][0] > vals[2.5][1] > vals[2.5][2]
    assert vals[2.5][2] < -10.0


# ---------------------------------------------------------------------------
# capped-exponential limits
# ---------------------------------------------------------------------------

def test_capped_exponential_limit_convergence():
    mu, sigma, gamma, q = 0.1, 0.2, 1.0, 2.0
    fx = rf.fixture("capped_exp_limit", mu=mu, sigma=sigma, gamma=gamma, q=q)
    v_gaps, pi_gaps = [], []
    for kappa in (1.0, 0.3, 0.1):
        spec = rf.ProblemSpec(model=rf.normal(mu, sigma, 128),
                              utility=rf.capped_exponential(gamma, kappa),
                              action_space=rf.StateSpace.interval(-1000.0, 1000.0),
                              order=rf.WassersteinOrder(2.0))
        sol = rf.solve_baseline(spec)
        v_gaps.append(abs(rf.value_sensitivity(spec, sol) - fx.value_prime0))
        pi_prime, _ = rf.optimizer_sensitivity(spec, sol)
        pi_gaps.append(abs(pi_prime[0] - fx.pi_prime0))
    assert v_gaps[0] > v_gaps[1] > v_gaps[2]
    assert pi_gaps[0] > pi_gaps[1] > pi_gaps[2]
    assert v_gaps[2] <= 1e-3 * abs(fx.value_prime0)
    assert pi_gaps[2] <= 1e-2 * abs(fx.pi_prime0)


def test_capped_exponential_variant_form_disagrees():
    # the alternative printed optimizer limit differs from the direct
    # evaluation for q = 2; both are recorded and compared, not reconciled
    fx = rf.fixture("capped_exp_limit", mu=0.1, sigma=0.2, gamma=1.0, q=2.0)
    assert abs(fx.pi_prime0_variant - fx.pi_prime0) > 10.0
    fx1 = rf.fixture("capped_exp_limit", mu=0.1, sigma=0.2, gamma=1.0, q=1.0)
    # at q = 1 the limit collapses to the direct Gaussian closed forms
    norm = rf.fixture("normal_exp", mu=0.1, sigma=0.2, gamma=1.0)
    assert fx1.value_prime0 == pytest.approx(norm.value_prime0, abs=1e-12)
    assert fx1.pi_prime0 == pytest.approx(norm.pi_prime0, abs=1e-12)


# ---------------------------------------------------------------------------
# preference comparison
# ---------------------------------------------------------------------------

def test_preference_tie_on_identical_models():
    P = rf.binomial(0.25)
    for delta in (0.0, 0.05, 0.2):
        cmp = rf.preference_compare(P, P, 0.4, rf.log_shifted(1.0), INF, delta)
        assert cmp.ordering == "tie"


def test_preference_reduces_to_expected_utility_at_zero_delta():
    P, P_alt = rf.binomial(0.2), rf.binomial(0.3)
    u = rf.log_shifted(1.0)
    cmp = rf.preference_compare(P, P_alt, 0.4, u, INF, 0.0)
    e_base = 0.2 * math.log(0.6) + 0.8 * math.log(1.4)
    e_alt = 0.3 * math.log(0.6) + 0.7 * math.log(1.4)
    assert cmp.score_base == pytest.approx(e_base, abs=1e-14)
    assert cmp.score_alternative == pytest.approx(e_alt, abs=1e-14)
    assert cmp.ordering == "base"


def test_preference_binomial_pair_with_penalty():
    # scores from direct two-atom arithmetic at q = 1, delta = 0.05
    P, P_alt = rf.binomial(0.2), rf.binomial(0.3)
    u = rf.log_shifted(1.0)
    pi, delta = 0.4, 0.05

    def score(a):
        e_u = a * math.log(1.0 - pi) + (1.0 - a) * math.log(1.0 + pi)
        e_up = a / (1.0 - pi) + (1.0 - a) / (1.0 + pi)
        return e_u - delta * pi * e_up

    cmp = rf.preference_compare(P, P_alt, pi, u, INF, delta)
    assert cmp.score_base == pytest.approx(score(0.2), abs=1e-14)
    assert cmp.score_alternative == pytest.approx(score(0.3), abs=1e-14)
    assert cmp.ordering == ("base" if score(0.2) > score(0.3) else "alternative")


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_sensitivity_report_interior():
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    report = rf.sensitivity_report(spec, sol, payoff=rf.power_payoff(3))
    assert report.branch == "interior"
    assert report.q == 1.0
    assert report.V_prime0 == pytest.approx(-0.5, abs=1e-12)
    assert report.pi_prime0[0] == pytest.approx(-1.0, abs=1e-10)
    assert report.davis_price == pytest.approx(0.0, abs=1e-12)
    assert report.davis_prime0 == pytest.approx(-2.0, abs=1e-10)
    assert report.kl_V_prime0 is not None


def test_sensitivity_report_prices_on_one_pricing_measure(monkeypatch):
    # the Davis price and its slope read one Q_u and one pi*'(0), and give
    # the bits of the separate calls
    spec, g = normal_exp_spec(), rf.call_payoff(0.1)
    sol = rf.solve_baseline(spec)
    price, slope = rf.davis_price(spec, sol, g), rf.davis_sensitivity(spec, sol, g)
    built, solved = [], []
    check, pi_prime = rf.DiscreteMeasure.__post_init__, sensitivity.optimizer_sensitivity
    monkeypatch.setattr(rf.DiscreteMeasure, "__post_init__",
                        lambda self: built.append(self.kind) or check(self))
    monkeypatch.setattr(sensitivity, "optimizer_sensitivity",
                        lambda *args: solved.append(1) or pi_prime(*args))
    report = rf.sensitivity_report(spec, sol, payoff=g)
    assert built == ["q_u"]
    assert solved == [1]
    assert (report.davis_price, report.davis_prime0) == (price, slope)


def test_sensitivity_report_pi_zero_branch():
    spec = zero_mean_spec()
    sol = rf.solve_baseline(spec)
    report = rf.sensitivity_report(spec, sol, payoff=rf.power_payoff(2))
    assert report.branch == "pi_star_zero"
    assert report.V_prime0 == 0.0
    assert report.pi_prime0[0] == 0.0
    assert math.isnan(report.kappa_u)


def test_sensitivity_report_rejects_positive_value_slope():
    with pytest.raises(AssumptionViolation):
        rf.SensitivityReport(q=1.0, V_prime0=0.5, pi_prime0=np.zeros(1),
                             kappa_u=0.0, davis_price=None, davis_prime0=None,
                             branch="interior")


# ---------------------------------------------------------------------------
# orders near p = 1 (q large): the L^q moments leave float range
# ---------------------------------------------------------------------------

NEAR_ONE = rf.WassersteinOrder(1.0101010101010102)  # q = 100 up to rounding


def near_one_spec() -> rf.ProblemSpec:
    # u'(pi* x) is 5000 at x = -1, so |u'|^q overflows and |u'(+1)|^q underflows
    model = rf.explicit([-1.0, 1.0], [1e-4, 0.9999],
                        state_space=rf.StateSpace.interval(-2.0, 2.0))
    return rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(-50.0, 50.0),
                          order=NEAR_ONE)


@pytest.mark.filterwarnings("error")
def test_closed_forms_stay_finite_near_p_one():
    spec = near_one_spec()
    sol = rf.solve_baseline(spec)
    fx = rf.fixture("binomial_log", a=1e-4, q=NEAR_ONE.q)
    v_prime = rf.value_sensitivity(spec, sol)
    assert v_prime == pytest.approx(-4559.1421859407, rel=1e-12)
    assert v_prime == pytest.approx(fx.value_prime0, rel=1e-12)
    pi_prime, kappa = rf.optimizer_sensitivity(spec, sol)
    assert pi_prime[0] == pytest.approx(fx.pi_prime0, rel=1e-12)
    assert math.isfinite(kappa) and kappa > 0.0
    x = spec.model.support_1d
    T = rf.transport_direction(spec, sol, x)[:, 0]
    assert np.all(np.isfinite(T)) and T[0] > 0.0
    # the value identity -<E[u' T], pi*> = V'(0) of the plain orders holds
    up = spec.utility.u_prime(x * sol.pi_star_scalar)
    lhs = -spec.model.expectation(up * T) * sol.pi_star_scalar
    assert lhs == pytest.approx(v_prime, rel=1e-12)
    assert math.isfinite(rf.robust_davis_first_order(spec, rf.abs_shift_payoff(0.5), 0.01))


@pytest.mark.filterwarnings("error")
def test_preference_penalty_stays_finite_near_p_one():
    spec = near_one_spec()
    sol = rf.solve_baseline(spec)
    delta = 0.01
    cmp = rf.preference_compare(spec.model, spec.model, sol.pi_star, spec.utility,
                                NEAR_ONE, delta)
    penalty = sol.V0 - cmp.score_base
    assert penalty == pytest.approx(-delta * rf.value_sensitivity(spec, sol), rel=1e-12)
    assert cmp.ordering == "tie"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma, p", [(0.05, 1.5), (0.0625, 1.0001), (0.0625, 1.1)])
def test_dual_weights_past_float_range_stay_bounded(sigma, p):
    # a narrow truncated normal puts pi* near 190-290, where both factors of
    # the L^q duality weight, |u'|^(q-1) and ||u'||_q^(1-q), leave float
    # range; their product, taken whole, is at most w^(-1/p) at an atom of
    # weight w, and kappa_u past float range is a typed refusal
    spec = rf.ProblemSpec(model=rf.truncated_normal(0.5, sigma, 3.0),
                          utility=rf.exponential(1.0),
                          action_space=rf.StateSpace.interval(-1000.0, 1000.0),
                          order=rf.WassersteinOrder(p))
    sol = rf.solve_baseline(spec)
    with pytest.raises(rf.NumericalFailure, match="leaves float range"):
        rf.optimizer_sensitivity(spec, sol)
    w = spec.model.weights
    live = w > 0.0
    T = rf.transport_direction(spec, sol, spec.model.support_1d)[live, 0]
    assert np.all(T >= 0.0) and T.max() > 0.0
    assert np.all(T <= w[live] ** (-1.0 / p) * (1.0 + 1e-9))


@pytest.mark.filterwarnings("error")
def test_dual_weights_past_float_range_at_atoms_of_no_weight():
    # p = 1.0001 on a truncated normal whose far nodes' weights underflow to
    # 0: there (|u'| / ||u'||_q)^(q-1) is inf, and 0 * inf was NaN in pi*'(0)
    model = rf.truncated_normal(0.005, 0.005, 0.6490057097684118,
                                state_space=rf.StateSpace.interval(-2.0, 2.0))
    spec = rf.ProblemSpec(model=model, utility=rf.log_shifted(1.0),
                          action_space=rf.StateSpace.interval(-1000.0, 1000.0),
                          order=rf.WassersteinOrder(1.0001))
    sol = rf.solve_baseline(spec)
    pi_prime, kappa = rf.optimizer_sensitivity(spec, sol)
    assert math.isfinite(pi_prime[0]) and pi_prime[0] < 0.0
    # near p = 1 the duality weight sits on the live atom of largest u':
    # kappa_u tends to y u''(y) + u'(y) at its wealth y
    live = model.weights > 0.0
    y = (model.support_1d * sol.pi_star_scalar)[live]
    top = np.argmax(spec.utility.u_prime(y))
    limit = y[top] * spec.utility.u_double_prime(y[top]) + spec.utility.u_prime(y[top])
    assert kappa == pytest.approx(limit, rel=1e-3)
