"""The closed-form fixture catalog against the solver stack.

Every fixture value is derived by hand inside ``analytic_fixtures`` without
touching the solvers, so agreement here means two independent routes land on
the same number.
"""

import math

import numpy as np
import pytest

import robustfolio as rf
from robustfolio import ConfigError

from conftest import binomial_exp_spec, binomial_log_spec, normal_exp_spec


def p_for_q(q: float) -> float:
    return math.inf if q == 1.0 else q / (q - 1.0)


# ---------------------------------------------------------------------------
# bs_value
# ---------------------------------------------------------------------------

def test_bs_value_at_the_money_unit_lognormal():
    # E[(e^Z - 1)^+], Z ~ N(-1/2, 1): forward is 1, d1 = -d2 = 1/2
    expected = math.erf(0.5 / math.sqrt(2.0))
    assert rf.bs_value(1.0, -0.5, 1.0) == pytest.approx(expected, abs=1e-15)
    assert rf.bs_value(1.0, -0.5, 1.0) == pytest.approx(0.38292492254802624,
                                                        abs=1e-15)


def test_bs_value_inactive_strike_is_forward_minus_k():
    forward = math.exp(-0.5 + 0.5)
    assert rf.bs_value(0.0, -0.5, 1.0) == pytest.approx(forward, abs=1e-15)
    assert rf.bs_value(-0.3, -0.5, 1.0) == pytest.approx(forward + 0.3, abs=1e-15)


def test_bs_value_deep_out_of_the_money_vanishes():
    assert abs(rf.bs_value(math.exp(-0.5 + 10.0), -0.5, 1.0)) <= 1e-12


def test_bs_value_decreasing_in_strike():
    values = [rf.bs_value(k, -0.2, 0.6) for k in (0.5, 0.8, 1.0, 1.5, 2.0)]
    for hi, lo in zip(values[:-1], values[1:]):
        assert lo < hi


def test_bs_value_rejects_bad_sigma():
    with pytest.raises(ConfigError):
        rf.bs_value(1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        rf.bs_value(1.0, 0.0, -1.0)


# ---------------------------------------------------------------------------
# catalog dispatch and validation
# ---------------------------------------------------------------------------

def test_fixture_names_catalog():
    assert rf.FIXTURE_NAMES == ("binomial_exp", "binomial_log",
                                "capped_exp_limit", "lognormal_butterfly",
                                "normal_exp")


def test_fixture_unknown_name():
    with pytest.raises(ConfigError, match="unknown fixture"):
        rf.fixture("trinomial")


def test_fixture_bad_parameters_wrapped():
    with pytest.raises(ConfigError, match="bad parameters"):
        rf.fixture("binomial_log", nope=1.0)


@pytest.mark.parametrize("name, params", [
    ("binomial_log", {"a": 0.5}),
    ("binomial_log", {"a": 0.0}),
    ("binomial_log", {"a": 0.25, "q": 0.5}),
    ("binomial_log", {"a": 0.25, "x0": 1.0}),
    ("binomial_exp", {"a": 0.25, "gamma": 0.0}),
    ("normal_exp", {"mu": 0.1, "sigma": 0.0}),
    ("capped_exp_limit", {"mu": 0.1, "sigma": 0.2, "q": 0.5}),
    ("lognormal_butterfly", {"mu": 0.0, "sigma": 0.5}),
    ("lognormal_butterfly", {"mu": -0.5, "sigma": 0.8, "K": 1.0}),
])
def test_fixture_parameter_validation(name, params):
    with pytest.raises(ConfigError):
        rf.fixture(name, **params)


# ---------------------------------------------------------------------------
# binomial_log vs the solver stack
# ---------------------------------------------------------------------------

def test_binomial_log_baseline_agreement():
    for a in (0.1, 0.25, 0.4):
        fx = rf.fixture("binomial_log", a=a)
        sol = rf.solve_baseline(binomial_log_spec(a))
        assert sol.pi_star_scalar == pytest.approx(fx.pi_star, abs=1e-10)
        assert sol.V0 == pytest.approx(fx.V0, abs=1e-12)


def test_binomial_log_sensitivities_agreement():
    for a, q in ((0.25, 1.0), (0.25, 2.0), (0.1, 1.5)):
        fx = rf.fixture("binomial_log", a=a, q=q)
        spec = binomial_log_spec(a, p=p_for_q(q))
        sol = rf.solve_baseline(spec)
        assert rf.value_sensitivity(spec, sol) == pytest.approx(
            fx.value_prime0, abs=1e-12)
        assert rf.optimizer_sensitivity(spec, sol)[0] == pytest.approx(
            fx.pi_prime0, abs=1e-10)
    fx = rf.fixture("binomial_log", a=0.25)
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    assert rf.kl_value_sensitivity(spec, sol) == pytest.approx(
        fx.kl_prime0, abs=1e-12)


def test_binomial_log_davis_agreement():
    fx = rf.fixture("binomial_log", a=0.25, x0=0.5)
    spec = binomial_log_spec(0.25)
    sol = rf.solve_baseline(spec)
    payoffs = {"power3": rf.power_payoff(3), "call0": rf.call_payoff(0.0),
               "abs_shift": rf.abs_shift_payoff(0.5)}
    for key, g in payoffs.items():
        assert rf.davis_price(spec, sol, g) == pytest.approx(
            fx.davis_price0[key], abs=1e-10)
        assert rf.davis_sensitivity(spec, sol, g) == pytest.approx(
            fx.davis_prime0[key], abs=1e-10)
        curve = fx.price_curves[key]
        assert curve(0.0) == pytest.approx(fx.davis_price0[key], abs=1e-14)
        for d in (0.05, 0.1, 0.2):
            assert rf.robust_davis_price(spec, g, d) == pytest.approx(
                curve(d), abs=1e-10)


# ---------------------------------------------------------------------------
# binomial_exp
# ---------------------------------------------------------------------------

def test_binomial_exp_agreement():
    for a, q in ((0.25, 1.0), (0.25, 2.0), (0.4, 1.5)):
        fx = rf.fixture("binomial_exp", a=a, q=q)
        spec = binomial_exp_spec(a, p=p_for_q(q))
        sol = rf.solve_baseline(spec)
        assert sol.pi_star_scalar == pytest.approx(fx.pi_star, abs=1e-10)
        assert sol.V0 == pytest.approx(fx.V0, abs=1e-12)
        assert rf.value_sensitivity(spec, sol) == pytest.approx(
            fx.value_prime0, abs=1e-10)
    fx = rf.fixture("binomial_exp", a=0.25)
    spec = binomial_exp_spec(0.25)
    assert rf.kl_value_sensitivity(spec, rf.solve_baseline(spec)) == pytest.approx(
        fx.kl_prime0, abs=1e-12)


# ---------------------------------------------------------------------------
# normal_exp
# ---------------------------------------------------------------------------

def test_normal_exp_internal_consistency():
    fx = rf.fixture("normal_exp", mu=0.1, sigma=0.2)
    assert fx.value_curve(0.0) == pytest.approx(fx.V0, abs=1e-15)
    assert fx.pi_curve(0.0) == pytest.approx(fx.pi_star, abs=1e-15)
    h = 1e-7
    fd = (fx.value_curve(h) - fx.value_curve(-h)) / (2.0 * h)
    assert fd == pytest.approx(fx.value_prime0, rel=1e-7)
    fd_pi = (fx.pi_curve(h) - fx.pi_curve(-h)) / (2.0 * h)
    assert fd_pi == pytest.approx(fx.pi_prime0, rel=1e-9)


def test_normal_exp_solver_agreement():
    fx = rf.fixture("normal_exp", mu=0.1, sigma=0.2)
    spec = normal_exp_spec()
    sol = rf.solve_baseline(spec)
    assert sol.pi_star_scalar == pytest.approx(fx.pi_star, abs=1e-8)
    assert sol.V0 == pytest.approx(fx.V0, abs=1e-10)
    assert rf.optimizer_sensitivity(spec, sol)[0] == pytest.approx(
        fx.pi_prime0, abs=1e-5)
    for d in (0.02, 0.05, 0.1):
        rob = rf.robust_solve_inf(spec, d)
        assert rob.V_delta == pytest.approx(fx.value_curve(d), abs=1e-6)
        assert rob.pi_delta[0] == pytest.approx(fx.pi_curve(d), abs=1e-5)
        assert rf.robust_davis_price(spec, rf.power_payoff(2), d) == pytest.approx(
            fx.price_curves["power2"](d), abs=1e-6)


# ---------------------------------------------------------------------------
# capped_exp_limit
# ---------------------------------------------------------------------------

def test_capped_limit_variant_collapses_at_q_one():
    fx = rf.fixture("capped_exp_limit", mu=0.1, sigma=0.2, q=1.0)
    assert fx.pi_prime0 == pytest.approx(-25.0, rel=1e-12)
    assert fx.pi_prime0_variant == pytest.approx(fx.pi_prime0, rel=1e-12)


def test_capped_limit_variant_collapses_at_mu_equals_sigma():
    for q in (1.5, 2.0, 3.0):
        fx = rf.fixture("capped_exp_limit", mu=0.3, sigma=0.3, q=q)
        assert fx.pi_prime0_variant == pytest.approx(fx.pi_prime0, rel=1e-12)


def test_capped_limit_variant_disagrees_off_the_diagonal():
    fx = rf.fixture("capped_exp_limit", mu=0.1, sigma=0.2, q=2.0)
    assert fx.value_prime0 == pytest.approx(-2.5, rel=1e-12)
    assert fx.pi_prime0 == pytest.approx(-35.41088915833832, rel=1e-12)
    assert fx.pi_prime0_variant == pytest.approx(-51.522539709379, rel=1e-10)
    assert abs(fx.pi_prime0_variant - fx.pi_prime0) > 10.0


# ---------------------------------------------------------------------------
# lognormal_butterfly
# ---------------------------------------------------------------------------

def pinned_lognormal_spec(n_nodes: int = 96) -> rf.ProblemSpec:
    return rf.ProblemSpec(model=rf.shifted_lognormal(-0.5, 0.8, n_nodes),
                          utility=rf.exponential(1.0),
                          action_space=rf.StateSpace.interval(0.0, 1.0),
                          order=rf.WassersteinOrder(math.inf))


def test_butterfly_fixture_internal_consistency():
    fx = rf.fixture("lognormal_butterfly", mu=-0.5, sigma=0.8, K=0.5)
    assert fx.pi_star == 0.0
    curve = fx.price_curves["butterfly"]
    assert curve(0.0) == pytest.approx(fx.davis_price0["butterfly"], abs=1e-15)
    h = 1e-6
    fd = (curve(h) - curve(0.0)) / h
    assert fd == pytest.approx(fx.davis_prime0["butterfly"], abs=1e-5)


def test_butterfly_pinned_price_is_shifted_expectation():
    # long-only box with negative drift: the optimum is pinned at 0 and the
    # robust price is the model expectation over down-shifted atoms — the
    # atoms and weights must be exactly the baseline ones
    spec = pinned_lognormal_spec()
    g = rf.butterfly_payoff(0.5)
    for d in (0.0, 0.05, 0.1):
        robust = rf.robust_davis_price(spec, g, d)
        shifted = float(spec.model.weights @ g(spec.model.support_1d - d))
        assert robust == pytest.approx(shifted, abs=1e-14)


def test_butterfly_curve_matches_quadrature():
    # the three-call closed form against the quadrature reading; the tent has
    # kinks, so Gauss-Hermite converges slowly — 5e-3 is the honest band here
    fx = rf.fixture("lognormal_butterfly", mu=-0.5, sigma=0.8, K=0.5)
    curve = fx.price_curves["butterfly"]
    g = rf.butterfly_payoff(0.5)
    for n in (64, 128, 256):
        m = rf.shifted_lognormal(-0.5, 0.8, n)
        for d in (0.0, 0.05, 0.1):
            quad = float(m.weights @ g(m.support_1d - d))
            assert quad == pytest.approx(curve(d), abs=5e-3)


def test_butterfly_robust_price_tracks_closed_form():
    spec = pinned_lognormal_spec(n_nodes=256)
    fx = rf.fixture("lognormal_butterfly", mu=-0.5, sigma=0.8, K=0.5)
    g = rf.butterfly_payoff(0.5)
    for d in (0.0, 0.1):
        assert rf.robust_davis_price(spec, g, d) == pytest.approx(
            fx.price_curves["butterfly"](d), abs=5e-3)



@pytest.mark.parametrize("q", [77.0, 79.0, 100.0, 1e4])
def test_binomial_fixtures_stay_finite_at_large_q(q):
    # past q ~ 78 the plain moments at a = 1e-4 overflow; as q -> inf the
    # L^q norm of u' tends to its largest value, 1/(2a) for the log utility
    a = 1e-4
    fx = rf.fixture("binomial_log", a=a, q=q)
    limit = -(1.0 - 2.0 * a) / (2.0 * a)
    assert limit < fx.value_prime0 < limit * a ** (1.0 / q) * 0.999
    spec = binomial_log_spec(a, p=p_for_q(q), action=(-50.0, 50.0))
    sol = rf.solve_baseline(spec)
    assert fx.value_prime0 == pytest.approx(rf.value_sensitivity(spec, sol), rel=1e-12)
    assert fx.pi_prime0 == pytest.approx(rf.optimizer_sensitivity(spec, sol)[0][0], rel=1e-9)
    fx = rf.fixture("binomial_exp", a=a, q=q)
    spec = binomial_exp_spec(a, p=p_for_q(q))
    assert fx.value_prime0 == pytest.approx(
        rf.value_sensitivity(spec, rf.solve_baseline(spec)), rel=1e-12)
