"""Utility catalog: values, derivatives, domains, risk aversion."""

import math
import warnings

import numpy as np
import pytest

import robustfolio as rf
from robustfolio import ConfigError


def test_log_shifted_point_values():
    u = rf.log_shifted(1.0)
    assert u.u(0.5) == pytest.approx(math.log(1.5), abs=1e-15)
    assert u.u_prime(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert u.u_double_prime(0.5) == pytest.approx(-4.0 / 9.0, abs=1e-15)
    assert u.risk_aversion(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_exponential_point_values():
    u = rf.exponential(1.0)
    vals = (u.u(0.0), u.u_prime(0.0), u.u_double_prime(0.0), u.risk_aversion(0.0))
    assert vals == pytest.approx((-1.0, 1.0, -1.0, 1.0), abs=1e-15)


@pytest.mark.parametrize("u, far, limit", [(rf.exponential(50.0), 20.0, 50.0),
                                            (rf.capped_exponential(50.0, 1.0), 20.0, 50.0),
                                            (rf.power(2.0, 1.0), 1e200, 0.0)],
                         ids=["exponential", "capped_exponential", "power"])
def test_risk_aversion_takes_its_limit_where_u_prime_underflows(u, far, limit):
    # u' and u'' both underflow to 0 at the far wealth (e^{-50 * 20}, and
    # 1e200^-2); the ratio there is its limit, gamma on an exponential
    # branch and 0 for power, and where u' > 0 it keeps its bits
    assert u.u_prime(far) == 0.0 and u.u_double_prime(far) == 0.0
    ra = u.risk_aversion(np.array([1.0, far]))
    assert ra[0] == -u.u_double_prime(1.0) / u.u_prime(1.0)
    assert ra[1] == limit


def test_risk_aversion_takes_gamma_where_an_exponential_u_prime_overflows():
    # e^{800} overflows: u' = inf and u'' = -inf at -800, where the ratio's
    # limit is gamma; the division there is skipped, so it warns of nothing
    u = rf.exponential(1.0)
    assert u.u_prime(-800.0) == math.inf and u.u_double_prime(-800.0) == -math.inf
    assert u.risk_aversion(np.array([0.0, -800.0])).tolist() == [1.0, 1.0]
    assert u.risk_aversion(-800.0) == 1.0


def test_capped_exponential_linear_branch():
    # below the kink at -1/kappa = -2 the utility is linear with slope e^2
    u = rf.capped_exponential(1.0, 0.5)
    e2 = math.exp(2.0)
    assert u.u(-3.0) == pytest.approx(-2.0 * e2, rel=1e-15)
    assert u.u_prime(-3.0) == pytest.approx(e2, rel=1e-15)
    assert u.u_double_prime(-3.0) == 0.0


def test_capped_exponential_continuous_at_kink():
    u = rf.capped_exponential(1.0, 0.5)
    left, right = -2.0 - 1e-12, -2.0 + 1e-12
    assert u.u(left) == pytest.approx(u.u(right), rel=1e-9)
    assert u.u_prime(left) == pytest.approx(u.u_prime(right), rel=1e-9)


def test_power_point_values():
    u = rf.power(2.0, w0=1.0)
    assert u.u(1.0) == pytest.approx((2.0 ** -1.0 - 1.0) / -1.0, abs=1e-15)
    assert u.u_prime(1.0) == pytest.approx(0.25, abs=1e-15)
    assert u.u_double_prime(1.0) == pytest.approx(-0.25, abs=1e-15)


def test_domain_enforced():
    u = rf.log_shifted(1.0)
    assert not u.contains(-1.0)
    assert not u.contains(-2.0)
    assert not u.contains(np.array([-1.5, 0.5]))
    assert u.contains(np.array([-0.5, 0.5]))


def test_parameter_validation():
    with pytest.raises(ConfigError):
        rf.exponential(-1.0)
    with pytest.raises(ConfigError):
        rf.power(1.0)
    with pytest.raises(ConfigError):
        rf.power(2.0, w0=0.0)
    with pytest.raises(ConfigError):
        rf.capped_exponential(1.0, 0.0)


def test_make_utility_dispatch():
    u = rf.make_utility({"kind": "exponential", "gamma": 2.0})
    assert u.kind == "exponential" and u.params["gamma"] == 2.0
    with pytest.raises(ConfigError):
        rf.make_utility({"kind": "quadratic"})
    with pytest.raises(ConfigError):
        rf.make_utility({"kind": "exponential", "g": 2.0})


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_finite_difference_log():
    err = rf.finite_difference_check(rf.log_shifted(1.0), [-0.5, 0.0, 1.0, 5.0])
    assert err <= 1e-6


def test_finite_difference_exponential():
    err = rf.finite_difference_check(rf.exponential(2.0), [-1.0, 0.0, 1.0])
    assert err <= 1e-6


def test_finite_difference_power():
    err = rf.finite_difference_check(rf.power(3.0), [-0.5, 0.0, 2.0])
    assert err <= 1e-5


def test_finite_difference_flags_capped_kink():
    u = rf.capped_exponential(1.0, 0.5)
    smooth = rf.finite_difference_check(u, [-1.0, 0.0, 1.0])
    assert smooth <= 1e-6
    # a grid point straddling the C^1 kink at -2 shows the u'' mismatch
    kinked = rf.finite_difference_check(u, [-2.0], h=1e-5)
    assert kinked > 1e-2


def test_finite_difference_rejects_boundary_grid():
    with pytest.raises(ConfigError):
        rf.finite_difference_check(rf.log_shifted(1.0), [-1.0 + 1e-7], h=1e-5)


# ---------------------------------------------------------------------------
# shape properties
# ---------------------------------------------------------------------------

CATALOG = [
    (rf.log_shifted(1.0), np.linspace(-0.9, 6.0, 201)),
    (rf.exponential(1.3), np.linspace(-4.0, 4.0, 201)),
    (rf.power(2.5, w0=1.0), np.linspace(-0.9, 6.0, 201)),
    (rf.capped_exponential(1.0, 0.5), np.linspace(-5.0, 4.0, 201)),
]


def test_monotonicity_and_concavity():
    for u, grid in CATALOG:
        up = u.u_prime(grid)
        upp = u.u_double_prime(grid)
        assert np.all(up > 0.0), u.kind
        assert np.all(upp <= 0.0), u.kind
        if u.kind != "capped_exponential":
            assert np.all(upp < 0.0), u.kind


def test_capped_dominates_exponential_and_converges():
    gamma = 1.0
    base = rf.exponential(gamma)
    pts = np.array([-3.0, -1.5, 0.0, 2.0])
    prev_gap = None
    for kappa in (1.0, 0.5, 0.1, 0.01):
        capped = rf.capped_exponential(gamma, kappa)
        diff = capped.u(pts) - base.u(pts)
        assert np.all(diff >= -1e-12), kappa
        gap = float(np.max(np.abs(diff)))
        if prev_gap is not None:
            assert gap <= prev_gap + 1e-12
        prev_gap = gap
    assert prev_gap <= 1e-10  # kappa = 0.01: kink at -100, far below the grid


def test_exponential_derivatives_saturate_in_the_product_by_gamma():
    # e^{709} is finite and 50 e^{709} is not: u' and u'' overflow in the
    # product by gamma (a RuntimeWarning, exit 0, from `solve` on a shifted
    # lognormal(0.05, 0.01) with exponential(50) and A = [-1000, 1000]);
    # they saturate to inf and -inf, and where finite keep the bits of
    # gamma * e^z and -gamma * gamma * e^z
    u = rf.exponential(50.0)
    x = np.array([-709.0 / 50.0, 0.3, -1.0, -14.0])
    z = -50.0 * x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u1, u2 = u.u_prime(x), u.u_double_prime(x)
    assert u1[0] == math.inf and u2[0] == -math.inf
    assert u1[1:].tobytes() == (50.0 * np.exp(z[1:])).tobytes()
    assert u2[1:].tobytes() == (-50.0 * 50.0 * np.exp(z[1:])).tobytes()
    assert u.risk_aversion(x)[0] == 50.0


def test_exponential_saturates_without_warnings():
    u = rf.exponential(1.0)
    with np.errstate(over="raise"):
        vals = u.u(np.array([-800.0]))
    assert vals[0] == -math.inf
