"""Closed-form reference values for the worked example families.

Every quantity here is an independent hand-derived formula — no calls into
the solver modules — so the regression tests compare two genuinely separate
routes to the same number. Catalog:

binomial_log
    P = a delta_{-1} + (1-a) delta_{+1}, a in (0, 1/2), u = ln(1 + w),
    A wide enough that pi* = 1 - 2a is interior. Baseline, sensitivities for
    general conjugate exponent q, the robust Davis price curves at p = inf
    (worst case shifts both atoms down by delta, forcing the pricing weights
    ((1-delta)/2, (1+delta)/2)), and the relative-entropy comparator.

binomial_exp
    Same model with u = -exp(-gamma w): pi* = ln((1-a)/a)/(2 gamma), value
    sensitivity for general q, comparator -sqrt(2 (1 - 4a(1-a))).

normal_exp
    X ~ N(mu, sigma^2), u = -exp(-gamma w), p = inf: pi* = mu/(gamma sigma^2),
    V(delta) = -exp(-(mu-delta)^2/(2 sigma^2)), pi_delta = (mu-delta)/(gamma
    sigma^2), pi*'(0) = -1/(gamma sigma^2), and the Davis price of x^2 equal
    to sigma^2 at every radius (the exponential tilt of a Gaussian is the
    Gaussian recentred at zero).

capped_exp_limit
    The exponential utility capped below at -1/kappa (linear tail) keeps the
    finite-order problem nondegenerate on unbounded models; as kappa -> 0 the
    sensitivities converge to explicit limits. ``pi_prime0`` is the direct
    evaluation of the optimizer-sensitivity theorem in that limit;
    ``pi_prime0_variant`` is an alternative closed form for the same limit
    that the direct evaluation contradicts for q != 1 (they agree at q = 1,
    and at mu = sigma with gamma = 1); both are kept so the fig4 data can
    show the two side by side.

lognormal_butterfly
    X = e^Z - 1, Z ~ N(mu, sigma^2) with mu + sigma^2/2 < 0 (negative drift),
    A = [0, 1]: the optimum is pinned at pi* = 0 and the robust Davis price
    of the butterfly (K - |x|)^+ is the shifted integral E_P[g(X - delta)],
    a combination of three Black-Scholes call values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import FIXTURE_NAMES
from .errors import ConfigError


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bs_value(k: float, mu: float, sigma: float) -> float:
    """E[(e^Z - k)^+] for Z ~ N(mu, sigma^2).

    k <= 0 makes the positive part inactive: e^{mu + sigma^2/2} - k.
    Otherwise the Black-Scholes form e^{mu+sigma^2/2} Phi(d1) - k Phi(d2)
    with d1 = (mu + sigma^2 - ln k)/sigma and d2 = d1 - sigma.
    """
    if sigma <= 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    forward = math.exp(mu + 0.5 * sigma * sigma)
    if k <= 0.0:
        return forward - k
    d1 = (mu + sigma * sigma - math.log(k)) / sigma
    d2 = d1 - sigma
    return forward * _norm_cdf(d1) - k * _norm_cdf(d2)


@dataclass(frozen=True)
class Fixture:
    """Closed forms for one example family; evaluators absent where the
    family has none. Davis dictionaries are keyed by payoff label."""

    name: str
    params: dict
    note: str
    pi_star: float | None = None
    V0: float | None = None
    value_prime0: float | None = None
    pi_prime0: float | None = None
    pi_prime0_variant: float | None = None
    kl_prime0: float | None = None
    davis_price0: dict = field(default_factory=dict)
    davis_prime0: dict = field(default_factory=dict)
    price_curves: dict = field(default_factory=dict)
    value_curve: Callable[[float], float] | None = None
    pi_curve: Callable[[float], float] | None = None


def _binomial_log(a: float, q: float = 1.0, x0: float = 0.5) -> Fixture:
    if not 0.0 < a < 0.5:
        raise ConfigError(f"binomial parameter a must lie in (0, 1/2), got {a}")
    if q < 1.0:
        raise ConfigError(f"conjugate exponent q must be >= 1, got {q}")
    if not -1.0 < x0 < 1.0:
        # the |x + x0| price curve assumes the kink stays between the atoms
        raise ConfigError(f"abs-shift offset x0 must lie in (-1, 1), got {x0}")
    pi = 1.0 - 2.0 * a
    V0 = a * math.log(2.0 * a) + (1.0 - a) * math.log(2.0 - 2.0 * a)
    # u'(pi* x) at the two atoms: 1/(2a) at x=-1, 1/(2-2a) at x=+1.
    try:
        moment = a * (2.0 * a) ** (-q) + (1.0 - a) * (2.0 - 2.0 * a) ** (-q)
        v_prime = -(moment ** (1.0 / q)) * pi
        pi_prime = (-a * (1.0 - a)
                    * (a ** (1.0 - q) + (1.0 - a) ** (1.0 - q)) ** (1.0 / q - 1.0)
                    * (a ** (-q) + (1.0 - a) ** (-q)))
    except OverflowError:  # q large: the same forms with the powers of a taken out
        r = a / (1.0 - a)
        v_prime = -((a + (1.0 - a) * r ** q) ** (1.0 / q)) / (2.0 * a) * pi
        pi_prime = (-(1.0 - a) * a ** (1.0 / q - 1.0)
                    * (1.0 + r ** (q - 1.0)) ** (1.0 / q - 1.0) * (1.0 + r ** q))
    log_odds = math.log(a / (1.0 - a))
    kl = -math.sqrt(2.0 * a * (1.0 - a)) * abs(log_odds)
    return Fixture(
        name="binomial_log",
        params={"a": a, "q": q, "x0": x0},
        note="two-point model, logarithmic utility; worst case at p=inf shifts "
             "both atoms down, pricing weights ((1-d)/2, (1+d)/2)",
        pi_star=pi,
        V0=V0,
        value_prime0=v_prime,
        pi_prime0=pi_prime,
        kl_prime0=kl,
        davis_price0={"power3": 0.0, "call0": 0.5, "abs_shift": 1.0},
        davis_prime0={"power3": -2.0, "call0": 0.0, "abs_shift": x0},
        price_curves={
            "power3": lambda d: -2.0 * d + 2.0 * d ** 3,
            "call0": lambda d: (1.0 - d * d) / 2.0,
            "abs_shift": lambda d: 1.0 - d * d + d * x0,
        },
    )


def _binomial_exp(a: float, gamma: float = 1.0, q: float = 1.0) -> Fixture:
    if not 0.0 < a < 0.5:
        raise ConfigError(f"binomial parameter a must lie in (0, 1/2), got {a}")
    if gamma <= 0.0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if q < 1.0:
        raise ConfigError(f"conjugate exponent q must be >= 1, got {q}")
    r = a / (1.0 - a)
    pi = math.log((1.0 - a) / a) / (2.0 * gamma)
    V0 = -2.0 * math.sqrt(a * (1.0 - a))
    try:
        moment = a * r ** (-q / 2.0) + (1.0 - a) * r ** (q / 2.0)
        v_prime = -gamma * moment ** (1.0 / q) * pi
    except OverflowError:  # q large: the same form with r^(-q/2) taken out
        v_prime = -gamma * (a + (1.0 - a) * r ** q) ** (1.0 / q) / math.sqrt(r) * pi
    kl = -math.sqrt(2.0 * (1.0 - 4.0 * a * (1.0 - a)))
    return Fixture(
        name="binomial_exp",
        params={"a": a, "gamma": gamma, "q": q},
        note="two-point model, exponential utility",
        pi_star=pi,
        V0=V0,
        value_prime0=v_prime,
        kl_prime0=kl,
    )


def _normal_exp(mu: float, sigma: float, gamma: float = 1.0) -> Fixture:
    if sigma <= 0.0 or gamma <= 0.0:
        raise ConfigError("sigma and gamma must be positive")
    pi = mu / (gamma * sigma * sigma)
    V0 = -math.exp(-mu * mu / (2.0 * sigma * sigma))
    v_prime = V0 * (mu / (sigma * sigma))  # = -exp(-mu^2/(2 sigma^2)) mu/sigma^2
    var = sigma * sigma
    return Fixture(
        name="normal_exp",
        params={"mu": mu, "sigma": sigma, "gamma": gamma},
        note="Gaussian model, exponential utility, p=inf closed forms",
        pi_star=pi,
        V0=V0,
        value_prime0=v_prime,
        pi_prime0=-1.0 / (gamma * var),
        davis_price0={"power2": var},
        davis_prime0={"power2": 0.0},
        price_curves={"power2": lambda d: var},
        value_curve=lambda d: -math.exp(-((mu - d) ** 2) / (2.0 * var)),
        pi_curve=lambda d: (mu - d) / (gamma * var),
    )


def _capped_exp_limit(mu: float, sigma: float, gamma: float = 1.0, q: float = 1.0) -> Fixture:
    if sigma <= 0.0 or gamma <= 0.0:
        raise ConfigError("sigma and gamma must be positive")
    if q < 1.0:
        raise ConfigError(f"conjugate exponent q must be >= 1, got {q}")
    ratio = mu * mu / (sigma * sigma)
    try:
        v_prime = -math.exp((q - 2.0) * ratio / 2.0) * mu / (sigma * sigma)
        pi_prime = (-(1.0 / (gamma * sigma * sigma))
                    * (1.0 + (q - 1.0) * ratio)
                    * math.exp((q - 1.0) * ratio / 2.0))
        variant = (-(gamma ** (1.0 / q + q - 3.0) / (sigma * sigma))
                   * math.exp((q - 1.0) / 2.0)
                   * (1.0 - ratio * (1.0 - q)))
        finite = all(map(math.isfinite, (v_prime, pi_prime, variant)))
    except OverflowError:
        finite = False
    if not finite:
        # the limits grow like exp((q - 1) mu^2/sigma^2 / 2)
        raise ConfigError(f"capped_exp_limit sensitivities leave float range at "
                          f"q = {q:g} and mu^2/sigma^2 = {ratio:g}")
    return Fixture(
        name="capped_exp_limit",
        params={"mu": mu, "sigma": sigma, "gamma": gamma, "q": q},
        note="kappa -> 0 limits of the capped-exponential sensitivities on the "
             "Gaussian model; the variant optimizer form disagrees with the "
             "direct theorem evaluation for q != 1 and is kept for comparison",
        value_prime0=v_prime,
        pi_prime0=pi_prime,
        pi_prime0_variant=variant,
    )


def _lognormal_butterfly(mu: float, sigma: float, K: float = 0.5) -> Fixture:
    if sigma <= 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    if mu + 0.5 * sigma * sigma >= 0.0:
        raise ConfigError("lognormal family needs mu + sigma^2/2 < 0 "
                          "(negative drift pins the optimum at 0)")
    if not 0.0 < K < 1.0:
        raise ConfigError(f"butterfly width K must lie in (0, 1), got {K}")

    def curve(d: float) -> float:
        # E[g(X - d)] for the tent (K - |x|)^+ decomposed into three calls
        # (x + K)^+ - 2 x^+ + (x - K)^+ evaluated at x = e^Z - 1 - d.
        return (bs_value(1.0 + d - K, mu, sigma)
                - 2.0 * bs_value(1.0 + d, mu, sigma)
                + bs_value(1.0 + d + K, mu, sigma))

    # p_d'(0) = -E[g'(X)] with g' = 1_{x > -K} - 2*1_{x > 0} + 1_{x > K}.
    def tail(c: float) -> float:
        return _norm_cdf((mu - math.log1p(c)) / sigma)

    davis_prime = -(tail(-K) - 2.0 * tail(0.0) + tail(K))
    return Fixture(
        name="lognormal_butterfly",
        params={"mu": mu, "sigma": sigma, "K": K},
        note="shifted lognormal with negative drift, optimum pinned at 0; "
             "robust price is the shifted integral, three call values",
        pi_star=0.0,
        davis_price0={"butterfly": curve(0.0)},
        davis_prime0={"butterfly": davis_prime},
        price_curves={"butterfly": curve},
    )


# fixture name -> the builder of that name above, for each of the package's
# FIXTURE_NAMES (the CLI's config schema lists them without running this module)
_CATALOG: dict[str, Callable[..., Fixture]] = {name: globals()[f"_{name}"]
                                               for name in FIXTURE_NAMES}


def fixture(name: str, **params) -> Fixture:
    """Look up a fixture family by name and evaluate its closed forms."""
    if name not in _CATALOG:
        raise ConfigError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    try:
        return _CATALOG[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for fixture {name!r}: {exc}") from exc
