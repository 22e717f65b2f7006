"""Utility-function catalog: u, u', u'', domains, risk aversion.

Catalog members (all strictly increasing, concave, C^1 on their domain D):

    log_shifted(w0)          u(x) = ln(x + w0)                 D = (-w0, inf)
    exponential(gamma)       u(x) = -exp(-gamma x)             D = R
    power(eta, w0)           u(x) = ((x+w0)^(1-eta) - 1)/(1-eta), eta != 1,
                                                               D = (-w0, inf)
    capped_exponential(gamma, kappa)
        equal to -exp(-gamma x) for x >= -1/kappa and linear with matching
        value/slope below: u(x) = -e^{gamma/kappa} + gamma e^{gamma/kappa}
        (x + 1/kappa). C^1 but not C^2 at the kink -1/kappa; the second
        derivative is taken as its one-sided value (0 on the linear branch).
        Dominates exponential(gamma) pointwise and decreases to it as
        kappa -> 0.

Evaluators are vectorized over numpy arrays and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Utility:
    """Bundle of u, u', u'' with an open-interval domain."""

    kind: str
    u: Callable[[np.ndarray], np.ndarray]
    u_prime: Callable[[np.ndarray], np.ndarray]
    u_double_prime: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]
    params: dict = field(default_factory=dict)

    def contains(self, x: np.ndarray) -> bool:
        lo, hi = self.domain
        x = np.asarray(x, dtype=float)
        return bool(np.all(x > lo) and np.all(x < hi))

    def risk_aversion(self, x: np.ndarray) -> np.ndarray:
        """Absolute risk aversion R_u(x) = -u''(x)/u'(x). Where u' underflows
        to 0 (and u'' with it) the ratio takes its limit there: gamma on an
        exponential branch, 0 at the far wealth of log and power members."""
        u1 = np.asarray(self.u_prime(x))
        limit = np.full(u1.shape, self.params.get("gamma", 0.0))
        return np.divide(-np.asarray(self.u_double_prime(x)), u1, out=limit, where=u1 != 0.0)[()]


def log_shifted(w0: float = 1.0) -> Utility:
    if w0 <= 0.0:
        raise ConfigError(f"log_shifted needs w0 > 0, got {w0}")
    return Utility(
        kind="log_shifted",
        u=lambda x: np.log(np.asarray(x, dtype=float) + w0),
        u_prime=lambda x: 1.0 / (np.asarray(x, dtype=float) + w0),
        u_double_prime=lambda x: -1.0 / (np.asarray(x, dtype=float) + w0) ** 2,
        domain=(-w0, math.inf),
        params={"w0": float(w0)},
    )


def _exp_saturating(z: np.ndarray) -> np.ndarray:
    # exp that saturates to inf without the overflow warning; solver line
    # searches probe wealths where this is the correct limiting value
    with np.errstate(over="ignore"):
        return np.exp(z)


def exponential(gamma: float) -> Utility:
    if gamma <= 0.0:
        raise ConfigError(f"exponential needs gamma > 0, got {gamma}")
    return Utility(
        kind="exponential",
        u=lambda x: -_exp_saturating(-gamma * np.asarray(x, dtype=float)),
        u_prime=lambda x: gamma * _exp_saturating(-gamma * np.asarray(x, dtype=float)),
        u_double_prime=lambda x: -gamma * gamma * _exp_saturating(-gamma * np.asarray(x, dtype=float)),
        domain=(-math.inf, math.inf),
        params={"gamma": float(gamma)},
    )


def power(eta: float, w0: float = 1.0) -> Utility:
    if eta == 1.0:
        raise ConfigError("power utility needs eta != 1 (use log_shifted for eta = 1)")
    if eta <= 0.0:
        raise ConfigError(f"power needs eta > 0, got {eta}")
    if w0 <= 0.0:
        raise ConfigError(f"power needs w0 > 0, got {w0}")
    return Utility(
        kind="power",
        u=lambda x: ((np.asarray(x, dtype=float) + w0) ** (1.0 - eta) - 1.0) / (1.0 - eta),
        u_prime=lambda x: (np.asarray(x, dtype=float) + w0) ** (-eta),
        u_double_prime=lambda x: -eta * (np.asarray(x, dtype=float) + w0) ** (-eta - 1.0),
        domain=(-w0, math.inf),
        params={"eta": float(eta), "w0": float(w0)},
    )


def capped_exponential(gamma: float, kappa: float) -> Utility:
    if gamma <= 0.0 or kappa <= 0.0:
        raise ConfigError("capped_exponential needs gamma > 0 and kappa > 0")
    if gamma / kappa > 700.0:
        # the linear-branch slope gamma * e^{gamma/kappa} leaves float range
        raise ConfigError(
            f"capped_exponential with gamma/kappa = {gamma / kappa:.3g} > 700 "
            "is not representable in floating point")
    kink = -1.0 / kappa
    level = math.exp(gamma / kappa)  # e^{-gamma * kink}

    # np.where evaluates both branches; clamping the exponential argument at
    # the kink avoids spurious overflow for deep linear-branch points.
    def u(x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, kink)
        return np.where(x < kink, -level + gamma * level * (x - kink), -np.exp(-gamma * safe))

    def u_prime(x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, kink)
        return np.where(x < kink, gamma * level, gamma * np.exp(-gamma * safe))

    def u_double_prime(x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, kink)
        return np.where(x < kink, 0.0, -gamma * gamma * np.exp(-gamma * safe))

    return Utility(
        kind="capped_exponential",
        u=u,
        u_prime=u_prime,
        u_double_prime=u_double_prime,
        domain=(-math.inf, math.inf),
        params={"gamma": float(gamma), "kappa": float(kappa), "kink": kink},
    )


_UTILITY_BUILDERS = {
    "log_shifted": log_shifted,
    "exponential": exponential,
    "power": power,
    "capped_exponential": capped_exponential,
}


def make_utility(descriptor: dict) -> Utility:
    """Build a catalog member from a config-style descriptor."""
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ConfigError("utility descriptor needs a 'kind' field")
    kind = descriptor["kind"]
    if kind not in _UTILITY_BUILDERS:
        raise ConfigError(f"unknown utility kind {kind!r}")
    kwargs = {k: v for k, v in descriptor.items() if k != "kind"}
    try:
        return _UTILITY_BUILDERS[kind](**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for utility kind {kind!r}: {exc}") from exc


def finite_difference_check(utility: Utility, grid, h: float = 1e-5) -> float:
    """Max relative error of u' against a central difference of u, and of u''
    against a central difference of u', over the grid. Points whose +/-h
    neighborhood leaves the domain are rejected.
    """
    grid = np.asarray(grid, dtype=float)
    lo, hi = utility.domain
    if np.any(grid - h <= lo) or np.any(grid + h >= hi):
        raise ConfigError("grid too close to the domain boundary for the step h")
    fd1 = (utility.u(grid + h) - utility.u(grid - h)) / (2.0 * h)
    fd2 = (utility.u_prime(grid + h) - utility.u_prime(grid - h)) / (2.0 * h)
    e1 = np.abs(fd1 - utility.u_prime(grid)) / np.maximum(np.abs(utility.u_prime(grid)), 1e-300)
    e2 = np.abs(fd2 - utility.u_double_prime(grid)) / np.maximum(np.abs(utility.u_double_prime(grid)), 1e-12)
    return float(max(e1.max(), e2.max()))
