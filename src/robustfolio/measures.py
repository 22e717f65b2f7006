"""Discrete probability measures, model constructors, and Wasserstein metrics.

Purpose
-------
Every probability model handled by this package — the baseline P, candidate
models P~, adversarial worst cases P*, and the subjective pricing measure Q_u —
is represented as a finitely supported measure on R^d:

    P = sum_i w_i * delta_{x_i},      w_i >= 0,  sum_i w_i = 1.

This module provides

* ``DiscreteMeasure`` / ``StateSpace`` / ``WassersteinOrder`` value types,
* constructors for the analytic model catalog (two-point binomial, Gauss-Hermite
  discretizations of normal and shifted-lognormal laws, explicit atom lists,
  and a truncated-normal helper),
* exact p-Wasserstein distances: the sorted-quantile coupling in d=1 (any
  p in (1, inf]), and a linear-program coupling for small instances in d>1,
* moments and the no-arbitrage check

        for every pi != 0:  P(<X, pi>  > 0) > 0,

  equivalent to 0 lying in the interior of the convex hull of the support.

All objects are immutable after construction and every operation is pure, so
concurrent use from multiple threads is safe. Each Gauss-Hermite rule is built
once per node count and shared read-only; every model scales it into arrays
of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, catalog_member

_WEIGHT_TOL = 1e-12
_LP_ATOM_CAP = 12
_CONTAINS_TOL = 1e-12  # points this far outside a state space still count as inside
# Mass left on an atom after coupling that is rounding residue: renormalizing
# weights moves each by about an ulp (up to 2.2e-16 near 1), so two copies of
# one law differ by that much and must still pair atom for atom.
_COUPLING_RESIDUE = 1e-14


def live_values(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` at the atoms of ``weights``, with 0 for a value that is not
    finite at an atom of zero weight. Such an atom still bounds the utility
    domain, but it carries no mass, so it adds exactly 0 to every weighted
    sum, as it does where its value is finite, and not 0 * inf = nan (a
    truncated normal's far nodes, whose weights underflow, reach wealths
    whose u or u' overflows). ``values`` comes back itself where every
    weight is positive or no such value occurs, so a sum keeps its bits
    wherever it was finite."""
    if np.count_nonzero(weights) == weights.size:  # a third of weights.all()'s time
        return values
    dead = (weights == 0.0) & ~np.isfinite(values)
    return np.where(dead, 0.0, values) if dead.any() else values


def _as_points(points: Iterable) -> np.ndarray:
    """Normalize input to an (n, d) float array."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ConfigError(f"points must be scalars, vectors, or an (n, d) array; got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ConfigError("points must be finite")
    return arr


@dataclass(frozen=True)
class StateSpace:
    """Closed convex box in R^d with per-coordinate (possibly infinite) bounds."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ConfigError("state-space bound dimensions differ")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ConfigError(f"state-space bounds require lower < upper, got [{lo}, {hi}]")

    @staticmethod
    def unbounded(dim: int = 1) -> "StateSpace":
        return StateSpace((-math.inf,) * dim, (math.inf,) * dim)

    @staticmethod
    def interval(lower: float, upper: float) -> "StateSpace":
        return StateSpace((float(lower),), (float(upper),))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @functools.cached_property
    def _tolerant_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The bounds as arrays, widened by the containment tolerance."""
        return np.asarray(self.lower) - _CONTAINS_TOL, np.asarray(self.upper) + _CONTAINS_TOL

    def contains(self, points: np.ndarray) -> bool:
        """Whether every row of an (n, d) float array lies in the box."""
        lo, hi = self._tolerant_bounds
        return bool((points >= lo).all() and (points <= hi).all())


@dataclass(frozen=True)
class WassersteinOrder:
    """Transport order p in (1, inf] with its conjugate q = p/(p-1).

    The convention q = 1 applies at p = inf; q governs which L^q norm of the
    marginal utility enters the sensitivity formulas.
    """

    p: float

    def __post_init__(self) -> None:
        if not (self.p > 1.0):
            raise ConfigError(f"Wasserstein order must satisfy p > 1, got {self.p}")

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)

    @property
    def q(self) -> float:
        if self.is_inf:
            return 1.0
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on R^d.

    ``points`` has shape (n, d); ``weights`` shape (n,) sums to one (inputs off
    by at most 1e-12 are renormalized, larger deviations are rejected).
    Duplicate atoms are allowed — adversaries split mass. ``state_space``
    declares the box every atom (and every admissible perturbation of it) must
    live in. ``unbounded_tails`` marks quadrature stand-ins for laws with
    unbounded support (normal, shifted lognormal); ``is_quadrature`` marks any
    discretization of a continuous law.
    """

    points: np.ndarray
    weights: np.ndarray
    state_space: StateSpace | None = None
    unbounded_tails: bool = False
    is_quadrature: bool = False
    kind: str = "explicit"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        pts = _as_points(self.points)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise ConfigError(f"{pts.shape[0]} atoms but {w.shape[0]} weights")
        if pts.shape[0] == 0:
            raise ConfigError("a measure needs at least one atom")
        if not (w >= -_WEIGHT_TOL).all():  # NaN fails here too
            raise ConfigError("weights must be finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"weights sum to {total}, not 1")
        w = np.maximum(w, 0.0)
        w = w / w.sum()
        if self.state_space is not None:
            if self.state_space.dim != pts.shape[1]:
                raise ConfigError("state-space dimension does not match atoms")
            if not self.state_space.contains(pts):
                raise ConfigError("atoms outside the declared state space")
        pts = pts.copy()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def support_1d(self) -> np.ndarray:
        if self.dim != 1:
            raise ConfigError("1-d support requested on a multi-dimensional measure")
        return self.points[:, 0]

    def expectation(self, values: np.ndarray) -> float:
        """Exact atom sum  sum_i w_i * values_i; an atom of zero weight adds 0
        (``live_values``)."""
        return float(np.dot(self.weights,
                            live_values(self.weights, np.asarray(values, dtype=float))))

    def support_diameter(self) -> float:
        if self.n_atoms == 1:
            return 0.0
        pts = self.points
        if self.dim == 1:
            return float(pts.max() - pts.min())
        diffs = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(-1)).max())


# ---------------------------------------------------------------------------
# Model catalog
# ---------------------------------------------------------------------------

def binomial(a: float, state_space: StateSpace | None = None) -> DiscreteMeasure:
    """Two-point model: P = a*delta_{-1} + (1-a)*delta_{+1} with a in (0, 1/2).

    Default state space [-1.5, 1.5] leaves room for adversarial shifts while
    keeping log-type wealth away from the utility-domain boundary for the
    action boxes used in the fixtures.
    """
    if not (0.0 < a < 0.5):
        raise ConfigError(f"binomial parameter must lie in (0, 1/2), got {a}")
    space = state_space if state_space is not None else StateSpace.interval(-1.5, 1.5)
    return DiscreteMeasure(
        points=np.array([[-1.0], [1.0]]),
        weights=np.array([a, 1.0 - a]),
        state_space=space,
        kind="binomial",
        params={"a": float(a)},
    )


def _normed_hermite(t: np.ndarray, n: int) -> np.ndarray:
    """The normalized Hermite polynomial of degree n >= 1 at t, by its
    three-term recurrence run downward (numpy's ``_normed_hermite_n``, in
    the same float operations; the plain H_n overflows from n = 207)."""
    c0, c1 = 0.0, 1.0 / math.sqrt(math.sqrt(math.pi))
    nd = float(n)
    for _ in range(n - 1):
        c0, c1 = -c1 * math.sqrt((nd - 1.0) / nd), c0 + c1 * t * math.sqrt(2.0 / nd)
        nd -= 1.0
    return c0 + c1 * t * math.sqrt(2.0)


def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Hermite rule for n >= 2, bit for bit
    ``numpy.polynomial.hermite.hermgauss(n)`` and built by its steps: the
    eigenvalues of the symmetric companion matrix of H_n (off-diagonals
    sqrt(k / 2)), one Newton step on the normalized H_n, weights
    1 / h_{n-1}^2 scaled by its largest |h_{n-1}|, both symmetrized about 0
    and the weights scaled to sum to sqrt(pi). In-tree, so a model build
    does not import numpy.polynomial's six series modules."""
    companion = np.zeros((n, n))
    off = np.sqrt(0.5 * np.arange(1, n))
    companion.reshape(-1)[1::n + 1] = off
    companion.reshape(-1)[n::n + 1] = off
    t = np.linalg.eigvalsh(companion)
    t -= _normed_hermite(t, n) / (_normed_hermite(t, n - 1) * math.sqrt(2 * n))
    fm = _normed_hermite(t, n - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    t = (t - t[::-1]) / 2
    w *= math.sqrt(math.pi) / w.sum()
    return t, w


@functools.lru_cache(maxsize=None)  # the 300-node cap bounds it
def _hermite_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Hermite rule (weight e^{-t^2}, ``_hermgauss``),
    read-only: it depends on n alone, so each node count is built once."""
    t, w = _hermgauss(n_nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _gauss_hermite_nodes(mu: float, sigma: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights so that sum_i w_i f(x_i) ~= E[f(Z)], Z ~ N(mu, sigma^2)."""
    if n_nodes > 300:
        # from n = 371 the outer nodes' weights overflow (h_{n-1} underflows there)
        raise ConfigError(f"n_nodes is capped at 300, got {n_nodes}")
    t, w = _hermite_rule(n_nodes)
    x = mu + math.sqrt(2.0) * sigma * t
    return x, w / math.sqrt(math.pi)


def _gauss_hermite_model(kind: str, mu: float, sigma: float, n_nodes: int,
                         state_space: StateSpace | None, default: tuple[float, float],
                         node_map: Callable[[np.ndarray], np.ndarray] | None = None
                         ) -> DiscreteMeasure:
    """The ``kind`` model whose atoms are the Gauss-Hermite nodes of
    N(mu, sigma^2), through ``node_map`` when given, on ``state_space`` or
    else the interval ``default``. Flagged ``unbounded_tails``: it stands in
    for a law with unbounded support (the degeneracy guard keys on this)."""
    if sigma <= 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    if n_nodes < 2:
        raise ConfigError("need at least 2 quadrature nodes")
    x, w = _gauss_hermite_nodes(mu, sigma, n_nodes)
    if node_map is not None:
        x = node_map(x)
    return DiscreteMeasure(
        points=x.reshape(-1, 1),
        weights=w,
        state_space=state_space if state_space is not None else StateSpace.interval(*default),
        unbounded_tails=True,
        is_quadrature=True,
        kind=kind,
        params={"mu": float(mu), "sigma": float(sigma), "n_nodes": int(n_nodes)},
    )


def normal(mu: float, sigma: float, n_nodes: int = 128,
           state_space: StateSpace | None = None) -> DiscreteMeasure:
    """Gauss-Hermite discretization of N(mu, sigma^2); spectrally accurate.

    The first two moments match the analytic law to quadrature accuracy; the
    measure stands in for a law with full support.
    """
    return _gauss_hermite_model("normal", mu, sigma, n_nodes, state_space,
                                (-math.inf, math.inf))


def shifted_lognormal(mu: float, sigma: float, n_nodes: int = 128,
                      state_space: StateSpace | None = None) -> DiscreteMeasure:
    """Price increment X = e^Z - 1 with Z ~ N(mu, sigma^2), via Gauss-Hermite.

    Mean is e^{mu + sigma^2/2} - 1; support is (-1, inf), so the lower tail is
    bounded but the upper tail is not.
    """
    return _gauss_hermite_model("shifted_lognormal", mu, sigma, n_nodes, state_space,
                                (-1.0, math.inf), lambda z: np.exp(z) - 1.0)


def truncated_normal(mu: float, sigma: float, radius: float, n_nodes: int = 12,
                     state_space: StateSpace | None = None) -> DiscreteMeasure:
    """Gauss-Legendre discretization of N(mu, sigma^2) restricted to
    [mu - radius, mu + radius], renormalized.

    Bounded support: passes the degeneracy guard that rejects exponential-type
    utilities with finite transport order on unbounded models.
    """
    if sigma <= 0.0 or radius <= 0.0:
        raise ConfigError("sigma and radius must be positive")
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(n_nodes)
    x = mu + radius * t
    dens = np.exp(-0.5 * ((x - mu) / sigma) ** 2)
    weights = w * dens
    if weights.sum() == 0.0:
        raise ConfigError(
            f"truncated normal with sigma = {sigma}, radius = {radius} and n_nodes = "
            f"{n_nodes}: every node is so many sigmas from mu that its density "
            f"underflows to 0; use a smaller radius or more nodes")
    weights = weights / weights.sum()
    space = state_space if state_space is not None else StateSpace.interval(mu - radius, mu + radius)
    return DiscreteMeasure(
        points=x.reshape(-1, 1),
        weights=weights,
        state_space=space,
        is_quadrature=True,
        kind="truncated_normal",
        params={"mu": float(mu), "sigma": float(sigma), "radius": float(radius),
                "n_nodes": int(n_nodes)},
    )


def explicit(points: Iterable, weights: Iterable,
             state_space: StateSpace | None = None) -> DiscreteMeasure:
    """Measure from raw atoms/weights; validation only."""
    try:
        pts = np.asarray(points, dtype=float)
        w = np.asarray(list(weights), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError("explicit model needs numeric points (one scalar or one "
                          f"equal-length vector per atom) and numeric weights: {exc}") from exc
    return DiscreteMeasure(points=_as_points(pts), weights=w, state_space=state_space)


_MODEL_BUILDERS: dict[str, Callable[..., DiscreteMeasure]] = {
    "binomial": binomial,
    "normal": normal,
    "shifted_lognormal": shifted_lognormal,
    "truncated_normal": truncated_normal,
    "explicit": explicit,
}


def make_model(descriptor: dict) -> DiscreteMeasure:
    """Build a measure from a config-style descriptor, e.g.
    ``{"kind": "binomial", "a": 0.25}`` or
    ``{"kind": "normal", "mu": 0.1, "sigma": 0.2, "n_nodes": 128}``.
    """
    if (isinstance(descriptor, dict) and descriptor.get("kind") in _MODEL_BUILDERS
            and "state_space" in descriptor):
        lo, hi = descriptor["state_space"]
        descriptor = {**descriptor, "state_space": StateSpace.interval(float(lo), float(hi))}
    return catalog_member(_MODEL_BUILDERS, descriptor, "model")


# ---------------------------------------------------------------------------
# Transport distance
# ---------------------------------------------------------------------------

def _quantile_coupling_segments(P: DiscreteMeasure, Q: DiscreteMeasure
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monotone (co-monotone) coupling of two 1-d measures.

    Returns (mass, xP, xQ) per coupled segment: the optimal plan for every
    convex transport cost in d=1 pairs quantiles in order.
    """
    xp = P.support_1d
    xq = Q.support_1d
    op = np.argsort(xp, kind="stable")
    oq = np.argsort(xq, kind="stable")
    xp, wp = xp[op], P.weights[op]
    xq, wq = xq[oq], Q.weights[oq]
    i = j = 0
    rem_p = wp[0]
    rem_q = wq[0]
    mass, a, b = [], [], []
    while True:
        m = min(rem_p, rem_q)
        if m > 0.0:
            mass.append(m)
            a.append(xp[i])
            b.append(xq[j])
        rem_p -= m
        rem_q -= m
        if rem_p <= _COUPLING_RESIDUE:
            i += 1
            if i == len(xp):
                break
            rem_p = wp[i]
        if rem_q <= _COUPLING_RESIDUE:
            j += 1
            if j == len(xq):
                break
            rem_q = wq[j]
    return np.asarray(mass), np.asarray(a), np.asarray(b)


def coupling_cost(mass: np.ndarray, a: np.ndarray, b: np.ndarray,
                  order: WassersteinOrder) -> float:
    """Transport cost of the 1-d coupling that sends mass[k] from a[k] to
    b[k]: (sum_k mass_k |a_k - b_k|^p)^(1/p), or the largest displacement of
    positive mass at p = inf. Every coupling's cost bounds W_p from above."""
    disp = np.abs(a - b)
    if order.is_inf:
        return float(disp[mass > 0.0].max(initial=0.0))
    return float(np.dot(mass, disp ** order.p) ** (1.0 / order.p))


def _wasserstein_lp(P: DiscreteMeasure, Q: DiscreteMeasure, p: float) -> float:
    """Exact W_p in d>1 by solving the coupling linear program."""
    from scipy.optimize import linprog

    n, m = P.n_atoms, Q.n_atoms
    if n > _LP_ATOM_CAP or m > _LP_ATOM_CAP:
        raise ConfigError(
            f"exact d>1 transport capped at {_LP_ATOM_CAP}x{_LP_ATOM_CAP} atoms, got {n}x{m}")
    diffs = P.points[:, None, :] - Q.points[None, :, :]
    cost = (np.sqrt((diffs ** 2).sum(-1)) ** p).reshape(-1)
    # marginal constraints: rows sum to w_i, columns to v_j
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([P.weights, Q.weights])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise ConfigError(f"transport LP failed: {res.message}")
    return float(res.fun) ** (1.0 / p)


def wasserstein_distance(P: DiscreteMeasure, Q: DiscreteMeasure,
                         order: WassersteinOrder) -> float:
    """p-Wasserstein distance between two discrete measures.

    d=1: exact via the sorted-quantile coupling (co-monotone rearrangement),
    including p = inf as the max coupled displacement. d>1: exact LP coupling
    for instances up to 12x12 atoms, finite p only.
    """
    if P.dim != Q.dim:
        raise ConfigError("dimension mismatch between measures")
    if P.dim == 1:
        return coupling_cost(*_quantile_coupling_segments(P, Q), order)
    if order.is_inf:
        raise ConfigError("p = inf transport distance is implemented for d=1 only")
    return _wasserstein_lp(P, Q, order.p)


def moments(P: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(mean vector, covariance matrix, Sharpe ratio mu/sigma for d=1).

    Sharpe is None in d>1; a zero-variance 1-d measure raises (the ratio is
    undefined there).
    """
    mean = P.weights @ P.points
    centered = P.points - mean
    cov = (P.weights[:, None] * centered).T @ centered
    sharpe: float | None = None
    if P.dim == 1:
        var = float(cov[0, 0])
        if var <= 0.0:
            raise ConfigError("Sharpe ratio undefined: zero variance")
        sharpe = float(mean[0]) / math.sqrt(var)
    return mean, cov, sharpe


def no_arbitrage_check(P: DiscreteMeasure) -> bool:
    """True iff every nonzero strategy has positive probability of gain.

    Equivalent to 0 in the interior of conv(support). d=1: the support must
    contain a strictly negative and a strictly positive point. d>1: the cone
    {pi : <x_i, pi> <= 0 for all i} must be trivial, checked by 2d small LPs
    maximizing +/- pi_j over the cone intersected with the unit box. Only
    atoms of positive weight count: a zero-weight gain never happens.
    """
    pts = P.points[P.weights > 0.0]
    if P.dim == 1:
        x = pts[:, 0]
        return bool((x > 1e-15).any() and (x < -1e-15).any())
    from scipy.optimize import linprog

    n, d = pts.shape
    for j in range(d):
        for sign in (+1.0, -1.0):
            c = np.zeros(d)
            c[j] = -sign  # linprog minimizes
            res = linprog(c, A_ub=pts, b_ub=np.zeros(n),
                          bounds=[(-1, 1)] * d, method="highs")
            if res.success and -res.fun > 1e-9:
                return False
    return True
