"""First-order sensitivities of the robust problem at radius zero.

Purpose
-------
For the problem V(delta) = sup_pi inf_{P~ in B_delta(P)} E[u(<X, pi>)] with a
p-Wasserstein ball and conjugate exponent q = p/(p-1) (q = 1 at p = inf), this
module evaluates the closed-form derivatives at delta = 0:

Value:
    V'(0) = - ( E_P[ |u'(<X, pi*>)|^q ] )^{1/q} * |pi*|            (<= 0)

Optimizer (pi* interior, nonzero, Hessian negative definite), e = pi*/|pi*|:
    kappa_u = ||u'||_{L^q(P)}^{1-q} * E_P[ (<X,pi*> u'' + u') * |u'|^{q-1} ]
    pi*'(0) = H^{-1} ( kappa_u e + ||u'||_{L^q(P)}^{1-q} |pi*| E_P[ |u'|^{q-1} u'' X_perp ] ),
    with H = grad^2_pi V(0) = E_P[X X^T u''(<X, pi*>)] and X_perp = X - <X, e> e,
    which vanishes in d = 1 (Bartl, Drapeau, Obloj & Wiesel 2021). The two
    terms are the gradient of delta |pi| ||u'(<X, pi>)||_q at pi*, the
    first-order robust penalty.

Transport direction (the adversary's first-order mass displacement):
    T(x)  = (pi*/|pi*|) |u'(<x,pi*>)|^{q-1} (E_P[|u'|^q])^{1/q-1}
    T(x)  = pi*/|pi*|  when q = 1.

Davis price p_d(delta) = E_{P*}[u' g]/E_{P*}[u'], three branches at delta=0:
  (interior, pi* != 0)
    p_d'(0) = E_{Q_u}[ R_u(<X,pi*>) (<T(X),pi*> - <X, pi*'(0)>) (g(X) - p_d)
                       - <grad g(X), T(X)> ]
  (pi* = 0 with 0 interior to A, i.e. E_P[X] = 0: every ball member is
   worst-case and the robust price is the ball infimum of E[g])
    p_d'(0) = - ( E_P[ |grad g(X)|^q ] )^{1/q}
  (pi* = 0 pinned at the boundary of A, for every E_P[X], zero included: the
   worst case is selected by continuity as the limit of the adversaries for
   feasible strategies pi -> 0, a uniform shift against the feasible
   direction e while no atom reaches the edge of the state space)
    p_d'(0) = - E_P[ <grad g(X), e> ].
``zero_strategy`` owns these pi = 0 rules for the robust solvers too; at
radius delta and every order it stops atoms at the edge of the state space S
and moves the others one common distance, which spends the budget (pinned)
or zeroes the mean within it (0 interior to A).

Edge rule: these closed forms move every atom to first order (against pi*,
against e at a pinned pi* = 0, either way at a zero-mean ball infimum). An
atom of positive weight on the edge of S that its move points into cannot
move, so V'(0), pi*'(0) and p_d'(0) refuse it with ``AssumptionViolation``
(d = 1).

A Kullback-Leibler comparator (radius-constrained relative-entropy ball) and
the first-order Wasserstein preference score complete the module. Everything
is an exact atom sum; no sampling.

Degeneracy guard: with exponential-type tails (exponential utility, or the
capped variant with a cap parameter below 1e-3) and a *finite* order p, models
representing unbounded-support laws make V'(0) = -inf; requesting a
closed-form sensitivity there raises ``DegenerateSensitivityError`` instead of
returning the (finite, wrong) formula value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .baseline_solver import PI_ZERO_THRESHOLD, BaselineSolution, Payoff, ProblemSpec, \
    q_u_measure
from .errors import AssumptionViolation, BoundaryOptimumError, ConfigError, \
    DegenerateSensitivityError
from .measures import DiscreteMeasure, WassersteinOrder
from .utility import Utility

# Guard thresholds (see module docstring).
CAPPED_KAPPA_FLOOR = 1e-3
SUPPORT_DIAMETER_CAP = 100.0

_ACTION_ZERO_TOL = 1e-14  # 0 is interior to A when both ends clear it by more
_MEAN_ZERO_TOL = 1e-10
_TIE_TOL = 1e-12  # preference scores this close are a tie


@dataclass(frozen=True)
class SensitivityReport:
    """All first-order quantities of one problem, with the branch that
    produced the Davis derivative."""

    q: float
    V_prime0: float
    pi_prime0: np.ndarray
    kappa_u: float
    davis_price: float | None
    davis_prime0: float | None
    branch: Literal["interior", "pi_star_zero"]
    kl_V_prime0: float | None = None

    def __post_init__(self) -> None:
        if self.branch not in ("interior", "pi_star_zero"):
            raise ConfigError(f"unknown branch tag {self.branch!r}")
        if self.V_prime0 > 1e-12:
            raise AssumptionViolation(
                f"value sensitivity must be nonpositive, got {self.V_prime0}")


def degeneracy_guard(spec: ProblemSpec) -> None:
    """Reject exponential-type utilities with finite p on unbounded models.

    Triggers when the utility has an exponential tail (exponential, or capped
    exponential with kappa < 1e-3), the order p is finite, and the model either
    stands in for an unbounded-support law or has support diameter above the
    cap. In that regime the worst case concentrates vanishing mass arbitrarily
    far out and the first-order sensitivity is -inf.
    """
    if spec.order.is_inf:
        return
    u = spec.utility
    exponential_tail = u.kind == "exponential" or (
        u.kind == "capped_exponential" and u.params.get("kappa", math.inf) < CAPPED_KAPPA_FLOOR)
    if not exponential_tail:
        return
    if spec.model.unbounded_tails or spec.model.support_diameter() > SUPPORT_DIAMETER_CAP:
        raise DegenerateSensitivityError(
            "finite transport order with exponential-type utility on an "
            "unbounded-support model: V'(0) = -inf, closed forms do not apply")


def _require_usable_optimum(sol: BaselineSolution) -> None:
    if sol.boundary and not sol.pi_is_zero:
        raise BoundaryOptimumError(
            "sensitivity formulas require an interior optimizer (or pi* = 0)")


def _require_room_to_move(spec: ProblemSpec, sol: BaselineSolution) -> None:
    """The closed forms move every atom to first order: against pi*, or
    against ``zero_strategy``'s e at a pinned pi* = 0, or either way at a
    zero-mean ball infimum. An atom of positive weight on the edge of S that
    its move points into cannot move, and its one-sided derivative differs
    from the closed form, so refuse it (d = 1)."""
    if spec.dim != 1:
        return
    if abs(sol.pi_star_scalar) > PI_ZERO_THRESHOLD:
        directions = [math.copysign(1.0, sol.pi_star_scalar)]
    else:
        e = zero_strategy(spec, 0.0).direction
        directions = [1.0, -1.0] if e is None else [e]
    live = spec.model.weights > 0.0
    if any(np.any(_edge_distance(spec, e)[live] <= 0.0) for e in directions):
        raise AssumptionViolation(
            "an atom sits on the edge of the state space that its first-order "
            "move points into; the closed forms at delta = 0 do not apply")


def _lq_norm_uprime(spec: ProblemSpec, sol: BaselineSolution) -> float:
    w = spec.model.points @ sol.pi_star
    up = np.abs(spec.utility.u_prime(w))
    q = spec.order.q
    return float(spec.model.expectation(up ** q) ** (1.0 / q))


def value_sensitivity(spec: ProblemSpec, sol: BaselineSolution) -> float:
    """V'(0) = -||u'(<X,pi*>)||_{L^q} |pi*|; zero exactly when pi* = 0."""
    degeneracy_guard(spec)
    _require_usable_optimum(sol)
    norm_pi = float(np.linalg.norm(sol.pi_star))
    if norm_pi <= PI_ZERO_THRESHOLD:
        return 0.0
    _require_room_to_move(spec, sol)
    return -_lq_norm_uprime(spec, sol) * norm_pi


def optimizer_sensitivity(spec: ProblemSpec, sol: BaselineSolution) -> tuple[np.ndarray, float]:
    """(pi*'(0), kappa_u). Needs pi* interior and nonzero, and a negative
    definite Hessian E[X X^T u''(<X,pi*>)]."""
    degeneracy_guard(spec)
    _require_usable_optimum(sol)
    norm_pi = float(np.linalg.norm(sol.pi_star))
    if norm_pi <= PI_ZERO_THRESHOLD:
        raise AssumptionViolation("optimizer sensitivity is undefined at pi* = 0")
    _require_room_to_move(spec, sol)
    q = spec.order.q
    w = spec.model.points @ sol.pi_star
    up = spec.utility.u_prime(w)
    upp = spec.utility.u_double_prime(w)
    norm_q = _lq_norm_uprime(spec, sol)
    integrand = (w * upp + up) * np.abs(up) ** (q - 1.0)
    kappa = norm_q ** (1.0 - q) * spec.model.expectation(integrand)
    H = sol.hessian
    eigs = np.linalg.eigvalsh(H)
    if eigs.max() >= 0.0:
        raise AssumptionViolation(
            f"Hessian must be negative definite (max eigenvalue {eigs.max():.3e})")
    direction = sol.pi_star / norm_pi
    x = spec.model.points
    across = x - np.outer(x @ direction, direction)  # X_perp, exactly 0 in d = 1
    weight = spec.model.weights * upp * np.abs(up) ** (q - 1.0)
    tilt = norm_q ** (1.0 - q) * norm_pi * (weight @ across)
    pi_prime = np.linalg.solve(H, direction) * kappa + np.linalg.solve(H, tilt)
    return pi_prime, float(kappa)


def transport_direction(spec: ProblemSpec, sol: BaselineSolution, x) -> np.ndarray:
    """T(x) for an (n, d) batch of points (in d = 1 also a flat array of n
    points); rows are direction vectors.

    For q = 1 the direction is the constant unit vector pi*/|pi*| (sign(pi*)
    in d=1) regardless of x.
    """
    _require_usable_optimum(sol)
    norm_pi = float(np.linalg.norm(sol.pi_star))
    if norm_pi <= PI_ZERO_THRESHOLD:
        raise AssumptionViolation("transport direction is undefined at pi* = 0")
    pts = np.asarray(x, dtype=float).reshape(-1, spec.dim)
    unit = sol.pi_star / norm_pi
    q = spec.order.q
    if q == 1.0:
        scale = np.ones(pts.shape[0])
    else:
        up = np.abs(spec.utility.u_prime(pts @ sol.pi_star))
        norm_q = _lq_norm_uprime(spec, sol)
        scale = up ** (q - 1.0) * norm_q ** (1.0 - q)
    return scale[:, None] * unit[None, :]


def _payoff_grad_atoms(spec: ProblemSpec, payoff: Payoff) -> np.ndarray:
    if spec.dim != 1:
        raise ConfigError("payoff gradients are implemented for d=1 models")
    return np.asarray(payoff.grad(spec.model.support_1d), dtype=float)


@dataclass(frozen=True)
class ZeroStrategy:
    """Worst case at a pi = 0 optimum (d = 1): atom i moves from x_i to
    x_i - shift_i (``shift`` holds one entry per atom), and the price is
    E_P[g(X - shift)], or the ball infimum of E[g] when ``ball_infimum``.
    ``direction`` is e when 0 is pinned on the boundary of A, None when 0 is
    interior to A."""

    shift: np.ndarray
    ball_infimum: bool
    direction: float | None


def _capped_reach(dist: np.ndarray, w: np.ndarray, level: float, p: float) -> float:
    """t with sum_i w_i min(dist_i, t)^p = level^p: the common distance the
    atoms not stopped by their edge move (inf when the edges hold less than
    the level, the level itself when no edge binds). At p = inf the level
    caps the largest move, so t is the level."""
    if math.isinf(p) or np.all(dist[w > 0.0] >= level):
        return level
    order = np.argsort(dist)
    d, wd = dist[order], w[order]
    spent = np.concatenate([[0.0], np.cumsum(wd * d ** p)])  # by the k nearest
    free = np.concatenate([np.cumsum(wd[::-1])[::-1], [0.0]])  # by the others
    for k in range(d.size):
        if free[k] > 0.0:
            t = ((level ** p - spent[k]) / free[k]) ** (1.0 / p)
            if t <= d[k]:
                return t
    return math.inf


def _edge_distance(spec: ProblemSpec, e: float) -> np.ndarray:
    """How far each atom can move against e before it meets the edge of S."""
    x = spec.model.support_1d
    space = spec.state_space
    return x - space.lower[0] if e > 0.0 else space.upper[0] - x


def pinned_shift(spec: ProblemSpec, delta: float, e: float) -> np.ndarray:
    """The shift that spends the radius-delta budget against direction e:
    atom i moves min(dist_i, t) against e, stopped at the edge of S. It is
    the pinned pi = 0 adversary, and the limit of the worst cases along
    strategies pi -> 0 of the sign of e."""
    dist = _edge_distance(spec, e)
    return e * np.minimum(dist, _capped_reach(dist, spec.model.weights, delta, spec.order.p))


def zero_strategy(spec: ProblemSpec, delta: float) -> ZeroStrategy:
    """The pi = 0 rules at radius delta, decided on A first (see the Davis
    branch table in the module docstring). Every atom moves against a
    direction e, stops at the edge of S, and the others move one common
    distance t."""
    a_lo = spec.action_space.lower[0]
    a_hi = spec.action_space.upper[0]
    x = spec.model.support_1d
    w = spec.model.weights
    p = spec.order.p
    if a_lo < -_ACTION_ZERO_TOL and a_hi > _ACTION_ZERO_TOL:
        # every ball member attains u(0); the saddle adversary is the cheapest
        # shift that also makes pi = 0 optimal (t zeroes the mean), unless
        # that is past the budget (t spends the budget); at zero mean every
        # ball member prices. Both reaches grow with t, so the smaller binds.
        mean = float(w @ x)
        e = math.copysign(1.0, mean)
        dist = _edge_distance(spec, e)
        t = min(_capped_reach(dist, w, abs(mean), 1.0), _capped_reach(dist, w, delta, p))
        return ZeroStrategy(e * np.minimum(dist, t), abs(mean) <= _MEAN_ZERO_TOL, None)
    if abs(a_lo) <= _ACTION_ZERO_TOL and a_hi > 0.0:
        e = 1.0
    elif abs(a_hi) <= _ACTION_ZERO_TOL and a_lo < 0.0:
        e = -1.0
    else:
        raise AssumptionViolation("pi = 0 needs 0 in the action space A")
    # pinned: the continuity limit along feasible strategies pi -> 0
    return ZeroStrategy(pinned_shift(spec, delta, e), False, e)


def davis_sensitivity(spec: ProblemSpec, sol: BaselineSolution, payoff: Payoff) -> float:
    """p_d'(0) under the branch dictated by pi* (see module docstring)."""
    return _davis_pair(spec, sol, payoff, None)[1]


def _davis_pair(spec: ProblemSpec, sol: BaselineSolution, payoff: Payoff,
                pi_prime: np.ndarray | None) -> tuple[float, float]:
    """(p_d, p_d'(0)) from one Q_u; ``pi_prime`` is pi*'(0) if the caller
    already holds it (None computes it at an interior optimum)."""
    degeneracy_guard(spec)
    _require_room_to_move(spec, sol)
    q_u = q_u_measure(spec, sol)  # refuses a boundary optimum other than 0
    g_vals = np.asarray(payoff(q_u.support_1d), dtype=float)
    p_d = q_u.expectation(g_vals)
    if sol.pi_is_zero:
        grad = _payoff_grad_atoms(spec, payoff)
        zero = zero_strategy(spec, 0.0)
        if zero.ball_infimum:
            q = spec.order.q
            return p_d, -float(spec.model.expectation(np.abs(grad) ** q) ** (1.0 / q))
        if zero.direction is None:  # the first-order condition excludes it
            raise AssumptionViolation("pi* = 0 with E_P[X] != 0 and 0 interior to A")
        return p_d, -zero.direction * float(spec.model.expectation(grad))
    if pi_prime is None:
        pi_prime, _ = optimizer_sensitivity(spec, sol)
    x = spec.model.points
    w = x @ sol.pi_star
    T = transport_direction(spec, sol, x)
    R = spec.utility.risk_aversion(w)
    grad_g = _payoff_grad_atoms(spec, payoff)
    recentering = R * (T @ sol.pi_star - x @ pi_prime) * (g_vals - p_d)
    # d=1: <grad g, T> = g'(x) * T_1(x)
    gradient_term = grad_g * T[:, 0]
    return p_d, float(q_u.expectation(recentering - gradient_term))


def kl_value_sensitivity(spec: ProblemSpec, sol: BaselineSolution) -> float:
    """Comparator: first-order decay of the value under a relative-entropy
    ball, -sqrt(2 Var_P(u(<X, pi*>))). Finite-support models only: quadrature
    stand-ins for continuous laws are rejected (the entropy ball collapses
    there)."""
    if spec.model.is_quadrature:
        raise AssumptionViolation(
            "relative-entropy comparator needs a genuinely finite-support model")
    _require_usable_optimum(sol)
    w = spec.model.points @ sol.pi_star
    u_vals = spec.utility.u(w)
    mean = spec.model.expectation(u_vals)
    var = spec.model.expectation((u_vals - mean) ** 2)
    if not math.isfinite(var):
        raise AssumptionViolation("non-finite utility variance")
    return -math.sqrt(2.0 * max(var, 0.0))


@dataclass(frozen=True)
class PreferenceComparison:
    score_base: float
    score_alternative: float
    ordering: Literal["base", "alternative", "tie"]


def preference_compare(P: DiscreteMeasure, P_alt: DiscreteMeasure, pi,
                       utility: Utility, order: WassersteinOrder,
                       delta: float) -> PreferenceComparison:
    """First-order robust preference between two models at a fixed strategy.

    score(M) = E_M[u(<X,pi>)] - delta |pi| (E_M[|u'(<X,pi>)|^q])^{1/q};
    the model with the larger score is preferred at radius delta.
    """
    if delta < 0.0:
        raise ConfigError("delta must be nonnegative")
    pi = np.atleast_1d(np.asarray(pi, dtype=float))

    def score(M: DiscreteMeasure) -> float:
        w = M.points @ pi
        base = M.expectation(utility.u(w))
        up = np.abs(utility.u_prime(w))
        q = order.q
        penalty = delta * float(np.linalg.norm(pi)) * M.expectation(up ** q) ** (1.0 / q)
        return base - penalty

    s_base, s_alt = score(P), score(P_alt)
    if abs(s_base - s_alt) <= _TIE_TOL:
        ordering = "tie"
    elif s_base > s_alt:
        ordering = "base"
    else:
        ordering = "alternative"
    return PreferenceComparison(s_base, s_alt, ordering)


def sensitivity_report(spec: ProblemSpec, sol: BaselineSolution,
                       payoff: Payoff | None = None) -> SensitivityReport:
    """Assemble the full report; Davis fields require a payoff, and the
    relative-entropy comparator is added exactly when the model supports it."""
    v_prime = value_sensitivity(spec, sol)
    if sol.pi_is_zero:
        branch = "pi_star_zero"
        pi_prime = np.zeros(spec.dim)  # the optimizer stays at zero to first order
        kappa = math.nan
    else:
        branch = "interior"
        pi_prime, kappa = optimizer_sensitivity(spec, sol)
    p_d = p_d_prime = None
    payoff = payoff if payoff is not None else spec.payoff
    if payoff is not None:
        p_d, p_d_prime = _davis_pair(spec, sol, payoff, pi_prime)
    kl = None
    if not spec.model.is_quadrature:
        kl = kl_value_sensitivity(spec, sol)
    return SensitivityReport(q=spec.order.q, V_prime0=v_prime, pi_prime0=pi_prime,
                             kappa_u=kappa, davis_price=p_d, davis_prime0=p_d_prime,
                             branch=branch, kl_V_prime0=kl)
