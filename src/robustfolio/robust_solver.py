"""Worst-case expected utility over a Wasserstein ball, and robust pricing.

Purpose
-------
Solves V(delta) = sup_{pi in A} inf_{W_p(P~, P) <= delta} E_{P~}[u(<X, pi>)]
for a discrete baseline P (d = 1). At every order the ball holds the laws on
the state space S within W_p distance delta of P, so S caps every
displacement. Two regimes:

p = inf (exact reduction)
    Each atom may move anywhere in its window [x - delta, x + delta] in S,
    and u is increasing, so the inner infimum moves every atom to the end
    of its window against the position: atoms max(x - delta, S_lo) for
    pi > 0 and min(x + delta, S_hi) for pi < 0, and the value on them is
    concave in pi. Where S does not bind this is the Monge shift,
    inf = E_P[u(<X, pi> - delta |pi|)].

finite p (certified numerical oracle)
    The inner infimum is an exact finite-dimensional program over transport
    plans that split each atom into at most two fragments, solved on refined
    displacement grids by a search over one dual multiplier
    (``transport._transport_minimize``; that module loads on the first
    finite-p oracle call or ball infimum). Displacements are capped by the
    state space S; the cap is what keeps the infimum finite (for utilities
    with a finite domain edge or an exponential tail the uncapped infimum is
    -inf), so S with unbounded sides in the displacement direction is
    rejected rather than silently truncated. An order so high that the
    largest displacement's cost in budgets, (D / delta)^p, leaves float
    range is refused (ConfigError); p = inf solves such a ball.

The outer maximization is one concave search in both regimes: the robust
value is concave in pi (an infimum of concave functions), with a kink at
pi = 0. Its one-sided slopes at 0 pick the side that holds the maximizer, or
pi = 0 (``_side_of_zero``, ``_zero_answer``). Both come in closed form, as
E[X u'(0)] on the atoms of the worst case as pi -> 0 from that side: the
moved atoms at p = inf, and at finite p the pinned shift against that side
(``_slopes_at_zero``), which stands in for the oracle's slope at
+-2 PI_ZERO_THRESHOLD, just outside the band where the oracle has no worst
case. A pi = 0 answer so calls no oracle. On the chosen side in-tree Brent
brackets the root of the slope, E[X u'(pi X)] on the moved atoms at p = inf
and, by Danskin's theorem, on the oracle's worst case P* at finite p, unless
its sign pins an end (``_concave_argmax``). At p = inf it brackets to
~1e-15 from the ends of the side, and a radius grid runs the searches of
its radii in lockstep (``solve_delta_grid``).

At finite p each oracle call costs milliseconds, so the search starts next
to the answer: at the paper's first-order strategy pi*(0) + delta pi*'(0)
(the baseline solve and ``sensitivity.optimizer_sensitivity``), at pi*(0)
where those closed forms refuse (an optimum pinned on A, pi* = 0, an atom
on the edge of S) or leave float range, and along a radius grid on the line through the two
solved radii below (``solve_delta_grid``), always clipped into the chosen
side. From a start inside the side it steps the way the slope points, first
by the Newton step of the worst case at the start, then doubling, until the
slope turns (``baseline_solver._bracket_from``), and hands that bracket to
Brent; a start on an end of the side (an optimum pinned on A) leaves Brent
the whole side, as without a start. It stops once |slope| times the
bracket width, which by concavity bounds how far V can still rise, is
within V's rounding (8 eps E|u| on the worst case): past that point its
steps only bisect the small jumps of the oracle's grid slope. A strategy
whose worst case leaves float range (the oracle's V = -inf) has an infinite
slope toward 0 and never stops the search. The start changes the oracle
calls, not the answer: V is concave, so every bracket of the slope's root
holds the same maximizer, and the same stop ends the search at it to V's
rounding.

Robust Davis prices follow the optimizer branch:
  * pi_delta != 0: p_d(delta) = E_{P*}[u' g] / E_{P*}[u'] on the worst-case
    measure P*;
  * pi_delta = 0 with 0 interior to A: the marginal-utility weight is
    constant; at E_P[X] = 0 every ball member prices and the robust (lower)
    price is the ball infimum of E[g] (the transport program with g's
    kinks on its grids; at p = inf on the windows with no shared budget),
    otherwise the saddle adversary (the cheapest shift that zeroes the mean,
    within the budget) prices;
  * pi_delta = 0 pinned on the boundary of A: the worst case is selected by
    continuity as the limit along feasible strategies pi -> 0, for every
    mean: the shift that spends the budget against the feasible direction
    e; the price is E_P[g] on those atoms.
Both pi = 0 shifts move atom i by min(dist_i, t) against a direction, with
dist_i its distance to the edge of S and t one common distance (at p = inf
the budget caps the largest move, so t <= delta); ``sensitivity.zero_strategy``
owns these rules and adversaries.

Every worst-case minimum over displacements (the finite-p inner value, and
both ball infima, at p = inf on per-atom windows with no shared budget) is
one transport program, ``transport._transport_minimize``, refined around its
optimum. This module reaches ``transport`` and ``sensitivity`` through the
package's lazily loaded modules when it calls them, so a p = inf solve with
pi != 0 runs neither.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baseline_solver import (PI_ZERO_THRESHOLD, BaselineSolution, Payoff, ProblemSpec,
                              _concave_argmax, _concave_max_lanes, _concave_max_raw,
                              _feasible_interval_raw, _pricing_density, _problem, _solution,
                              _until_error, solve_baseline)
from .errors import (AssumptionViolation, ConfigError, DegenerateSensitivityError,
                     DomainCompatibilityError, NumericalFailure)
from . import sensitivity, transport
from .measures import DiscreteMeasure, StateSpace, coupling_cost, live_values
from .utility import Utility

_ORACLE_MAX_ATOMS = 16
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RobustSolution:
    """Outcome of one robust solve at radius delta."""

    delta: float
    V_delta: float
    pi_delta: np.ndarray
    adversary: DiscreteMeasure
    transport_cost: float
    method: str  # "inf_exact" | "finite_p_oracle"

    @property
    def pi_delta_scalar(self) -> float:
        if self.pi_delta.size != 1:
            raise ConfigError("scalar strategy requested on a d>1 solution")
        return float(self.pi_delta[0])


def _as_adversary(points: np.ndarray, weights: np.ndarray, sources: np.ndarray, *,
                  base: DiscreteMeasure, delta: float, p: float,
                  space: StateSpace | None) -> DiscreteMeasure:
    """The adversary of a transport plan that moves each atom of ``base``:
    atom k of it carries weights[k] from the base atom at sources[k] (its
    plan, kept in ``params["sources"]``) to points[k]."""
    return DiscreteMeasure(points=np.asarray(points, dtype=float).reshape(-1, 1),
                           weights=weights, state_space=space,
                           is_quadrature=base.is_quadrature, kind="adversary",
                           params={"base": base.kind, "delta": float(delta), "p": float(p),
                                   "sources": sources})


def _check_radius(delta: float) -> None:
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ConfigError(f"delta must be finite and nonnegative, got {delta}")


def _at_radius_zero(spec: ProblemSpec, base: BaselineSolution) -> RobustSolution:
    """The solution at delta = 0: the baseline's."""
    return _certified(spec, 0.0, base.pi_star_scalar, base.V0, spec.model)


# ---------------------------------------------------------------------------
# both orders: certificate, side of 0, pi = 0; then the p = inf reduction
# ---------------------------------------------------------------------------

def _certified(spec: ProblemSpec, delta: float, pi: float, value: float,
               adversary: DiscreteMeasure) -> RobustSolution:
    """The solution, with the transport cost of its adversary certified <= delta,
    and the method of its order.

    The cost is that of the plan that built the adversary, each atom paired
    with the base atom it came from (``_as_adversary``; the base measure
    itself, the oracle's witness in its zero band, moves nothing). A plan's
    cost bounds W_p from above, and it needs no re-coupling, which could
    pair a rounding fragment of one atom with another atom across the
    support. The construction keeps the plan inside the budget; re-measuring
    it reintroduces power/root rounding, so ulp-level excess is clamped
    while anything larger still surfaces as a failure. Re-measuring a shift
    of an atom at coordinate x cannot resolve below ulp(x), so the clamp
    scales with the largest atom magnitude (quadrature stand-ins for heavy
    tails put atoms at 1e10 and beyond)."""
    P = spec.model
    y = adversary.support_1d
    cost = coupling_cost(adversary.weights, adversary.params.get("sources", y), y, spec.order)
    if not cost <= delta:
        max_abs = max(float(np.max(np.abs(P.points))),
                      float(np.max(np.abs(adversary.points))))
        tol = delta * 1e-9 + 4.0 * _EPS * max_abs
        if not cost <= delta + tol:
            raise NumericalFailure(
                f"adversary left the ball: cost {cost} > radius {delta}")
        cost = delta
    return RobustSolution(delta=float(delta), V_delta=value, pi_delta=np.array([pi]),
                          adversary=adversary, transport_cost=cost,
                          method="inf_exact" if spec.order.is_inf else "finite_p_oracle")


def _slope_on(w: np.ndarray, u: Utility, pi: float, y: np.ndarray) -> float:
    """E[X u'(pi X)] on atoms y with weights w: the slope in pi of the
    expected utility on them (the Danskin slope on a worst case)."""
    return float(np.dot(w * live_values(w, u.u_prime(pi * y)), y))


def _side_of_zero(lo: float, hi: float, right: Callable[[], float],
                  left: Callable[[], float], at: float = 0.0) -> tuple[float, float]:
    """The part of [lo, hi] that holds the maximizer of a concave function,
    from its one-sided slopes at 0, right() at +at and left() at -at: past a
    probe whose slope points away from 0, [at, hi] or [lo, -at], else {0} as
    (0, 0). Without 0 in [lo, hi] nothing is decided: [lo, hi] comes back."""
    if not lo <= 0.0 <= hi:
        return lo, hi
    if hi > at and right() > 0.0:
        return at, hi
    if lo < -at and left() < 0.0:
        return lo, -at
    return 0.0, 0.0


def _zero_answer(spec: ProblemSpec, delta: float) -> RobustSolution:
    """The robust solution with pi = 0: every ball member attains u(0), and
    the adversary is ``zero_strategy``'s shift. With 0 interior to A, pi = 0
    is optimal only against a ball member of zero mean."""
    x = spec.model.support_1d
    w = spec.model.weights
    zero = sensitivity.zero_strategy(spec, delta)
    shifted = x - zero.shift
    if zero.direction is None and abs(float(w @ shifted)) > sensitivity._MEAN_ZERO_TOL:
        raise AssumptionViolation(
            f"pi = 0 with 0 interior to A, but no shift within the state space "
            f"and radius {delta} zeroes the mean")
    adversary = _as_adversary(shifted, w, x, base=spec.model, delta=delta, p=spec.order.p,
                              space=spec.state_space)
    value = float(np.dot(w, spec.utility.u(0.0 * x)))
    return _certified(spec, delta, 0.0, value, adversary)


def _inf_search(spec: ProblemSpec, delta: float) -> tuple | RobustSolution:
    """At p = inf and radius delta, the concave maximization that decides the
    solution, as ``_concave_max_raw`` takes it (the baseline's at delta = 0),
    or the solution itself where the slopes at 0 pick pi = 0."""
    if spec.dim != 1:
        raise ConfigError("the robust reduction is implemented for d = 1")
    _check_radius(delta)
    if delta == 0.0:
        return _problem(spec)
    x = spec.model.support_1d
    w = spec.model.weights
    u = spec.utility

    # every atom moves against the position, as far as delta and S allow
    space = spec.state_space
    down = np.maximum(x - delta, space.lower[0])
    up = np.minimum(x + delta, space.upper[0])
    lo, hi = _side_of_zero(spec.action_space.lower[0], spec.action_space.upper[0],
                           lambda: _slope_on(w, u, 0.0, down), lambda: _slope_on(w, u, 0.0, up))
    if lo == hi:
        return _zero_answer(spec, delta)
    return (down if hi > 0.0 else up), w, u, lo, hi, 0.0


def _inf_solution(spec: ProblemSpec, delta: float, search: tuple,
                  pi: float, boundary: bool) -> RobustSolution:
    """The p = inf solution at radius delta from the maximizer of its search."""
    if delta == 0.0:
        return _at_radius_zero(spec, _solution(spec, np.array([pi]), boundary))
    xs, w, u, lo, hi, _ = search
    if abs(pi) <= PI_ZERO_THRESHOLD and lo <= 0.0 <= hi:
        # 0 where a ball member of zero mean makes it optimal; else the root
        # lies closer to 0 than Brent resolves (an atom far out), and the
        # maximizer Brent found stands, as it does at delta = 0
        try:
            return _zero_answer(spec, delta)
        except AssumptionViolation:
            pass
    adversary = _as_adversary(xs, w, spec.model.support_1d, base=spec.model, delta=delta,
                              p=math.inf, space=spec.state_space)
    value = float(np.dot(w, live_values(w, u.u(pi * xs))))
    return _certified(spec, delta, pi, value, adversary)


def robust_solve_inf(spec: ProblemSpec, delta: float) -> RobustSolution:
    """Exact solve for the infinity-order ball via the shifted-atom reduction."""
    if not spec.order.is_inf:
        raise ConfigError("robust_solve_inf needs order p = inf (use robust_solve_p)")
    search = _inf_search(spec, delta)
    if isinstance(search, RobustSolution):
        return search
    return _inf_solution(spec, delta, search, *_concave_max_raw(*search))


# ---------------------------------------------------------------------------
# finite p: transport-plan oracle for the inner problem
# ---------------------------------------------------------------------------

def adversary_inner_inf(P: DiscreteMeasure, utility: Utility, pi, delta: float,
                        order, memory: transport._OracleMemory | None = None
                        ) -> tuple[float, DiscreteMeasure]:
    """Certified inner infimum inf_{W_p(P~,P) <= delta} E_{P~}[u(pi X)] (d=1).

    Each atom moves against the position (displacement capped by the state
    space S); the value and the attaining two-fragment plan come from the
    transport program (``transport._transport_minimize``), with objective
    u(pi y) at positions y.
    Unbounded S in the displacement direction is rejected: there the infimum
    is genuinely -inf (a vanishing-mass fragment sent to the domain edge or
    along an exponential tail). ``memory`` carries one outer search's
    passes from call to call; it is for calls on one P, utility, delta and
    order only.
    """
    if P.dim != 1:
        raise ConfigError("the adversary oracle is implemented for d = 1")
    if order.is_inf:
        raise ConfigError("order p = inf reduces exactly; use robust_solve_inf")
    if P.n_atoms > _ORACLE_MAX_ATOMS:
        raise ConfigError(f"oracle limited to {_ORACLE_MAX_ATOMS} atoms, "
                          f"got {P.n_atoms}")
    _check_radius(delta)
    pi_s = float(np.atleast_1d(np.asarray(pi, dtype=float))[0])
    x = P.support_1d
    w = P.weights
    if delta == 0.0 or abs(pi_s) <= PI_ZERO_THRESHOLD:
        wealth = pi_s * x
        if not utility.contains(wealth):
            raise DomainCompatibilityError("wealth outside the utility domain at this strategy")
        return float(np.dot(w, live_values(w, utility.u(wealth)))), P

    space = P.state_space if P.state_space is not None else StateSpace.unbounded(1)
    s_floor, s_ceil = space.lower[0], space.upper[0]
    # beneficial displacement direction: against the position
    direction = -math.copysign(1.0, pi_s)
    if direction < 0.0:
        extents = x - s_floor
    else:
        extents = s_ceil - x
    if not np.all(np.isfinite(extents)):
        if math.isinf(utility.domain[0]) and utility.kind == "exponential":
            raise DegenerateSensitivityError(
                "exponential utility with finite order on an unbounded state space: "
                "the inner infimum is -inf for every delta > 0")
        raise DomainCompatibilityError(
            "finite-order adversary needs a state space bounded in the "
            "displacement direction")
    # the worst reachable wealth is pi times the edge of S the atoms move
    # toward: refuse outside the strategies that keep it in the utility
    # domain with margin, the interval robust_solve_p searches
    worst_wealth = pi_s * (x + direction * extents)
    edge = np.array([s_floor if direction < 0.0 else s_ceil])
    lo, hi = _feasible_interval_raw(edge, 0.0, utility, -math.inf, math.inf)
    if not lo <= pi_s <= hi:
        raise DomainCompatibilityError(
            "state space lets wealth reach the utility-domain boundary at this "
            "strategy; the inner infimum is -inf")
    if not np.all(np.isfinite(utility.u(worst_wealth))):
        # utility saturates float range at the worst reachable wealth (outer
        # line searches probe extreme strategies); -inf is the correctly
        # rounded infimum and the center measure stands in as the witness
        return -math.inf, P
    if direction < 0.0:
        s_lo, s_hi = -extents, np.zeros_like(x)
    else:
        s_lo, s_hi = np.zeros_like(x), extents
    value, pts, masses, atoms = transport._transport_minimize(
        x, w, s_lo, s_hi, order.p, delta, lambda y: utility.u(pi_s * y), memory=memory)
    adversary = _as_adversary(pts, masses / masses.sum(), x[atoms], base=P, delta=delta,
                              p=order.p, space=P.state_space)
    return float(value), adversary


def _slopes_at_zero(spec: ProblemSpec, delta: float) -> tuple[float, float]:
    """The right and left slopes at pi = 0 of the finite-p robust value. As
    pi -> 0 from the side of e the worst case tends to the pinned shift
    against e (``sensitivity.pinned_shift``), and the slope there is
    E[X u'(0)] on the shifted atoms."""
    x, w = spec.model.support_1d, spec.model.weights
    right, left = (_slope_on(w, spec.utility, 0.0,
                             x - sensitivity.pinned_shift(spec, delta, e))
                   for e in (1.0, -1.0))
    return right, left


def _check_finite_p(spec: ProblemSpec, radii) -> None:
    """What a finite-p solve needs before any solve: a finite order, d = 1,
    radii finite and >= 0, and no degenerate exponential tail."""
    if spec.order.is_inf:
        raise ConfigError("robust_solve_p needs a finite order (use robust_solve_inf)")
    if spec.dim != 1:
        raise ConfigError("the finite-order solver is implemented for d = 1")
    for delta in radii:
        _check_radius(delta)
    sensitivity.degeneracy_guard(spec)


def _first_order_rate(spec: ProblemSpec, base: BaselineSolution) -> float:
    """pi*'(0), the optimizer's closed-form slope in delta; 0 where the
    closed forms refuse (an optimum pinned on A, pi* = 0, an atom on the
    edge of S) or leave float range, so the first-order strategy is pi*(0)
    there."""
    try:
        return float(sensitivity.optimizer_sensitivity(spec, base)[0][0])
    except (AssumptionViolation, NumericalFailure):
        return 0.0


def robust_solve_p(spec: ProblemSpec, delta: float, *,
                   _start: float | None = None) -> RobustSolution:
    """Outer concave search over A of the certified inner infimum (finite p,
    d=1), started at the first-order strategy pi*(0) + delta pi*'(0), or at
    ``_start``, the start a radius grid takes from the radii below
    (``solve_delta_grid``)."""
    _check_finite_p(spec, [delta])
    if _start is None:
        base = solve_baseline(spec)
        if delta == 0.0:
            return _at_radius_zero(spec, base)
        _start = base.pi_star_scalar + delta * _first_order_rate(spec, base)
    space = spec.state_space
    corners = np.array([space.lower[0], space.upper[0]])
    if not np.all(np.isfinite(corners)):
        raise DomainCompatibilityError(
            "finite-order robust solve needs a bounded state space")
    lo, hi = _feasible_interval_raw(corners, 0.0, spec.utility,
                                    spec.action_space.lower[0],
                                    spec.action_space.upper[0])
    if not lo < hi:
        raise DomainCompatibilityError(
            "no strategy keeps wealth inside the utility domain over the whole "
            "state space")

    # the oracle caps displacements by the problem's state space, which a
    # top-level state space may set apart from the model's own
    model = spec.model
    if model.state_space != space:
        model = dataclasses.replace(model, state_space=space)
    u = spec.utility
    cache: dict[float, tuple[float, DiscreteMeasure]] = {}
    slopes: dict[float, float] = {}
    memory = transport._OracleMemory()  # each oracle call starts from the last one's passes

    def inner(pi_val: float) -> tuple[float, DiscreteMeasure]:
        if pi_val not in cache:
            cache[pi_val] = adversary_inner_inf(model, u, pi_val, delta, spec.order, memory)
        return cache[pi_val]

    def slope(t: float) -> float:
        # where the worst case leaves float range (V = -inf) the oracle's
        # stand-in plan has no slope: V rises back toward 0
        if t not in slopes:
            value, adv = inner(t)
            slopes[t] = (-math.copysign(math.inf, t) if value == -math.inf
                         else _slope_on(adv.weights, u, t, adv.support_1d))
        return slopes[t]

    def settled(t: float, g: float, other: float) -> bool:
        # by concavity V nowhere in [t, other] exceeds V(t) + |g| |other - t|;
        # once that is below the rounding of V(t), no step can raise V. A
        # closed-form slope at +-at has no oracle plan to scale by, and a
        # V(t) of -inf no rounding.
        if t not in cache or cache[t][0] == -math.inf:
            return False
        _, adv = cache[t]
        scale = float(adv.weights @ np.abs(live_values(adv.weights, u.u(t * adv.support_1d))))
        return abs(g) * abs(other - t) <= 8.0 * _EPS * scale

    at = 2.0 * PI_ZERO_THRESHOLD  # just outside the oracle's zero band
    if lo <= 0.0 <= hi:  # the slopes at 0 stand in for the oracle's at +-at
        slopes[at], slopes[-at] = _slopes_at_zero(spec, delta)
    lo, hi = _side_of_zero(lo, hi, lambda: slope(at), lambda: slope(-at), at)
    if lo == hi:
        return _zero_answer(spec, delta)
    start, step = min(max(_start, lo), hi), math.inf
    if not lo < start < hi:
        start = None  # on an end of the side: Brent from the ends, which it asks anyway
    else:
        # the Newton step of the expected utility on the worst case at the
        # start, which touches V there from above: V curves at least as
        # much, so the step tends to pass the slope's root and bracket it
        # (no extra oracle call: the start's slope needs its worst case)
        _, adv = inner(start)
        y = adv.support_1d
        curvature = -float(adv.weights @ live_values(adv.weights,
                                                     y * y * u.u_double_prime(start * y)))
        if curvature > 0.0:
            step = abs(slope(start)) / curvature
    pi, _ = _concave_argmax(slope, lo, hi, settled, start, step)
    value, adversary = inner(pi)
    return _certified(spec, delta, pi, value, adversary)


def robust_solve(spec: ProblemSpec, delta: float) -> RobustSolution:
    """Dispatch on the order: exact reduction at p = inf, oracle otherwise."""
    if spec.order.is_inf:
        return robust_solve_inf(spec, delta)
    return robust_solve_p(spec, delta)


def solve_delta_grid(spec: ProblemSpec, deltas) -> list[RobustSolution]:
    """Solve along a radius grid and enforce V(delta) nonincreasing.

    Each distinct radius is solved once, in ascending order, and the
    solutions come back in the order of ``deltas``. At p = inf the radii
    that need a search solve in lockstep (``_concave_max_lanes``), and the
    pi = 0 answers without one; an error raises where one solve per radius
    would raise it. At finite p the
    baseline is solved once, and each radius starts its search on the line
    through the two solved radii below it, (0, pi*(0)) counting as one;
    above (0, pi*(0)) alone that line is the first-order strategy
    pi*(0) + delta pi*'(0). A violation of monotonicity beyond slack flags
    an oracle failure rather than being returned as data."""
    deltas = [float(d) for d in deltas]
    radii = sorted(set(deltas))
    solutions = []
    if spec.order.is_inf:
        searches, failure = _until_error(lambda d: _inf_search(spec, d), radii)
        maxima = _concave_max_lanes(s for s in searches if not isinstance(s, RobustSolution))
        solutions = [s if isinstance(s, RobustSolution)
                     else _inf_solution(spec, d, s, *next(maxima))
                     for d, s in zip(radii, searches)]
        if failure is not None:
            raise failure
    elif radii:
        _check_finite_p(spec, radii)
        base = solve_baseline(spec)
        # the line's last solved point (d0, pi0), and its slope
        d0, pi0, rate = 0.0, base.pi_star_scalar, _first_order_rate(spec, base)
        for d in radii:
            if d == 0.0:
                solutions.append(_at_radius_zero(spec, base))
                continue
            # through robust_solve_p, so that each radius is one finite-p
            # solve to whatever wraps that name (bench/spans.py counts there)
            sol = robust_solve_p(spec, d, _start=pi0 + (d - d0) * rate)
            rate = (sol.pi_delta_scalar - pi0) / (d - d0)
            d0, pi0 = d, sol.pi_delta_scalar
            solutions.append(sol)
    for a, b in zip(solutions[:-1], solutions[1:]):
        slack = 1e-9 * (1.0 + abs(a.V_delta))
        if b.V_delta > a.V_delta + slack:
            raise NumericalFailure(
                f"robust value increased along the radius grid: "
                f"V({a.delta}) = {a.V_delta} < V({b.delta}) = {b.V_delta}")
    solved = dict(zip(radii, solutions))
    return [solved[d] for d in deltas]


# ---------------------------------------------------------------------------
# Robust Davis pricing
# ---------------------------------------------------------------------------

def _ball_infimum_of_price(spec: ProblemSpec, payoff: Payoff, delta: float) -> float:
    """inf over the ball of E[g] — the robust price when the marginal-utility
    weight is constant (pi_delta = 0 interior, zero mean)."""
    x = spec.model.support_1d
    w = spec.model.weights
    space = spec.state_space
    s_lo, s_hi = space.lower[0] - x, space.upper[0] - x
    p, radius = spec.order.p, delta
    if spec.order.is_inf:  # per-atom windows, no budget shared
        p, radius = 1.0, math.inf
        s_lo, s_hi = np.maximum(s_lo, -delta), np.minimum(s_hi, delta)
    elif not (math.isfinite(space.lower[0]) and math.isfinite(space.upper[0])):
        raise DomainCompatibilityError(
            "finite-order ball infimum needs a bounded state space")
    value, *_ = transport._transport_minimize(x, w, s_lo, s_hi, p, radius, payoff,
                                              kinks=payoff.kinks)
    return float(value)


def robust_davis_price(spec: ProblemSpec, payoff: Payoff, delta: float,
                       solution: RobustSolution | None = None) -> float:
    """Marginal-utility price under the worst-case measure at radius delta;
    ``solution``, when given, must be the robust solve at that radius."""
    _check_radius(delta)
    if solution is not None and solution.delta != delta:
        raise ConfigError(f"the solution was solved at radius {solution.delta}, "
                          f"not at the price's radius {delta}")
    sol = solution if solution is not None else robust_solve(spec, delta)
    pi = sol.pi_delta_scalar
    if abs(pi) > PI_ZERO_THRESHOLD:
        y = sol.adversary.support_1d
        dens = _pricing_density(sol.adversary.weights, spec.utility, pi * y)
        return float(dens @ payoff(y))
    if sensitivity.zero_strategy(spec, 0.0).ball_infimum:  # the branch holds at every radius
        # no trading at any radius: the price degrades to the robust buyer's
        # bound over the whole ball
        return _ball_infimum_of_price(spec, payoff, delta)
    # the pricing weight u'(0 * y) is constant on the adversary's shifted atoms
    return float(spec.model.weights @ payoff(sol.adversary.support_1d))


def robust_davis_first_order(spec: ProblemSpec, payoff: Payoff, delta: float) -> float:
    """First-order approximation of the robust Davis price at radius delta.

    Reweights the baseline atoms displaced along the transport direction,
    x |-> x - delta T(x), by marginal utility at the first-order strategy
    pi* + delta pi*'(0). Agrees with robust_davis_price to O(delta^2) for
    interior nonzero optima."""
    sol = solve_baseline(spec)
    if sol.pi_is_zero or sol.boundary:
        raise AssumptionViolation(
            "the first-order price approximation needs an interior nonzero optimizer")
    pi_prime, _ = sensitivity.optimizer_sensitivity(spec, sol)
    T = sensitivity.transport_direction(spec, sol, spec.model.points)
    y = spec.model.support_1d - delta * T[:, 0]
    pi_new = sol.pi_star_scalar + delta * float(pi_prime[0])
    dens = _pricing_density(spec.model.weights, spec.utility, pi_new * y)
    return float(dens @ payoff(y))


def martingale_check_robust(spec: ProblemSpec, solution: RobustSolution) -> float:
    """| E[X] | under the robust pricing measure (marginal-utility reweighted
    adversary). Zero to solver tolerance for interior pi_delta."""
    pi = np.atleast_1d(solution.pi_delta)
    y = solution.adversary.points
    dens = _pricing_density(solution.adversary.weights, spec.utility, y @ pi)
    return float(np.linalg.norm(dens @ y))
