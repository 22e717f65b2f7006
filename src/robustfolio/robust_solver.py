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
    The inner problem is an exact finite-dimensional program over transport
    plans that split each atom into at most two fragments. On a displacement
    grid per atom it is a linear program in the mass each atom sends to each
    grid point, under the one budget sum_i w_i E|s_i|^p <= delta^p. Its
    Lagrangian dual (Gao & Kleywegt 2016)
    sup_{lam >= 0} sum_i w_i min_s [f_i(s) + lam |s|^p] - lam delta^p
    is a search over one multiplier, and each multiplier costs one argmin
    over the stacked (atoms x grid) arrays of the objective at the atoms'
    grid positions. A cutting-plane search on the
    dual stops at the multiplier where two argmin plans bracket the budget;
    mixing them spends the budget exactly and generically splits one atom.
    Iterative grid refinement around the active displacements drives the
    discretization error to rounding level. The multiplier barely moves from
    one refinement pass to the next, so each pass brackets it next to the
    previous pass's value and searches only the atoms and grid cells between
    the two bracket plans; the base grids depend only on the atoms' extents
    and are built once (``_displacement_grid``). One outer search calls the
    oracle at strategies ever closer together, so ``robust_solve_p`` keeps an
    oracle memory (``_OracleMemory``) of the last call's passes: their
    displacement and cost arrays, binding multipliers, optimal plans and
    active displacements. A refined grid is a deterministic function of the
    grids and active displacements before it, so while a pass's active
    displacements match the last call's, the next pass takes the last call's
    arrays unchanged and evaluates only the objective. Such a pass first
    checks the last call's two optimal plans on the new values: if they
    still bracket the budget and pass the multiplier search's own stopping
    test where their value lines cross (``_checked_multiplier``), it keeps
    them and their fragments and re-sums only the value. Every other pass
    seeds its multiplier search with the last call's multiplier there,
    scaled by the ratio of the strategies. None of this changes the program
    solved, only the work of building and solving it. Displacements are
    capped by the state space S; the cap is what keeps the infimum finite
    (for utilities with a finite domain edge or an exponential tail the
    uncapped infimum is -inf), so S with unbounded sides in the displacement
    direction is rejected rather than silently truncated. An order so high
    that the largest displacement's cost in budgets, (D / delta)^p, leaves
    float range is refused (ConfigError); p = inf solves such a ball.

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
on the edge of S), and along a radius grid on the line through the two
solved radii below (``solve_delta_grid``), always clipped into the chosen
side. From a start inside the side it steps the way the slope points, first
by the Newton step of the worst case at the start, then doubling, until the
slope turns (``baseline_solver._bracket_from``), and hands that bracket to
Brent; a start on an end of the side (an optimum pinned on A) leaves Brent
the whole side, as without a start. It stops once |slope| times the
bracket width, which by concavity bounds how far V can still rise, is
within V's rounding (8 eps E|u| on the worst case): past that point its
steps only bisect the small jumps of the oracle's grid slope. The start changes the oracle calls, not the answer: V
is concave, so every bracket of the slope's root holds the same maximizer,
and the same stop ends the search at it to V's rounding.

Robust Davis prices follow the optimizer branch:
  * pi_delta != 0: p_d(delta) = E_{P*}[u' g] / E_{P*}[u'] on the worst-case
    measure P*;
  * pi_delta = 0 with 0 interior to A: the marginal-utility weight is
    constant; at E_P[X] = 0 every ball member prices and the robust (lower)
    price is the ball infimum of E[g] (the transport program above with g's
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
one transport program, ``_transport_minimize``, refined around its optimum.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baseline_solver import (PI_ZERO_THRESHOLD, BaselineSolution, Payoff, ProblemSpec,
                              _concave_argmax, _concave_max_lanes, _concave_max_raw,
                              _feasible_interval_raw, _problem, _solution, _until_error,
                              solve_baseline)
from .errors import (AssumptionViolation, ConfigError, DegenerateSensitivityError,
                     DomainCompatibilityError, NumericalFailure)
from .measures import DiscreteMeasure, StateSpace, coupling_cost
from .sensitivity import (_MEAN_ZERO_TOL, degeneracy_guard, optimizer_sensitivity,
                          pinned_shift, transport_direction, zero_strategy)
from .utility import Utility

_ORACLE_MAX_ATOMS = 16
_MULTIPLIER_STEPS = 500  # a multiplier search settles in a few dozen steps
_GRID_POINTS = 1200  # base points per atom's displacement grid
_REFINEMENTS = 3  # refinement passes after the base grid
_PROBE_REACH = 1e3  # a multiplier probe's farthest step above its guess, relative
_SEED_WIDTH = 1e-2  # widest relative probe step a seed from the last oracle call gets
_EPS = float(np.finfo(float).eps)
_WINDOW_STEPS = np.arange(33.0)  # a refinement window's 33 points, unscaled
_LOG_MAX = math.log(float(np.finfo(float).max))
_LOG_TINY = math.log(float(np.finfo(float).tiny))  # the smallest normal float


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


# ---------------------------------------------------------------------------
# both orders: certificate, side of 0, pi = 0; then the p = inf reduction
# ---------------------------------------------------------------------------

def _certified(spec: ProblemSpec, delta: float, pi: float, value: float,
               adversary: DiscreteMeasure, method: str) -> RobustSolution:
    """The solution, with the transport cost of its adversary certified <= delta.

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
                          adversary=adversary, transport_cost=cost, method=method)


def _slope_on(w: np.ndarray, u: Utility, pi: float, y: np.ndarray) -> float:
    """E[X u'(pi X)] on atoms y with weights w: the slope in pi of the
    expected utility on them (the Danskin slope on a worst case)."""
    return float(np.dot(w * u.u_prime(pi * y), y))


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


def _zero_answer(spec: ProblemSpec, delta: float, method: str) -> RobustSolution:
    """The robust solution with pi = 0: every ball member attains u(0), and
    the adversary is ``zero_strategy``'s shift. With 0 interior to A, pi = 0
    is optimal only against a ball member of zero mean."""
    x = spec.model.support_1d
    w = spec.model.weights
    zero = zero_strategy(spec, delta)
    shifted = x - zero.shift
    if zero.direction is None and abs(float(w @ shifted)) > _MEAN_ZERO_TOL:
        raise AssumptionViolation(
            f"pi = 0 with 0 interior to A, but no shift within the state space "
            f"and radius {delta} zeroes the mean")
    adversary = _as_adversary(shifted, w, x, base=spec.model, delta=delta, p=spec.order.p,
                              space=spec.state_space)
    value = float(np.dot(w, spec.utility.u(0.0 * x)))
    return _certified(spec, delta, 0.0, value, adversary, method)


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
        return _zero_answer(spec, delta, "inf_exact")
    return (down if hi > 0.0 else up), w, u, lo, hi, 0.0


def _inf_solution(spec: ProblemSpec, delta: float, search: tuple,
                  pi: float, boundary: bool) -> RobustSolution:
    """The p = inf solution at radius delta from the maximizer of its search."""
    if delta == 0.0:
        base = _solution(spec, np.array([pi]), boundary)
        return RobustSolution(delta=0.0, V_delta=base.V0, pi_delta=base.pi_star,
                              adversary=spec.model, transport_cost=0.0, method="inf_exact")
    xs, w, u, lo, hi, _ = search
    if abs(pi) <= PI_ZERO_THRESHOLD and lo <= 0.0 <= hi:
        return _zero_answer(spec, delta, "inf_exact")
    adversary = _as_adversary(xs, w, spec.model.support_1d, base=spec.model, delta=delta,
                              p=math.inf, space=spec.state_space)
    return _certified(spec, delta, pi, float(np.dot(w, u.u(pi * xs))), adversary, "inf_exact")


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

@functools.lru_cache(maxsize=256)
def _displacement_grid(lo: float, hi: float, grid_points: int) -> np.ndarray:
    """Signed displacement grid on [lo, hi] containing 0 and both ends: linear
    + geometric spacing on each side (the geometric part resolves the
    small-displacement Monge regime). The grid depends on the extents only,
    which every strategy of one sign in a solve (and every radius of a grid)
    shares, so each is built once and handed out read-only."""
    pieces = [np.array([lo, 0.0, hi])]
    half = grid_points // 2
    for side in (lo, hi):
        extent = abs(side)
        if extent > 0.0:
            sign = math.copysign(1.0, side)
            lin = np.linspace(0.0, extent, half)
            geo = np.geomspace(max(extent * 1e-12, 1e-300), extent, half)
            pieces.append(sign * lin)
            pieces.append(sign * geo)
    grid = np.unique(np.clip(np.concatenate(pieces), lo, hi))
    grid.flags.writeable = False
    return grid


def _window(a: float, b: float) -> np.ndarray:
    """np.linspace(a, b, 33) for a < b, bit for bit, without its argument
    handling, nor its other arithmetic where (b - a) / 32 underflows to 0."""
    y = _WINDOW_STEPS * ((b - a) / 32)
    y += a
    y[-1] = b
    return y


def _merged(grid: np.ndarray, windows: list[np.ndarray], lo: float, hi: float) -> np.ndarray:
    """np.unique(np.clip(np.concatenate([grid] + windows), lo, hi)) in value
    (either zero may stay) for a grid on [lo, hi], from one sort."""
    merged = np.concatenate([grid] + windows)
    new = merged[grid.size:]
    np.maximum(new, lo, out=new)
    np.minimum(new, hi, out=new)
    merged.sort()
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _cost_order(g: np.ndarray, lo: float, hi: float, back: bool = False) -> np.ndarray:
    """A sorted grid on [lo, hi] laid out by cost |s| as a stable argsort
    lays it or, ``back``, such a row sorted back. A grid on one side of 0
    (lo = 0 or hi = 0) is its own row, or that row reversed."""
    if lo >= 0.0:
        return g
    if hi <= 0.0:
        return g[::-1]
    return np.sort(g) if back else g[np.argsort(np.abs(g), kind="stable")]


def _first_twin(disp: np.ndarray, j_hi: np.ndarray, j_lo: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Both plans' cells, each moved to the first of its twins. Windows that
    overlap lay one displacement twice, a few ulps apart; two such cells tie
    at the binding multiplier, and which one a plan takes would hang on the
    path of the multiplier search (a warm and a cold bracket part there).
    Rows are sorted by cost, so a twin sits one cell before, or two with a
    mirror point of equal cost between. (A loop over rows: it took a
    quarter of the time of the same check in array operations.)"""
    def first(row: np.ndarray, j: int) -> int:
        while j > 0:
            s = row[j]
            tol = 4.0 * _EPS * abs(s)
            if abs(s - row[j - 1]) < tol:
                j -= 1
            elif j > 1 and abs(s - row[j - 2]) < tol:
                j -= 2
            else:
                break
        return j

    hi, lo = j_hi.copy(), j_lo.copy()
    for i, (a, b) in enumerate(zip(j_hi.tolist(), j_lo.tolist())):
        hi[i] = first(disp[i], a)
        lo[i] = hi[i] if b == a else first(disp[i], b)
    return hi, lo


def _multiplier_plans(w: np.ndarray, cost: np.ndarray, val: np.ndarray,
                      budget: float, lam0: float = 0.0, width: float = 1e-2
                      ) -> tuple[np.ndarray, np.ndarray, float]:
    """Grid cells (j_hi, j_lo), one per row, of two argmin plans of
    val + lam * cost that are both optimal at the multiplier lam where the
    budget binds, and that lam: j_hi spends at most the budget and j_lo
    more, unless the plain argmin of val fits the budget (then both are that
    argmin and lam is 0).

    Rows are sorted by cost, zero-displacement cell first (pad cells cost 0
    and hold val inf), so np.argmin breaks ties toward the smallest cost.
    Each plan J is a line A_J + lam S_J (value plus lam times spend) under
    the concave dual Phi(lam) = sum_i w_i min_j (val_ij + lam cost_ij).

    Bracket: a guess lam0 > 0 (the previous pass's or oracle call's
    multiplier) is probed at lam0 (1 - width), then on the other side of the
    budget's multiplier at lam0 (1 + width) or, if the first probe spends
    within the budget, at lam0 (1 - 8 width); each probe that lands on the
    same side again widens the step x8. Past lam = 0 below or _PROBE_REACH
    lam0 above, that end falls to the plain argmin (lam = 0) or the
    zero-displacement plan (lam = inf), the bracket of a cold start.
    Steps: each evaluates Phi where the lines of j_hi and j_lo cross and
    replaces the plan on the same side of the budget, until Phi there is no
    lower than the lines, to the rounding of the sum. Every plan optimal
    between the brackets agrees with them on the rows where they agree, and
    on the other rows lies between their cells (rows are sorted by cost), so
    the steps take the argmin over that window only and carry each plan's
    value, |value| and spend on it as scalars."""
    n = cost.shape[0]
    rows = np.arange(n)
    if cost[:, 0].any() or np.isinf(val[:, 0]).any():
        raise NumericalFailure("displacement grid lost the zero-displacement point")
    j_hi = j_lo = None
    if lam0 > 0.0:
        step = max(width, _EPS)
        j = _dual_argmin(val, cost, lam0 * (1.0 - step))
        if w.dot(cost[rows, j]) <= budget:
            j_hi = j  # the binding multiplier lies below: widen down
            while j_lo is None and (step := 8.0 * step) < 1.0:
                j = _dual_argmin(val, cost, lam0 * (1.0 - step))
                if w.dot(cost[rows, j]) <= budget:
                    j_hi = j
                else:
                    j_lo = j
        else:
            j_lo = j  # the binding multiplier lies above: widen up
            while j_hi is None and step < _PROBE_REACH:
                j = _dual_argmin(val, cost, lam0 * (1.0 + step))
                if w.dot(cost[rows, j]) <= budget:
                    j_hi = j
                else:
                    j_lo = j
                    step *= 8.0
    if j_lo is None:
        j_lo = np.argmin(val, axis=1)
        if w.dot(cost[rows, j_lo]) <= budget:
            return j_lo, j_lo, 0.0
    if j_hi is None:
        j_hi = np.argmin(np.where(cost == 0.0, val, np.inf), axis=1)

    # rows where the brackets differ, and the columns between their cells
    live = np.flatnonzero(j_hi != j_lo)
    first = int(min(j_hi[live].min(), j_lo[live].min()))
    c = cost[live, first:int(max(j_hi[live].max(), j_lo[live].max())) + 1]
    v = val[live, first:first + c.shape[1]]
    wl = w[live]
    fixed = np.flatnonzero(j_hi == j_lo)
    fixed_cost = w[fixed] @ cost[fixed, j_hi[fixed]]
    fixed_abs = w[fixed] @ np.abs(val[fixed, j_hi[fixed]])
    sub = np.arange(live.size)

    def line(j: np.ndarray) -> tuple[float, float, float]:
        # (value, |value|, spend) of the plan j on the live rows
        vj = v[sub, j]
        return wl.dot(vj), wl.dot(np.abs(vj)), wl.dot(c[sub, j])

    k_hi, k_lo = j_hi[live] - first, j_lo[live] - first
    hi, lo = line(k_hi), line(k_lo)
    for _ in range(_MULTIPLIER_STEPS):
        lam = (hi[0] - lo[0]) / (lo[2] - hi[2])
        k = _dual_argmin(v, c, lam)
        at = line(k)
        if _at_breakpoint(lam, at, hi, lo, n, (fixed_abs, fixed_cost)):
            j_hi[live] = k_hi + first
            j_lo[live] = k_lo + first
            return j_hi, j_lo, lam
        if fixed_cost + at[2] > budget:
            k_lo, lo = k, at
        else:
            k_hi, hi = k, at
    raise NumericalFailure("multiplier search did not settle on a breakpoint")


def _dual_argmin(val: np.ndarray, cost: np.ndarray, lam: float) -> np.ndarray:
    """Each row's cell that minimizes val + lam * cost (the first of ties)."""
    dual = cost * lam
    dual += val
    return dual.argmin(axis=1)


def _at_breakpoint(lam: float, at: tuple[float, float, float], hi: tuple[float, float, float],
                   lo: tuple[float, float, float], n: int,
                   fixed: tuple[float, float] = (0.0, 0.0)) -> bool:
    """The multiplier search's stopping test: whether the argmin plan ``at``
    of val + lam * cost, where the lines of the plans ``hi`` and ``lo``
    cross, lies no lower than those lines, to the rounding of a sum over n
    rows; then both plans are optimal at lam. A plan is its (value, |value|,
    spend), summed over some of the rows; ``fixed`` is the (|value|, spend)
    of the other rows, where the three plans agree."""
    a_hi, _, s_hi = hi
    a_lo, b_lo, s_lo = lo
    slack = n * _EPS * (fixed[0] + b_lo + lam * (fixed[1] + s_lo))
    return at[0] + lam * at[2] >= min(a_lo + lam * s_lo, a_hi + lam * s_hi) - slack


def _checked_multiplier(w: np.ndarray, cost: np.ndarray, val: np.ndarray, budget: float,
                        j_hi: np.ndarray, j_lo: np.ndarray) -> float | None:
    """The multiplier at which the plans j_hi and j_lo (the last oracle
    call's at this pass) still solve the program with these values, or None:
    j_hi spends at most the budget and j_lo more, their lines cross at some
    lam > 0, and one argmin plan of val + lam * cost over every row passes
    the multiplier search's stopping test there (``_at_breakpoint``)."""
    rows = np.arange(w.size)

    def line(j: np.ndarray) -> tuple[float, float, float]:
        vj = val[rows, j]
        return w.dot(vj), w.dot(np.abs(vj)), w.dot(cost[rows, j])

    hi, lo = line(j_hi), line(j_lo)
    if not hi[2] <= budget < lo[2]:
        return None
    lam = (hi[0] - lo[0]) / (lo[2] - hi[2])
    if not lam > 0.0:
        return None
    at = line(_dual_argmin(val, cost, lam))
    return lam if _at_breakpoint(lam, at, hi, lo, w.size) else None


@dataclass
class _Pass:
    """One refinement pass of a transport program: the (atoms x width)
    displacements, each row an atom's grid sorted by cost and padded, the
    grid sizes, the costs, the binding multiplier, and its plan. The plan is
    the cells (j_hi, j_lo) of the two bracket plans, its fragments (atom,
    cell, share) in the order its value sums them, the share ``shed`` of
    fragment k back to zero displacement as (k, share) (or None), and each
    atom's active displacements (the cells its plan uses). Only the value
    depends on the objective; the rest follows from the costs and cells."""

    sizes: list[int]
    disp: np.ndarray
    cost: np.ndarray
    lam: float
    cells: tuple[np.ndarray, np.ndarray]
    fragments: list[tuple[int, int, float]]
    shed: tuple[int, float] | None
    active: list[set[float]]

    def value(self, w: np.ndarray, val: np.ndarray) -> float:
        """The plan's value on the objective values ``val``."""
        value = 0.0
        for i, j, m in self.fragments:
            value += w[i] * m * val[i, j]
        if self.shed is not None:
            k, share = self.shed
            i, j, _ = self.fragments[k]
            value += w[i] * share * (val[i, 0] - val[i, j])
        return value

    def kept(self) -> list[tuple[int, int, float]]:
        """The plan's fragments of positive share, after the shed."""
        fragments = list(self.fragments)
        if self.shed is not None:
            k, share = self.shed
            i, j, m = fragments[k]
            fragments[k] = (i, j, m - share)
            fragments.append((i, 0, share))
        return [(i, j, m) for i, j, m in fragments if m > 0.0]


def _planned(w: np.ndarray, sizes: list[int], disp: np.ndarray, cost: np.ndarray, p: float,
             budget: float, lam: float, j_hi: np.ndarray, j_lo: np.ndarray) -> _Pass:
    """The pass whose bracket plans at the binding multiplier lam are j_hi
    and j_lo: starting from j_hi, atoms move their share to their j_lo cell
    until the budget is spent."""
    n = w.size
    # share of each atom moved from its j_hi cell to its j_lo cell
    moved = np.zeros(n)
    # (the search sums spends in another order: ulps over are shed below)
    remaining = max(budget - w @ cost[np.arange(n), j_hi], 0.0)
    for i in np.flatnonzero(j_lo != j_hi):
        cap = w[i] * (cost[i, j_lo[i]] - cost[i, j_hi[i]])
        moved[i] = 1.0 if cap <= remaining else remaining / cap
        remaining -= moved[i] * cap
        if moved[i] < 1.0:
            break
    # (cell, share) of each atom: its j_hi cell, then its j_lo cell
    pieces = [[(j, m) for j, m in ((j_hi[i], 1.0 - moved[i]), (j_lo[i], moved[i]))
               if m > 0.0] for i in range(n)]
    fragments = [(i, j, m) for i in range(n) for j, m in pieces[i]]
    used = 0.0
    for i, j, m in fragments:
        used += w[i] * m * cost[i, j]
    if used > budget * (1.0 + 1e-9) + 1e-300:
        raise NumericalFailure(f"transport plan overspent: {used} > {budget}")
    shed = None
    if used > budget:
        # re-accumulation rounding can overshoot by ulps; shed the excess
        # mass from the costliest fragment back to zero displacement (cell
        # 0 of every row) so the returned plan is certified within budget
        units = [w[i] * abs(float(disp[i, j])) ** p for i, j, _ in fragments]
        k = int(np.argmax(units))
        shed = (k, min(fragments[k][2], (used - budget) / units[k]))
    active = [{disp[i, j] for j, _ in pieces[i]} for i in range(n)]
    return _Pass(sizes, disp, cost, lam, (j_hi, j_lo), fragments, shed, active)


@dataclass
class _OracleMemory:
    """The passes of the last oracle call of one outer search, at strategy
    ``pi`` on the displacement bounds ``bounds``. ``robust_solve_p`` keeps
    one per solve and hands it to every oracle call it makes."""

    pi: float = math.nan
    bounds: tuple[np.ndarray, np.ndarray] | None = None
    passes: list[_Pass] = dataclasses.field(default_factory=list)


def _transport_minimize(x: np.ndarray, w: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray,
                        p: float, delta: float, f: Callable[[np.ndarray], np.ndarray],
                        kinks: tuple[float, ...] = (), memory: _OracleMemory | None = None,
                        pi: float = math.nan
                        ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """min over two-fragment transport plans of sum_i w_i E[f(x_i + s_i)]
    subject to sum_i w_i E|s_i|^p <= budget = delta^p and s_i in [s_lo_i, s_hi_i].

    f evaluates the objective at an array of positions; each pass calls it
    once per atom, on that atom's grid positions (one call on every atom's
    positions measured 5-8% slower per oracle call at 6 and 12 atoms); a NaN
    value raises NumericalFailure. Each of ``kinks`` (positions where f may
    bend) joins the base grid of every atom whose bounds hold it, as the
    displacement k - x_i, and is evaluated at k itself (x_i + (k - x_i) can
    round an ulp off k, and a steep f turns that ulp into an error). An
    infinite radius leaves each atom its own window minimum (p only orders
    each row). Returns (value, points, masses, atoms): the best plan's
    fragments, at positions x_i + s (k at a kink), each with mass w_i times
    the share of atom i it carries, and the index i of that atom.

    Exactness: on the displacement grids the problem is the linear program
    min sum_ij w_i m_ij f(x_i + s_ij) s.t. sum_ij w_i m_ij |s_ij|^p <= budget,
    sum_j m_ij = 1, m >= 0, whose Lagrangian dual is a search over one
    multiplier (``_multiplier_plans``). Every atom on which the two plans
    optimal at the binding multiplier differ is indifferent between its two
    cells, so starting from the cheaper plan and moving atoms to their cell
    in the dearer one until the budget is spent is optimal; generically one
    atom is split. The only gap to the true continuum optimum is grid
    resolution, which the refinement passes shrink around the active
    displacements: each pass lays 33 points across s +- the wider grid cell
    next to every active displacement s (``_window``, np.linspace's points)
    and merges them, clipped to the atom's bounds, into its grid with one
    sort (``_merged``). A pass lays each grid out as a row in cost order and
    sorts rows back into grids with ``_cost_order``: an inner infimum's
    grids lie on one side of 0, so a row is its grid or that grid reversed.

    Range: the multiplier search weighs every cell's cost against the
    budget, so a radius delta > 0 needs the largest displacement D's cost in
    budgets, (D / delta)^p, inside float range. Past it (high orders: p >
    ln(float max) / ln(D / delta)) the program is refused with ConfigError,
    where it would overflow and, once delta^p leaves the normal floats, find
    no multiplier; p = inf solves such balls exactly.

    Memory: ``memory`` (an outer search's, over strategies pi = ``pi``
    with f = u(pi y) on one x, w, p and delta; ball infima and direct
    callers pass none) holds the last call's passes and takes this call's on
    return. The base grids follow from the bounds alone
    (``_displacement_grid``), and each refined grid from the grids and
    active displacements before it. So while a pass's active displacements
    equal the last call's at that pass, the next pass takes the last call's
    displacement and cost arrays as they are and evaluates only f: they are
    the arrays this call would build. (A pass keeps no grids: they are its
    rows, sorted back, the first time a pass differs.) Such a pass first
    checks the last call's bracket plans (j_hi, j_lo) at this pass on the
    new values (``_checked_multiplier``): j_hi spends at most the budget
    and j_lo more, their value lines cross at some lam > 0, and there one
    argmin over every row passes the multiplier search's stopping test with
    its slack (``_at_breakpoint``). Then both plans are optimal at the
    binding multiplier lam, and the moved shares depend only on costs and
    cells, so the pass keeps the last call's fragments, shed and active
    displacements (the rest of its ``_Pass``) and re-sums only the value, in
    the same order. Otherwise the multiplier search runs, seeded with the
    last call's multiplier at the same pass times pi / pi_last, probed
    2 |pi - pi_last| / |pi| either side (at most 0.5) on pass 0, and on
    later passes while that width is at most _SEED_WIDTH; otherwise with
    this call's previous pass's multiplier, probed half its drift over the
    pass before (1e-2 on pass 1; the first call's pass 0 starts cold). A
    check or a seed only finds the same binding multiplier sooner, so no
    reuse changes the program that is solved; plans tied to rounding at the
    binding multiplier (the search and the check stop within the rounding
    of the dual) can resolve another way, as between a warm and a cold
    bracket. Twin cells, one displacement laid twice an ulp or so apart
    where refinement windows overlap, are such a tie, so a searched plan
    takes the first of them (``_first_twin``).
    """
    reach = max(float(np.max(-s_lo)), float(np.max(s_hi)))
    if 0.0 < delta < math.inf:
        log_budget, log_reach = p * math.log(delta), p * math.log(max(reach, delta))
        if log_reach - log_budget > _LOG_MAX:
            raise ConfigError(
                f"order p = {p} is too high for radius delta = {delta}: the largest "
                f"displacement, {reach}, costs (displacement / delta)^p = "
                f"e^{log_reach - log_budget:.1f} budgets, past float range "
                f"(e^{_LOG_MAX:.1f}); use p = inf, which solves such a ball exactly")
        if log_budget < _LOG_TINY or log_reach > _LOG_MAX:
            raise ConfigError(
                f"order p = {p} at radius delta = {delta} leaves the normal floats "
                f"(e^{_LOG_TINY:.1f} to e^{_LOG_MAX:.1f}): the budget delta^p is "
                f"e^{log_budget:.1f} and the largest displacement, {reach}, costs "
                f"e^{log_reach:.1f}; use p = inf, which solves such a ball exactly")
    budget = delta ** p
    n = x.shape[0]
    grids, kink_at = [], []  # kink_at[i]: the kink at each kink displacement of atom i
    for i in range(n):
        grid = _displacement_grid(float(s_lo[i]), float(s_hi[i]), _GRID_POINTS)
        at = {k - x[i]: k for k in kinks if s_lo[i] <= k - x[i] <= s_hi[i]}
        grids.append(np.unique(np.concatenate([grid, list(at)])) if at else grid)
        kink_at.append(at)
    last: list[_Pass] = []  # the last call's passes, on this call's base grids
    if (memory is not None and memory.bounds is not None
            and np.array_equal(memory.bounds[0], s_lo) and np.array_equal(memory.bounds[1], s_hi)):
        last = memory.passes
        seed_width = 2.0 * abs(pi - memory.pi) / abs(pi)
    passes: list[_Pass] = []
    same = bool(last)  # this pass's grids are the last call's
    best: tuple[float, _Pass] | None = None
    lam = lam_before = 0.0
    for pass_ in range(_REFINEMENTS + 1):
        if same:
            sizes, disp, cost = last[pass_].sizes, last[pass_].disp, last[pass_].cost
        else:
            # padded (atoms x grid) arrays, each row sorted by cost; pad
            # cells cost nothing and are never chosen
            sizes = [g.size for g in grids]
            disp = np.zeros((n, max(sizes)))
            for i, g in enumerate(grids):
                disp[i, :g.size] = _cost_order(g, s_lo[i], s_hi[i])
            cost = np.abs(disp) ** p
        val = np.full(disp.shape, np.inf)
        for i, size in enumerate(sizes):
            s = disp[i, :size]
            y = x[i] + s
            for d, k in kink_at[i].items():
                y[s == d] = k
            val[i, :size] = f(y)
        if np.isnan(val).any():
            raise NumericalFailure("objective is NaN on a displacement grid")
        checked = _checked_multiplier(w, cost, val, budget, *last[pass_].cells) if same else None
        if checked is not None:  # the last call's plans still solve this pass
            step = dataclasses.replace(last[pass_], lam=checked)
        else:
            if pass_ < len(last) and (pass_ == 0 or seed_width <= _SEED_WIDTH):
                lam0, width = last[pass_].lam * (pi / memory.pi), min(seed_width, 0.5)
            elif pass_ >= 2 and lam > 0.0:
                lam0, width = lam, 0.5 * abs(lam - lam_before) / lam
            else:
                lam0, width = lam, 1e-2
            j_hi, j_lo, lam_found = _multiplier_plans(w, cost, val, budget, lam0, width)
            step = _planned(w, sizes, disp, cost, p, budget, lam_found,
                            *_first_twin(disp, j_hi, j_lo))
        lam_before, lam = lam, step.lam
        value = step.value(w, val)
        if best is None or value < best[0]:
            best = (value, step)
        passes.append(step)
        active = step.active
        if pass_ == _REFINEMENTS:
            break  # no pass left to use a refined grid
        if same and pass_ + 1 < len(last) and active == last[pass_].active:
            continue  # the last call refined these grids to its next ones
        if same:  # the grids are the rows, sorted back
            grids = [_cost_order(disp[i, :size], s_lo[i], s_hi[i], back=True)
                     for i, size in enumerate(sizes)]
            same = False
        # refine around the active displacements of each displaced atom
        changed = False
        for i in range(n):
            if active[i] == {0.0}:
                continue  # atom never moved; nothing to refine
            grid = grids[i]
            extra = []
            for s_star in active[i]:
                j = int(grid.searchsorted(s_star))  # grid[j] == s_star
                gap = max(grid[min(j + 1, grid.size - 1)] - s_star,
                          s_star - grid[max(j - 1, 0)])
                if gap > 0.0:
                    extra.append(_window(s_star - gap, s_star + gap))
            if extra:
                changed = True
                grids[i] = _merged(grid, extra, s_lo[i], s_hi[i])
        if not changed:
            break
    assert best is not None
    if memory is not None:
        memory.pi, memory.bounds, memory.passes = pi, (s_lo, s_hi), passes
    value, step = best
    kept = step.kept()
    return (value, np.array([kink_at[i].get(step.disp[i, j], x[i] + step.disp[i, j])
                             for i, j, _ in kept]),
            np.array([w[i] * m for i, _, m in kept]), np.array([i for i, _, _ in kept]))


def adversary_inner_inf(P: DiscreteMeasure, utility: Utility, pi, delta: float,
                        order, memory: _OracleMemory | None = None
                        ) -> tuple[float, DiscreteMeasure]:
    """Certified inner infimum inf_{W_p(P~,P) <= delta} E_{P~}[u(pi X)] (d=1).

    Each atom moves against the position (displacement capped by the state
    space S); the value and the attaining two-fragment plan come from the
    transport program above, with objective u(pi y) at positions y.
    Unbounded S in the displacement direction is rejected: there the infimum
    is genuinely -inf (a vanishing-mass fragment sent to the domain edge or
    along an exponential tail). ``memory`` carries one outer search's
    passes from call to call (``_transport_minimize``); it is for calls on
    one P, utility, delta and order only.
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
        return float(np.dot(w, utility.u(wealth))), P

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
    value, pts, masses, atoms = _transport_minimize(
        x, w, s_lo, s_hi, order.p, delta, lambda y: utility.u(pi_s * y),
        memory=memory, pi=pi_s)
    adversary = _as_adversary(pts, masses / masses.sum(), x[atoms], base=P, delta=delta,
                              p=order.p, space=P.state_space)
    return float(value), adversary


def _slopes_at_zero(spec: ProblemSpec, delta: float) -> tuple[float, float]:
    """The right and left slopes at pi = 0 of the finite-p robust value. As
    pi -> 0 from the side of e the worst case tends to the pinned shift
    against e (``sensitivity.pinned_shift``), and the slope there is
    E[X u'(0)] on the shifted atoms."""
    x, w = spec.model.support_1d, spec.model.weights
    right, left = (_slope_on(w, spec.utility, 0.0, x - pinned_shift(spec, delta, e))
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
    degeneracy_guard(spec)


def _at_radius_zero(spec: ProblemSpec, base: BaselineSolution) -> RobustSolution:
    """The finite-p solution at delta = 0: the baseline's."""
    return RobustSolution(delta=0.0, V_delta=base.V0, pi_delta=base.pi_star,
                          adversary=spec.model, transport_cost=0.0, method="finite_p_oracle")


def _first_order_rate(spec: ProblemSpec, base: BaselineSolution) -> float:
    """pi*'(0), the optimizer's closed-form slope in delta; 0 where the
    closed forms refuse (an optimum pinned on A, pi* = 0, an atom on the
    edge of S), so the first-order strategy is pi*(0) there."""
    try:
        return float(optimizer_sensitivity(spec, base)[0][0])
    except AssumptionViolation:
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
    memory = _OracleMemory()  # each oracle call starts from the last one's passes

    def inner(pi_val: float) -> tuple[float, DiscreteMeasure]:
        if pi_val not in cache:
            cache[pi_val] = adversary_inner_inf(model, u, pi_val, delta, spec.order, memory)
        return cache[pi_val]

    def slope(t: float) -> float:
        if t not in slopes:
            _, adv = inner(t)
            slopes[t] = _slope_on(adv.weights, u, t, adv.support_1d)
        return slopes[t]

    def settled(t: float, g: float, other: float) -> bool:
        # by concavity V nowhere in [t, other] exceeds V(t) + |g| |other - t|;
        # once that is below the rounding of V(t), no step can raise V. A
        # closed-form slope at +-at has no oracle plan to scale by.
        if t not in cache:
            return False
        _, adv = cache[t]
        scale = float(adv.weights @ np.abs(u.u(t * adv.support_1d)))
        return abs(g) * abs(other - t) <= 8.0 * _EPS * scale

    at = 2.0 * PI_ZERO_THRESHOLD  # just outside the oracle's zero band
    if lo <= 0.0 <= hi:  # the slopes at 0 stand in for the oracle's at +-at
        slopes[at], slopes[-at] = _slopes_at_zero(spec, delta)
    lo, hi = _side_of_zero(lo, hi, lambda: slope(at), lambda: slope(-at), at)
    if lo == hi:
        return _zero_answer(spec, delta, "finite_p_oracle")
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
        curvature = -float(adv.weights @ (y * y * u.u_double_prime(start * y)))
        if curvature > 0.0:
            step = abs(slope(start)) / curvature
    pi, _ = _concave_argmax(slope, lo, hi, settled, start, step)
    value, adversary = inner(pi)
    return _certified(spec, delta, pi, value, adversary, "finite_p_oracle")


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
    value, *_ = _transport_minimize(x, w, s_lo, s_hi, p, radius, payoff, kinks=payoff.kinks)
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
        dens = sol.adversary.weights * spec.utility.u_prime(pi * y)
        dens = dens / dens.sum()
        return float(dens @ payoff(y))
    if zero_strategy(spec, 0.0).ball_infimum:  # the branch holds at every radius
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
    pi_prime, _ = optimizer_sensitivity(spec, sol)
    T = transport_direction(spec, sol, spec.model.points)
    y = spec.model.support_1d - delta * T[:, 0]
    pi_new = sol.pi_star_scalar + delta * float(pi_prime[0])
    dens = spec.model.weights * spec.utility.u_prime(pi_new * y)
    dens = dens / dens.sum()
    return float(dens @ payoff(y))


def martingale_check_robust(spec: ProblemSpec, solution: RobustSolution) -> float:
    """| E[X] | under the robust pricing measure (marginal-utility reweighted
    adversary). Zero to solver tolerance for interior pi_delta."""
    pi = np.atleast_1d(solution.pi_delta)
    y = solution.adversary.points
    dens = solution.adversary.weights * spec.utility.u_prime(y @ pi)
    dens = dens / dens.sum()
    return float(np.linalg.norm(dens @ y))
