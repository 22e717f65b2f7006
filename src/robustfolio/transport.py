"""The finite-p transport programs: the worst case of a sum of per-position
values over a Wasserstein ball of finite order p, for a discrete baseline in
d = 1, and the exact ball infimum of a payoff.

The utility program (``_transport_minimize``, the finite-p oracle) is exact
and finite-dimensional: transport plans that split each atom into at most
two fragments. On a displacement grid per atom it is a linear program under
the one budget delta^p, whose Lagrangian dual (Gao & Kleywegt 2016) is a
search over one multiplier (``_multiplier_plans``); refinement passes around
the active displacements shrink the grid's error, which stays of the order
of the squared cell width, not of rounding: the grid value is a feasible
plan's, so it lies above the exact infimum (by up to 5.1e-13, relative
6.3e-12, on a binomial at a = 0.25, p = 2 and delta = 0.1, where the exact
plan moves an atom to a point between two refined cells 1.6e-6 apart). One
outer search calls the program at strategies ever closer together, so an
oracle memory (``_OracleMemory``) carries the last call's passes to the next
call. ``_transport_minimize`` states the program, its exactness, its float
range and the memory's rules.

The ball infimum of a payoff (``_ball_infimum``, the robust Davis price at
a zero robust strategy) needs no grid: every catalog payoff is polynomial
on pieces, so each atom's best response to a multiplier lies in a finite
set of candidate points (``_Responses``), and the same one-multiplier dual
is solved exactly. It returns a feasible plan's value U and a dual value
L <= inf <= U whose gap U - L is rounding (its tests bound it by
1e-14 (1 + |U|) on every catalog payoff); at p = inf each atom takes its
window minimum and U = L. The
two programs share the one-split rule (``_split``, ``_shed``) and the float
range (``_check_range``).

``robust_solver`` calls in here for the finite-p inner infimum and the ball
infima of a price, and loads this module on the first such call: a p = inf
solve never runs it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalFailure

_MULTIPLIER_STEPS = 500  # a multiplier search settles in a few dozen steps
_GRID_POINTS = 1200  # base points per atom's displacement grid
_REFINEMENTS = 3  # refinement passes after the base grid
_PROBE_REACH = 1e3  # a multiplier probe's farthest step above its guess, relative
_EPS = float(np.finfo(float).eps)
_WINDOW_STEPS = np.arange(33.0)  # a refinement window's 33 points, unscaled
_LOG_MAX = math.log(float(np.finfo(float).max))
_LOG_TINY = math.log(float(np.finfo(float).tiny))  # the smallest normal float


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


def _cost_order(g: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """A sorted grid on [lo, hi] laid out by cost |s| as a stable argsort
    lays it. A grid on one side of 0 (lo = 0 or hi = 0) is its own row, or
    that grid reversed."""
    if lo >= 0.0:
        return g
    if hi <= 0.0:
        return g[::-1]
    return g[np.argsort(np.abs(g), kind="stable")]


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

    Bracket: a guess lam0 > 0 (the previous pass's multiplier) is probed
    at lam0 (1 - width), then on the other side of the budget's multiplier
    at lam0 (1 + width) or, if the first probe spends within the budget, at
    lam0 (1 - 8 width); each probe that lands on the same side again widens
    the step x8. Past lam = 0 below or _PROBE_REACH lam0 above, that end
    falls to the plain argmin (lam = 0) or the zero-displacement plan
    (lam = inf), the bracket of a cold start.
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
    """One refinement pass of a transport program: its grids (one sorted
    array per atom), the (atoms x width) displacements, each row an atom's
    grid sorted by cost and padded, the costs, the binding multiplier, and
    its plan. The plan is the cells (j_hi, j_lo) of the two bracket plans,
    its fragments (atom, cell, share) in the order its value sums them, the
    share ``shed`` of fragment k back to zero displacement as (k, share) (or
    None), and each atom's active displacements (the cells its plan uses).
    Only the value depends on the objective; the rest follows from the
    costs and cells."""

    grids: list[np.ndarray]
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


def _split(w: np.ndarray, c_hi: np.ndarray, c_lo: np.ndarray, differ: np.ndarray,
           budget: float) -> tuple[list[tuple[int, int, float]], float]:
    """The one-split rule for two plans optimal at the binding multiplier,
    hi spending at most the budget and lo more, with per-atom costs c_hi and
    c_lo: starting from hi, the atoms where the plans ``differ`` move their
    share to their lo response until the budget is spent. Returns the
    fragments (atom, 0 for the hi response or 1 for the lo one, share) in
    the order a plan's value sums them, and their spend."""
    n = w.size
    # share of each atom moved from its hi response to its lo response
    moved = np.zeros(n)
    # (the search sums spends in another order: ulps over are shed below)
    remaining = max(budget - w @ c_hi, 0.0)
    for i in np.flatnonzero(differ):
        cap = w[i] * (c_lo[i] - c_hi[i])
        moved[i] = 1.0 if cap <= remaining else remaining / cap
        remaining -= moved[i] * cap
        if moved[i] < 1.0:
            break
    fragments = [(i, r, m) for i in range(n) for r, m in ((0, 1.0 - moved[i]), (1, moved[i]))
                 if m > 0.0]
    used = 0.0
    for i, r, m in fragments:
        used += w[i] * m * (c_lo if r else c_hi)[i]
    return fragments, used


def _shed(fragments: list[tuple[int, int, float]], unit: Callable[[int, int], float],
          used: float, budget: float) -> tuple[int, float] | None:
    """The share (k, share) of fragment k to shed back to zero displacement
    so that a plan that spends ``used`` stays within the budget, or None:
    re-accumulation rounding can overshoot by ulps, and the costliest
    fragment (by unit(atom, response), its atom's weight times its cost)
    gives up the excess. More than rounding is a failure."""
    if used > budget * (1.0 + 1e-9) + 1e-300:
        raise NumericalFailure(f"transport plan overspent: {used} > {budget}")
    if not used > budget:
        return None
    units = [unit(i, r) for i, r, _ in fragments]
    k = int(np.argmax(units))
    return k, min(fragments[k][2], (used - budget) / units[k])


def _planned(w: np.ndarray, grids: list[np.ndarray], disp: np.ndarray, cost: np.ndarray,
             p: float, budget: float, lam: float, j_hi: np.ndarray, j_lo: np.ndarray) -> _Pass:
    """The pass whose bracket plans at the binding multiplier lam are j_hi
    and j_lo, mixed by the one-split rule (``_split``)."""
    rows = np.arange(w.size)
    cells = (j_hi, j_lo)
    split, used = _split(w, cost[rows, j_hi], cost[rows, j_lo], j_lo != j_hi, budget)
    fragments = [(i, cells[r][i], m) for i, r, m in split]
    shed = _shed(split, lambda i, r: w[i] * abs(float(disp[i, cells[r][i]])) ** p, used, budget)
    active: list[set[float]] = [set() for _ in range(w.size)]
    for i, j, _ in fragments:
        active[i].add(disp[i, j])
    return _Pass(grids, disp, cost, lam, cells, fragments, shed, active)


def _check_range(reach: float, p: float, delta: float) -> None:
    """Refuse (ConfigError) the finite order p at the radius delta > 0 where
    a multiplier search would leave float range. The search weighs every
    move's cost against the budget, so the largest move ``reach`` needs its
    cost in budgets, (reach / delta)^p, inside float range; past it (high
    orders: p > ln(float max) / ln(reach / delta)) the search would
    overflow and, once delta^p leaves the normal floats, find no
    multiplier. p = inf solves such balls exactly."""
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


@dataclass
class _OracleMemory:
    """The passes of the last oracle call of one outer search, on the
    displacement bounds ``bounds``. ``robust_solve_p`` keeps one per solve
    and hands it to every oracle call it makes."""

    bounds: tuple[np.ndarray, np.ndarray] | None = None
    passes: list[_Pass] = dataclasses.field(default_factory=list)


def _transport_minimize(x: np.ndarray, w: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray,
                        p: float, delta: float, f: Callable[[np.ndarray], np.ndarray],
                        memory: _OracleMemory | None = None
                        ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """min over two-fragment transport plans of sum_i w_i E[f(x_i + s_i)]
    subject to sum_i w_i E|s_i|^p <= budget = delta^p and s_i in [s_lo_i, s_hi_i],
    for a radius delta > 0.

    f evaluates the objective at an array of positions; each pass calls it
    once per atom, on that atom's grid positions (one call on every atom's
    positions measured 5-8% slower per oracle call at 6 and 12 atoms); a NaN
    value raises NumericalFailure. Returns (value, points, masses, atoms):
    the best plan's fragments, at positions x_i + s, each with mass w_i
    times the share of atom i it carries, and the index i of that atom.

    Exactness: on the displacement grids the problem is the linear program
    min sum_ij w_i m_ij f(x_i + s_ij) s.t. sum_ij w_i m_ij |s_ij|^p <= budget,
    sum_j m_ij = 1, m >= 0, whose Lagrangian dual is a search over one
    multiplier (``_multiplier_plans``). Every atom on which the two plans
    optimal at the binding multiplier differ is indifferent between its two
    cells, so starting from the cheaper plan and moving atoms to their cell
    in the dearer one until the budget is spent is optimal (``_split``);
    generically one atom is split. The only gap to the true continuum optimum is grid
    resolution, which the refinement passes shrink around the active
    displacements: each pass lays 33 points across s +- the wider grid cell
    next to every active displacement s (``_window``, np.linspace's points)
    and merges them, clipped to the atom's bounds, into its grid with one
    sort (``_merged``). A pass lays each grid out as a row in cost order
    (``_cost_order``): an inner infimum's grids lie on one side of 0, so a
    row is its grid or that grid reversed.

    Range: the multiplier search weighs every cell's cost against the
    budget, so the largest displacement's cost in budgets must stay inside
    float range (``_check_range``).

    Memory: ``memory`` (an outer search's, with f = u(pi y) over strategies
    pi on one x, w, p and delta; direct callers pass none)
    holds the last call's passes and takes this call's on return. The base
    grids follow from the bounds alone (``_displacement_grid``; a warm call
    builds none), and each refined grid from the grids and active
    displacements before it. So while a pass's active displacements equal
    the last call's at that pass, the next pass takes the last call's grids,
    displacement and cost arrays as they are and evaluates only f: they are
    the arrays this call would build. Such a pass first checks the last
    call's bracket plans (j_hi, j_lo) at this pass on the new values
    (``_checked_multiplier``): j_hi spends at most the budget and j_lo more,
    their value lines cross at some lam > 0, and there one argmin over every
    row passes the multiplier search's stopping test with its slack
    (``_at_breakpoint``). Then both plans are optimal at the binding
    multiplier lam, and the moved shares depend only on costs and cells, so
    the pass keeps the last call's fragments, shed and active displacements
    (the rest of its ``_Pass``) and re-sums only the value, in the same
    order. Otherwise the multiplier search runs, seeded with this call's
    previous pass's multiplier, probed half its drift over the pass before
    (1e-2 on pass 1); pass 0 starts cold. A check or a seed only finds the
    same binding multiplier sooner, so no reuse changes the program that is
    solved; plans tied to rounding at the binding multiplier (the search and
    the check stop within the rounding of the dual) can resolve another way,
    as between a warm and a cold bracket. Twin cells, one displacement laid
    twice an ulp or so apart where refinement windows overlap, are such a
    tie, so a searched plan takes the first of them (``_first_twin``).
    """
    _check_range(max(float(np.max(-s_lo)), float(np.max(s_hi))), p, delta)
    n = x.shape[0]
    budget = delta ** p
    last: list[_Pass] = []  # the last call's passes, on this call's base grids
    if (memory is not None and memory.bounds is not None
            and np.array_equal(memory.bounds[0], s_lo) and np.array_equal(memory.bounds[1], s_hi)):
        last = memory.passes
    else:
        grids = [_displacement_grid(float(s_lo[i]), float(s_hi[i]), _GRID_POINTS)
                 for i in range(n)]
    passes: list[_Pass] = []
    same = bool(last)  # this pass's grids are the last call's
    best: tuple[float, _Pass] | None = None
    lam = lam_before = 0.0
    for pass_ in range(_REFINEMENTS + 1):
        if same:
            grids, disp, cost = last[pass_].grids, last[pass_].disp, last[pass_].cost
        else:
            # padded (atoms x grid) arrays, each row sorted by cost; pad
            # cells cost nothing and are never chosen
            disp = np.zeros((n, max(g.size for g in grids)))
            for i, g in enumerate(grids):
                disp[i, :g.size] = _cost_order(g, s_lo[i], s_hi[i])
            cost = np.abs(disp) ** p
        val = np.full(disp.shape, np.inf)
        for i, g in enumerate(grids):
            val[i, :g.size] = f(x[i] + disp[i, :g.size])
        if np.isnan(val).any():
            raise NumericalFailure("objective is NaN on a displacement grid")
        checked = _checked_multiplier(w, cost, val, budget, *last[pass_].cells) if same else None
        if checked is not None:  # the last call's plans still solve this pass
            step = dataclasses.replace(last[pass_], lam=checked)
        else:
            width = 0.5 * abs(lam - lam_before) / lam if pass_ >= 2 and lam > 0.0 else 1e-2
            j_hi, j_lo, lam_found = _multiplier_plans(w, cost, val, budget, lam, width)
            step = _planned(w, grids, disp, cost, p, budget, lam_found,
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
        same = False
        grids = list(grids)  # the pass keeps its own; refine a copy
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
        memory.bounds, memory.passes = (s_lo, s_hi), passes
    value, step = best
    kept = step.kept()
    return (value, np.array([x[i] + step.disp[i, j] for i, j, _ in kept]),
            np.array([w[i] * m for i, _, m in kept]), np.array([i for i, _, _ in kept]))


# ---------------------------------------------------------------------------
# the exact ball infimum of a payoff: candidate points and one multiplier
# ---------------------------------------------------------------------------

_ROOT_STEPS = 200  # safeguarded Newton settles in a few steps; past them the last step stands


def _newton(F: Callable, dF: Callable, l: np.ndarray, r: np.ndarray, fl: np.ndarray
            ) -> np.ndarray:
    """The root in (l, r) of each function F, monotone there with derivative
    dF and F(l) = fl of the other sign than F(r): Newton steps from the
    midpoint, each kept inside the shrinking bracket; a step that would leave
    it, or would not halve the step before it (a steep power such as
    lam t^p with p large, which Newton approaches only geometrically), is
    replaced by the bracket's midpoint. It stops once a step moves by no
    more than 2 ulps."""
    t = 0.5 * (l + r)
    rising = fl < 0.0
    last = r - l
    for _ in range(_ROOT_STEPS):
        f = F(t)
        right = (f < 0.0) == rising  # the root lies right of t
        l = np.where(right & (f != 0.0), t, l)
        r = np.where(~right & (f != 0.0), t, r)
        newton = t - f / dF(t)
        keep = (l < newton) & (newton < r) & (np.abs(newton - t) <= 0.5 * last)
        step = np.where(f == 0.0, t, np.where(keep, newton, 0.5 * (l + r)))
        last = np.abs(step - t)
        if np.all(last <= 2.0 * _EPS * np.abs(step)):
            return step
        t = step
    return t


class _Stationary:
    """The stationary points in t of h(t) = g(x + sigma t) + lam t^p on
    intervals (ta, tb) of t >= 0, for problems (an atom, a piece of g and a
    side sigma of the atom) whose pieces share one degree deg >= 1, with
    coefficients ``coef`` about their anchors ``at``. The m-th derivative
        F_m(t) = sigma^m g^(m)(x + sigma t) + lam (p)_m t^(p - m),
    with (p)_m = p (p - 1) ... (p - m + 1), has a constant polynomial part
    at m = deg, so F_deg is monotone and has at most one root, in closed
    form. The roots of F_(m+1) cut (ta, tb) into stretches on which F_m is
    monotone, and a stretch whose ends differ in sign holds one root of
    F_m (``_newton``): h' = F_1 has at most deg roots per problem."""

    def __init__(self, u0: np.ndarray, sigma: np.ndarray, coef: np.ndarray,
                 ta: np.ndarray, tb: np.ndarray, p: float) -> None:
        self.deg = coef.shape[1] - 1
        self.u0, self.sigma, self.ta, self.tb, self.p = u0, sigma, ta, tb, p
        # row m: the coefficients of sigma^m g^(m) about the anchor
        self.terms = [coef[:, m:] * np.array([math.perm(j, m) for j in range(m, self.deg + 1)])
                      * (sigma ** m)[:, None] for m in range(self.deg + 1)]

    def derivative(self, m: int, lam: float, rows: np.ndarray) -> Callable:
        """t |-> F_m(t) (m <= deg + 1) for the problems ``rows``, one t each."""
        c = self.terms[m][rows] if m <= self.deg else np.zeros((rows.size, 1))
        u0, sigma = self.u0[rows], self.sigma[rows]
        scale = lam * math.prod(self.p - k for k in range(m)) if lam > 0.0 else 0.0

        def F(t: np.ndarray) -> np.ndarray:
            u = u0 + sigma * t
            v = c[:, -1]
            for k in range(c.shape[1] - 2, -1, -1):
                v = v * u + c[:, k]
            return v + scale * t ** (self.p - m) if scale != 0.0 else v

        return F

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def roots(self, lam: float) -> np.ndarray:
        """(problems x deg) roots of h' in (ta, tb), NaN where there are fewer."""
        q = self.ta.size
        scale = lam * math.prod(self.p - k for k in range(self.deg)) if lam > 0.0 else 0.0
        cuts = np.full((q, 1), np.nan)
        if scale != 0.0 and self.p != self.deg:
            base = -self.terms[self.deg][:, 0] / scale
            t = np.where(base > 0.0, base ** (1.0 / (self.p - self.deg)), np.nan)
            cuts[:, 0] = np.where((self.ta < t) & (t < self.tb), t, np.nan)
        for m in range(self.deg - 1, 0, -1):
            ends = np.sort(np.column_stack([self.ta, np.where(np.isnan(cuts), self.tb[:, None], cuts),
                                            self.tb]), axis=1)
            l, r = ends[:, :-1].ravel(), ends[:, 1:].ravel()
            rows = np.repeat(np.arange(q), ends.shape[1] - 1)
            F = self.derivative(m, lam, rows)
            fl, fr = F(l), F(r)
            k = np.flatnonzero((l < r) & ((fl < 0.0) != (fr < 0.0)) & (fl != 0.0) & (fr != 0.0))
            found = np.full(l.size, np.nan)
            if k.size:
                found[k] = _newton(self.derivative(m, lam, rows[k]),
                                   self.derivative(m + 1, lam, rows[k]), l[k], r[k], fl[k])
            cuts = found.reshape(q, -1)
        return cuts


@dataclass(frozen=True)
class _Plan:
    """Every atom's best response to the multiplier lam: its point y, g(y),
    the cost |y - x|^p and the cost's rate d cost / d lam (0 unless y is a
    stationary point), with the weighted sums V of g and S of the cost."""

    lam: float
    y: np.ndarray
    g: np.ndarray
    cost: np.ndarray
    rate: np.ndarray
    V: float
    S: float


@functools.lru_cache(maxsize=64)
def _piece_table(pieces: tuple) -> tuple[np.ndarray, ...]:
    """(ends, lo, hi, at, coef, deg) of a payoff's pieces: its finite piece
    ends, sorted, and each piece's ends, anchor, coefficients (padded with
    zeros to the most of any piece) and degree. Read-only: one table serves
    every ball infimum of the payoff."""
    ends = np.array(sorted({e for a, b, _ in pieces for e in (a, b) if math.isfinite(e)}))
    lo = np.array([a for a, _, _ in pieces])
    hi = np.array([b for _, b, _ in pieces])
    at = np.where(lo > -math.inf, lo, np.where(hi < math.inf, hi, 0.0))
    width = max(3, *(len(c) for _, _, c in pieces))  # (the p = 2 solve reads c_0 to c_2)
    coef = np.array([c + (0.0,) * (width - len(c)) for _, _, c in pieces])
    deg = np.array([max((j for j, c_j in enumerate(c) if c_j != 0.0), default=0)
                    for _, _, c in pieces])
    table = (ends, lo, hi, at, coef, deg)
    for array in table:
        array.flags.writeable = False
    return table


class _Responses:
    """The best responses of the atoms x, each within its window [lo, hi],
    to a multiplier lam: the point y that minimizes h(y) = g(y) + lam |y - x|^p
    over a finite set of candidates that holds every minimizer, ties going
    to the cheaper point. The candidates are the atom itself, its window's
    ends, every piece end inside the window (evaluated at the end itself:
    x + (end - x) can round an ulp off it, and a steep g turns that ulp into
    an error), and the stationary points of h on each piece, on each side
    of x. At p = 2 (or lam = 0) a piece of degree <= 2 has one, a linear
    solve; otherwise ``_Stationary`` finds them. Values always come from
    the payoff's own ``value``; a NaN there raises NumericalFailure."""

    def __init__(self, x: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 p: float, payoff) -> None:
        if not payoff.pieces:
            raise ConfigError(f"the {payoff.kind} payoff declares no polynomial pieces, "
                              f"which its ball infimum needs")
        self.x, self.w, self.p, self.payoff = x, w, p, payoff
        ends, a, b, at, coef, deg = _piece_table(payoff.pieces)
        inner = np.where((ends > lo[:, None]) & (ends < hi[:, None]), ends, np.nan)
        self.fixed = np.concatenate([x[:, None], lo[:, None], hi[:, None], inner], axis=1)
        self.fixed_g = self._values(self.fixed)
        self.fixed_cost = np.where(np.isnan(self.fixed), 0.0, np.abs(self.fixed - x[:, None]) ** p)
        # (atom, piece) pairs where a piece of degree >= 1 meets a window
        lo_k, hi_k = np.maximum(a, lo[:, None]), np.minimum(b, hi[:, None])
        atom, piece = np.nonzero((lo_k < hi_k) & (deg > 0))
        self.pairs = (atom, lo_k[atom, piece], hi_k[atom, piece], at[piece], coef[piece],
                      deg[piece])
        self._layouts: dict[bool, tuple] = {}

    def _values(self, y: np.ndarray) -> np.ndarray:
        """g at the candidates y, +inf where y is NaN (no candidate)."""
        live = ~np.isnan(y)
        g = np.full(y.shape, np.inf)
        g[live] = self.payoff(y[live])
        if np.isnan(g).any():
            raise NumericalFailure("payoff is NaN at a candidate point of its ball infimum")
        return g

    def _layout(self, linear: bool) -> tuple:
        """The stationary problems; the (row, column) of each of their slots
        in the candidate table, one per pair where ``linear`` (the p = 2 or
        lam = 0 solve of pieces of degree <= 2), else per pair, side and
        root; and the table's (points, values, costs, rates) with the fixed
        candidates filled in."""
        if linear not in self._layouts:
            atom, lo, hi, at, coef, deg = self.pairs
            groups, slots = [], []
            quad = deg <= 2
            if linear:
                groups.append(("linear", np.flatnonzero(quad)))
                slots.append(atom[quad])
            for d in sorted(set((deg[~quad] if linear else deg).tolist())):
                k = np.flatnonzero(deg == d)
                # t >= 0 away from the atom: below it (sigma = -1), above it (+1)
                down, up = k[lo[k] < self.x[atom[k]]], k[hi[k] > self.x[atom[k]]]
                k2 = np.concatenate([down, up])
                sigma = np.concatenate([-np.ones(down.size), np.ones(up.size)])
                x = self.x[atom[k2]]
                ta = np.maximum(np.where(sigma < 0.0, x - hi[k2], lo[k2] - x), 0.0)
                tb = np.where(sigma < 0.0, x - lo[k2], hi[k2] - x)
                groups.append((_Stationary(x - at[k2], sigma, coef[k2, :d + 1], ta, tb, self.p),
                               k2, sigma))
                slots.append(np.repeat(atom[k2], d))
            rows = np.concatenate(slots) if slots else np.zeros(0, dtype=int)
            cols = np.zeros(rows.size, dtype=int)
            seen = np.full(self.x.size, self.fixed.shape[1])
            for s, i in enumerate(rows.tolist()):
                cols[s], seen[i] = seen[i], seen[i] + 1
            shape = (self.x.size, int(seen.max()))
            table = (np.full(shape, np.nan), np.full(shape, np.inf), np.zeros(shape),
                     np.zeros(shape))
            fixed = self.fixed.shape[1]
            table[0][:, :fixed], table[1][:, :fixed] = self.fixed, self.fixed_g
            table[2][:, :fixed] = self.fixed_cost
            self._layouts[linear] = (groups, rows, cols, table)
        return self._layouts[linear]

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def _stationary(self, lam: float, groups: list) -> tuple[np.ndarray, np.ndarray]:
        """The stationary points of every slot, NaN where there is none or it
        is no minimum (h'' <= 0), and their cost's rate
        d cost / d lam = -(p t^(p-1))^2 / h''(t)."""
        atom, lo, hi, at, coef, _ = self.pairs
        p = self.p
        ys, rates = [], []
        for group in groups:
            if group[0] == "linear":
                k = group[1]
                x, c1, c2 = self.x[atom[k]], coef[k, 1], coef[k, 2]
                curve = c2 + lam  # h'' / 2 (at p = 2, or lam = 0)
                y = at[k] + (2.0 * lam * (x - at[k]) - c1) / (2.0 * curve)
                ys.append(np.where((curve > 0.0) & (lo[k] < y) & (y < hi[k]), y, np.nan))
                rates.append(-2.0 * (y - x) ** 2 / curve)
                continue
            solver, k2, sigma = group
            t = solver.roots(lam)
            rows = np.repeat(np.arange(k2.size), t.shape[1])
            t = t.ravel()
            curve = solver.derivative(2, lam, rows)(t)
            ys.append(np.where(curve > 0.0, self.x[atom[k2]][rows] + sigma[rows] * t, np.nan))
            rates.append(-(p * t ** (p - 1.0)) ** 2 / curve)
        return np.concatenate(ys), np.concatenate(rates)

    def at(self, lam: float) -> _Plan:
        """The plan of best responses to the multiplier lam >= 0."""
        groups, rows, cols, table = self._layout(self.p == 2.0 or lam == 0.0)
        y, g, cost, rate = (a.copy() for a in table)
        if rows.size:
            ys, rs = self._stationary(lam, groups)
            live = ~np.isnan(ys)
            r, c, ys = rows[live], cols[live], ys[live]
            y[r, c], g[r, c], rate[r, c] = ys, self._values(ys), rs[live]
            cost[r, c] = np.abs(ys - self.x[r]) ** self.p
        h = g
        if lam > 0.0:
            with np.errstate(over="ignore"):  # a cost past float range in units of 1/lam
                h = g + lam * cost
        j = np.where(h == h.min(axis=1)[:, None], cost, np.inf).argmin(axis=1)
        i = np.arange(self.x.size)
        plan_g, plan_cost = g[i, j], cost[i, j]
        return _Plan(lam, y[i, j], plan_g, plan_cost, rate[i, j],
                     float(self.w @ plan_g), float(self.w @ plan_cost))


def _ball_infimum(x: np.ndarray, w: np.ndarray, edges: tuple[float, float], p: float,
                  delta: float, payoff) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """inf of E[g] over the laws within W_p distance delta of
    sum_i w_i delta_(x_i) on the state space [edges[0], edges[1]], for a
    payoff g of polynomial pieces (``Payoff.pieces``). Returns (U, L,
    points, masses, atoms): U is the value of the returned plan, whose
    fragments sit at ``points`` with mass w_i times the share of atom
    ``atoms`` they carry and cost at most delta^p; L is a dual value, a
    lower bound, so the infimum lies in [L, U].

    p = inf: each atom moves alone within its window [x - delta, x + delta]
    in S, to its window minimum over the candidate points (``_Responses``
    at lam = 0); U = L. Finite p: the Lagrangian dual (Gao & Kleywegt 2016)
    sup_lam sum_i w_i min_y [g(y) + lam |y - x_i|^p] - lam delta^p is a
    search over one multiplier, with every atom's best response taken from
    its candidates. Unless the plain minimum fits the budget, it brackets
    the binding multiplier between a plan that spends more than the budget
    (from lam = 0) and one that spends at most it (from lam = inf, where
    every atom stays). Each step is Newton on log(spend) in log(lam) for
    the atoms at stationary points, the others' spend held fixed, exact
    where those sit on linear pieces (there their spend is proportional to
    lam^(-p/(p-1))); or else, where the bracket plans differ by a jump of a
    best response, the multiplier where their value lines cross (a Newton
    step on their indifference, whose derivative is their cost difference
    by the envelope theorem); or else, and wherever the two steps before
    did not halve the bracket in log(lam), its middle in log(lam). The two
    bracket plans are mixed by the one-split rule
    (``_split``): that plan's value is U. L is the largest dual value at
    the multipliers tried. The search stops once U - L is within the
    rounding of the sums, or the bracket is a few ulps wide."""
    n = x.size
    if delta == 0.0:
        stay = payoff(x.copy())
        if np.isnan(stay).any():
            raise NumericalFailure("payoff is NaN at an atom")
        return _moved_whole(w, x + 0.0, stay)
    lo_edge, hi_edge = edges
    if math.isinf(p):
        lo, hi = np.maximum(x - delta, lo_edge), np.minimum(x + delta, hi_edge)
    else:
        _check_range(max(float(np.max(x - lo_edge)), float(np.max(hi_edge - x))), p, delta)
        lo, hi = np.full(n, float(lo_edge)), np.full(n, float(hi_edge))
    responses = _Responses(x, w, lo, hi, p, payoff)
    low = responses.at(0.0)
    budget = delta ** p if math.isfinite(p) else math.inf
    if not low.S > budget:  # the plain minimum fits the budget (always at p = inf)
        return _moved_whole(w, low.y, low.g)
    stay = responses.fixed_g[:, 0]
    high = _Plan(math.inf, x, stay, np.zeros(n), np.zeros(n), float(w @ stay), 0.0)
    lower, at_lower, plan = -math.inf, 0.0, low
    cross = (high.V - low.V) / low.S  # where the value lines of the bracket plans cross
    widths = [math.inf] * 3  # the bracket's width in log lam after the last three steps
    for _ in range(_MULTIPLIER_STEPS):
        lam = math.nan
        # Newton on the log spend of the atoms at stationary points (the rest
        # spend a constant) in log lam: their spend falls as lam^(-slope)
        moving = plan.rate < 0.0
        fixed = float(w[~moving] @ plan.cost[~moving])
        spend, rate = float(w[moving] @ plan.cost[moving]), float(w[moving] @ plan.rate[moving])
        if 0.0 < plan.lam < math.inf and spend > 0.0 and budget > fixed:
            step = (math.log(spend) - math.log(budget - fixed)) * spend / (-plan.lam * rate)
            if abs(step) < _LOG_MAX:
                lam = plan.lam * math.exp(step)
        if not low.lam < lam < high.lam:
            lam = cross
        # the middle of the bracket where it is outside, or where the two
        # steps before did not halve the bracket
        if not low.lam < lam < high.lam or widths[-1] > 0.5 * widths[-3]:
            lam = math.sqrt(low.lam) * math.sqrt(high.lam) if low.lam > 0.0 else 0.5 * high.lam
        plan = responses.at(lam)
        dual = plan.V + lam * (plan.S - budget)
        if dual > lower:
            lower, at_lower = dual, lam
        if plan.S > budget:
            low = plan
        else:
            high = plan
        widths = widths[1:] + [math.log(high.lam / low.lam) if low.lam > 0.0 else math.inf]
        cross = (high.V - low.V) / (low.S - high.S)
        # the mix of the bracket plans is worth about the dual value at
        # either end, plus the distance from that end to the crossing times
        # the spend the end's plan misses the budget by (exactly so where
        # the plans differ on one atom)
        tol = 4.0 * n * _EPS * (1.0 + float(w @ np.abs(high.g)) + float(w @ np.abs(low.g))
                                + at_lower * budget)
        collapsed = high.lam - low.lam <= 4.0 * _EPS * low.lam
        if collapsed or min((high.lam - cross) * (budget - high.S),
                            (cross - low.lam) * (low.S - budget)) <= tol:
            value, points, masses, atoms = _mixed(x, w, p, budget, high, low, stay)
            if collapsed or value - lower <= tol:
                return value, lower, points, masses, atoms
    raise NumericalFailure("ball infimum's multiplier search did not settle")


def _moved_whole(w: np.ndarray, y: np.ndarray, g: np.ndarray
                 ) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """(U, L, points, masses, atoms) of the plan that moves each atom i whole
    to y_i, worth g_i there: U = L, summed in atom order."""
    value = 0.0
    for w_i, g_i in zip(w, g):
        value += w_i * g_i
    return value, value, y, w.copy(), np.arange(w.size)


def _mixed(x: np.ndarray, w: np.ndarray, p: float, budget: float, high: _Plan, low: _Plan,
           stay: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(value, points, masses, atoms) of the plans ``high`` (within the
    budget) and ``low`` mixed by the one-split rule, with any rounding
    overspend shed back to the atoms (``_shed``; g there is ``stay``)."""
    plans = (high, low)
    split, used = _split(w, high.cost, low.cost, high.y != low.y, budget)
    shed = _shed(split, lambda i, r: w[i] * abs(float(plans[r].y[i] - x[i])) ** p, used, budget)
    value = 0.0
    for i, r, m in split:
        value += w[i] * m * plans[r].g[i]
    fragments = [(plans[r].y[i], w[i] * m, i) for i, r, m in split]
    if shed is not None:
        k, share = shed
        i, r, m = split[k]
        value += w[i] * share * (stay[i] - plans[r].g[i])
        fragments[k] = (plans[r].y[i], w[i] * (m - share), i)
        fragments.append((x[i], w[i] * share, i))
    fragments = [f for f in fragments if f[1] > 0.0]
    return (value, np.array([f[0] for f in fragments]), np.array([f[1] for f in fragments]),
            np.array([f[2] for f in fragments]))
