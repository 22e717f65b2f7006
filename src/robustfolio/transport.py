"""The finite-p transport program: the worst case of a sum of per-position
values over a Wasserstein ball of finite order p, for a discrete baseline in
d = 1.

The program is exact and finite-dimensional: transport plans that split each
atom into at most two fragments. On a displacement grid per atom it is a
linear program under the one budget delta^p, whose Lagrangian dual
(Gao & Kleywegt 2016) is a search over one multiplier
(``_multiplier_plans``); refinement passes around the active displacements
shrink the grid's error, which stays of the order of the squared cell
width, not of rounding: the grid value is a feasible plan's, so it lies
above the exact infimum (by up to 5.1e-13, relative 6.3e-12, on a binomial
at a = 0.25, p = 2 and delta = 0.1, where the exact plan moves an atom to a
point between two refined cells 1.6e-6 apart). One outer search calls the
program at strategies ever closer together, so an oracle memory
(``_OracleMemory``) carries the last call's passes to the next call.
``_transport_minimize`` states the program, its exactness, its float range
and the memory's rules.

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


def _planned(w: np.ndarray, grids: list[np.ndarray], disp: np.ndarray, cost: np.ndarray,
             p: float, budget: float, lam: float, j_hi: np.ndarray, j_lo: np.ndarray) -> _Pass:
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
    return _Pass(grids, disp, cost, lam, (j_hi, j_lo), fragments, shed, active)


@dataclass
class _OracleMemory:
    """The passes of the last oracle call of one outer search, on the
    displacement bounds ``bounds``. ``robust_solve_p`` keeps one per solve
    and hands it to every oracle call it makes."""

    bounds: tuple[np.ndarray, np.ndarray] | None = None
    passes: list[_Pass] = dataclasses.field(default_factory=list)


def _transport_minimize(x: np.ndarray, w: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray,
                        p: float, delta: float, f: Callable[[np.ndarray], np.ndarray],
                        kinks: tuple[float, ...] = (), memory: _OracleMemory | None = None
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
    sort (``_merged``). A pass lays each grid out as a row in cost order
    (``_cost_order``): an inner infimum's grids lie on one side of 0, so a
    row is its grid or that grid reversed.

    Range: the multiplier search weighs every cell's cost against the
    budget, so a radius delta > 0 needs the largest displacement D's cost in
    budgets, (D / delta)^p, inside float range. Past it (high orders: p >
    ln(float max) / ln(D / delta)) the program is refused with ConfigError,
    where it would overflow and, once delta^p leaves the normal floats, find
    no multiplier; p = inf solves such balls exactly. A radius of 0 leaves
    every atom where it is, with the value the search would sum on that plan:
    its budget 0 would otherwise meet cells whose cost |s|^p underflows to 0
    (high orders), moves the search takes as free.

    Memory: ``memory`` (an outer search's, with f = u(pi y) over strategies
    pi on one x, w, p and delta; ball infima and direct callers pass none)
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
    n = x.shape[0]
    if delta == 0.0:
        stay = f(x.copy())
        if np.isnan(stay).any():
            raise NumericalFailure("objective is NaN on a displacement grid")
        value = 0.0
        for w_i, f_i in zip(w, stay):
            value += w_i * f_i
        return value, x + 0.0, w.copy(), np.arange(n)
    budget = delta ** p
    # kink_at[i]: the kink at each kink displacement of atom i
    kink_at = [{k - x[i]: k for k in kinks if s_lo[i] <= k - x[i] <= s_hi[i]} for i in range(n)]
    last: list[_Pass] = []  # the last call's passes, on this call's base grids
    if (memory is not None and memory.bounds is not None
            and np.array_equal(memory.bounds[0], s_lo) and np.array_equal(memory.bounds[1], s_hi)):
        last = memory.passes
    else:
        grids = []
        for i, at in enumerate(kink_at):
            grid = _displacement_grid(float(s_lo[i]), float(s_hi[i]), _GRID_POINTS)
            grids.append(np.unique(np.concatenate([grid, list(at)])) if at else grid)
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
            s = disp[i, :g.size]
            y = x[i] + s
            for d, k in kink_at[i].items():
                y[s == d] = k
            val[i, :g.size] = f(y)
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
    return (value, np.array([kink_at[i].get(step.disp[i, j], x[i] + step.disp[i, j])
                             for i, j, _ in kept]),
            np.array([w[i] * m for i, _, m in kept]), np.array([i for i, _, _ in kept]))
