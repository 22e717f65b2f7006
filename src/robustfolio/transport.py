"""The finite-p transport programs: the worst case of a sum of per-position
values over a Wasserstein ball of finite order p, for a discrete baseline in
d = 1, solved exactly by one dual multiplier.

Both programs are the infimum of E[f(Y)] over the laws within W_p distance
delta of sum_i w_i delta_(x_i) on the state space S: the inner infimum of
the utility, f(y) = u(pi y) (``_utility_infimum``, the finite-p oracle), and
the ball infimum of a payoff, f = g (``_ball_infimum``, the robust Davis
price at a zero robust strategy). Their Lagrangian dual (Gao & Kleywegt
2016), sup_lam sum_i w_i min_y [f(y) + lam |y - x_i|^p] - lam delta^p, is a
search over one multiplier (``_multiplier_search``), and each atom's best
response to a multiplier lies in a finite set of candidate points:

- the utility (``_Moves``): an atom moves t >= 0 against the position, to
  the edge of S at most, and H(t) = log(lam p t^(p-1)) - log(|pi| u'(pi x -
  |pi| t)), whose sign is that of the slope of its Lagrangian term, is
  concave in t for the catalog utilities. So the candidates are staying,
  the edge of S and the first root of H, found by Newton in log t from the
  left; capped_exponential takes them on each branch, and the kink;
- a payoff (``_Responses``): every catalog payoff is polynomial on pieces,
  so the candidates are the atom, its window's ends, the piece ends inside
  it and the stationary points of each piece.

The search brackets the binding multiplier between a plan that spends more
than the budget delta^p and one that spends at most it, and mixes them by
the one-split rule (``_split``, ``_shed``). It returns the value U of that
feasible plan and a dual value L <= inf <= U; their gap is rounding (the
tests bound it by 1e-14 (1 + |U|)). At p = inf a payoff's ball infimum is
each atom's window minimum and U = L. Both programs refuse an order whose
largest move costs more budgets than float range holds (``_check_range``).
One outer search calls the utility program at strategies ever closer
together, so an oracle memory (``_OracleMemory``) hands the last call's
multiplier to the next call as its first guess.

``robust_solver`` calls in here for the finite-p inner infimum and the ball
infima of a price, and loads this module on the first such call: a p = inf
solve never runs it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalFailure

_MULTIPLIER_STEPS = 500  # a multiplier search settles in a few dozen steps
_ROOT_STEPS = 200  # a root search settles in a few steps; past them the last step stands
_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(float(np.finfo(float).max))
_LOG_TINY = math.log(float(np.finfo(float).tiny))  # the smallest normal float


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


@dataclass(frozen=True)
class _Plan:
    """Every atom's best response to the multiplier lam: its point y, f(y),
    the cost |y - x|^p and the cost's rate d cost / d lam (0 unless y is a
    stationary point), with the weighted sums V of f and S of the cost."""

    lam: float
    y: np.ndarray
    g: np.ndarray
    cost: np.ndarray
    rate: np.ndarray
    V: float
    S: float


def _best(lam: float, w: np.ndarray, y: np.ndarray, g: np.ndarray, cost: np.ndarray,
          rate: np.ndarray) -> _Plan:
    """The plan that takes each atom's (row's) candidate of least
    g + lam * cost, ties going to the cheaper point; a missing candidate has
    g = inf."""
    h = g
    if lam > 0.0:
        with np.errstate(over="ignore"):  # a cost past float range in units of 1/lam
            h = g + lam * cost
    j = np.where(h == h.min(axis=1)[:, None], cost, np.inf).argmin(axis=1)
    i = np.arange(y.shape[0])
    plan_g, plan_cost = g[i, j], cost[i, j]
    return _Plan(lam, y[i, j], plan_g, plan_cost, rate[i, j], float(w @ plan_g),
                 float(w @ plan_cost))


@dataclass
class _OracleMemory:
    """The binding multiplier of the last oracle call of one outer search,
    the next call's first guess. ``robust_solve_p`` keeps one per solve and
    hands it to every oracle call it makes."""

    lam: float | None = None


# ---------------------------------------------------------------------------
# the inner infimum of a utility: stay, the edge of S, or the first root of H
# ---------------------------------------------------------------------------

class _Moves:
    """The best responses of the atoms x of an inner infimum of E[u(pi Y)]
    to a multiplier lam: each atom moves t in [0, T] against the position,
    to y = x - sign(pi) t with T its distance to the edge of S it moves
    toward, where its Lagrangian term f(t) = u(pi x - |pi| t) + lam t^p is
    least. f' has the sign of H(t) = log(lam p t^(p-1)) - log(|pi| u'(pi x -
    |pi| t)), which is concave for the catalog utilities (log u' is convex
    in wealth) and -inf at t = 0: f falls to the first root t1 of H, rises
    to the second and falls again, so its minimum on [0, T] is at t1 or T.

    H'(t) = (p - 1) / t - |pi| R(pi x - |pi| t), R = -u''/u', vanishes at a
    peak with no lam in it: (p - 1)(w0 + pi x) / (|pi| (p - 1 + c)) where
    R = c / (w + w0) (log_shifted, c = 1; power, c = eta), and
    (p - 1) / (gamma |pi|) where R = gamma (exponential). So t1 exists
    where H > 0 at the peak (or at T, if nearer), and Newton in s = log t
    climbs to it from the left: from the move t0 that solves H = 0 with u'
    frozen at the atom (no root lies below it), or from the atom's t1 at
    the multiplier tried before, whose first step lands left of the new
    root (G(s) = H(e^s) is concave, so its tangents lie above it). capped_exponential is linear below its
    kink: it takes t1 on its exponential branch, the kink, and the root of
    H on its linear branch, t = (|pi| u' / (lam p))^(1/(p-1)), where u' is
    constant. The atom itself stays a candidate, the only one at lam = inf.
    Values come from u at the points y (the edge of S is taken at the edge
    itself); a NaN raises NumericalFailure."""

    def __init__(self, x: np.ndarray, w: np.ndarray, edge: float, pi: float, p: float,
                 utility) -> None:
        self.x, self.w, self.p, self.u = x, w, p, utility
        self.pi, self.scale, self.sign = pi, abs(pi), math.copysign(1.0, pi)
        self.wealth = wealth = pi * x
        params, scale = utility.params, self.scale
        reach = np.abs(edge - x)  # T
        self.capped = utility.kind == "capped_exponential"
        if "gamma" in params:  # log u'(w) = log(gamma) - gamma max(w, kink)
            gamma, kink = params["gamma"], params.get("kink", -math.inf)
            self.log_u1 = lambda w: math.log(gamma) - gamma * np.maximum(w, kink)
            self.aversion = lambda w: gamma
            peak = np.full(x.size, (p - 1.0) / (gamma * scale))
        else:  # log u'(w) = -c log(w + w0)
            c, w0 = params.get("eta", 1.0), params["w0"]
            self.log_u1 = lambda w: -c * np.log(w + w0)
            self.aversion = lambda w: c / (w + w0)
            peak = (p - 1.0) * (w0 + wealth) / (scale * (p - 1.0 + c))
        self.log_marginal = math.log(scale) + self.log_u1(wealth)  # log(|pi| u'(pi x))
        # the concave stretch of H: [0, T], or [0, the kink] on a capped
        # exponential's branch above it
        to_kink = (wealth - params["kink"]) / scale if self.capped else reach
        top = np.minimum(np.minimum(peak, reach), np.maximum(to_kink, 0.0))
        with np.errstate(divide="ignore"):
            self.log_top = np.log(top)
        # t1 exists where H(top) > 0: where log lam exceeds this
        self.log_lam_root = (math.log(scale) + self.log_u1(wealth - scale * top)
                             - (p - 1.0) * self.log_top - math.log(p))
        self.roots = np.full(x.size, np.nan)  # the last t1 of each atom, as log t
        n = x.size
        points = [x, np.full(n, float(edge))]
        if self.capped:
            # the kink, where it lies strictly between the atom and the edge;
            # then the linear branch's stretch [max(kink, 0), T] and log |pi| u'
            points.append(np.where((0.0 < to_kink) & (to_kink < reach), params["kink"] / pi,
                                   np.nan))
            self.linear = (np.maximum(to_kink, 0.0), reach,
                           math.log(scale) + float(self.log_u1(params["kink"])))
        fixed = np.column_stack(points)
        shape = (n, fixed.shape[1] + (2 if self.capped else 1))  # and a column per root
        self.table = (np.full(shape, np.nan), np.full(shape, np.inf), np.zeros(shape),
                      np.zeros(shape))
        k = fixed.shape[1]
        self.table[0][:, :k] = fixed
        self.table[1][:, :k] = self._values(fixed)
        self.table[2][:, :k] = np.where(np.isnan(fixed), 0.0, np.abs(fixed - x[:, None]) ** p)
        self.stay = self.table[1][:, 0]

    def _values(self, y: np.ndarray) -> np.ndarray:
        """u(pi y) at the candidates y, +inf where y is NaN (no candidate)."""
        live = ~np.isnan(y)
        g = np.full(y.shape, np.inf)
        g[live] = self.u.u(self.pi * y[live])
        if np.isnan(g).any():
            raise NumericalFailure("objective is NaN at a candidate point of the inner infimum")
        return g

    def first_order(self, budget: float) -> float | None:
        """The binding multiplier with u' frozen at the atoms, a cold call's
        first guess: each atom then moves t0 = (|pi| u'(pi x) / (lam p))^(1/(p-1)),
        and the spend sum_i w_i t0^p = K lam^(-p/(p-1)) meets the budget at
        (K / budget)^((p-1)/p), K = sum_i w_i (|pi| u'(pi x_i) / p)^(p/(p-1)).
        None where that leaves float range."""
        p = self.p
        with np.errstate(divide="ignore"):  # an atom of weight 0
            terms = np.log(self.w) + p / (p - 1.0) * (self.log_marginal - math.log(p))
        top = float(np.max(terms))
        log_k = top + math.log(float(np.sum(np.exp(terms - top))))
        log_lam = (p - 1.0) / p * (log_k - math.log(budget))
        return math.exp(log_lam) if abs(log_lam) < _LOG_MAX else None

    def _first_roots(self, log_lam_p: float, rows: np.ndarray) -> np.ndarray:
        """t1 of the atoms ``rows``, each with a root below its ``log_top``:
        Newton on G(s) = H(e^s) from the last t1, else from the frozen-u'
        move t0. It stops once a step is within the rounding of G."""
        p, scale = self.p, self.scale
        wealth, top = self.wealth[rows], self.log_top[rows]
        base = log_lam_p - math.log(scale)
        s = self.roots[rows]
        s = np.where(np.isnan(s), np.minimum((self.log_marginal[rows] - log_lam_p) / (p - 1.0),
                                             top), s)
        live = np.ones(rows.size, dtype=bool)
        for _ in range(_ROOT_STEPS):
            t = np.exp(s)
            at = wealth - scale * t
            log_u1 = self.log_u1(at)
            G = base + (p - 1.0) * s - log_u1
            dG = (p - 1.0) - scale * t * self.aversion(at)
            step = G / -dG
            size = abs(base) + (p - 1.0) * np.abs(s) + np.abs(log_u1)
            live &= np.abs(step) > 4.0 * _EPS * (size / dG + np.abs(s))
            if not live.any():
                break
            s = np.where(live, np.minimum(s + step, top), s)
        self.roots[rows] = s
        return np.exp(s)

    def _fill(self, table: tuple, col: int, rows: np.ndarray, t: np.ndarray, lam: float) -> None:
        """Put the stationary moves t of the atoms ``rows`` into column col,
        with their cost's rate d cost / d lam = -(p t^(p-1))^2 / f''(t)."""
        p = self.p
        y = self.x[rows] - self.sign * t
        y = np.where(self.sign > 0.0, np.maximum(y, table[0][rows, 1]),
                     np.minimum(y, table[0][rows, 1]))  # no further than the edge
        t = np.abs(y - self.x[rows])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = p * t ** (p - 1.0)
            curve = self.pi ** 2 * self.u.u_double_prime(self.pi * y) + lam * (p - 1.0) * slope / t
            table[0][rows, col], table[2][rows, col] = y, t ** p
            table[3][rows, col] = -slope * (slope / curve)
        table[1][rows, col] = self._values(y)

    def at(self, lam: float) -> _Plan:
        """The plan of best responses to the multiplier lam >= 0."""
        table = tuple(a.copy() for a in self.table)
        if lam > 0.0:
            log_lam_p = math.log(lam) + math.log(self.p)
            root = 3 if self.capped else 2
            rows = np.flatnonzero(self.log_lam_root < math.log(lam))
            if rows.size:
                self._fill(table, root, rows, self._first_roots(log_lam_p, rows), lam)
            if self.capped:
                start, reach, log_marginal = self.linear
                t = math.exp(min((log_marginal - log_lam_p) / (self.p - 1.0), _LOG_MAX))
                rows = np.flatnonzero((start < t) & (t < reach))
                if rows.size:
                    self._fill(table, root + 1, rows, np.full(rows.size, t), lam)
        return _best(lam, self.w, *table)


def _utility_infimum(x: np.ndarray, w: np.ndarray, edge: float, pi: float, p: float,
                     delta: float, utility, memory: _OracleMemory | None = None
                     ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """inf of E[u(pi Y)] over the laws within W_p distance delta > 0 of
    sum_i w_i delta_(x_i), each atom moving against the position (down for
    pi > 0, up for pi < 0) to the edge of S at most: the dual search
    (``_multiplier_search``) over the best responses of ``_Moves``. Returns
    (value, points, masses, atoms): the value U of the returned plan, whose
    fragments sit at ``points`` with mass w_i times the share of atom
    ``atoms`` they carry and cost at most delta^p.

    The search starts from ``memory``'s multiplier (the last call's, in one
    outer search over pi on one x, w, p and delta; direct callers pass
    none), else from the first-order one (``_Moves.first_order``). A start
    only finds the same binding multiplier sooner: the plan it returns is
    optimal to the rounding of the dual, and which of two plans tied at
    that rounding it returns can hang on the start."""
    _check_range(float(np.max(np.abs(edge - x))), p, delta)
    budget = delta ** p
    moves = _Moves(x, w, edge, pi, p, utility)
    seed = memory.lam if memory is not None and memory.lam else moves.first_order(budget)
    value, _, points, masses, atoms, lam = _multiplier_search(moves, budget, seed)
    if memory is not None:
        memory.lam = lam or None
    return value, points, masses, atoms


# ---------------------------------------------------------------------------
# the ball infimum of a payoff: candidate points on polynomial pieces
# ---------------------------------------------------------------------------

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
    the payoff's own ``value`` (``_values``)."""

    def __init__(self, x: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 p: float, payoff) -> None:
        if not payoff.pieces:
            raise ConfigError(f"the {payoff.kind} payoff declares no polynomial pieces, "
                              f"which its ball infimum needs")
        self.x, self.w, self.p, self.payoff = x, w, p, payoff
        self.edges = (float(np.min(lo)), float(np.max(hi)))
        ends, a, b, at, coef, deg = _piece_table(payoff.pieces)
        inner = np.where((ends > lo[:, None]) & (ends < hi[:, None]), ends, np.nan)
        self.fixed = np.concatenate([x[:, None], lo[:, None], hi[:, None], inner], axis=1)
        self.fixed_g = self._values(self.fixed)
        self.stay = self.fixed_g[:, 0]
        self.fixed_cost = np.where(np.isnan(self.fixed), 0.0, np.abs(self.fixed - x[:, None]) ** p)
        # (atom, piece) pairs where a piece of degree >= 1 meets a window
        lo_k, hi_k = np.maximum(a, lo[:, None]), np.minimum(b, hi[:, None])
        atom, piece = np.nonzero((lo_k < hi_k) & (deg > 0))
        self.pairs = (atom, lo_k[atom, piece], hi_k[atom, piece], at[piece], coef[piece],
                      deg[piece])
        self._layouts: dict[bool, tuple] = {}

    def _values(self, y: np.ndarray) -> np.ndarray:
        """g at the candidates y, +inf where y is NaN (no candidate). A NaN
        raises NumericalFailure; a value past float range (a power payoff at
        a far edge of S), taken with the overflow quiet, raises ConfigError:
        the search would weigh infinities."""
        live = ~np.isnan(y)
        g = np.full(y.shape, np.inf)
        with np.errstate(over="ignore"):
            g[live] = self.payoff(y[live])
        if np.isnan(g).any():
            raise NumericalFailure("payoff is NaN at a candidate point of its ball infimum")
        past = np.isinf(g) & live
        if past.any():
            raise ConfigError(
                f"the {self.payoff.kind} payoff is {g[past][0]} at {float(y[past][0])!r}, "
                f"in the ball on the state space [{self.edges[0]!r}, {self.edges[1]!r}]: its "
                f"ball infimum needs the payoff inside float range there; narrow the state space")
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
        return _best(lam, self.w, y, g, cost, rate)


# ---------------------------------------------------------------------------
# one multiplier: the search both programs share
# ---------------------------------------------------------------------------

def _multiplier_search(responses, budget: float, seed: float | None = None
                       ) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray, float]:
    """The Lagrangian dual sup_lam sum_i w_i min_y [f(y) + lam |y - x_i|^p]
    - lam budget of the program whose atoms x, weights w, order p, values f
    at the atoms (``stay``) and best responses to a multiplier (``at``)
    ``responses`` holds (``_Moves``, ``_Responses``). Returns (U, L, points,
    masses, atoms, lam): U is the value of the returned plan, whose fragments
    sit at ``points`` with mass w_i times the share of atom ``atoms`` they
    carry and cost at most the budget; L is a dual value, a lower bound, so
    the infimum lies in [L, U]; lam is the multiplier of the best dual
    value (0 where the plain minimum fits the budget).

    Unless the plain minimum (lam = 0) fits the budget, it brackets the
    binding multiplier between a plan that spends more than the budget
    (from lam = 0) and one that spends at most it (from lam = inf, where
    every atom stays). The first step tries ``seed``, where given. Each
    step is Newton on log(spend) in log(lam) for the atoms at stationary
    points, the others' spend held fixed, exact where those sit on linear
    pieces (there their spend is proportional to lam^(-p/(p-1))); or else,
    where the bracket plans differ by a jump of a best response, the
    multiplier where their value lines cross (a Newton step on their
    indifference, whose derivative is their cost difference by the envelope
    theorem); or else, and wherever the two steps before did not halve the
    bracket in log(lam), its middle in log(lam). The two bracket plans are
    mixed by the one-split rule (``_split``): that plan's value is U. L is
    the largest dual value at the multipliers tried. The search stops once
    U - L is within the rounding of the sums, or the bracket is a few ulps
    wide."""
    x, w, n = responses.x, responses.w, responses.x.size
    low = responses.at(0.0)
    if not low.S > budget:  # the plain minimum fits the budget (always at p = inf)
        return (*_moved_whole(w, low.y, low.g), 0.0)
    stay = responses.stay
    high = _Plan(math.inf, x, stay, np.zeros(n), np.zeros(n), float(w @ stay), 0.0)
    lower, at_lower, plan = -math.inf, 0.0, low
    cross = (high.V - low.V) / low.S  # where the value lines of the bracket plans cross
    widths = [math.inf] * 3  # the bracket's width in log lam after the last three steps
    for _ in range(_MULTIPLIER_STEPS):
        lam, seed = seed or math.nan, None  # a seed is the first step
        # Newton on the log spend of the atoms at stationary points (the rest
        # spend a constant) in log lam: their spend falls as lam^(-slope)
        moving = plan.rate < 0.0
        fixed = float(w[~moving] @ plan.cost[~moving])
        spend, rate = float(w[moving] @ plan.cost[moving]), float(w[moving] @ plan.rate[moving])
        fall = -plan.lam * rate  # -d spend / d log lam; 0 where tiny rates underflow
        if math.isnan(lam) and 0.0 < plan.lam < math.inf and spend > 0.0 < fall and budget > fixed:
            step = (math.log(spend) - math.log(budget - fixed)) * spend / fall
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
        # the plans differ on one atom); tol is the rounding of the sums,
        # which grows as sqrt(n) eps over n terms
        tol = 4.0 * math.sqrt(n) * _EPS * (1.0 + float(w @ np.abs(high.g))
                                           + float(w @ np.abs(low.g)) + at_lower * budget)
        collapsed = high.lam - low.lam <= 4.0 * _EPS * low.lam
        if collapsed or min((high.lam - cross) * (budget - high.S),
                            (cross - low.lam) * (low.S - budget)) <= tol:
            value, points, masses, atoms = _mixed(x, w, responses.p, budget, high, low, stay)
            if collapsed or value - lower <= tol:
                return value, lower, points, masses, atoms, at_lower
    raise NumericalFailure("multiplier search did not settle")


def _ball_infimum(x: np.ndarray, w: np.ndarray, edges: tuple[float, float], p: float,
                  delta: float, payoff) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """inf of E[g] over the laws within W_p distance delta of
    sum_i w_i delta_(x_i) on the state space [edges[0], edges[1]], for a
    payoff g of polynomial pieces (``Payoff.pieces``). Returns (U, L,
    points, masses, atoms) as ``_multiplier_search`` does, over the best
    responses of ``_Responses``.

    p = inf: each atom moves alone within its window [x - delta, x + delta]
    in S, to its window minimum over the candidate points (``_Responses``
    at lam = 0); U = L. A radius of 0 leaves every atom where it is."""
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
    budget = delta ** p if math.isfinite(p) else math.inf
    return _multiplier_search(responses, budget)[:5]


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
    overspend shed back to the atoms (``_shed``; f there is ``stay``)."""
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
