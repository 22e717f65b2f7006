"""Baseline expected-utility problem: solve, price, cross-check.

Purpose
-------
Solves the one-period problem

    V(0) = sup_{pi in A} E_P[u(<X, pi>)]

for a discrete model P, produces the subjective pricing measure

    dQ_u/dP = u'(<X, pi*>) / E_P[u'(<X, pi*>)]

(under which X is a martingale whenever pi* is an interior optimizer, by the
first-order condition E_P[X u'(<X, pi*>)] = 0), and computes the marginal
utility (Davis) price of an option g two independent ways:

* directly as p_d = E_{Q_u}[g(X)],
* as the root of p_d |-> d/d-eps V(eps, p_d) at eps = 0, where

      V(eps, p_d) = sup_pi E_P[u(-eps + <X, pi> + (eps/p_d) g(X))]

  and the eps-derivative is a central finite difference with a full inner
  re-optimization of pi at each eps. The two routes are kept strictly
  separate: the root-finding path never reuses the envelope formula.

Solver: the objective is strictly concave and both derivatives are exact atom
sums, so d=1 uses a bracketing root find on the gradient with Newton polish,
and d>1 uses damped projected Newton with a line search that keeps wealth
inside the utility domain. Both 1-d root finds (the gradient root here and
the Davis price root) use the in-tree Brent root finder (``_brent``); an
infinite end of the interval first gives way to steps that double from 0
until the gradient turns (``_bracket_from``). The d=1 solve is a generator
(``_max_steps``) that yields each point whose gradient or curvature it
needs and receives that value back, so it runs one problem alone
(``_concave_max_raw``) or many in lockstep (``_concave_max_lanes``, behind
``solve_baselines`` and ``solve_with_endowments``): the problems of a model
family that share one Utility object pay one u' (or u'') call per solver
round, on their stacked wealths, and each lane sums its own row of them
(``_Lane.answer``), so every answer has the bits of its solve alone.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, Iterator, Sequence

import numpy as np

from ._brent import brent_steps, brentq, run
from .errors import (ArbitrageError, BoundaryOptimumError, ConfigError,
                     DomainCompatibilityError, NumericalFailure, catalog_member)
from .measures import DiscreteMeasure, StateSpace, WassersteinOrder, live_values, no_arbitrage_check
from .utility import Utility

# |pi*| at or below this routes to the pi*=0 branches of the sensitivity and
# robust-pricing formulas.
PI_ZERO_THRESHOLD = 1e-10

# Minimal wealth clearance from the utility-domain boundary.
_DOMAIN_MARGIN = 1e-9

_BOUNDARY_TOL = 1e-12

# Brent's tolerances in the 1-d solve: it stops with the root within
# _ROOT_XTOL + _ROOT_RTOL |pi| of its point pi.
_ROOT_XTOL, _ROOT_RTOL = 1e-15, 8.882e-16

# Projected Newton (d > 1) stops once the projected gradient is this small,
# and accepts a step that lowers the objective by at most this many ulps (a
# final step can trade the last ulp of f for the last digits of the gradient).
_NEWTON_TOL = 1e-12
_NEWTON_STEP_ULPS = 4.0
_NEWTON_MAX_ITERATIONS = 200

# Step of the central eps-difference in the root-finding Davis price.
_DAVIS_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Payoff:
    """Option payoff g with gradient, d=1.

    Kinked catalog members (call, butterfly, abs_shift) are quadratically
    rounded on [kink - s, kink + s]; outside those bands the smoothed and raw
    payoffs coincide, so the smoothing is inert whenever no atom falls within
    s of a kink. A table (custom) payoff's nodes are its kinks.
    """

    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    kinks: tuple[float, ...] = ()
    smoothing: float = 0.0
    params: dict = field(default_factory=dict)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value(x)


def power_payoff(k: int) -> Payoff:
    k = int(k)
    if k < 1:
        raise ConfigError(f"power payoff needs integer exponent k >= 1, got {k}")
    return Payoff(
        kind="power",
        value=lambda x: np.asarray(x, dtype=float) ** k,
        grad=lambda x: k * np.asarray(x, dtype=float) ** (k - 1),
        params={"k": k},
    )


def _in_band(out, y, s: float, formula: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``out`` with formula(y) on the entries where |y| <= s, evaluated on
    those entries only: far from a narrow band the formula's quotient by s
    would overflow."""
    out = np.asarray(out)
    band = np.abs(y) <= s
    out[band] = formula(np.asarray(y)[band])
    return out


def _smoothed_call(strike: float, s: float):
    """(x - strike)^+ with a C^1 quadratic cap on [strike - s, strike + s]."""

    def value(x):
        y = np.asarray(x, dtype=float) - strike
        return _in_band(np.maximum(y, 0.0), y, s, lambda y: (y + s) ** 2 / (4.0 * s))

    def grad(x):
        y = np.asarray(x, dtype=float) - strike
        return _in_band(np.where(y > 0.0, 1.0, 0.0), y, s, lambda y: (y + s) / (2.0 * s))

    return value, grad


def call_payoff(strike: float = 0.0, smoothing: float = 1e-4) -> Payoff:
    if smoothing <= 0.0:
        raise ConfigError("smoothing width must be positive")
    v, g = _smoothed_call(strike, smoothing)
    return Payoff(kind="call", value=v, grad=g, kinks=(float(strike),),
                  smoothing=smoothing, params={"strike": float(strike)})


def butterfly_payoff(K: float, smoothing: float = 1e-4) -> Payoff:
    """(x+K)^+ - 2 x^+ + (x-K)^+  — the tent (K - |x|)^+, three smoothed kinks."""
    if K <= 0.0:
        raise ConfigError(f"butterfly needs K > 0, got {K}")
    if smoothing <= 0.0:
        raise ConfigError("smoothing width must be positive")
    v1, g1 = _smoothed_call(-K, smoothing)
    v2, g2 = _smoothed_call(0.0, smoothing)
    v3, g3 = _smoothed_call(K, smoothing)
    return Payoff(
        kind="butterfly",
        value=lambda x: v1(x) - 2.0 * v2(x) + v3(x),
        grad=lambda x: g1(x) - 2.0 * g2(x) + g3(x),
        kinks=(-float(K), 0.0, float(K)),
        smoothing=smoothing,
        params={"K": float(K)},
    )


def abs_shift_payoff(x0: float, smoothing: float = 1e-4) -> Payoff:
    """|x + x0| with a quadratic rounding of the kink at -x0."""
    if smoothing <= 0.0:
        raise ConfigError("smoothing width must be positive")
    s = smoothing

    def value(x):
        y = np.asarray(x, dtype=float) + x0
        return _in_band(np.abs(y), y, s, lambda y: (y * y + s * s) / (2.0 * s))

    def grad(x):
        y = np.asarray(x, dtype=float) + x0
        return _in_band(np.sign(y), y, s, lambda y: y / s)

    return Payoff(kind="abs_shift", value=value, grad=grad, kinks=(-float(x0),),
                  smoothing=s, params={"x0": float(x0)})


def custom_payoff(xs, ys) -> Payoff:
    """Tabulated payoff: linear interpolation for g, central differences on the
    table grid for the gradient (interpolated between nodes)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ConfigError("custom payoff needs matching 1-d x/y tables with >= 2 nodes")
    if np.any(np.diff(xs) <= 0.0):
        raise ConfigError("custom payoff x-table must be strictly increasing")
    dy = np.gradient(ys, xs)  # central differences, one-sided at the ends
    return Payoff(
        kind="custom",
        value=lambda x: np.interp(np.asarray(x, dtype=float), xs, ys),
        grad=lambda x: np.interp(np.asarray(x, dtype=float), xs, dy),
        kinks=tuple(xs.tolist()),
        params={"n_nodes": int(xs.size)},
    )


_PAYOFF_BUILDERS: dict[str, Callable[..., Payoff]] = {
    "power": power_payoff,
    "call": call_payoff,
    "butterfly": butterfly_payoff,
    "abs_shift": abs_shift_payoff,
    "custom": custom_payoff,
}


def make_payoff(descriptor: dict) -> Payoff:
    return catalog_member(_PAYOFF_BUILDERS, descriptor, "payoff")


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Model + utility + action box A + state space S + transport order (+ payoff).

    Construction verifies no-arbitrage and that wealth stays inside the
    utility domain with positive margin for actions in A evaluated on the
    atoms of P (the compatibility condition the closed-form solver relies
    on). Robust searches additionally require compatibility over the whole
    state space; that stricter check lives in the robust solver.
    """

    model: DiscreteMeasure
    utility: Utility
    action_space: StateSpace
    order: WassersteinOrder = field(default_factory=lambda: WassersteinOrder(math.inf))
    payoff: Payoff | None = None
    state_space: StateSpace | None = None

    def __post_init__(self) -> None:
        if self.action_space.dim != self.model.dim:
            raise ConfigError("action-space dimension does not match the model")
        # the model checked its atoms against its own state space, and every
        # (finite) atom lies in the unbounded one
        space = self.state_space if self.state_space is not None else self.model.state_space
        if space is None:
            space = StateSpace.unbounded(self.model.dim)
        elif space is not self.model.state_space and not space.contains(self.model.points):
            raise ConfigError("model atoms outside the declared state space")
        object.__setattr__(self, "state_space", space)
        if not no_arbitrage_check(self.model):
            raise ArbitrageError("baseline model admits arbitrage "
                                 "(some nonzero strategy never gains)")
        if self.model.dim == 1:
            lo, hi = _feasible_interval_raw(self.model.support_1d, 0.0, self.utility,
                                            self.action_space.lower[0],
                                            self.action_space.upper[0])
            if not lo < hi:
                raise DomainCompatibilityError(
                    "no strategy in A keeps wealth inside the utility domain")

    @property
    def dim(self) -> int:
        return self.model.dim

    def with_order(self, order: WassersteinOrder) -> ProblemSpec:
        """This problem under another transport order. None of the checks
        of construction reads the order, so none runs again."""
        spec = copy.copy(self)
        object.__setattr__(spec, "order", order)
        return spec


@np.errstate(over="ignore")  # a decorator builds no errstate object per call
def _quotients(floor, ceil, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor / x and ceil / x. A subnormal atom's quotient may overflow to
    +-inf without the warning: that is its limit, and it never binds."""
    return floor / x, ceil / x


def _feasible_interval_raw(x: np.ndarray, endowment, utility: Utility,
                           a_lo: float, a_hi: float) -> tuple[float, float]:
    """Maximal sub-interval of [a_lo, a_hi] on which every wealth pi*x_i + e_i
    sits in the utility domain with margin: an intersection of per-atom
    half-lines. An atom at 0 empties it unless its endowment alone clears the margin; every other atom
    bounds pi by its quotients (d_lo + margin - e_i) / x_i and
    (d_hi - margin - e_i) / x_i, the smaller from below and the larger from
    above (an infinite domain end gives a quotient of +-inf, which never binds)."""
    d_lo, d_hi = utility.domain
    if d_lo == -math.inf and d_hi == math.inf and x.all():
        return a_lo, a_hi  # every quotient is +-inf (or NaN), which never binds
    e = endowment  # a scalar, or one value per atom
    if not x.all():
        e = np.zeros(x.shape[0]) + endowment
        still = x == 0.0
        if not ((d_lo + _DOMAIN_MARGIN <= e[still]) & (e[still] <= d_hi - _DOMAIN_MARGIN)).all():
            return 1.0, 0.0  # empty
        x, e = x[~still], e[~still]
    q_floor, q_ceil = _quotients(d_lo + _DOMAIN_MARGIN - e, d_hi - _DOMAIN_MARGIN - e, x)
    lo = max(a_lo, float(np.minimum(q_floor, q_ceil).max(initial=-math.inf)))
    hi = min(a_hi, float(np.maximum(q_floor, q_ceil).min(initial=math.inf)))
    return lo, hi


@dataclass(frozen=True)
class BaselineSolution:
    """Optimal strategy with diagnostics.

    ``hessian`` is E_P[X X^T u''(<X, pi*>)]. The pricing measure Q_u is not
    part of the solution: ``q_u_measure`` builds it from ``pi_star``.
    """

    pi_star: np.ndarray
    V0: float
    foc_residual: np.ndarray
    hessian: np.ndarray
    boundary: bool

    @property
    def pi_star_scalar(self) -> float:
        if self.pi_star.size != 1:
            raise ConfigError("scalar strategy requested on a d>1 solution")
        return float(self.pi_star[0])

    @property
    def pi_is_zero(self) -> bool:
        return bool(np.linalg.norm(self.pi_star) <= PI_ZERO_THRESHOLD)


def _wealth(spec: ProblemSpec, pi: np.ndarray, endowment: np.ndarray | float = 0.0) -> np.ndarray:
    return spec.model.points @ np.atleast_1d(pi) + endowment


def _objective(spec: ProblemSpec, pi: np.ndarray, endowment=0.0) -> float:
    w = _wealth(spec, pi, endowment)
    if not spec.utility.contains(w):
        return -math.inf
    return spec.model.expectation(spec.utility.u(w))


def _gradient(spec: ProblemSpec, pi: np.ndarray, endowment=0.0) -> np.ndarray:
    w = _wealth(spec, pi, endowment)
    weights = spec.model.weights
    return (weights * live_values(weights, spec.utility.u_prime(w))) @ spec.model.points


def _hessian(spec: ProblemSpec, pi: np.ndarray, endowment=0.0) -> np.ndarray:
    w = _wealth(spec, pi, endowment)
    weighted = spec.model.weights * live_values(spec.model.weights,
                                                spec.utility.u_double_prime(w))
    return (weighted[:, None] * spec.model.points).T @ spec.model.points


def _bracket_from(start: float, step: float, lo: float, hi: float
                  ) -> Generator[float, float, tuple[float, float]]:
    """A part of [lo, hi] that holds the maximizer of a concave function,
    from a ``start`` in [lo, hi]: steps go the way the gradient points
    there, to start +- step, +- 2 step, +- 4 step, ..., until the gradient
    at one points back (or is 0); the part runs from the point before it to
    it, or to the end of [lo, hi] once a step reaches that end. Toward an
    infinite end the steps double until one turns or leaves float range."""
    g = yield start
    if g == 0.0:
        return start, start
    sign, end = (1.0, hi) if g > 0.0 else (-1.0, lo)
    near = start
    while (t := start + sign * step) * sign < end * sign:
        if (yield t) * sign <= 0.0:
            end = t
            break
        near, step = t, 2.0 * step
    return (near, end) if sign > 0.0 else (end, near)


def _argmax_steps(lo: float, hi: float,
                  stop: Callable[[float, float, float], bool] | None = None,
                  start: float | None = None, step: float = math.inf
                  ) -> Generator[float, float, tuple[float, bool]]:
    """Maximizer on [lo, hi] of a concave function from its nonincreasing
    (super)gradient, asked at the points this yields: an end where the
    gradient's sign pins it (flagged True), else the gradient's root,
    bracketed to ~1e-15 or until ``stop`` (as ``brent_steps`` takes it)
    holds. A ``start`` next to the maximizer narrows [lo, hi] first
    (``_bracket_from``, with steps from ``step``). So does an infinite end,
    from ``start`` or else from 0 clipped into [lo, hi], with steps from 1
    unless ``step`` is finite; a bracket still infinite after that is
    refused. The end tests and Brent ask for the same points, so a costly
    gradient should remember its values."""
    if math.isinf(lo) or math.isinf(hi):
        start = min(max(0.0, lo), hi) if start is None else start
        step = 1.0 if math.isinf(step) else step
    if start is not None:
        lo, hi = yield from _bracket_from(start, step, lo, hi)
        if lo == hi:
            return lo, (yield lo) != 0.0
        if math.isinf(lo) or math.isinf(hi):
            raise NumericalFailure("the gradient keeps its sign to the end of float range: "
                                   "no finite maximizer")
    if (yield lo) <= 0.0:
        return lo, True
    if (yield hi) >= 0.0:
        return hi, True
    return (yield from brent_steps(lo, hi, _ROOT_XTOL, _ROOT_RTOL, 200, stop)), False


def _concave_argmax(grad: Callable[[float], float], lo: float, hi: float,
                    stop: Callable[[float, float, float], bool] | None = None,
                    start: float | None = None, step: float = math.inf
                    ) -> tuple[float, bool]:
    """``_argmax_steps`` on the gradient ``grad``, one point at a time."""
    return run(_argmax_steps(lo, hi, stop, start, step), grad)


def _max_steps(lo: float, hi: float, a_lo: float, a_hi: float, polish: bool = True
               ) -> Generator[float | tuple[float], float, tuple[float, bool]]:
    """(maximizer, on A's boundary) on [lo, hi] of a lane's concave sum: the
    gradient's root (``_argmax_steps``) or the end its sign pins, then, if
    ``polish``, two Newton steps. It yields a point pi to ask for the
    gradient there and the 1-tuple (pi,) to ask for the curvature there."""
    pi, pinned = yield from _argmax_steps(lo, hi)
    if pinned:  # maximizer at an end (A-bound or domain-bound)
        return pi, True
    # Newton polish — the bracketing solve already gives ~1e-15, two damped
    # Newton steps push the residual to rounding level. A step that leaves
    # Brent's bracket (a curvature far from the one between pi and the root)
    # or lands on no number keeps the point before it.
    root, reach = pi, _ROOT_XTOL + _ROOT_RTOL * abs(pi)
    for _ in range(2 if polish else 0):
        h = yield (pi,)
        if not h < 0.0:
            break
        step = pi - (yield pi) / h
        if not abs(step - root) <= reach:
            break
        pi = min(max(step, lo), hi)
    boundary = (abs(pi - a_lo) <= _BOUNDARY_TOL) or (abs(pi - a_hi) <= _BOUNDARY_TOL)
    return pi, boundary


class _Lane:
    """One concave maximization of sum_i w_i u(pi x_i + e_i) over [a_lo, a_hi]
    intersected with the domain-feasible interval, on raw arrays: its atoms
    and its steps (``_max_steps``), which ask for the gradient
    E[X u'(pi X + e)] at a point pi and for the curvature
    E[X^2 u''(pi X + e)] at a 1-tuple (pi,). ``memo`` keeps the answers,
    since the end tests, Brent and the polish share points. A lane of zero
    endowment keeps ``e`` None and evaluates at the wealths pi x_i alone:
    adding 0.0 would only turn a wealth of -0.0 into 0.0, where u' and u''
    of every catalog member agree.

    The gradient is nonincreasing in pi (strictly decreasing off the linear
    branch of the capped utility), so its root — or the sign of the
    gradient at the interval ends — pins the maximizer.
    """

    __slots__ = ("utility", "x", "xx", "w", "e", "steps", "memo")

    def __init__(self, x: np.ndarray, w: np.ndarray, utility: Utility,
                 a_lo: float, a_hi: float, endowment=0.0) -> None:
        lo, hi = _feasible_interval_raw(x, endowment, utility, a_lo, a_hi)
        if not lo < hi:
            raise DomainCompatibilityError("empty feasible strategy interval")
        e = (None if isinstance(endowment, float) and endowment == 0.0
             else np.zeros(x.shape[0]) + endowment)
        if not w.all():  # an atom of no weight bounds the domain, not the sums (0 * inf)
            x, w, e = x[w > 0.0], w[w > 0.0], None if e is None else e[w > 0.0]
        self.utility, self.x, self.xx, self.w, self.e = utility, x, x * x, w, e
        # an atom's square past float range is inf and leaves the curvature
        # no number: no polish
        self.steps = _max_steps(lo, hi, a_lo, a_hi, self.xx.max(initial=0.0) < math.inf)
        self.memo: dict[float | tuple[float], float] = {}

    def answer(self, request: float | tuple[float], weighted: np.ndarray | None = None) -> float:
        """The answer to ``request``: the atom sum of ``weighted``, the row
        w_i u'(pi x_i + e_i) (w_i u''(...) for a curvature) that a lockstep
        round evaluated for this lane, or else that row evaluated here."""
        if request not in self.memo:
            curvature = isinstance(request, tuple)
            if weighted is None:
                pi = request[0] if curvature else request
                wealth = pi * self.x if self.e is None else pi * self.x + self.e
                derivative = self.utility.u_double_prime if curvature else self.utility.u_prime
                weighted = self.w * derivative(wealth)
            self.memo[request] = float(weighted.dot(self.xx if curvature else self.x))
        return self.memo[request]


@np.errstate(over="ignore")  # a decorator builds no errstate object per call
def _concave_max_raw(x: np.ndarray, w: np.ndarray, utility: Utility,
                     a_lo: float, a_hi: float, endowment=0.0) -> tuple[float, bool]:
    """(maximizer, on A's boundary) of sum_i w_i u(pi x_i + e_i) over
    [a_lo, a_hi] intersected with the domain-feasible interval (``_Lane``),
    solved on its own. Overflow is quiet in the solve, as in the lockstep
    rounds (``_lockstep``): a wealth, u', u'' or atom sum past float range
    (an atom near float max, or a u' near it) is +-inf, whose sign the
    solve reads."""
    lane = _Lane(x, w, utility, a_lo, a_hi, endowment)
    return run(lane.steps, lane.answer)


def _until_error(make: Callable, items: Iterable) -> tuple[list, Exception | None]:
    """make(item) for the items in order up to the first failure, and that
    error, which the caller raises once it is done with the items before
    it, where a loop over the items would have raised it."""
    made = []
    try:
        for item in items:
            made.append(make(item))
    except Exception as exc:
        return made, exc
    return made, None


def _padded(rows: list[np.ndarray]) -> np.ndarray:
    """The rows stacked, each padded to the longest with its first entry."""
    out = np.empty((len(rows), max(row.size for row in rows)))
    for i, row in enumerate(rows):
        out[i, :row.size], out[i, row.size:] = row, row[0]
    return out


def _concave_max_lanes(problems: Iterable[tuple]) -> Iterator[tuple[float, bool]]:
    """``_concave_max_raw(*problem)`` of each problem, in order and with the
    same bits, solved in lockstep. The lanes that share a Utility object,
    and either all have an endowment or none has, form a block; each round
    evaluates u' (or u'') once per block, on the stacked (lanes x atoms)
    wealths at each lane's latest point, weights them, and hands each lane
    that asked its row, which ``_Lane.answer`` sums as it sums its own
    (same operands, same order). A row is padded with the lane's first
    atom, weight and endowment, so every wealth evaluated is one its lane
    asks for; a block without endowments stacks none. A lane that shares
    its block with no other, or is the only one to ask in a round, is asked
    alone. An error raises where a loop of ``_concave_max_raw`` would raise
    it: at the first failing lane in the order of ``problems``, after the
    answers of the lanes before it."""
    results, failure = _lockstep(problems)
    yield from results
    if failure is not None:
        raise failure


@np.errstate(over="ignore")  # here: on the generator it would end before the body runs
def _lockstep(problems: Iterable[tuple]) -> tuple[list, Exception | None]:
    """The answers of ``_concave_max_lanes`` up to the first failing lane,
    and that lane's error (None if none fails)."""
    lanes, failure = _until_error(lambda problem: _Lane(*problem), problems)
    # each lane's open request, None once it is done or dropped; the
    # results (and with them the lanes that may still run) stop before the
    # first lane that fails
    asking: list = [None] * len(lanes)
    results: list = [None] * len(lanes)

    def fail(r: int, exc: Exception) -> None:  # a loop would stop here
        nonlocal failure
        failure, asking[r:] = exc, [None] * (len(asking) - r)
        del results[r:]

    def step(r: int, value: float | None = None) -> None:
        lane = lanes[r]
        try:
            request = next(lane.steps) if value is None else lane.steps.send(value)
            while request in lane.memo:
                request = lane.steps.send(lane.memo[request])
        except StopIteration as done:
            results[r], asking[r] = done.value, None
        except Exception as exc:
            fail(r, exc)
        else:
            asking[r] = request

    def answer(r: int, weighted: np.ndarray | None = None) -> None:
        try:
            value = lanes[r].answer(asking[r], weighted)
        except Exception as exc:
            fail(r, exc)
        else:
            step(r, value)

    for r in range(len(lanes)):
        if r < len(results):
            step(r)
    blocks: dict[tuple, list[int]] = {}
    for r, request in enumerate(asking):
        if request is not None:
            blocks.setdefault((id(lanes[r].utility), lanes[r].e is None), []).append(r)
    stacked = []
    for rows in blocks.values():
        if len(rows) == 1 or not all(lanes[r].x.size for r in rows):
            for r in rows:  # solved alone: a lane with no other, or of no atoms
                while asking[r] is not None:
                    answer(r)
            continue
        E = None if lanes[rows[0]].e is None else _padded([lanes[r].e for r in rows])
        points = [asking[r] for r in rows]  # a lane's first ask is a point
        stacked.append((lanes[rows[0]].utility, rows, _padded([lanes[r].x for r in rows]),
                        E, _padded([lanes[r].w for r in rows]), points))
    moved = True
    while moved:
        moved = False
        for utility, rows, X, E, W, points in stacked:
            gradient, curvature = [], []  # the (row, lane) of each ask for u', for u''
            for i, r in enumerate(rows):
                request = asking[r]
                if isinstance(request, tuple):
                    points[i] = request[0]
                    curvature.append((i, r))
                elif request is not None:
                    points[i] = request
                    gradient.append((i, r))
            for now, derivative in ((gradient, utility.u_prime),
                                    (curvature, utility.u_double_prime)):
                if not now:
                    continue
                moved, weighted = True, None  # a lane alone is asked alone
                if len(now) > 1:
                    wealth = np.array(points)[:, None] * X
                    try:
                        weighted = W * derivative(wealth if E is None else wealth + E)
                    except Exception:  # the wealth of some lane fails: ask each alone, in order
                        pass
                for i, r in now:
                    if asking[r] is not None:  # else dropped by a failure before it
                        answer(r, None if weighted is None else weighted[i, :lanes[r].x.size])
    return results, failure


def _problem(spec: ProblemSpec, endowment=0.0) -> tuple:
    """The d = 1 maximization over A of ``spec``, as ``_concave_max_raw`` takes it."""
    return (spec.model.support_1d, spec.model.weights, spec.utility,
            spec.action_space.lower[0], spec.action_space.upper[0], endowment)


def _maximize(spec: ProblemSpec, endowment=0.0) -> tuple[np.ndarray, bool]:
    """(maximizer over A, whether it lies on the boundary of A), any d."""
    if spec.dim != 1:
        return _solve_projected_newton(spec, endowment)
    pi, boundary = _concave_max_raw(*_problem(spec, endowment))
    return np.array([pi]), boundary


def _bound_active(pi: np.ndarray, g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Coordinates at a bound of the box whose gradient points out of it."""
    return (((pi <= lo + _BOUNDARY_TOL) & (g < 0))
            | ((pi >= hi - _BOUNDARY_TOL) & (g > 0)))


def _solve_projected_newton(spec: ProblemSpec, endowment=0.0) -> tuple[np.ndarray, bool]:
    """Damped projected Newton for d > 1 (Bertsekas 1982): coordinates held
    at a bound by their gradient stay there, and the Newton step runs on the
    others with their reduced Hessian."""
    d = spec.dim
    lo = np.asarray(spec.action_space.lower)
    hi = np.asarray(spec.action_space.upper)
    pi = np.clip(np.zeros(d), lo, hi)
    if not np.isfinite(_objective(spec, pi, endowment)):
        raise DomainCompatibilityError("initial strategy infeasible for the utility domain")
    for _ in range(_NEWTON_MAX_ITERATIONS):
        g = _gradient(spec, pi, endowment)
        H = _hessian(spec, pi, endowment)
        free = np.flatnonzero(~_bound_active(pi, g, lo, hi))
        step = np.zeros(d)
        try:
            step[free] = np.linalg.solve(H[np.ix_(free, free)], -g[free])
        except np.linalg.LinAlgError:
            step[free] = g[free]  # gradient ascent fallback
        f0 = _objective(spec, pi, endowment)
        alpha = 1.0
        improved = False
        for _ in range(60):
            cand = np.clip(pi + alpha * step, lo, hi)
            f1 = _objective(spec, cand, endowment)
            if math.isfinite(f1) and f1 >= f0 - _NEWTON_STEP_ULPS * np.spacing(abs(f0)):
                if np.linalg.norm(cand - pi) <= 1e-16:
                    improved = False
                    break
                pi = cand
                improved = f1 > f0
                break
            alpha *= 0.5
        # Convergence: projected gradient small.
        g = _gradient(spec, pi, endowment)
        norm = np.linalg.norm(np.where(_bound_active(pi, g, lo, hi), 0.0, g))
        if norm <= _NEWTON_TOL or (not improved and norm <= 1e-9):
            return pi, bool(np.any(pi <= lo + _BOUNDARY_TOL) or np.any(pi >= hi - _BOUNDARY_TOL))
    raise NumericalFailure("projected Newton did not converge")


def _solution(spec: ProblemSpec, pi: np.ndarray, boundary: bool) -> BaselineSolution:
    w = _wealth(spec, pi)
    V0 = spec.model.expectation(spec.utility.u(w))
    return BaselineSolution(pi_star=pi, V0=V0, foc_residual=_gradient(spec, pi),
                            hessian=_hessian(spec, pi), boundary=boundary)


def solve_baseline(spec: ProblemSpec) -> BaselineSolution:
    """Maximize E_P[u(<X, pi>)] over the action box A.

    Interior optima satisfy the first-order condition
    E_P[X u'(<X, pi*>)] = 0 to solver tolerance; boundary optima are flagged
    (interiority-based sensitivity formulas then refuse, except the documented
    pi* = 0 case).
    """
    return _solution(spec, *_maximize(spec))


def solve_baselines(specs: Sequence[ProblemSpec]) -> Iterator[BaselineSolution]:
    """``solve_baseline`` of each spec, in order and with the same bits. The
    d = 1 problems solve in lockstep (``_concave_max_lanes``): a family of
    models that shares one Utility object costs one u' call per solver
    round, not one per model. An error raises where a loop of
    ``solve_baseline`` would raise it."""
    maxima = _concave_max_lanes(_problem(spec) for spec in specs if spec.dim == 1)
    for spec in specs:
        if spec.dim == 1:
            pi, boundary = next(maxima)
            yield _solution(spec, np.array([pi]), boundary)
        else:
            yield solve_baseline(spec)


def _pricing_density(weights: np.ndarray, utility: Utility, wealth: np.ndarray) -> np.ndarray:
    """The marginal-utility pricing density w_i u'(wealth_i) / sum_j w_j u'(wealth_j)
    on atoms of weights w."""
    dens = weights * live_values(weights, utility.u_prime(wealth))
    return dens / dens.sum()


def q_u_measure(spec: ProblemSpec, sol: BaselineSolution) -> DiscreteMeasure:
    """P reweighted by normalized marginal utility at the optimum.

    E[X] vanishes under the returned measure for interior optima; for pi* = 0
    the density is constant and Q_u = P. Other boundary optima refuse.
    """
    if sol.boundary and not sol.pi_is_zero:
        raise BoundaryOptimumError("pricing measure requires an interior optimizer (or pi* = 0)")
    dens = _pricing_density(spec.model.weights, spec.utility, _wealth(spec, sol.pi_star))
    return DiscreteMeasure(points=spec.model.points, weights=dens,
                           state_space=spec.state_space,
                           is_quadrature=spec.model.is_quadrature,
                           kind="q_u", params={"base": spec.model.kind})


def davis_price(spec: ProblemSpec, sol: BaselineSolution, payoff: Payoff) -> float:
    """Marginal utility price p_d = E_{Q_u}[g(X)] (d = 1, as every payoff)."""
    q = q_u_measure(spec, sol)
    return q.expectation(payoff(q.support_1d))


def _endowment(spec: ProblemSpec, endowment) -> np.ndarray:
    endowment = np.asarray(endowment, dtype=float).reshape(-1)
    if endowment.shape[0] != spec.model.n_atoms:
        raise ConfigError("endowment must provide one value per atom")
    return endowment


def solve_with_endowment(spec: ProblemSpec, endowment: np.ndarray) -> tuple[float, np.ndarray]:
    """sup_pi E_P[u(<X, pi> + e(X))] for a per-atom endowment vector.

    Used by optimizer-continuity diagnostics; returns (value, maximizer).
    """
    endowment = _endowment(spec, endowment)
    pi, _ = _maximize(spec, endowment)
    return _objective(spec, pi, endowment), pi


def solve_with_endowments(spec: ProblemSpec, endowments) -> Iterator[tuple[float, np.ndarray]]:
    """``solve_with_endowment`` of each endowment vector, in order and with
    the same bits; at d = 1 in lockstep (``_concave_max_lanes``). Every
    vector is checked before any solve; an error of a solve raises where a
    loop of ``solve_with_endowment`` would raise it."""
    endowments = [_endowment(spec, e) for e in endowments]
    if spec.dim != 1:
        yield from (solve_with_endowment(spec, e) for e in endowments)
        return
    for e, (pi, _) in zip(endowments, _concave_max_lanes(_problem(spec, e) for e in endowments)):
        pi = np.array([pi])
        yield _objective(spec, pi, e), pi


def davis_price_via_root(spec: ProblemSpec, payoff: Payoff,
                         bracket: tuple[float, float]) -> float:
    """Davis price as the root of p_d -> d/d-eps V(eps, p_d)|_{eps=0}.

    The eps-derivative is a central finite difference (step ``_DAVIS_FD_STEP``) with a
    full re-optimization of pi at each perturbed problem — an independent
    validation route for the envelope formula, not a reuse of it; the two
    perturbed problems of a candidate price solve as two lanes
    (``solve_with_endowments``). Brent evaluates each candidate price once,
    the bracket ends first, and raises ``NumericalFailure`` when they show
    no sign change.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ConfigError("bracket must satisfy lo < hi")
    g_vals = payoff(spec.model.support_1d)

    def eps_derivative(p_d: float) -> float:
        if p_d == 0.0:
            raise ConfigError("candidate price 0 is not admissible")
        e_plus = _DAVIS_FD_STEP * (g_vals / p_d - 1.0)
        (v_plus, _), (v_minus, _) = solve_with_endowments(spec, [e_plus, -e_plus])
        return (v_plus - v_minus) / (2.0 * _DAVIS_FD_STEP)

    return brentq(eps_derivative, lo, hi, xtol=1e-10, rtol=8.882e-16, maxiter=200)
