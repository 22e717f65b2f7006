"""Brent's derivative-free root finder (Brent 1973, *Algorithms for
Minimization Without Derivatives*, ch. 4).

``brent_steps`` follows scipy.optimize's C ``brentq`` (``Zeros/brentq.c``)
step for step: the same comparisons and the same order of float operations,
so on the same function and tolerances it returns the same bits. It is a
generator: it yields each point whose function value it needs and receives
that value back, so a caller can evaluate many searches' points together;
``run`` drives one search with a plain function, and ``brentq`` is that one
search. Keeping it here keeps ``scipy.optimize``, by far the slowest import
the package would otherwise need, off the import path. Where scipy raises
``ValueError`` (a NaN function value, no sign change) or ``RuntimeError``
(no convergence), this raises ``NumericalFailure``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator

from .errors import NumericalFailure


def run(steps: Generator, f: Callable) -> Any:
    """The answer of a step generator, sending it f of each request it yields."""
    try:
        request = next(steps)
        while True:
            request = steps.send(f(request))
    except StopIteration as done:
        return done.value


def _checked(fx, x: float) -> float:
    fx = float(fx)
    if math.isnan(fx):
        raise NumericalFailure(f"function value at x={x} is NaN; the root search cannot continue")
    return fx


def brent_steps(xa: float, xb: float, xtol: float, rtol: float, maxiter: int,
                stop: Callable[[float, float, float], bool] | None = None
                ) -> Generator[float, float, float]:
    """Root of f on [xa, xb], where f(xa) and f(xb) differ in sign, asking
    f at xa, at xb, then at one point per iteration.

    Stops when the bracket half-width falls below (xtol + rtol |x|) / 2, or
    when ``stop(x, f(x), x_other)`` holds for the best point x and the other
    end x_other of the bracket (checked once per iteration, after that
    test; without ``stop`` every step is scipy's). Inverse quadratic (or
    secant) steps are taken when they land well inside the bracket,
    bisection otherwise."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked((yield xpre), xpre)
    fcur = _checked((yield xcur), xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalFailure(f"no sign change of the function on [{xa}, {xb}]")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if stop is not None and stop(xcur, fcur, xblk):
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # IEEE gives inf or nan here: bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked((yield xcur), xcur)
    raise NumericalFailure(f"root search did not converge in {maxiter} iterations "
                           f"(last x = {xcur})")


def brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float,
           rtol: float, maxiter: int,
           stop: Callable[[float, float, float], bool] | None = None) -> float:
    """``brent_steps`` on the function f."""
    return run(brent_steps(xa, xb, xtol, rtol, maxiter, stop), f)
