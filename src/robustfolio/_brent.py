"""Brent's derivative-free root finder (Brent 1973, *Algorithms for
Minimization Without Derivatives*, ch. 4).

``brentq`` follows scipy.optimize's C ``brentq`` (``Zeros/brentq.c``) step
for step: the same comparisons and the same order of float operations, so on
the same function and tolerances it returns the same bits. Keeping it here
keeps ``scipy.optimize``, by far the slowest import the package would
otherwise need, off the import path. Where scipy raises ``ValueError`` (a NaN
function value, no sign change) or ``RuntimeError`` (no convergence), this
raises ``NumericalFailure``.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NumericalFailure


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NumericalFailure(f"function value at x={x} is NaN; the root search cannot continue")
    return fx


def brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float,
           rtol: float, maxiter: int,
           stop: Callable[[float, float, float], bool] | None = None) -> float:
    """Root of f on [xa, xb], where f(xa) and f(xb) differ in sign.

    Stops when the bracket half-width falls below (xtol + rtol |x|) / 2, or
    when ``stop(x, f(x), x_other)`` holds for the best point x and the other
    end x_other of the bracket (checked once per iteration, after that
    test; without ``stop`` every step is scipy's). Inverse quadratic (or
    secant) steps are taken when they land well inside the bracket,
    bisection otherwise."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
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
        fcur = _value(f, xcur)
    raise NumericalFailure(f"root search did not converge in {maxiter} iterations "
                           f"(last x = {xcur})")
