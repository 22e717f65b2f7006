"""Brent's derivative-free one-dimensional routines (Brent 1973, *Algorithms
for Minimization Without Derivatives*, ch. 4 and 5).

``brentq`` follows scipy.optimize's C ``brentq`` (``Zeros/brentq.c``) and
``minimize_bounded`` follows ``scipy.optimize.minimize_scalar(method=
"bounded")`` step for step: the same comparisons and the same order of float
operations, so on the same function and tolerances they return the same bits.
Keeping them here keeps ``scipy.optimize``, by far the slowest import the
package would otherwise need, off the import path. Where scipy raises
``ValueError`` (a NaN function value, no sign change) or ``RuntimeError`` (no
convergence), these raise ``NumericalFailure``.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NumericalFailure

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NumericalFailure(f"function value at x={x} is NaN; the root search cannot continue")
    return fx


def brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float,
           rtol: float, maxiter: int) -> float:
    """Root of f on [xa, xb], where f(xa) and f(xb) differ in sign.

    Stops when the bracket half-width falls below (xtol + rtol |x|) / 2.
    Inverse quadratic (or secant) steps are taken when they land well inside
    the bracket, bisection otherwise."""
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


def minimize_bounded(func: Callable[[float], float], x1: float, x2: float,
                     xatol: float, maxiter: int = 500) -> tuple[float, float]:
    """(x, func(x)) at a minimum of func on [x1, x2], by golden-section search
    with parabolic steps, to within about xatol in x: the minimum for a
    unimodal func, a local minimum otherwise."""
    a, b = x1, x2
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            raise NumericalFailure(f"bounded minimization did not converge in "
                                   f"{maxiter} evaluations (last x = {xf})")

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise NumericalFailure(f"bounded minimization met a NaN value near x = {xf}")
    return xf, fx
