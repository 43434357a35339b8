"""Scalar root finding used by the equilibrium and first-best solvers.

Every economic fixed point in this package reduces to a monotone scalar
residual with a sign change. find_log_root roots one in the log of a
positive unknown over a point the caller evaluated, from there toward a
second one, on the caller's one table of residuals by unknown; it widens
past the second point where the root lies beyond it. It runs Brent's
method (Brent, Algorithms for Minimization without Derivatives, 1973): it
keeps bisection's guaranteed bracket and converges superlinearly,
deterministically. It stops at float resolution, in x or in the residual:
when the bracket is a few ulps wide, or when the residual is within
RESIDUAL_FLOOR of zero, which needs a residual relative to the terms it
balances. The market-clearing kernel (first_best._clear_blockspace) roots
in log price, where its residuals are nearly linear with slopes at least 1
in size, so the secant step is close to exact and a residual bounds the
root's distance; the heterogeneous solver roots a balance in log m. Its
burn identity, whose trials carry their own slopes, is rooted by Newton
steps and bisection in equilibrium._solve_heterogeneous, on this module's
RESIDUAL_FLOOR, RESIDUAL_TOL and MAX_ITER.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import SolverError

_EPS = 2.0**-52

#: residual magnitude accepted as "solved"
RESIDUAL_TOL = 1e-10
#: relative residual at float resolution: a root stops once |f| reaches it
RESIDUAL_FLOOR = 4.0 * _EPS
#: hard cap on iterations (well past double precision for any bracket)
MAX_ITER = 200
#: widening steps find_log_root takes before it gives up on a sign change
MAX_WIDEN = 60

#: the positive finite floats, and the log of the largest
_TINY, _HUGE = math.ulp(0.0), sys.float_info.max
_LOG_HUGE = math.log(_HUGE)


def find_log_root(
    f: Callable[[float], float], values: dict[float, float], v: float, w: float
) -> float:
    """Root of a monotone f(v) for v > 0, found in x = log(v / v0) from the
    start v0 = v toward w.

    values is the caller's one table of f by v: it holds v, and w where f is
    already known there. The root lies between v and w (w != v) or beyond
    w; v, or else w, is returned at once when its residual is at float
    resolution. Where f has one sign at v and w, the bracket widens beyond
    w: first by a few ulps of w, where rounding left w just short of the
    root, then by steps in x that double from the distance between v and
    w, within the positive finite floats (SolverError when no sign change
    is found).

    Brent's method then runs in x = log(v / v0), measured from the start
    v0, evaluating f at v = v0 exp(x) and adding each v to values. Near a
    root close to the start, neighbouring x lie far closer than
    neighbouring v (in x = log v they lay EPS * |log v| apart, too coarse
    for a steep residual far from v = 1). It stops once the residual is at
    float resolution, or when the bracket is a few EPS * |x| wide; and
    where the grid of v ends: once the next x rounds to a v already in
    values, the best end of the bracket is returned (short of RESIDUAL_TOL,
    a secant step that small bisects instead). Where it stops past |x| = 1
    short of float resolution, it runs once more in x measured from the
    best end, toward the nearest v evaluated across the root, since there
    x rounds coarser than v. The result is always a v in
    values, so f is evaluated at most once per v; a residual there above
    RESIDUAL_TOL raises SolverError.
    """
    fv = values[v]
    if abs(fv) <= RESIDUAL_FLOOR:
        return v
    if w not in values:
        values[w] = f(w)
    fw = values[w]
    if abs(fw) <= RESIDUAL_FLOOR:
        return w
    origin = v
    xv, xw = 0.0, _log_ratio(w, origin)
    if (fw < 0.0) == (fv < 0.0):
        step = math.copysign(max(abs(xw - xv), 4.0 * _EPS), w - v)
        for i in range(MAX_WIDEN):
            if i == 0:
                u = w + math.copysign(4.0 * math.ulp(w), step)
            else:
                u = w * math.exp(min(step, _LOG_HUGE))
                step *= 2.0
            u = min(max(u, _TINY), _HUGE)
            if u == w:
                break
            v, fv, xv = w, fw, xw
            w, xw = u, _log_ratio(u, origin)
            if w not in values:
                values[w] = f(w)
            fw = values[w]
            if abs(fw) <= RESIDUAL_FLOOR:
                return w
            if (fw < 0.0) != (fv < 0.0):
                break
        if (fw < 0.0) == (fv < 0.0):
            raise SolverError(
                "could not bracket a root: "
                f"f({v:.6g}) = {fv:.6g}, f({w:.6g}) = {fw:.6g} share a sign"
            )
    x, fx = _brent(f, xv, fv, xw, fw, values, origin)
    root = v if x == xv else w if x == xw else _scaled(origin, x)
    if abs(fx) > RESIDUAL_FLOOR and abs(x) > 1.0:
        # past |x| = 1 neighbouring x lie farther apart than neighbouring v,
        # so the bracket may have closed in x while it still spans several
        # v: root on from the best end, measured from there, toward the
        # nearest v evaluated across the root
        across = min((u for u, fu in values.items() if (fu < 0.0) != (fx < 0.0)),
                     key=lambda u: abs(u - root))
        xa = _log_ratio(across, root)
        x, fx = _brent(f, 0.0, fx, xa, values[across], values, root)
        root = root if x == 0.0 else across if x == xa else _scaled(root, x)
    if abs(fx) > RESIDUAL_TOL:
        raise SolverError(
            f"root finder stalled with residual {fx:.3e} > {RESIDUAL_TOL:.0e} "
            f"where the float grid ends, at {root:.12g}"
        )
    return root


def _scaled(origin: float, x: float) -> float:
    # origin * e**x, kept a positive finite float; near the origin as
    # origin + origin * (e**x - 1), rounded once
    if abs(x) < 1.0:
        v = origin + origin * math.expm1(x)
    elif abs(x) < 700.0:
        v = origin * math.exp(x)
    else:
        v = math.exp(min(x + math.log(origin), _LOG_HUGE))
    return min(max(v, _TINY), _HUGE)


def _log_ratio(v: float, origin: float) -> float:
    # log(v / origin) for positive finite floats: within a factor 2 as log1p
    # of their relative difference (v - origin is exact there); elsewhere of
    # their ratio, or as a difference of logs where the ratio passes a float
    q = (v - origin) / origin
    if -0.5 < q < 1.0:
        return math.log1p(q)
    q = v / origin
    return math.log(q) if 0.0 < q < math.inf else math.log(v) - math.log(origin)


def _brent(
    f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
    values: dict[float, float], origin: float,
) -> tuple[float, float]:
    """Brent's method in x = log(v / origin) from the sign change fa, fb
    across [a, b]: the best end b and f there. f takes v = origin * exp(x),
    each v is added to values, and the root stops at the best end once the
    next x rounds to a v already there; short of RESIDUAL_TOL there, it
    bisects instead, and stops only where the midpoint rounds to one too."""
    # b is the best estimate, c the other end of the bracket, a the previous b
    c, fc = a, fa
    d = e = b - a
    for _ in range(MAX_ITER):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = _EPS * abs(b) + 1e-300
        half = 0.5 * (c - b)
        if abs(half) <= tol or abs(fb) <= RESIDUAL_FLOOR:
            break
        # interpolate through finite residuals only: where a load passes a
        # float, an infinite one leaves bisection
        if abs(e) >= tol and abs(fb) < abs(fa) < math.inf and abs(fc) < math.inf:
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, t = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # accept the interpolation only if it stays well inside the
            # bracket and shrinks faster than the step before last
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = half
        else:
            e = d = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        v = _scaled(origin, b)
        if v in values and abs(fa) > RESIDUAL_TOL:
            # the step rounds to a v already evaluated while the best end is
            # short of tolerance: bisect instead
            b, e, d = a + half, half, half
            v = _scaled(origin, b)
        if v in values:
            return a, fa
        fb = values[v] = f(v)
    return b, fb
