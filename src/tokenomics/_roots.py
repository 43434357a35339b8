"""Scalar root finding used by the equilibrium and first-best solvers.

Every economic fixed point in this package reduces to a monotone scalar
residual with a sign change on a bracket. find_root runs Brent's method
(Brent, Algorithms for Minimization without Derivatives, 1973): it keeps
bisection's guaranteed bracket and converges superlinearly, deterministically.
It stops at float resolution, in x or in the residual: when the bracket is a
few ulps wide, or when the residual is within RESIDUAL_FLOOR of zero, which
needs a residual relative to the terms it balances. find_log_root runs the
same steps in place in the log of a positive unknown over a point the
caller evaluated, from there toward a second one, on the caller's one
table of residuals by unknown; it widens past the second point where the
root lies beyond it. The market-clearing kernel
(first_best._clear_blockspace) roots in log price, where its residuals are
nearly linear with slopes at least 1 in size, so the secant step is close
to exact and a residual bounds the root's distance; the heterogeneous
solver roots a balance in log m.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import SolverError

_EPS = 2.0**-52

#: residual magnitude accepted as "solved"
RESIDUAL_TOL = 1e-10
#: relative residual at float resolution: find_root stops once |f(b)| reaches it
RESIDUAL_FLOOR = 4.0 * _EPS
#: hard cap on iterations (well past double precision for any bracket)
MAX_ITER = 200
#: widening steps find_log_root takes before it gives up on a sign change
MAX_WIDEN = 60

#: the positive finite floats, and the log of the largest
_TINY, _HUGE = math.ulp(0.0), sys.float_info.max
_LOG_HUGE = math.log(_HUGE)


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float | None = None,
    fhi: float | None = None,
) -> float:
    """Brent's method on a sign change, run to float resolution.

    The bracket is narrowed until it is a few ulps wide, until the residual
    at its best end b is at most RESIDUAL_FLOOR, or for MAX_ITER steps. b, a
    point f was evaluated at, is then checked against RESIDUAL_TOL; a
    residual above the tolerance raises SolverError with bracket
    diagnostics. f must be a relative residual: the difference of terms of
    order one (a log ratio, or a balance scaled by one of its sides), so
    that RESIDUAL_FLOOR is float resolution for it. A residual whose
    rounding stays above RESIDUAL_FLOOR ends on the bracket test. flo and
    fhi, when known, are f(lo) and f(hi) and are not evaluated again.
    """
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if (flo < 0.0 and fhi < 0.0) or (flo > 0.0 and fhi > 0.0):
        raise SolverError(
            f"no sign change on bracket: f({lo:.6g}) = {flo:.6g}, "
            f"f({hi:.6g}) = {fhi:.6g}"
        )
    b, fb, c = _brent(f, lo, flo, hi, fhi)
    if abs(fb) > RESIDUAL_TOL:
        raise SolverError(
            f"root finder stalled with residual {fb:.3e} > {RESIDUAL_TOL:.0e} "
            f"on bracket [{min(b, c):.12g}, {max(b, c):.12g}]"
        )
    return b


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
    for a steep residual far from v = 1). It stops as find_root does: once
    the residual is at float resolution, or when the bracket is a few
    EPS * |x| wide; and where the grid of v ends: once the next x rounds
    to a v already in values, the best end of the bracket is returned
    (short of RESIDUAL_TOL, a secant step that small bisects instead). The
    result, checked against RESIDUAL_TOL as find_root checks its own, is
    always a v in values, so f is evaluated at most once per v.
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
    x, fx, _ = _brent(f, xv, fv, xw, fw, values, origin)
    root = v if x == xv else w if x == xw else _scaled(origin, x)
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
    values: dict[float, float] | None = None, origin: float = 1.0,
) -> tuple[float, float, float]:
    """Brent's method from the sign change fa, fb across [a, b]: the best
    end b, f there and the other end c of the final bracket. With values,
    the steps run in x = log(v / origin): f takes v = origin * exp(x), each
    v is added to values, and the root stops at the best end once the next
    x rounds to a v already there; short of RESIDUAL_TOL there, it bisects
    instead, and stops only where the midpoint rounds to one too."""
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
        if values is None:
            fb = f(b)
        else:
            v = _scaled(origin, b)
            if v in values and abs(fa) > RESIDUAL_TOL:
                # the step rounds to a v already evaluated while the best
                # end is short of tolerance: bisect instead
                b, e, d = a + half, half, half
                v = _scaled(origin, b)
            if v in values:
                return a, fa, c
            fb = values[v] = f(v)
    return b, fb, c
