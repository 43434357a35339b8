"""Scalar root finding used by the equilibrium and first-best solvers.

Every economic fixed point in this package reduces to a monotone scalar
residual with a sign change. find_log_root roots one in the log of a
positive unknown, from a point the caller evaluated toward a second one that
bounds the root, on the caller's one table of residuals and slopes. Each
residual returns its slope in the log of the unknown with its value, and the
root takes Newton steps on it strictly inside the bracket, bisecting
otherwise (rtsafe: Press et al., Numerical Recipes, 9.4). _rtsafe_step is
that one step rule, with Chebyshev's second-order term; the heterogeneous
solver's burn identity steps by it too. A root stops at float resolution:
where its residual is within RESIDUAL_FLOOR of zero (relative to the terms
it balances), one Newton step on where that moves it more than 2 ulps, or
where the next point rounds to one already evaluated.
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
    f: Callable[[float], tuple[float, float]], values: dict[float, tuple[float, float]],
    v: float, w: float, steps: list[int] | None = None,
) -> float:
    """Root of a monotone f(v) for v > 0, found in log v from v toward w.

    f(v) returns the residual at v and its slope d f / d log v; values, the
    caller's one table of those pairs by v, holds v (and w where known). The
    root lies between v and w (w != v) or beyond w. Unless v's residual is
    at float resolution, the root takes the steps _rtsafe_step names, each
    in x = log(u / v) from the last point v evaluated: Newton steps on the
    slope strictly inside the bracket, else bisections. w is evaluated only
    once a bisection needs it or a Newton step reaches it, and the root
    steps on from the end with the smaller residual; where f has its sign
    at v there too, the bracket widens past w, by a few ulps, then by steps
    in log v that double from the distance between v and w (SolverError
    without a sign change among the positive finite floats).

    It stops once a step's residual is at float resolution, after one more
    Newton step where that moves v by more than 2 ulps, or where the grid
    of v ends: a step that rounds to a v already in values bisects instead
    while the residual is above RESIDUAL_TOL, and once the midpoint does
    too, or a step of a few ulps within RESIDUAL_TOL fails to halve the
    residual, the end of the bracket with the smaller residual is returned.
    The result is a v in values, so f is evaluated at most once per v; a
    residual there above RESIDUAL_TOL raises SolverError. steps, where
    given, counts the evaluations: [Newton steps, others].
    """
    start, (fv, slope) = v, values[v]
    if abs(fv) <= RESIDUAL_FLOOR:
        return v
    steps = [0, 0] if steps is None else steps
    sign = 1.0 if (fv > 0.0) == (w > v) else -1.0  # sign * f falls in log v
    g, slope, previous, halved, known = sign * fv, sign * slope, None, True, False
    # the bracket: sign * f > 0 at lo, < 0 at hi (at w, once it is known)
    lo, hi = (v, w) if w > v else (w, v)
    for _ in range(MAX_ITER):
        # the bracket's ends in x = log(u / v), v being one of them
        xlo, xhi = (0.0, _log_ratio(hi, v)) if lo == v else (_log_ratio(lo, v), 0.0)
        before = previous and (_log_ratio(previous[0], v), previous[1])
        step = _rtsafe_step(0.0, g, slope, before, halved, xlo, xhi)
        if step is None:
            break
        x, newton = step
        far = not known and w in (lo, hi) and (w in values or not newton)
        if far:
            # w, for a bisection or a Newton step onto it; widen past it where f has its sign at start
            u, newton, known = w, False, True
            if w not in values:
                values[w] = f(w)
                past = (xlo, math.inf) if w == hi else (-math.inf, xhi)
                steps[_rtsafe_step(0.0, g, slope, before, halved, *past) is None] += 1
            fu = values[w][0]
            if abs(fu) > RESIDUAL_FLOOR and (fu < 0.0) == (fv < 0.0):
                t, u = _widen(f, values, start, w, steps)
                fu = values[u][0]
                lo, hi = (t, u) if sign * values[t][0] > 0.0 else (u, t)
        else:
            u = _scaled(v, x)
            if u in values and abs(g) > RESIDUAL_TOL:
                # the step rounds to a v already evaluated while the residual
                # is short of tolerance: bisect instead
                x, newton = 0.5 * (xlo + xhi), False
                u = _scaled(v, x)
            if u in values:
                break
            values[u] = f(u)
            steps[not newton] += 1
            fu = values[u][0]
        if abs(fu) <= RESIDUAL_FLOOR:
            t = _scaled(u, -fu / values[u][1]) if values[u][1] else u
            if t not in values and abs(t - u) > 2.0 * math.ulp(u):
                values[t] = f(t)
                steps[0] += 1
                u = min(u, t, key=lambda end: abs(values[end][0]))
            return u
        if sign * fu > 0.0:
            lo = u
        else:
            hi = u
        halved = not newton or abs(fu) <= 0.5 * abs(g)
        if not halved and abs(fu) <= RESIDUAL_TOL and abs(x) <= 4.0 * _EPS:
            break  # a step of a few ulps within tolerance that did not halve |f|: rounding
        if far:
            # step on from the end of the bracket with the smaller residual
            u, previous = min(lo, hi, key=lambda end: abs(values[end][0])), None
        else:
            previous = (v, slope) if abs(slope) < math.inf else None
        v, g, slope = u, sign * values[u][0], sign * values[u][1]
    v = min((end for end in (hi, lo) if end in values), key=lambda end: abs(values[end][0]))
    if abs(values[v][0]) > RESIDUAL_TOL:
        raise SolverError(
            f"root finder stalled with residual {values[v][0]:.3e} > {RESIDUAL_TOL:.0e} "
            f"where the float grid ends, at {v:.12g}"
        )
    return v


def _rtsafe_step(x: float, f: float, slope: float, previous: tuple[float, float] | None,
                 halved: bool, lo: float, hi: float) -> tuple[float, bool] | None:
    """The one rtsafe step rule: from x, an end of the bracket (lo, hi)
    across which a residual falls, reading f with slope slope there, (Newton
    step with Chebyshev's term -bend f**2 / (2 slope**3), True) where the
    slope is negative, the last Newton step, if any, halved |f| and the step
    lands strictly inside; bend is the change of slope since previous, (x,
    slope) at the point before, over its distance. Otherwise (midpoint,
    False), or None once the midpoint rounds to an end."""
    bend = 0.0 if previous is None else (slope - previous[1]) / (x - previous[0])
    step = (x - f / slope - bend * f * f / (2.0 * slope * slope * slope)
            if halved and slope < 0.0 else math.nan)
    if lo < step < hi:
        return step, True
    step = 0.5 * (lo + hi)
    return (step, False) if lo < step < hi else None


def _widen(f: Callable[[float], tuple[float, float]], values: dict[float, tuple[float, float]],
           v: float, w: float, steps: list[int]) -> tuple[float, float]:
    """The last two points of find_log_root's widening past w, where f has
    its sign at v: across them f changes sign, or the last is at float
    resolution."""
    step = math.copysign(max(abs(_log_ratio(w, v)), 4.0 * _EPS), w - v)
    fv = values[v][0]
    for i in range(MAX_WIDEN):
        if i == 0:
            u = w + math.copysign(4.0 * math.ulp(w), step)
        else:
            u = w * math.exp(min(step, _LOG_HUGE))
            step *= 2.0
        u = min(max(u, _TINY), _HUGE)
        if u == w:
            break
        v, w = w, u
        if w not in values:
            values[w] = f(w)
            steps[1] += 1
        fw = values[w][0]
        if abs(fw) <= RESIDUAL_FLOOR or (fw < 0.0) != (fv < 0.0):
            return v, w
    raise SolverError(
        "could not bracket a root: "
        f"f({v:.6g}) = {values[v][0]:.6g}, f({w:.6g}) = {values[w][0]:.6g} share a sign"
    )


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
