"""Scalar root finding used by the equilibrium and first-best solvers.

Every economic fixed point in this package reduces to a monotone scalar
residual with a sign change on a bracket. find_root runs Brent's method
(Brent, Algorithms for Minimization without Derivatives, 1973): it keeps
bisection's guaranteed bracket and converges superlinearly, deterministically.
It stops at float resolution, in x or in the residual: when the bracket is a
few ulps wide, or when the residual is within RESIDUAL_FLOOR of zero, which
needs a residual relative to the terms it balances. find_log_root runs it in
the log of a positive unknown, where expand_bracket's geometric steps are
even steps: the market-clearing kernel (first_best._clear_blockspace) roots
in log price, where its residuals are nearly linear with slopes at least 1
in size, so the secant step is close to exact and a residual bounds the
root's distance; the heterogeneous solver roots a balance in log m.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import SolverError

_EPS = 2.0**-52

#: residual magnitude accepted as "solved"
RESIDUAL_TOL = 1e-10
#: relative residual at float resolution: find_root stops once |f(b)| reaches it
RESIDUAL_FLOOR = 4.0 * _EPS
#: hard cap on iterations (well past double precision for any bracket)
MAX_ITER = 200


def expand_bracket(
    f: Callable[[float], float], lo: float, hi: float, *, lo_floor: float = 1e-300
) -> tuple[float, float, float, float]:
    """Widen [lo, hi] geometrically until f changes sign across it.

    Doubles hi and halves lo (keeping lo above lo_floor), up to 60 times.
    Returns (lo, hi, f(lo), f(hi)), which find_root takes as they are.
    Raises SolverError when no sign change can be found, reporting the
    final bracket.
    """
    if not (0 < lo <= hi):
        raise ValueError(f"invalid starting bracket [{lo}, {hi}]")
    flo = f(lo)
    fhi = flo if hi == lo else f(hi)
    for _ in range(60):
        if flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
            return lo, hi, flo, fhi
        if lo > lo_floor:
            lo = max(lo / 2.0, lo_floor)
            flo = f(lo)
        hi = hi * 2.0
        fhi = f(hi)
    raise SolverError(
        "could not bracket a root: "
        f"f({lo:.6g}) = {flo:.6g}, f({hi:.6g}) = {fhi:.6g} share a sign"
    )


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
    fhi, when known, are f(lo) and f(hi) and are not evaluated again, so
    find_root(f, *expand_bracket(f, lo, hi)) evaluates no point twice.
    """
    # b is the best estimate, c the other end of the bracket, a the previous b
    a, b = lo, hi
    fa = f(a) if flo is None else flo
    fb = f(b) if fhi is None else fhi
    if (fa < 0.0 and fb < 0.0) or (fa > 0.0 and fb > 0.0):
        raise SolverError(
            f"no sign change on bracket: f({lo:.6g}) = {fa:.6g}, "
            f"f({hi:.6g}) = {fb:.6g}"
        )
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
        if abs(e) >= tol and abs(fa) > abs(fb):
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
        fb = f(b)
    if abs(fb) > RESIDUAL_TOL:
        raise SolverError(
            f"root finder stalled with residual {fb:.3e} > {RESIDUAL_TOL:.0e} "
            f"on bracket [{min(b, c):.12g}, {max(b, c):.12g}]"
        )
    return b


class _GridEnd(Exception):
    """find_log_root's next point rounds to a value already evaluated."""


def find_log_root(
    f: Callable[[float], float], lo: float, hi: float, *, lo_floor: float = 1e-300
) -> float:
    """Root of f(v) for v > 0, found in x = log v from the bracket [lo, hi].

    expand_bracket widens [lo, hi] until it holds a sign change (lo stays
    above lo_floor); its geometric steps are even steps in x. find_root then
    stops once the residual is at float resolution, or when its bracket is a
    few EPS * |x| wide: about an ulp of v where |log v| is near 1, far finer
    where v is near 1. There neighbouring x round to one v, so the root ends
    where the grid of v does: once the next x rounds to a v already
    evaluated, the evaluated v with the smallest |f| is returned, checked
    against RESIDUAL_TOL as find_root checks its own. The returned v is
    always one f was evaluated at: an end of the bracket, or exp(x) for an x
    the finder tried. expand_bracket evaluates f at both ends of [lo, hi],
    so a caller that already has f there keeps its values; after that f is
    evaluated once per v.
    """
    lo, hi, flo, fhi = expand_bracket(f, lo, hi, lo_floor=lo_floor)
    values = {lo: flo, hi: fhi}

    def g(x: float) -> float:
        v = math.exp(x)
        if v in values:
            raise _GridEnd
        values[v] = f(v)
        return values[v]

    x_lo, x_hi = math.log(lo), math.log(hi)
    try:
        x = find_root(g, x_lo, x_hi, flo, fhi)
    except _GridEnd:
        v = min(values, key=lambda w: abs(values[w]))
        if abs(values[v]) > RESIDUAL_TOL:
            raise SolverError(
                f"root finder stalled with residual {values[v]:.3e} > {RESIDUAL_TOL:.0e} "
                f"where the float grid ends, at {v:.12g}"
            ) from None
        return v
    return lo if x == x_lo else hi if x == x_hi else math.exp(x)
