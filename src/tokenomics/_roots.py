"""Scalar root finding used by the equilibrium and first-best solvers.

Every economic fixed point in this package reduces to a monotone scalar
residual with a sign change on a bracket. find_root runs Brent's method
(Brent, Algorithms for Minimization without Derivatives, 1973): it keeps
bisection's guaranteed bracket and converges superlinearly, deterministically.
It stops at float resolution, in x or in the residual: when the bracket is a
few ulps wide, or when the residual is within RESIDUAL_FLOOR of zero, which
needs a residual relative to the terms it balances. The market-clearing
kernel (first_best._clear_blockspace) calls it in log price, where its
residuals are linear or nearly so and the secant step is close to exact;
expand_bracket's geometric steps are even steps there.
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
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    lo_floor: float = 1e-300,
    flo: float | None = None,
    fhi: float | None = None,
) -> tuple[float, float, float, float]:
    """Widen [lo, hi] geometrically until f changes sign across it.

    Doubles hi and halves lo (keeping lo above lo_floor), up to 60 times.
    flo and fhi, when known, are f(lo) and f(hi) and are not evaluated
    again. Returns (lo, hi, f(lo), f(hi)), which find_root takes as they are.
    Raises SolverError when no sign change can be found, reporting the
    final bracket.
    """
    if not (0 < lo <= hi):
        raise ValueError(f"invalid starting bracket [{lo}, {hi}]")
    if flo is None:
        flo = f(lo)
    if fhi is None:
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
