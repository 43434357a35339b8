import math

import pytest
from hypothesis import example, given, note, settings, strategies as st

from tokenomics._roots import RESIDUAL_FLOOR, RESIDUAL_TOL, find_log_root
from tokenomics.errors import SolverError
from tokenomics.first_best import _LOG_ZERO


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def log_root(f, v, w, known=()):
    """find_log_root(f, values, v, w) from a table holding f at v and at
    each of known, as a caller that evaluated them first would pass it:
    the root and the table it leaves."""
    values = {u: f(u) for u in (v, *known)}
    return find_log_root(f, values, v, w), values


def test_find_root_converges_superlinearly():
    for f, lo, hi, root in (
        (lambda x: x**3 - 2.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: math.exp(x) - 5.0, 1e-3, 4.0, math.log(5.0)),
        (lambda x: 0.5 / math.sqrt(x) - 1.05 * x, 1e-3, 8.0, (0.5 / 1.05) ** (2.0 / 3.0)),
    ):
        g, calls = counted(f)
        x, _ = log_root(g, lo, hi)
        assert abs(x - root) <= 2 * math.ulp(root)
        # plain bisection needs about 55 halvings for the same bracket width
        assert len(calls) <= 15


def test_find_root_stops_once_the_residual_is_at_float_resolution():
    # log load of two isoelastic types by price, as a market clear roots
    # it: the residual reaches rounding level before the bracket is a few
    # ulps wide (closing the bracket takes 10 evaluations)
    def f(v):
        return math.log(0.3 * (1.3 * v) ** -1.25 + 0.7 * (0.8 * v) ** -4.0)

    g, calls = counted(f)
    x, _ = log_root(g, math.exp(-2.0), math.exp(2.0))
    assert len(calls) == 9
    assert x in calls and abs(f(x)) <= RESIDUAL_FLOOR


def test_find_root_closes_the_bracket_when_the_residual_floor_is_coarser():
    # |f| >= 1e-14 everywhere, above float resolution: the early stop never
    # fires, and the bracket closes on the sign change
    root = 0.3

    def f(v):
        return v - root + math.copysign(1e-14, v - root)

    g, calls = counted(f)
    x, _ = log_root(g, 0.1, 1.0)
    assert abs(x - root) <= 2 * math.ulp(root)
    assert RESIDUAL_FLOOR < abs(f(x)) <= RESIDUAL_TOL
    assert all(abs(f(c)) > RESIDUAL_FLOOR for c in calls)


def test_find_root_returns_sign_change_past_constant_branch():
    # a placeholder value on part of the bracket, like an infeasible trial point
    g, _ = counted(lambda v: 1.0 if v < 0.3 else 0.7 - v)
    assert log_root(g, 0.1, 1.0)[0] == pytest.approx(0.7, abs=1e-15)


def test_find_root_returns_exact_endpoint_root():
    assert log_root(lambda v: v - 1.0, 1.0, 2.0)[0] == 1.0
    assert log_root(lambda v: v - 2.0, 1.0, 2.0)[0] == 2.0


def test_find_root_rejects_residual_above_tolerance():
    # a jump across zero: the bracket closes on v = 0.5, where |f| = 1
    with pytest.raises(SolverError, match=r"residual -?1\.000e\+00 > 1e-10 where the float grid "
                                          r"ends, at 0\.5$"):
        log_root(lambda v: -1.0 if v < 0.5 else 1.0, 0.1, 1.0)


def test_find_log_root_widens_beyond_its_far_end():
    # the root lies beyond w: a step of a few ulps past w, then steps in
    # log v that double from log(w / v)
    g, calls = counted(lambda v: v - 10.0)
    v, _ = log_root(g, 1.0, 2.0)
    assert v == pytest.approx(10.0, rel=1e-15)
    assert calls[:4] == [1.0, 2.0, 2.0 + 4 * math.ulp(2.0), pytest.approx(4.0, rel=1e-14)]
    assert calls[4] == pytest.approx(16.0, rel=1e-14)
    g, calls = counted(lambda v: v - 0.01)
    v, _ = log_root(g, 1.0, 0.5)
    assert v == pytest.approx(0.01, rel=1e-15)
    assert calls[:5] == [1.0, 0.5, 0.5 - 4 * math.ulp(0.5), pytest.approx(0.25, rel=1e-14),
                         pytest.approx(1.0 / 16.0, rel=1e-14)]
    assert calls[5] == pytest.approx(2.0**-8, rel=1e-14)


def test_find_log_root_widens_only_beyond_its_far_end():
    # a root on the other side of v is never looked for there: the widening
    # runs down to the smallest positive float and gives up
    g, calls = counted(lambda v: v - 10.0)
    with pytest.raises(SolverError, match=r"could not bracket a root: f\(.*\) = .* share a sign"):
        log_root(g, 1.0, 0.5)
    assert max(calls) == 1.0 and min(calls) == math.ulp(0.0)
    assert len(set(calls)) == len(calls)


def test_find_log_root_closes_a_short_end_in_a_few_ulps():
    # rounding leaves w two ulps short of the root: the first widening step
    # of a few ulps brackets it, with no geometric step
    w = 1.25
    root = w - 2 * math.ulp(w)
    g, calls = counted(lambda v: 1e3 * (v - root))
    v, _ = log_root(g, 1.5, w)
    assert v == root
    assert calls[:3] == [1.5, w, w - 4 * math.ulp(w)] and len(calls) <= 4


def test_known_end_values_are_not_evaluated_again():
    def f(v):
        return v**3 - 2.0

    g, calls = counted(f)
    v, values = log_root(g, 0.5, 2.0, known=(2.0,))
    assert v == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    # each end once, from the caller's table
    assert calls.count(0.5) == 1 and calls.count(2.0) == 1
    assert len(set(calls)) == len(calls) and set(calls) == set(values)


def test_find_log_root_returns_a_start_at_float_resolution():
    g, calls = counted(lambda v: v - 2.0)
    assert log_root(g, 2.0, 4.0)[0] == 2.0 and calls == [2.0]
    assert log_root(g, 4.0, 2.0)[0] == 2.0 and calls[1:] == [4.0, 2.0]


def test_find_log_root_ends_where_the_float_grid_does():
    # a root half-way between two neighbouring floats just above 1, where
    # the residual never falls to RESIDUAL_FLOOR and the bracket test in
    # x = log v is far finer than an ulp of v: the root ends once the next
    # x rounds to a v already evaluated, at the end with the smaller residual
    v0, ulp = 1.0 + 8 * math.ulp(1.0), math.ulp(1.0)

    def f(v):
        return 1e3 * ((v - v0) - 0.5 * ulp)

    g, calls = counted(f)
    v, _ = log_root(g, 0.5, 2.0)
    assert v in (v0, v0 + ulp)
    assert len(set(calls)) == len(calls) <= 12


def test_find_log_root_scales_steps_past_the_range_of_exp():
    # the root lies 714 units of log from the start, so Brent's steps in
    # x = log(v / v0) pass |x| = 700, where v0 * exp(x) would overflow the
    # factor exp(x): v is formed as exp(x + log v0) there
    target = math.log(1e10)
    g, calls = counted(lambda v: math.log(v) - target)
    v, _ = log_root(g, 1e-300, 1e300)
    assert abs(math.log(v) - target) <= RESIDUAL_FLOOR
    assert v == pytest.approx(1e10, rel=1e-15)
    assert len(calls) == 6


def test_find_log_root_checks_the_residual_where_the_grid_ends():
    # a jump of 1 at v = 1 leaves no float price with a residual in tolerance
    with pytest.raises(SolverError, match="where the float grid ends"):
        log_root(lambda v: -1.0 if v < 1.0 else 1.0, 0.5, 2.0)


def _power_sum(k1, e1, k2, e2):
    # log(k1 v^e1 + k2 v^e2), read as a clearing kernel reads a load: a sum
    # that overflows is inf, and one that underflows to 0.0 reads _LOG_ZERO
    def f(v):
        try:
            q = k1 * v**e1 + k2 * v**e2
        except OverflowError:
            q = math.inf
        return math.log(q) if q > 0.0 else _LOG_ZERO

    return f


def _linear(slope, x0):
    # slope * (log v - x0), read in log(v / root) as a clear reads a load's
    # residual (log v - x0 would round in steps of 1e4 * ulp(300) = 6e-10
    # at a root near e^300). The root runs in x = log(v / start), whose grid
    # near a root up to e^50 from the start is ulp(50) = 7e-15 wide, 7e-11
    # in a residual of slope 1e4: inside RESIDUAL_TOL wherever the root is.
    # In x = log v that grid was 6e-10 wide at e^300.
    root = math.exp(x0)

    def f(v):
        return slope * math.log(v / root)

    return f


@st.composite
def monotone_log_residuals(draw):
    """(f, slope sign, start v) for a residual monotone in x = log v with a
    root: linear in x, a log of a sum of two power laws, or a kernel's slack
    residual log v - log(s q) whose load q = v^-e underflows to 0.0 and is
    then read as _LOG_ZERO."""
    kind = draw(st.sampled_from(["linear", "powers", "floored"]))
    if kind == "linear":
        slope = draw(st.floats(1.0, 1e4)) * draw(st.sampled_from([-1.0, 1.0]))
        # a root within e^+-300 of 1 (see _linear)
        x0 = draw(st.floats(-300.0, 300.0))
        f = _linear(slope, x0)
        rising, x = slope > 0.0, x0
        note(f"linear {slope!r} log(v / e^{x0!r})")
    elif kind == "powers":
        k1, k2 = (draw(st.floats(-3.0, 3.0).map(lambda e: 10.0**e)) for _ in range(2))
        e1, e2 = draw(st.floats(1.0, 100.0)), draw(st.floats(1.0, 100.0))
        rising = draw(st.booleans())
        sign = 1.0 if rising else -1.0
        f = _power_sum(k1, sign * e1, k2, sign * e2)
        x = 0.0
        note(f"powers {k1!r} v^{sign * e1!r} + {k2!r} v^{sign * e2!r}")
    else:
        e, s = draw(st.floats(100.0, 1e4)), draw(st.floats(0.5, 2.0))

        def f(v):
            try:
                q = s * (1.0 / v) ** e
            except OverflowError:
                q = math.inf
            return math.log(v) - (math.log(q) if q > 0.0 else _LOG_ZERO)

        rising, x = True, math.log(s)
        note(f"floored load {s!r} v^-{e!r}")
    v = math.exp(x + draw(st.floats(-50.0, 50.0)))
    return f, rising, v


@settings(max_examples=400, deadline=None)
@given(case=monotone_log_residuals(), shrink=st.floats(1e-6, 1.0))
# the sum overflows at the start, so its residual is inf there and its bound
# end is the smallest positive float: Brent's method must bisect, not
# interpolate through inf (which ended in the subnormals at a residual of -716)
@example(case=(_power_sum(1.0, 1.0, 1.0, 26.0), True, 1446257064291.475), shrink=1.0)
# a root near e^210 whose residual rises 8,427 per unit of log v: rooted in
# x = log v, the grid ended at a residual of 2.4e-10
@example(case=(_linear(8427.284294538276, 209.69364936332045), True, 3.237924273368183e+102),
         shrink=1.0)
# a start 1e13 times the root: log(v / start) near the root, taken as log1p
# of a relative difference close to -1, loses three digits, and the root
# then ends 1.7e-4 short
@example(case=(_linear(-1.00001, 0.0), False, 10686474581524.463), shrink=1.0)
def test_find_log_root_roots_any_monotone_log_residual(case, shrink):
    # from a start v toward an end w on the root's side, a fraction shrink
    # of the distance the residual at v names in log v (short of the root
    # where the slope is above 1 in size or shrink is below 1): the root is
    # a v it evaluated, once each, with its residual within tolerance, in a
    # bounded number of evaluations
    f, rising, v = case
    g, calls = counted(f)
    values = {v: g(v)}
    step = -values[v] if rising else values[v]
    w = min(max(v * math.exp(min(max(shrink * step, -745.0), 709.0)), math.ulp(0.0)),
            math.nextafter(math.inf, 0.0))
    if w == v:
        w = math.nextafter(v, math.copysign(math.inf, step))
    root = find_log_root(g, values, v, w)
    assert root in calls and set(calls) == set(values)
    assert len(set(calls)) == len(calls)
    assert abs(f(root)) <= RESIDUAL_TOL
    # a short end takes 1 + log2(1 / shrink) widening steps at most; where
    # a load overflows or underflows, the residual is infinite or floored
    # over most of a bracket up to 1,500 wide in x, which Brent's method
    # bisects (40,000 draws took at most 27 + log2(1 / shrink) evaluations)
    assert len(calls) <= 32 + math.log2(1.0 / shrink)
