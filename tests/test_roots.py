import math

import pytest

from tokenomics._roots import (
    RESIDUAL_FLOOR,
    RESIDUAL_TOL,
    expand_bracket,
    find_log_root,
    find_root,
)
from tokenomics.errors import SolverError


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_find_root_converges_superlinearly():
    for f, lo, hi, root in (
        (lambda x: x**3 - 2.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: math.exp(x) - 5.0, 0.0, 4.0, math.log(5.0)),
        (lambda x: 0.5 / math.sqrt(x) - 1.05 * x, 1e-3, 8.0, (0.5 / 1.05) ** (2.0 / 3.0)),
    ):
        g, calls = counted(f)
        x = find_root(g, lo, hi)
        assert abs(x - root) <= 2 * math.ulp(root)
        # plain bisection needs about 55 halvings for the same bracket width
        assert len(calls) <= 15


def test_find_root_stops_once_the_residual_is_at_float_resolution():
    # log load of two isoelastic types in log price, as a market clear roots
    # it: the residual reaches rounding level well before the bracket is a
    # few ulps wide (closing the bracket takes 18 evaluations)
    def f(x):
        return math.log(0.3 * (1.3 * math.exp(x)) ** -1.25 + 0.7 * (0.8 * math.exp(x)) ** -4.0)

    g, calls = counted(f)
    x = find_root(g, -2.0, 2.0)
    assert len(calls) == 9
    assert x in calls and abs(f(x)) <= RESIDUAL_FLOOR


def test_find_root_closes_the_bracket_when_the_residual_floor_is_coarser():
    # |f| >= 1e-14 everywhere, above float resolution: the early stop never
    # fires, and the bracket closes on the sign change
    root = 0.3

    def f(x):
        return x - root + math.copysign(1e-14, x - root)

    g, calls = counted(f)
    x = find_root(g, 0.0, 1.0)
    assert abs(x - root) <= 2 * math.ulp(root)
    assert RESIDUAL_FLOOR < abs(f(x)) <= RESIDUAL_TOL
    assert all(abs(f(c)) > RESIDUAL_FLOOR for c in calls)


def test_find_root_returns_sign_change_past_constant_branch():
    # a placeholder value on part of the bracket, like an infeasible trial point
    g, _ = counted(lambda x: 1.0 if x < 0.3 else 0.7 - x)
    assert find_root(g, 0.0, 1.0) == pytest.approx(0.7, abs=1e-15)


def test_find_root_returns_exact_endpoint_root():
    assert find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert find_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_find_root_rejects_bracket_without_sign_change():
    with pytest.raises(SolverError, match=r"no sign change on bracket: f\(1\) = .*f\(2\) = "):
        find_root(lambda x: x + 1.0, 1.0, 2.0)


def test_find_root_rejects_residual_above_tolerance():
    # a jump across zero: the bracket closes on x = 0.5, where |f| = 1
    with pytest.raises(SolverError, match=r"residual -?1\.000e\+00 > 1e-10 on bracket \[0\.5"):
        find_root(lambda x: -1.0 if x < 0.5 else 1.0, 0.0, 1.0)


def test_expand_bracket_widens_both_ends():
    lo, hi, flo, fhi = expand_bracket(lambda x: x - 10.0, 1.0, 1.0)
    assert (lo, hi) == (1.0 / 16.0, 16.0) and flo < 0.0 < fhi
    lo, hi, flo, fhi = expand_bracket(lambda x: x - 0.01, 1.0, 1.0)
    assert (lo, hi) == (2.0**-7, 2.0**7) and flo < 0.0 < fhi


def test_expand_bracket_honours_lo_floor():
    g, calls = counted(lambda x: x - 10.0)
    lo, hi, _, _ = expand_bracket(g, 1.0, 1.0, lo_floor=1.0)
    assert (lo, hi) == (1.0, 16.0)
    assert min(calls) == 1.0
    with pytest.raises(SolverError, match="could not bracket a root"):
        expand_bracket(lambda x: x - 0.01, 1.0, 1.0, lo_floor=0.5)
    with pytest.raises(ValueError, match="invalid starting bracket"):
        expand_bracket(lambda x: x, 2.0, 1.0)


def test_known_end_values_are_not_evaluated_again():
    def f(x):
        return x**3 - 2.0

    g, calls = counted(f)
    bracket = expand_bracket(g, 1.0, 1.0)
    assert calls == [1.0, 0.5, 2.0] and bracket[:2] == (0.5, 2.0)
    assert find_root(g, *bracket) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    # find_root took both end values with the bracket
    assert calls.count(0.5) == 1 and calls.count(2.0) == 1


def test_find_log_root_ends_where_the_float_grid_does():
    # a root half-way between two neighbouring floats just above 1, where
    # the residual never falls to RESIDUAL_FLOOR and find_root's bracket test
    # in x = log v is far finer than an ulp of v: the root ends once the next
    # x rounds to a v already evaluated, at the v with the smallest residual
    v0, ulp = 1.0 + 8 * math.ulp(1.0), math.ulp(1.0)

    def f(v):
        return 1e3 * ((v - v0) - 0.5 * ulp)

    g, calls = counted(f)
    v = find_log_root(g, 0.5, 2.0)
    assert v in (v0, v0 + ulp)
    assert len(set(calls)) == len(calls) <= 12


def test_find_log_root_checks_the_residual_where_the_grid_ends():
    # a jump of 1 at v = 1 leaves no float price with a residual in tolerance
    with pytest.raises(SolverError, match="where the float grid ends"):
        find_log_root(lambda v: -1.0 if v < 1.0 else 1.0, 0.5, 2.0)
