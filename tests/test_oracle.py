import itertools
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from tokenomics import econ_core as ec
from tokenomics import oracle
from tokenomics.errors import OracleError
from tokenomics.first_best import first_best_allocation, flow_surplus
from tokenomics.oracle import GridSpec, grid_best_response

from first_best_grid import grid_first_best
from helpers import ISO, ZERO, three_type_config

R = 0.05
BETA = 1.0 / (1.0 + R)


def one_state(price, tax=0.0, rt=0.0, utility=ISO(0.5, 0.5)):
    """Market conditions with all probability mass on state 1."""
    return dict(
        utility_by_state={1: utility},
        probs={1: 1.0},
        prices={1: price},
        taxes={1: tax},
        returns={1: rt},
        r=R,
    )


def test_zero_utility_prefers_empty_wallet():
    objective = oracle._holdings_objective(**one_state(1.0, utility=ZERO))
    m, value = grid_best_response(objective, GridSpec(1.0))
    assert m == 0.0
    assert value == 0.0


def test_binding_kink_found_exactly_when_on_grid():
    # u'(a)/p = 1 + r pins a = (0.5/1.05)^2 and the kink m = p*a; an upper
    # bound of exactly 2m puts the kink on the grid midpoint
    a_star = (0.5 / 1.05) ** 2
    m_star = a_star  # price 1, no tax
    objective = oracle._holdings_objective(**one_state(1.0))
    m, value = grid_best_response(objective, GridSpec(2 * m_star))
    assert m == pytest.approx(m_star, abs=1e-15)
    expected = -m_star + BETA * (m_star + 2 * 0.5 * math.sqrt(a_star) - a_star)
    assert value == pytest.approx(expected, rel=1e-12)


def test_return_equal_to_r_gives_flat_top_and_smallest_tie():
    # carry is free when the return matches r: every m above the satiation
    # level is equally good, and the tie must break to the smallest one
    satiation = 0.25 / (1.0 + R)  # u'(a)=1 at a=0.25, wealth (1+r)m = p*a
    objective = oracle._holdings_objective(**one_state(1.0, rt=R))
    m, value = grid_best_response(objective, GridSpec(1.0))
    step = 1.0 / 2000
    assert satiation - 1e-12 <= m <= satiation + step
    assert value == pytest.approx(BETA * 0.25, rel=1e-9)


def test_grid_expands_to_reach_interior_optimum():
    a_star = (0.5 / 1.05) ** 2  # optimum near 0.227, beyond the initial grid
    objective = oracle._holdings_objective(**one_state(1.0))
    m, _ = grid_best_response(objective, GridSpec(0.1))
    assert m == pytest.approx(a_star, abs=2 * 0.4 / 2000)


def test_unbounded_objective_raises():
    # a token return above r makes waiting strictly profitable at any balance
    objective = oracle._holdings_objective(**one_state(1.0, rt=0.2))
    with pytest.raises(OracleError, match="unbounded"):
        grid_best_response(objective, GridSpec(1.0))


def test_zero_probability_state_is_ignored():
    kwargs = one_state(1.0)
    kwargs["utility_by_state"][0] = ISO(100.0, 0.5)  # huge demand, never drawn
    kwargs["probs"] = {0: 0.0, 1: 1.0}
    kwargs["prices"][0] = 1.0
    kwargs["taxes"][0] = 0.0
    kwargs["returns"][0] = 0.0
    m, _ = grid_best_response(oracle._holdings_objective(**kwargs), GridSpec(1.0))
    assert m == pytest.approx((0.5 / 1.05) ** 2, abs=1e-3)


def test_refinement_approaches_the_kink():
    m_star = (0.5 / 1.05) ** 2
    objective = oracle._holdings_objective(**one_state(1.0))
    errors = []
    for points in (101, 1001, 10001):
        m, _ = grid_best_response(objective, GridSpec(1.0, points))
        step = 1.0 / (points - 1)
        err = abs(m - m_star)
        assert err <= 2 * step
        errors.append(err)
    assert errors[-1] <= errors[0]


@pytest.mark.parametrize("points", [3, 201, 2001])
def test_grid_values_match_linspace_bit_for_bit(points):
    uppers = [10.0 ** (k / 4) for k in range(-36, 25)] + [1.0 / 3.0, 2.0 / 3.0, 0.7, math.pi]
    for upper in uppers:
        spec = GridSpec(upper, points)
        grid = spec.values()
        assert np.array(grid).tobytes() == np.linspace(0.0, upper, points).tobytes(), upper
        # each call hands out a fresh list
        grid[1] = -1.0
        assert spec.values()[1] > 0.0


def dense_objective(utility_by_state, probs, prices, taxes, returns, r, m):
    """The holdings objective at one balance, written plainly in floats."""
    value = -m
    for s in sorted(utility_by_state):
        f, pi = utility_by_state[s], probs[s]
        if pi <= 0.0:
            continue
        eff = (1.0 + taxes[s]) * prices[s]
        wealth = (1.0 + returns[s]) * m
        if isinstance(f, ec.ZeroUtility) or eff <= 0.0:
            net = 0.0
        else:
            a_star = min((f.scale / eff) ** (1.0 / f.curvature), wealth / eff)
            net = f.scale * a_star ** (1.0 - f.curvature) / (1.0 - f.curvature) - eff * a_star
        value += 1.0 / (1.0 + r) * pi * (wealth + net)
    return value


def dense_grid(m_grid):
    return [i * (m_grid.upper / (m_grid.points - 1)) for i in range(m_grid.points - 1)] + [
        m_grid.upper
    ]


def tie_tol(values, upper):
    return oracle.TIE_RTOL * max(abs(min(values)), abs(max(values)), upper)


def dense_best_response(utility_by_state, probs, prices, taxes, returns, r, m_grid):
    """Reference: every grid point scored, and the first one within the tie
    tolerance of the maximum (relative to the largest scored magnitude or
    the grid's upper bound, whichever is larger) wins."""
    for _ in range(oracle._MAX_EXPANSIONS + 1):
        m = dense_grid(m_grid)
        values = [dense_objective(utility_by_state, probs, prices, taxes, returns, r, x) for x in m]
        floor = max(values) - tie_tol(values, m_grid.upper)
        best = next(i for i, v in enumerate(values) if v >= floor)
        if best < len(m) - 1:
            return m[best], values[best]
        m_grid = GridSpec(m_grid.upper * 2.0, m_grid.points)
    raise OracleError("unbounded")


_log_uniform = st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)
_utility = st.one_of(
    st.just(ZERO),
    st.builds(ISO, _log_uniform, st.floats(0.05, 0.95)),
)
_return = st.one_of(st.just(R), st.floats(-0.05, 0.07))
MARKETS = dict(
    utilities=st.tuples(_utility, _utility),
    p_high=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    prices=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
    taxes=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    returns=st.tuples(_return, _return),
    m_upper=st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e),
    points=st.sampled_from([3, 21, 201, 2001]),
)


def market(utilities, p_high, prices, taxes, returns):
    return dict(
        utility_by_state=dict(enumerate(utilities)),
        probs={0: 1.0 - p_high, 1: p_high},
        prices=dict(enumerate(prices)),
        taxes=dict(enumerate(taxes)),
        returns=dict(enumerate(returns)),
        r=R,
    )


@settings(max_examples=150, deadline=None)
@given(**MARKETS)
# flat tops at returns equal to r, where the cancelling -m and beta (1 + r) m
# leave rounding of order EPS * upper: a tolerance relative to the scored
# values alone picked 0.00095 from values near 1e-19 in the first, and a
# balance of 0.2505 against 0.0139 in the second
@example((ZERO, ZERO), 0.5, (1.0, 1.0), (0.0, 0.0), (R, R), 0.001, 21)
@example(
    (ISO(0.0014945299356018344, 0.4194922375840088), ISO(0.01098687098398633, 0.1707464256803727)),
    0.0,
    (3.0849871487689784, 0.8705022428525075),
    (0.2152887231733508, 0.199198705939648),
    (R, 0.03169882781311126),
    0.2783332144328771,
    21,
)
def test_best_response_matches_dense_reference(
    utilities, p_high, prices, taxes, returns, m_upper, points
):
    # returns above r leave the objective unbounded (OracleError); small
    # grids expand; returns equal to r leave a flat top broken by the tie rule
    kwargs = market(utilities, p_high, prices, taxes, returns)
    objective = oracle._holdings_objective(**kwargs)
    m_grid = GridSpec(m_upper, points)
    try:
        expected = dense_best_response(**kwargs, m_grid=m_grid)
    except OracleError:
        event("unbounded")
        with pytest.raises(OracleError):
            grid_best_response(objective, m_grid)
        return
    event("expanded" if expected[0] > m_upper else "first grid")
    assert grid_best_response(objective, m_grid) == expected


@settings(max_examples=150, deadline=None)
@given(**MARKETS)
def test_holdings_objective_is_unimodal_within_the_tie_tolerance(
    utilities, p_high, prices, taxes, returns, m_upper, points
):
    # the search's premise: no grid value dips below both the best value
    # before it and the best value after it by more than the tie tolerance
    objective = oracle._holdings_objective(**market(utilities, p_high, prices, taxes, returns))
    m_grid = GridSpec(m_upper, points)
    values = [objective(m) for m in dense_grid(m_grid)]
    before = list(itertools.accumulate(values, max))
    after = list(itertools.accumulate(reversed(values), max))[::-1]
    dip = max(min(b, a) - v for b, v, a in zip(before, values, after))
    assert dip <= tie_tol(values, m_upper)


@pytest.mark.parametrize("rt", [-1.0, -1.5])
def test_return_at_or_below_minus_one_is_rejected(rt):
    # wealth (1 + rT) m would be negative, and a negative base under ** complex
    with pytest.raises(ValueError, match="exceed -1"):
        oracle._holdings_objective(**one_state(1.0, rt=rt))


def test_deterministic_across_calls():
    objective = oracle._holdings_objective(**one_state(0.8, tax=0.1, rt=0.02))
    first = grid_best_response(objective, GridSpec(1.0))
    second = grid_best_response(objective, GridSpec(1.0))
    assert first == second


def test_best_response_searches_any_concave_objective():
    # plain concave functions no market built, on grids of exact floats
    # (step 1/1024 and 1/4)
    def bowl(peak):
        return lambda m: -((m - peak) ** 2)

    # a peak strictly inside the grid, between two points: the nearer wins
    assert grid_best_response(bowl(0.7), GridSpec(2.0, 2049)) == (717 / 1024, bowl(0.7)(717 / 1024))

    # a flat top from 0.5 on, tilted up: within TIE_RTOL of the maximum the
    # smallest index wins, outside it the higher point does
    def flat_top(tilt):
        return lambda m: min(m, 0.5) + tilt * min(m, 0.75)

    assert 1e-13 < oracle.TIE_RTOL < 1e-9
    assert grid_best_response(flat_top(1e-13), GridSpec(1.0, 5))[0] == 0.5
    assert grid_best_response(flat_top(1e-9), GridSpec(1.0, 5))[0] == 0.75

    # a peak past the upper bound: the grid doubles from 1 to 4 and finds it
    assert grid_best_response(bowl(3.0), GridSpec(1.0, 5)) == (3.0, 0.0)

    # still rising at the last expanded grid (upper 16 after four doublings)
    with pytest.raises(OracleError, match="after 4 expansions"):
        grid_best_response(bowl(100.0), GridSpec(1.0, 5))


# ---------------------------------------------------------------------------
# first-best product grid
# ---------------------------------------------------------------------------


def grid_load(cfg, acts):
    """Total blockspace load of a grid cell's activities."""
    return math.fsum(t.mass * acts[t.name] for t in cfg.agent_types)


def grid_congested(cfg, acts, grids):
    """Whether a grid cell sits on the capacity line: its load is within one
    type's mass times grid step of capacity."""
    slack = max(t.mass * grids[t.name].upper / (grids[t.name].points - 1)
                for t in cfg.agent_types if t.name in grids)
    return grid_load(cfg, acts) >= ec.BLOCKSPACE_CAPACITY - slack


def test_grid_first_best_matches_analytic(det_cfg):
    analytic = first_best_allocation(det_cfg, 1)
    grids = {"users": GridSpec(2 * analytic.activities["users"])}
    acts, surplus = grid_first_best(det_cfg, 1, grids=grids)
    step = 2 * analytic.activities["users"] / 2000
    assert abs(acts["users"] - analytic.activities["users"]) <= step
    gross = 2 * 0.5 * math.sqrt(acts["users"])
    assert surplus == pytest.approx(gross - grid_load(det_cfg, acts)**2 / 2, rel=1e-9)


def test_grid_first_best_zero_state(iid_cfg):
    acts, surplus = grid_first_best(iid_cfg, 0, grids={})
    assert grid_load(iid_cfg, acts) == 0.0
    assert surplus == 0.0


def test_grid_first_best_respects_capacity(het_cfg):
    analytic = first_best_allocation(het_cfg, 1)
    grids = {name: GridSpec(2 * a) for name, a in analytic.activities.items()}
    acts, _ = grid_first_best(het_cfg, 1, grids=grids)
    assert grid_load(het_cfg, acts) <= ec.BLOCKSPACE_CAPACITY + 1e-9
    assert grid_congested(het_cfg, acts, grids)


def test_grid_first_best_boundary_raises(det_cfg):
    with pytest.raises(OracleError, match="widen the grid"):
        grid_first_best(det_cfg, 1, grids={"users": GridSpec(0.3)})


def dense_first_best(cfg, state, grids):
    """Reference: every cell of the product grid scored in plain floats, and
    the first row-major cell within the oracle's tie tolerance (relative to
    the largest feasible surplus magnitude) of the maximum wins. Returns the
    cell's index, its activities and its surplus."""
    active = [t for t in cfg.agent_types if t.is_active(state)]
    utilities = [t.utility_in(state) for t in active]
    axes = [dense_grid(grids[t.name]) for t in active]
    q = 1.0 + cfg.cost.curvature
    surplus = {}
    for idx in itertools.product(*(range(len(ax)) for ax in axes)):
        acts = [ax[i] for ax, i in zip(axes, idx)]
        total = sum(t.mass * a for t, a in zip(active, acts))
        if total > ec.BLOCKSPACE_CAPACITY + 1e-12:
            continue
        gross = sum(
            t.mass * (f.scale * a ** (1.0 - f.curvature) / (1.0 - f.curvature))
            for t, f, a in zip(active, utilities, acts)
        )
        surplus[idx] = gross - cfg.cost.scale * total**q / q
    vmax = max(surplus.values())
    tol = oracle.TIE_RTOL * max(abs(v) for v in surplus.values())
    idx = next(idx for idx, v in surplus.items() if v >= vmax - tol)
    return idx, {t.name: ax[i] for t, ax, i in zip(active, axes, idx)}, surplus[idx]


def assert_matches_dense(cfg, state, grids):
    """grid_first_best picks the reference's cell and surplus exactly, or
    raises where that cell is on the grid boundary. Returns the activities."""
    idx, expected, expected_surplus = dense_first_best(cfg, state, grids)
    if any(i == grids[name].points - 1 for name, i in zip(expected, idx)):
        with pytest.raises(OracleError, match="widen the grid"):
            grid_first_best(cfg, state, grids=grids)
        return None
    acts, surplus = grid_first_best(cfg, state, grids=grids)
    assert {n: acts[n] for n in expected} == expected
    assert surplus == expected_surplus
    return acts


def twin_types_config():
    # identical types: a best cell off the diagonal ties exactly with its mirror
    twin = {1: ISO(2.0, 0.5)}
    return ec.EconomyConfig(
        r=R,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(mass=0.5, utility_by_state=twin, name="a"),
            ec.AgentTypeSpec(mass=0.5, utility_by_state=twin, name="b"),
        ),
        cost=ec.CostFn(1.0, 1.0),
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )


def test_grid_first_best_matches_dense_grid(het_cfg, det_cfg):
    twin = GridSpec(2.3, 21)
    cases = [
        (twin_types_config(), 1, {"a": twin, "b": twin}),
        (het_cfg, 1, {"shocked": GridSpec(4.0, 41), "steady": GridSpec(1.0, 37)}),
        (het_cfg, 0, {"shocked": GridSpec(1.0, 41), "steady": GridSpec(1.0, 37)}),
        (det_cfg, 1, {"users": GridSpec(1.5, 61)}),
    ]
    for cfg, state, grids in cases:
        assert assert_matches_dense(cfg, state, grids) is not None
    # the twin optimum is off the diagonal: the first row-major cell of the tie wins
    acts, _ = grid_first_best(twin_types_config(), 1, grids={"a": twin, "b": twin})
    assert acts["a"] < acts["b"]


def unequal_pair_config():
    # planner activities about 0.79 and 0.41, total load 0.56 below capacity
    return ec.EconomyConfig(
        r=R,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(mass=0.4, utility_by_state={1: ISO(0.5, 0.5)}, name="a"),
            ec.AgentTypeSpec(mass=0.6, utility_by_state={1: ISO(0.3, 0.7)}, name="b"),
        ),
        cost=ec.CostFn(1.0, 1.0),
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )


@pytest.mark.parametrize("cells", [21, 100, 1 << 18])
def test_grid_first_best_blocks_match_dense_grid(het_cfg, cells):
    # product grids of `cells` cells, rows x columns with rows the largest
    # divisor up to the square root, each way round: the walk over short
    # rows, long rows and a large square agrees with every cell scored
    rows = max(d for d in range(3, math.isqrt(cells) + 1) if cells % d == 0)
    cols = cells // rows
    for first, second in ((rows, cols), (cols, rows)):
        # a congested optimum: the capacity line cuts the rows short
        grids = {"shocked": GridSpec(4.0, first), "steady": GridSpec(1.0, second)}
        assert assert_matches_dense(het_cfg, 1, grids) is not None
        # an uncongested optimum under quadratic cost: the row peaks step
        # left as the first activity grows
        pair = {"a": GridSpec(1.6, first), "b": GridSpec(0.9, second)}
        assert assert_matches_dense(unequal_pair_config(), 1, pair) is not None


def test_grid_first_best_refuses_three_active_types():
    with pytest.raises(OracleError, match="limited to 2 active types, got 3"):
        grid_first_best(three_type_config(), 1, grids={n: GridSpec(1.0) for n in "abc"})


_curvature = st.floats(0.05, 0.95)


@settings(max_examples=200, deadline=None)
@given(
    mass=st.floats(0.05, 0.95),
    utilities=st.tuples(
        st.builds(ISO, _log_uniform, _curvature), st.builds(ISO, _log_uniform, _curvature)
    ),
    cost=st.builds(ec.CostFn, st.floats(-1.0, 1.0).map(lambda e: 10.0**e), st.floats(0.05, 3.0)),
    widths=st.tuples(st.floats(0.8, 4.0), st.floats(0.8, 4.0)),
    points=st.tuples(st.integers(3, 61), st.integers(3, 61)),
)
def test_grid_first_best_matches_dense_reference(mass, utilities, cost, widths, points):
    # each grid spans widths times the planner's activity or 0.5, whichever
    # is larger, as verify's grids do: the capacity line crosses the grids of
    # congested optima, and widths below 1 can put the optimum past the
    # grid's edge, where both raise
    cfg = ec.EconomyConfig(
        r=R,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(mass=mass, utility_by_state={1: utilities[0]}, name="a"),
            ec.AgentTypeSpec(mass=1.0 - mass, utility_by_state={1: utilities[1]}, name="b"),
        ),
        cost=cost,
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )
    anchor = first_best_allocation(cfg, 1).activities
    grids = {n: GridSpec(w * max(anchor[n], 0.5), k) for n, w, k in zip("ab", widths, points)}
    acts = assert_matches_dense(cfg, 1, grids)
    event(
        "boundary" if acts is None
        else "congested" if grid_congested(cfg, acts, grids) else "uncongested"
    )


# ---------------------------------------------------------------------------
# first-best dual bound
# ---------------------------------------------------------------------------


def dual_bound(cfg, state, x):
    """sup of the planner's Lagrangian at price x, by the package's
    primitives: each active type buys u'^-1(x), and supply is the load at
    which marginal cost reaches x, capped at capacity."""
    value = math.fsum(
        t.mass * (ec.u_eval(t.utility_in(state), a) - x * a)
        for t in cfg.agent_types if t.is_active(state)
        for a in [ec.u_prime_inv(t.utility_in(state), x)]
    )
    load = 1.0 if x >= cfg.cost.scale else (x / cfg.cost.scale) ** (1.0 / cfg.cost.curvature)
    return value + x * load - ec.c_eval(cfg.cost, load)


def surplus_of(cfg, state, acts):
    return flow_surplus(cfg, acts, math.fsum(t.mass * acts[t.name] for t in cfg.agent_types), state)


@settings(max_examples=150, deadline=None)
@given(
    types=st.lists(
        st.tuples(st.floats(0.1, 1.0), _log_uniform, _curvature), min_size=1, max_size=5
    ),
    cost=st.builds(ec.CostFn, st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
                   st.sampled_from([1e-9]) | st.floats(0.05, 3.0)),
    shrink=st.floats(0.5, 0.999),
)
# a congested root 975 times c'(1) = 0.1, where the clearing kernel starts: x
# in log price from there rounded coarser than the price, and the load was
# left 56 ulps over capacity
@example(types=[(1.0, 100.0, 0.0625), (0.5, 1.0, 0.0625)], cost=ec.CostFn(0.1, 1e-9), shrink=0.5)
def test_first_best_dual_gap_is_the_tightest_bound_minus_surplus(types, cost, shrink):
    # 0 at the planner's optimum up to rounding; off it, the smallest bound
    # over the active types' marginal utilities minus the surplus, > 0
    total = math.fsum(w for w, _, _ in types)
    cfg = ec.EconomyConfig(
        r=R,
        gamma=0.0,
        agent_types=tuple(
            ec.AgentTypeSpec(mass=w / total, utility_by_state={1: ISO(s, c)}, name=f"t{i}")
            for i, (w, s, c) in enumerate(types)
        ),
        cost=cost,
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )
    best = first_best_allocation(cfg, 1).activities
    best_surplus = surplus_of(cfg, 1, best)
    assert abs(oracle.first_best_dual_gap(cfg, 1, best)) <= 1e-14 * max(1.0, abs(best_surplus))
    # the type with the largest load buys less: its marginal utility rises
    # above the others'
    big = max(cfg.agent_types, key=lambda t: t.mass * best[t.name]).name
    off = dict(best, **{big: shrink * best[big]})
    bounds = [dual_bound(cfg, 1, ec.u_prime(t.utility_in(1), off[t.name])) for t in cfg.agent_types]
    expected = min(bounds) - surplus_of(cfg, 1, off)
    gap = oracle.first_best_dual_gap(cfg, 1, off)
    assert gap == pytest.approx(expected, rel=1e-9, abs=1e-14 * max(1.0, abs(best_surplus)))
    assert gap > 0.0


def test_first_best_dual_gap_flags_idle_and_overfull_allocations(het_cfg, common_cfg):
    best = first_best_allocation(het_cfg, 1).activities  # congested: load 1
    assert oracle.first_best_dual_gap(het_cfg, 1, dict(best, steady=0.0)) == math.inf
    # past capacity the surplus can exceed every bound
    assert oracle.first_best_dual_gap(het_cfg, 1, {n: 1.01 * a for n, a in best.items()}) < 0.0
    # a state with no active type: the bound's infimum is 0, and so is the surplus
    assert oracle.first_best_dual_gap(common_cfg, 0, {"users": 0.0}) == 0.0
