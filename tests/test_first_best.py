import math
import pickle
import random
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

from tokenomics import econ_core as ec
from tokenomics import equilibrium as eqm
from tokenomics._roots import RESIDUAL_TOL
from tokenomics.first_best import (
    _clear_blockspace,
    _clear_demands,
    expected_first_best_surplus,
    first_best_allocation,
    flow_surplus,
    planner_economy,
)
from tokenomics.verify import CERT_TOL
from tokenomics.welfare import evaluate

from helpers import (
    CONFIG_DIR, ISO, ZERO, marginal_cost_overflow_config, record_evaluations, replace,
    single_user_config,
)

#: planner's activity for the canonical single-user economy, from
#: 0.5 a^(-1/2) = a  =>  a = 0.5^(2/3)
CANONICAL_ACTIVITY = 0.6299605249474366
CANONICAL_SURPLUS = 0.5952753944880749


def planner_surplus(cfg, state):
    alloc = first_best_allocation(cfg, state)
    return flow_surplus(cfg, alloc.activities, alloc.total, state)


def test_canonical_uncongested_allocation(det_cfg):
    alloc = first_best_allocation(det_cfg, 1)
    assert not alloc.congested
    assert alloc.shadow_marginal == 0.0
    assert alloc.activities["users"] == pytest.approx(CANONICAL_ACTIVITY, abs=1e-10)
    assert alloc.total == pytest.approx(CANONICAL_ACTIVITY, abs=1e-10)
    assert planner_surplus(det_cfg, 1) == pytest.approx(CANONICAL_SURPLUS, abs=1e-10)


def test_congested_two_type_allocation():
    # strong demand from both types: ration one unit at the shadow value
    # sqrt(2.5), giving activities (2/x)^2 = 1.6 and (1/x)^2 = 0.4
    cfg = ec.EconomyConfig(
        r=0.05,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(mass=0.5, utility_by_state={1: ISO(2.0, 0.5)}, name="hi"),
            ec.AgentTypeSpec(mass=0.5, utility_by_state={1: ISO(1.0, 0.5)}, name="lo"),
        ),
        cost=ec.CostFn(1.0, 1.0),
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )
    alloc = first_best_allocation(cfg, 1)
    assert alloc.congested
    assert alloc.total == pytest.approx(1.0, abs=1e-10)
    assert alloc.shadow_marginal == pytest.approx(1.5811388300841898, rel=1e-10)
    assert alloc.activities["hi"] == pytest.approx(1.6, rel=1e-9)
    assert alloc.activities["lo"] == pytest.approx(0.4, rel=1e-9)
    # rationing must price at or above marginal cost at capacity
    assert alloc.shadow_marginal >= ec.c_prime(cfg.cost, 1.0)


def test_total_is_mass_weighted_sum(het_cfg):
    for state in (0, 1):
        alloc = first_best_allocation(het_cfg, state)
        expected = math.fsum(
            t.mass * alloc.activities[t.name] for t in het_cfg.agent_types
        )
        assert alloc.total == pytest.approx(expected, abs=1e-12)


def test_equal_marginal_utilities_at_optimum(het_cfg):
    alloc = first_best_allocation(het_cfg, 1)
    marginals = [
        ec.u_prime(t.utility_in(1), alloc.activities[t.name])
        for t in het_cfg.agent_types
    ]
    assert marginals[0] == pytest.approx(marginals[1], rel=1e-9)
    if alloc.congested:
        assert marginals[0] == pytest.approx(alloc.shadow_marginal, rel=1e-9)


def test_no_demand_state_allocates_nothing(iid_cfg):
    alloc = first_best_allocation(iid_cfg, 0)
    assert alloc.total == 0.0
    assert alloc.activities == {"users": 0.0}


@pytest.mark.parametrize("cost", [(1.0, 1.0), (4.0, 2.0)], ids=["congested", "slack"])
def test_a_clear_returns_the_activities_its_load_computed(cost, monkeypatch):
    # the two-type planner's market, with a third type idle in the state:
    # each active type's activity is u'^-1(wedge * fee), bit for bit, read
    # from the load's evaluation at the fee, so demand is inverted once per
    # active type and load evaluation, and not again
    cfg = ec.EconomyConfig(
        r=0.05, gamma=0.0,
        agent_types=(ec.AgentTypeSpec(0.5, {1: ISO(0.5, 0.5)}, "a"),
                     ec.AgentTypeSpec(0.3, {0: ISO(1.0, 0.5)}, "idle"),
                     ec.AgentTypeSpec(0.2, {1: ISO(2.0, 0.3)}, "b")),
        cost=ec.CostFn(*cost), shocks=ec.ShockProcess(ec.ShockKind.COMMON_BINARY, 0.5),
    )
    wedge, share = 0.8, 0.8
    seen = record_evaluations(monkeypatch)
    price, congested, acts, load = _clear_demands(cfg, 1, wedge, share)
    (prices,) = seen.clears
    assert len(seen.u_prime_inv) == 2 * len(prices)
    utilities = {"a": ISO(0.5, 0.5), "b": ISO(2.0, 0.3)}
    seen.clear()
    expected = {n: ec.u_prime_inv(utilities[n], wedge * price) if n in utilities else 0.0
                for n in ("a", "idle", "b")}
    assert acts == expected and list(acts) == ["a", "idle", "b"]
    assert load == share * math.fsum(t.mass * acts[t.name] for t in cfg.agent_types)
    assert congested is (cost == (1.0, 1.0))


def test_the_idle_state_of_a_common_shock_clears_at_fee_zero(common_cfg):
    # no type is active in state 0: the planner's market there is idle, with
    # every type at 0.0 and no load
    assert _clear_demands(common_cfg, 0, 1.0, 1.0) == (0.0, False, {"users": 0.0}, 0.0)
    alloc = first_best_allocation(common_cfg, 0)
    assert (alloc.activities, alloc.total, alloc.congested) == ({"users": 0.0}, 0.0, False)


def test_random_perturbations_never_improve(det_cfg, het_cfg):
    """The reported optimum beats 100 random feasible perturbations."""
    rng = random.Random(20260817)
    for cfg, state in ((det_cfg, 1), (het_cfg, 1), (het_cfg, 0)):
        alloc = first_best_allocation(cfg, state)
        base = planner_surplus(cfg, state)
        for _ in range(100):
            candidate = {
                name: max(a * (1.0 + rng.uniform(-0.05, 0.05)), 0.0)
                for name, a in alloc.activities.items()
            }
            total = math.fsum(
                t.mass * candidate[t.name] for t in cfg.agent_types
            )
            if total > ec.BLOCKSPACE_CAPACITY:
                continue
            assert flow_surplus(cfg, candidate, total, state) <= base + 1e-12


def test_surplus_monotone_in_demand_scale():
    surpluses = []
    for scale in (0.25, 0.5, 1.0, 2.0):
        cfg = single_user_config(ec.ShockKind.DETERMINISTIC, scale=scale)
        surpluses.append(planner_surplus(cfg, 1))
    assert all(x < y for x, y in zip(surpluses, surpluses[1:]))


def test_expected_surplus_weights_states(common_cfg):
    high = planner_surplus(common_cfg, 1)
    low = planner_surplus(common_cfg, 0)
    rho = common_cfg.shocks.rho
    assert expected_first_best_surplus(common_cfg) == pytest.approx(
        rho * high + (1 - rho) * low, abs=1e-12
    )


def test_iid_expected_surplus_uses_cross_section(iid_cfg):
    # under idiosyncratic draws only a fraction rho is active, so the benchmark
    # must beat the naive state-1 surplus weighted by rho (cost convexity)
    expected = expected_first_best_surplus(iid_cfg)
    naive_high = planner_surplus(iid_cfg, 1)
    assert expected > iid_cfg.shocks.rho * naive_high - 1e-12


# ---------------------------------------------------------------------------
# one first best per config object
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["deterministic", "iid", "common", "heterogeneous"])
def test_first_best_is_solved_once_per_config(name, monkeypatch):
    cfg = ec.load_config(CONFIG_DIR / f"{name}.json")
    calls = record_evaluations(monkeypatch).u_prime_inv
    first = [first_best_allocation(cfg, s) for s in (0, 1)]
    surplus = expected_first_best_surplus(cfg)
    calls.clear()
    again = [first_best_allocation(cfg, s) for s in (0, 1)]
    assert expected_first_best_surplus(cfg) == surplus
    assert calls == []
    # the stored allocations themselves are handed out, so callers only read them
    assert all(a is b for a, b in zip(first, again))


def test_replaced_config_gets_its_own_first_best(det_cfg):
    before = first_best_allocation(det_cfg, 1)
    dearer = replace(det_cfg, cost=ec.CostFn(2.0, 1.0))
    after = first_best_allocation(dearer, 1)
    assert after.total < before.total
    assert expected_first_best_surplus(dearer) < expected_first_best_surplus(det_cfg)
    assert first_best_allocation(det_cfg, 1) is before


@pytest.mark.parametrize("solved_first", [False, True])
def test_pickled_config_scores_identically(solved_first):
    # the first-best memo lives in the config's instance __dict__, so a
    # pickled copy carries whatever was stored; with or without it, the copy
    # must score the same
    cfg = ec.load_config(CONFIG_DIR / "iid.json")
    eq = eqm.solve_regime(cfg, "iid", 0.05)
    if solved_first:
        report = evaluate(cfg, eq)
    copy = pickle.loads(pickle.dumps(cfg))
    assert ("_first_best" in vars(copy)) is solved_first
    copied = evaluate(copy, eq)
    if not solved_first:
        report = evaluate(cfg, eq)
    assert copy == cfg
    assert copied.as_dict() == report.as_dict()


def _cross_section(cfg: ec.EconomyConfig, pairs) -> ec.EconomyConfig:
    # the deterministic economy whose types are the (type, state) pairs
    # (name, mass * pi_s, u_s) that the planner of iid cfg faces
    return ec.EconomyConfig(
        r=cfg.r,
        gamma=cfg.gamma,
        agent_types=tuple(
            ec.AgentTypeSpec(mass=mass, utility_by_state={1: u}, name=name)
            for name, mass, u in pairs
        ),
        cost=cfg.cost,
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )


@pytest.mark.parametrize(
    "cfg, pairs",
    [
        (
            replace(ec.load_config(CONFIG_DIR / "iid.json"), gamma=0.02),
            [("users@0", 0.5, ZERO), ("users@1", 0.5, ISO(0.5, 0.5))],
        ),
    ],
    ids=["shipped-gamma-0.02"],
)
def test_stored_iid_surplus_matches_fresh_cross_section(cfg, pairs):
    stored = expected_first_best_surplus(cfg)
    fresh = planner_surplus(_cross_section(cfg, pairs), 1)
    assert expected_first_best_surplus(cfg) == stored == fresh


def test_iid_planner_economy_is_the_one_active_pair(iid_cfg):
    # family() admits one iid type, idle in state 0: the planner's market is
    # that type's users in state 1, a fraction rho = 0.5 of its unit mass
    economy = planner_economy(iid_cfg)
    users, = iid_cfg.agent_types
    assert economy.agent_types == (ec.AgentTypeSpec(0.5, {1: users.utility_in(1)}, "users@1"),)
    assert economy.shocks == ec.ShockProcess(ec.ShockKind.DETERMINISTIC)
    assert (economy.r, economy.gamma, economy.cost) == (iid_cfg.r, iid_cfg.gamma, iid_cfg.cost)


# ---------------------------------------------------------------------------
# the clearing kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "curvature, cost_scale, guess, far, congested",
    [
        # no guess: at c'(1) = 0.99 demand is 4.4e43, so its log residual
        # there bounds the root by 0.99 e^100.5
        (1e-4, 0.99, None, 4.402397154528061e43, True),
        # a guess 0.99995 below the root 1, where demand is 148: its residual
        # bounds the root by 0.99995 e^5
        (1e-5, 0.9999, 0.99995, 148.4242909412655, True),
        (1e-4, 2.0, None, 2.0, False),  # demand at c'(1) itself is 0.0
    ],
)
def test_clearing_survives_demand_underflow(curvature, cost_scale, guess, far, congested):
    # curvature near 0: demand (1/p)^(1/curvature) underflows to 0.0 at the
    # far end of the bracket, which the log-price residuals must not pass to
    # math.log
    u = ISO(1.0, curvature)
    cost = ec.CostFn(cost_scale, 1.0)
    evaluated = []

    def load(p: float) -> float:
        evaluated.append(p)
        return ec.u_prime_inv(u, p)

    assert load(far) == 0.0
    p, is_congested = _clear_blockspace(cost, load, guess)
    assert is_congested is congested
    assert far in evaluated[1:] and p in evaluated
    if congested:
        assert load(p) == pytest.approx(1.0, abs=1e-10)
    else:
        assert p == pytest.approx(ec.c_prime(cost, load(p)), rel=1e-10)


def test_a_market_clears_where_marginal_cost_passes_a_float():
    # at fees far below the slack one the load's marginal cost s^11 exceeds
    # the largest float; it reads inf, so the slack residual there is -inf
    cfg = marginal_cost_overflow_config()
    alloc = first_best_allocation(cfg, 1)
    assert not alloc.congested and alloc.total < 1.0
    x = ec.u_prime(cfg.agent_types[0].utility_in(1), alloc.activities["a"])
    assert x == pytest.approx(ec.c_prime(cfg.cost, alloc.total), rel=1e-10)
    eq = eqm.solve_regime(cfg, "friedman")
    assert eq.states[1].activities == pytest.approx(alloc.activities, rel=1e-12)


def _recorded(u: ec.UtilityFn) -> tuple[list[float], Callable[[float], float]]:
    evaluated: list[float] = []

    def load(p: float) -> float:
        evaluated.append(p)
        return ec.u_prime_inv(u, p)

    return evaluated, load


# under c(q) = q^2 / 2, demand (2/p)^2 clears at capacity at p = 2 > c'(1),
# and demand (1/(8p))^2 meets marginal cost below it at p = c'(0.25) = 0.25
CONGESTED_ROOT = (ISO(2.0, 0.5), 2.0)
SLACK_ROOT = (ISO(0.125, 0.5), 0.25)


@pytest.mark.parametrize(
    "u, root, congested",
    [(*CONGESTED_ROOT, True), (*SLACK_ROOT, False)],
    ids=["u0-2.0-warm0-True", "u1-0.25-warm1-False"],
)
def test_a_prediction_at_the_root_takes_one_load_evaluation(u, root, congested):
    evaluated, load = _recorded(u)
    assert _clear_blockspace(ec.CostFn(1.0, 1.0), load, root) == (root, congested)
    assert evaluated == [root]


@pytest.mark.parametrize("warm", [0.255, 0.245, 0.45], ids=["warm0", "warm1", "warm2"])
def test_a_slack_prediction_clears_without_the_capacity_test(warm):
    # slack predictions above and below the root, each bounding it short of
    # c'(1): p <= c'(1) and p = c'(load(p)) put the load within capacity, so
    # load(c'(1)) is not needed
    u, root = SLACK_ROOT
    evaluated, load = _recorded(u)
    price, congested = _clear_blockspace(ec.CostFn(1.0, 1.0), load, warm)
    assert not congested and price == pytest.approx(root, rel=1e-15)
    assert 1.0 not in evaluated and price in evaluated
    assert len(set(evaluated)) == len(evaluated)


@pytest.mark.parametrize(
    "u, warm",
    [
        (CONGESTED_ROOT[0], 0.7),  # slack prediction far below c'(1)
        (CONGESTED_ROOT[0], 0.95),  # slack prediction near c'(1)
        (CONGESTED_ROOT[0], 1.0),  # a prediction at c'(1)
        (SLACK_ROOT[0], 1.35),  # congested prediction near c'(1)
        (SLACK_ROOT[0], 1.1),  # congested prediction nearer still
        (SLACK_ROOT[0], 4.0),  # congested prediction far above
        # slack prediction below the root whose bound passes c'(1): the root
        # may be congested, so the test at c'(1) runs
        (SLACK_ROOT[0], 0.1),
    ],
    ids=[f"u{i}-warm{i}" for i in range(7)],
)
def test_a_prediction_on_the_wrong_side_of_capacity_cost_gets_the_cold_result(u, warm):
    cost = ec.CostFn(1.0, 1.0)
    cold_price, cold_congested = _clear_blockspace(cost, _recorded(u)[1])
    evaluated, load = _recorded(u)
    price, congested = _clear_blockspace(cost, load, warm)
    assert congested is cold_congested
    assert price == pytest.approx(cold_price, rel=RESIDUAL_TOL)
    assert price in evaluated and len(set(evaluated)) == len(evaluated)


@settings(max_examples=300, deadline=None)
@given(
    cost_curvature=st.sampled_from([1e-9, 1e-4]) | st.floats(1e-3, 3.0),
    cost_scale=st.floats(0.5, 2.0),
    # each demand's load at c'(1), with extra draws near capacity, and its curvature
    demands=st.lists(
        st.tuples(st.floats(0.01, 100.0) | st.floats(0.9, 1.1), st.floats(0.1, 0.9)),
        min_size=1,
        max_size=2,
    ),
    side=st.sampled_from([None, "below", "above"]),
    near=st.floats(1.0, 4.0),
)
# demand that fills capacity exactly at c'(1): a guess at c'(1) or an ulp off
# it on either side
@example(1e-9, 0.75, [(1.0, 0.5)], "above", 1.0)
@example(1e-9, 0.75, [(1.0, 0.5)], "above", 1.0 + 2.0**-52)
@example(1e-9, 1.0, [(1.0, 0.5)], "below", 1.0 + 2.0**-52)
def test_a_clear_prices_by_its_branch_from_any_guess(
    cost_curvature, cost_scale, demands, side, near
):
    # every congested fee is at or above marginal cost at capacity c'(1) and
    # every slack one at or below it, whatever guess the solve starts from:
    # none (c'(1) itself), at or above c'(1), or below it
    cost = ec.CostFn(cost_scale, cost_curvature)
    capacity_cost = ec.c_prime(cost, 1.0)
    # u'^-1(c'(1)) = (scale / c'(1))^(1 / curvature) is the demand's load there
    utilities = [ISO(capacity_cost * at_cap**curvature, curvature) for at_cap, curvature in demands]
    guess = {None: None, "below": capacity_cost / near, "above": capacity_cost * near}[side]
    loads: dict[float, float] = {}

    def load(p: float) -> float:
        loads[p] = math.fsum(ec.u_prime_inv(u, p) / len(utilities) for u in utilities)
        return loads[p]

    cold_price, cold_congested = _clear_blockspace(cost, load)
    loads.clear()
    price, congested = _clear_blockspace(cost, load, guess)
    assert price in loads
    if congested:
        assert price >= capacity_cost
        assert abs(math.log(loads[price])) <= RESIDUAL_TOL
    else:
        # at a root on c'(1) itself a price an ulp below it can carry a load a
        # few ulps above capacity, which the certificate's tolerance absorbs
        assert price <= capacity_cost
        assert loads[price] <= 1.0 + CERT_TOL["over_capacity"]
        assert abs(math.log(price) - math.log(ec.c_prime(cost, loads[price]))) <= RESIDUAL_TOL
    assert price == pytest.approx(cold_price, rel=1e-8, abs=0.0)
    assert congested is cold_congested


def _log_residuals(cost: ec.CostFn, demands: list[tuple[float, ec.UtilityFn]]):
    """The kernel's two residuals in x = log p, for demands [(mass, utility)]
    buying mass * (scale / p)^(1 / curvature) each, written out in logs so
    that no load overflows or underflows: log load(p) (congested) and
    log p - log c'(load(p)) (slack)."""

    def log_load(x: float) -> float:
        terms = [math.log(k) + (math.log(u.scale) - x) / u.curvature for k, u in demands]
        top = max(terms)
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))

    def slack(x: float) -> float:
        return x - math.log(cost.scale) - cost.curvature * log_load(x)

    return log_load, slack


def _log_root(f: Callable[[float], float], x: float) -> float:
    # bisection of a residual that falls or rises through zero near x
    lo, hi = x - 60.0, x + 60.0
    rising = f(hi) > 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == rising:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@settings(max_examples=200, deadline=None)
@given(
    cost_curvature=st.floats(1e-9, 10.0),
    cost_scale=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    # each demand's load at c'(1) and its curvature
    demands=st.lists(
        st.tuples(st.floats(-2.0, 2.0).map(lambda e: 10.0**e), st.floats(0.01, 0.99)),
        min_size=1,
        max_size=3,
    ),
    # log prices about c'(1): one the bound is checked at, and a guess
    at=st.floats(-20.0, 20.0),
    guess=st.floats(-700.0, 700.0) | st.floats(-2.0, 2.0),
)
def test_a_residual_bounds_the_root_and_the_kernel_clears_from_any_guess(
    cost_curvature, cost_scale, demands, at, guess
):
    # each curvature lies in (0, 1): log load falls in log p with slope at
    # most -1, and log p - log c'(load) rises with slope at least 1, so at
    # any price either residual is at least the distance in log price to its
    # own root; from any positive guess the kernel returns a fee it
    # evaluated, with its residual there at float resolution
    cost = ec.CostFn(cost_scale, cost_curvature)
    capacity_cost = ec.c_prime(cost, 1.0)
    x_cap = math.log(capacity_cost)
    market = [(1.0 / len(demands), ISO(capacity_cost * at_cap**c, c)) for at_cap, c in demands]
    log_load, slack = _log_residuals(cost, market)
    for residual in (log_load, slack):
        root = _log_root(residual, x_cap)
        x = x_cap + at
        assert abs(root - x) <= abs(residual(x)) + 1e-9, (residual.__name__, root, x)

    loads: dict[float, float] = {}

    def load(p: float) -> float:
        loads[p] = math.fsum(k * ec.u_prime_inv(u, p) for k, u in market)
        return loads[p]

    price, congested = _clear_blockspace(cost, load, math.exp(x_cap + guess))
    assert price in loads
    x = math.log(price)
    assert abs((log_load if congested else slack)(x)) <= RESIDUAL_TOL
    # the branch is the one the load at c'(1) names, away from a tie there
    if abs(log_load(x_cap)) > 1e-12:
        assert congested is (log_load(x_cap) > 0.0)
