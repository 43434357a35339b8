"""Socially optimal blockspace allocations, and the one market solve.

_clear_demands clears one state's blockspace against the types active
there, each buying u'^-1(wedge * p) per unit of trading mass at fee p, and
returns the fee, every type's activity and the load. The closed-form regimes
clear through it at their holdings wedge u'(a)/p; the planner's allocation
is the solve at wedge 1.0, where the friedman market lands (rT = r). Every
active type's marginal utility then equals a common value x: the shadow
value that rations capacity when demand at x = c'(1) overfills it, else
x = c'(total). Under idiosyncratic shocks the planner plans
planner_economy(cfg), a market of one pair: the iid type's users in state
1. The kernel beneath, _clear_blockspace, roots in log price, where
isoelastic demand against a power cost is linear, so Brent's secant step
lands at once. A market of one demand (a closed-form regime's with one
type, the planner's where one type is active) has its fee in closed form,
which the kernel evaluates first and keeps, in one load evaluation, when
its residual there is at float resolution.

The first best depends only on the config, so it is solved once per config
object and kept on that object (see _memo): the equilibrium scorer, tax
sweeps, batteries, oracles and the heterogeneous solver's warm start all
share one solve. Configs are frozen and must not be mutated after
construction.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

from . import econ_core as ec
from ._roots import RESIDUAL_FLOOR, find_log_root
from .errors import SolverError


class Allocation(NamedTuple):
    """Per-type activities plus the congestion diagnosis for one state.

    shadow_marginal is the common marginal utility under rationing and 0.0
    for an unconstrained optimum.
    """

    activities: dict[str, float]
    total: float
    congested: bool
    shadow_marginal: float


#: log of the smallest positive float, standing in for log(0.0)
_LOG_ZERO = math.log(math.ulp(0.0))


def _log(v: float) -> float:
    # a demand that underflows to 0.0 far out on a bracket keeps the sign of
    # a load below capacity without reaching math.log(0.0)
    return math.log(v) if v > 0.0 else _LOG_ZERO


def _clear_blockspace(
    cost: ec.CostFn,
    load: Callable[[float], float],
    warm: tuple[float, float] | None = None,
) -> tuple[float, bool]:
    """Fee clearing blockspace against a demand load(p) that falls in p,
    and whether it clears at the unit capacity.

    If demand at the marginal cost of capacity c'(1) exceeds capacity, the
    fee rations it: load(p) = 1 with p >= c'(1). Otherwise supply meets
    demand below capacity: p = c'(load(p)). The root runs in log price
    (find_log_root), on log load(p) when congested and on
    log p - log c'(load(p)) when slack. For one isoelastic type under power
    cost both residuals are linear in log p, so on the cold path the first
    secant step of Brent's method lands on the root; with several types they
    stay close to linear.

    Without warm (the cold path), the test at c'(1) picks the branch, and
    the root is bracketed from [c'(1), c'(1)] upward or from
    [c'(1) / 2, c'(1)]. warm, a fee bracket (lo, hi) around a predicted
    price (from nearby solves, or a closed form), is tried first: its centre
    is evaluated, on the congested residual above c'(1) and on the slack one
    at or below it, and accepted when that residual is at float resolution
    (RESIDUAL_FLOOR) and, within float resolution of c'(1), on the branch the
    cold test names: demand that fills capacity there clears on both, and
    p <= c'(1) and p = c'(load(p)) put the load within capacity only to a
    few ulps. Otherwise the root lies on the side of the centre that the
    residual's sign names. Away from c'(1) it is bracketed from the centre
    and the warm end on that side, widened by expand_bracket when that end
    does not hold it. Toward c'(1) the warm end is tried when it lies on the
    centre's side of c'(1); when it does not hold the root, the cold path
    runs from there.

    load is evaluated at most once per price, and the returned fee is
    always one at which it was evaluated.
    """
    capacity_cost = ec.c_prime(cost, ec.BLOCKSPACE_CAPACITY)
    # load and the slack residual, each evaluated once per price; the
    # congested residual is a log of the stored load
    loads: dict[float, float] = {}
    slack: dict[float, float] = {}

    def over(p: float) -> float:
        if p not in loads:
            loads[p] = load(p)
        return _log(loads[p] / ec.BLOCKSPACE_CAPACITY)

    def excess(p: float) -> float:
        if p not in slack:
            if p not in loads:
                loads[p] = load(p)
            slack[p] = math.log(p) - _log(ec.c_prime(cost, loads[p]))
        return slack[p]

    # the cold brackets: a slack root in [lo, c'(1)], a congested one above
    # c'(1) from [c'(1), hi]
    lo, hi = 0.5 * capacity_cost, capacity_cost
    tie = 2.0 * RESIDUAL_FLOOR * capacity_cost  # float resolution of c'(1)
    if warm is not None:
        guess = 0.5 * (warm[0] + warm[1])
        if guess > capacity_cost:
            f = over(guess)
            if abs(f) <= RESIDUAL_FLOOR and (guess - capacity_cost > tie or over(capacity_cost) > 0.0):
                return guess, True
            if f > 0.0:
                # demand overfills capacity at guess: the root lies above it
                start = warm[1] if over(warm[1]) > 0.0 else guess
                return find_log_root(over, start, warm[1], lo_floor=start), True
            if warm[0] > capacity_cost and over(warm[0]) > 0.0:
                return find_log_root(over, warm[0], guess), True
            hi = warm[0] if warm[0] > capacity_cost else guess
        else:
            f = excess(guess)
            if abs(f) <= RESIDUAL_FLOOR and (capacity_cost - guess > tie or over(capacity_cost) <= 0.0):
                return guess, False
            if f > 0.0:
                # the fee exceeds marginal cost at guess: a slack root lies below it
                return find_log_root(excess, warm[0], guess), False
            if warm[1] <= capacity_cost and excess(warm[1]) > 0.0:
                return find_log_root(excess, guess, warm[1]), False
            lo, hi = (warm[1], capacity_cost) if warm[1] <= capacity_cost else (guess, warm[1])

    if over(capacity_cost) > 0.0:
        return find_log_root(over, capacity_cost, hi, lo_floor=capacity_cost), True
    return find_log_root(excess, lo, capacity_cost), False


def _clear_demands(
    cfg: ec.EconomyConfig, state: int, wedge: float, share: float
) -> tuple[float, bool, dict[str, float], float]:
    """(fee, congested, activities by type name, load share * sum mass * a)
    of state's blockspace cleared against cfg's types, a fraction share of
    each trading; with no type active in state the market is idle at fee 0.0.

    An active type is a demand (k, u): k = share * mass and u its utility in
    state. One demand at wedge w buys k (s / (w p))**(1/c) at fee p, for
    u's scale s and curvature c, so its fee has a closed form: q = (s/w) k**c,
    where the load is the unit capacity, when q exceeds S = c'(1); else the
    slack fee q**(kappa/(c + kappa)) * S**(c/(c + kappa)) for the cost's
    curvature kappa. The kernel gets it as its warm prediction, evaluates it
    first and keeps it when the residual there is at float resolution;
    otherwise (within float resolution of c'(1), or where rounding leaves
    the residual above RESIDUAL_FLOOR) it roots from there as from any
    prediction. Several demands clear on the cold path. One that underflows
    a float at its closed-form fee raises a SolverError that says so.
    """
    types, cost = cfg.agent_types, cfg.cost
    demands = [(share * t.mass, t.utility_in(state)) for t in types if t.is_active(state)]
    if not demands:
        return 0.0, False, {t.name: 0.0 for t in types}, 0.0
    warm = None
    if len(demands) == 1:
        # the closed-form regimes clear one demand: a bare product, equal to fsum
        # of one term and faster
        (k, u), = demands

        def load(p: float) -> float:
            return k * ec.u_prime_inv(u, wedge * p)

        # the closed-form fee above, with S = c'(1) the cost's scale; the
        # slack fee is written as q times a power of S/q, which rounds closer
        # to the root than an exp of the weighted logs
        c = u.curvature
        fee = u.scale / wedge * k**c
        if 0.0 < fee <= cost.scale:
            fee *= (cost.scale / fee) ** (c / (c + cost.curvature))
        if 0.0 < fee + fee < math.inf:  # the kernel's centre of (fee, fee) is fee
            warm = fee, fee
    else:
        def load(p: float) -> float:
            return math.fsum(k * ec.u_prime_inv(u, wedge * p) for k, u in demands)

    try:
        price, congested = _clear_blockspace(cost, load, warm)
    except SolverError as exc:
        if warm is not None and load(warm[0]) == 0.0:  # read only once the kernel has failed
            raise SolverError(f"demand underflows a float at the closed-form fee {warm[0]!r}") from exc
        raise
    acts = {
        t.name: ec.u_prime_inv(t.utility_in(state), wedge * price) if t.is_active(state) else 0.0
        for t in types
    }
    return price, congested, acts, share * math.fsum(t.mass * acts[t.name] for t in types)


def _memo(cfg: ec.EconomyConfig) -> dict:
    # First-best results solved for cfg, kept in its instance __dict__ so they
    # live exactly as long as the config. Configs are unhashable, and a table
    # keyed on id() would keep them alive and could alias a reused id.
    # Equality and repr read only the fields, so the entry is invisible to
    # them; pickling carries it along.
    return vars(cfg).setdefault("_first_best", {})


def first_best_allocation(cfg: ec.EconomyConfig, state: int) -> Allocation:
    """Planner's optimum for one shock state's whole population (an iid
    config's first best is that of planner_economy(cfg), its one pair
    type@1): one clearing solve for the common marginal value x, with the
    demand sum_k mass_k * u_k'^-1(x), congested at the shadow value
    x >= c'(1) that fills capacity, else at x = c'(total).

    Solved on the first call for a config object; later calls return the
    same stored Allocation, so callers must not mutate it (or its
    activities), and the config must not be mutated after construction.
    """
    memo = _memo(cfg)
    if state not in memo:
        memo[state] = _solve_allocation(cfg, state)
    return memo[state]


def _solve_allocation(cfg: ec.EconomyConfig, state: int) -> Allocation:
    x, congested, acts, total = _clear_demands(cfg, state, 1.0, 1.0)
    return Allocation(
        activities=acts, total=total, congested=congested,
        shadow_marginal=x if congested else 0.0,
    )


def flow_surplus(
    cfg: ec.EconomyConfig, activities: Mapping[str, float], total: float, state: int
) -> float:
    """Aggregate flow surplus in one state: sum_k mass_k u_k(a_k) - c(total),
    with total the blockspace load the activities put on the chain."""
    gross = math.fsum(
        t.mass * ec.u_eval(t.utility_in(state), activities[t.name])
        for t in cfg.agent_types
    )
    return gross - ec.c_eval(cfg.cost, total)


def expected_first_best_surplus(cfg: ec.EconomyConfig) -> float:
    """First-best expected flow surplus under the config's shock process.

    Solved on the first call for a config object and stored with its
    allocations, so the config must not be mutated after construction.
    """
    memo = _memo(cfg)
    if "surplus" not in memo:
        memo["surplus"] = _expected_surplus(cfg)
    return memo["surplus"]


def planner_economy(cfg: ec.EconomyConfig) -> ec.EconomyConfig:
    """The economy whose per-state planner is cfg's first best: cfg, or under
    iid draws, where a fraction rho of the one type family() admits is in
    state 1 every period and the rest idle in state 0, the deterministic
    economy of its one active pair: type@1 of mass mass * rho with the
    state-1 utility."""
    if cfg.shocks.kind is not ec.ShockKind.IID_BINARY:
        return cfg
    t, = cfg.agent_types
    pair = ec.AgentTypeSpec(t.mass * cfg.shocks.rho, {1: t.utility_in(1)}, f"{t.name}@1")
    return ec.EconomyConfig(cfg.r, cfg.gamma, (pair,), cfg.cost, ec.ShockProcess(ec.ShockKind.DETERMINISTIC))


def _expected_surplus(cfg: ec.EconomyConfig) -> float:
    economy = planner_economy(cfg)
    total = 0.0
    for state in economy.shocks.states():
        alloc = first_best_allocation(economy, state)
        surplus = flow_surplus(economy, alloc.activities, alloc.total, state)
        total += economy.shocks.probability(state) * surplus
    return total
