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
isoelastic demand against a power cost is linear, so a Newton step on the
load's exact elasticity lands at once. It evaluates one guessed fee first
(c'(1), the cost's scale, without a prediction), whose residual bounds the
root in log price, and takes Newton steps on the load's slope inside that
bound. A market of one demand (a closed-form regime's with one type, the
planner's where one type is active) has its fee in closed form: that is
the guess. The activities the load computed at the fee are returned; no
demand is inverted again.

The first best depends only on the config, so it is solved once per config
object and kept on that object (see _memo): the equilibrium scorer, tax
sweeps, batteries, oracles and the heterogeneous solver's warm start all
share one solve. Configs are frozen and must not be mutated after
construction.
"""

from __future__ import annotations

import math
import operator
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


#: the smallest and largest positive finite floats, and the log of the
#: smallest, standing in for log(0.0): a demand that underflows to 0.0 far
#: out on a bracket keeps the sign of a load below capacity without reaching
#: math.log(0.0)
_TINY, _HUGE = math.ulp(0.0), math.nextafter(math.inf, 0.0)
_LOG_ZERO = math.log(_TINY)


def _step(p: float, x: float) -> float:
    # p * e**x, kept a positive finite float
    return min(max(p * math.exp(min(x, 709.0)), _TINY), _HUGE)


def _clear_blockspace(
    cost: ec.CostFn, load: Callable[[float], tuple[float, float]], guess: float | None = None,
    steps: list[int] | None = None,
) -> tuple[float, bool]:
    """Fee clearing blockspace against a demand that falls in p, and whether
    it clears at the unit capacity; load(p) returns the demand and its
    elasticity e = d log load / d log p.

    If demand at the marginal cost of capacity c'(1) exceeds capacity, the
    fee rations it: load(p) = 1 with p >= c'(1). Otherwise supply meets
    demand below capacity: p = c'(load(p)). The root runs in log price
    (find_log_root, which counts its steps into steps) on log load(p), of
    slope e, when congested and on log p - log c'(load(p)), of slope
    1 - kappa e for the cost's curvature kappa, when slack. For one
    isoelastic type under power cost both are linear in log p, so the first
    Newton step lands on the root; with several types they stay close to it.

    Every demand's curvature lies in (0, 1), so in log p the congested
    residual falls with slope at most -1 and the slack one rises with slope
    at least 1: a residual f at p puts the root within |f| of log p, on the
    side the sign of f names. The guess (from nearby solves or a closed
    form; c'(1) without one) is evaluated first, on the congested residual
    above c'(1) and on the slack one at or below it, and accepted when that
    residual is at float resolution (RESIDUAL_FLOOR) and, within float
    resolution of c'(1), on the branch the test at c'(1) names: demand that
    fills capacity there clears on both, and p <= c'(1) and p = c'(load(p))
    put the load within capacity only to a few ulps. Otherwise, where that
    bound stays on the guess's branch, the root runs from the guess toward
    it on one table of residuals by price; a bound across c'(1), or a root
    that rounding put there, gives way to the test at c'(1), and the root
    runs from c'(1) toward the bound its residual there names.

    c'(1) is the cost's scale (scale * 1**curvature, bit for bit). load is
    evaluated at most once per price, and the returned fee is always one at
    which it was evaluated.
    """
    capacity_cost = cost.scale
    tie = 2.0 * RESIDUAL_FLOOR * capacity_cost  # float resolution of c'(1)
    loads: dict[float, tuple[float, float]] = {}  # each price loaded once

    # each residual at p, and its slope in log p; over(c'(1)) > 0 where
    # demand at c'(1) overfills the capacity of 1
    def over(p: float) -> tuple[float, float]:
        q, e = loads[p] if p in loads else loads.setdefault(p, load(p))
        return (math.log(q) if q > 0.0 else _LOG_ZERO), e

    def excess(p: float) -> tuple[float, float]:
        q, e = loads[p] if p in loads else loads.setdefault(p, load(p))
        c = ec.c_prime(cost, q)
        return math.log(p) - (math.log(c) if c > 0.0 else _LOG_ZERO), 1.0 - cost.curvature * e

    p = capacity_cost if guess is None else guess
    # the guess's branch: congested above c'(1), where its residual falls
    # in p, slack at or below it, where its residual rises
    up = p > capacity_cost
    residual = over if up else excess
    values = {p: residual(p)}
    f = values[p][0]
    if abs(f) <= RESIDUAL_FLOOR and (abs(p - capacity_cost) > tie or (over(capacity_cost)[0] > 0.0) is up):
        return p, up
    bound = _step(p, f if up else -f)
    if f > 0.0 or bound != capacity_cost and (bound > capacity_cost) is up:
        # demand overfills capacity at p, or the fee exceeds marginal cost
        # there, or the bound stays on p's branch: the root lies on p's
        # branch within the bound, rounding aside
        price = find_log_root(residual, values, p, bound, steps)
        if price != capacity_cost and (price > capacity_cost) is up:
            return price, up
    # the test at c'(1) names the branch, and its residual there the bound
    congested = over(capacity_cost)[0] > 0.0
    residual = over if congested else excess
    values = {capacity_cost: residual(capacity_cost)}
    f = values[capacity_cost][0]
    end = _step(capacity_cost, f if congested else -f)
    return find_log_root(residual, values, capacity_cost, end, steps), congested


def _clear_demands(
    cfg: ec.EconomyConfig, state: int, wedge: float, share: float
) -> tuple[float, bool, dict[str, float], float]:
    """(fee, congested, activities by type name, load share * sum mass * a)
    of state's blockspace cleared against cfg's types, a fraction share of
    each trading; with no type active in state the market is idle at fee 0.0.
    The load at fee p is the fsum of each active type's k a, one demand's
    that product itself, and its elasticity -sum k a / c over it; the
    activities are those the load computed at the fee, kept by price.

    An active type is a demand (k, u): k = share * mass and u its utility in
    state. One demand at wedge w buys k (s / (w p))**(1/c) at fee p, for
    u's scale s and curvature c, so its fee has a closed form: q = (s/w) k**c,
    where the load is the unit capacity, when q exceeds S = c'(1); else the
    slack fee q**(kappa/(c + kappa)) * S**(c/(c + kappa)) for the cost's
    curvature kappa. The kernel gets it as its guess, evaluates it first and
    keeps it when the residual there is at float resolution; otherwise
    (within float resolution of c'(1), or where rounding leaves the residual
    above RESIDUAL_FLOOR) it roots from there as from any guess. Several
    demands clear from c'(1). One that underflows a float at its
    closed-form fee raises a SolverError that says so.
    """
    types, cost = cfg.agent_types, cfg.cost
    active = [t for t in types if t.is_active(state)]
    acts = {t.name: 0.0 for t in types}
    if not active:
        return 0.0, False, acts, 0.0
    masses = [share * t.mass for t in active]
    utilities = [t.utility_in(state) for t in active]
    weights = [k / u.curvature for k, u in zip(masses, utilities)]  # k / c, by demand
    bought: dict[float, list[float]] = {}  # each active type's activity, by fee

    def load(p: float) -> tuple[float, float]:
        a = bought[p] = [ec.u_prime_inv(u, wedge * p) for u in utilities]
        q = math.fsum(map(operator.mul, masses, a))
        return q, -sum(map(operator.mul, weights, a)) / q if q > 0.0 else math.nan

    guess = None
    if len(active) == 1:
        # the closed-form fee above, with S = c'(1) the cost's scale; the
        # slack fee is written as q times a power of S/q, which rounds closer
        # to the root than an exp of the weighted logs
        (k,), (u,) = masses, utilities
        c = u.curvature
        fee = u.scale / wedge * k**c
        if 0.0 < fee <= cost.scale:
            fee *= (cost.scale / fee) ** (c / (c + cost.curvature))
        if 0.0 < fee < math.inf:
            guess = fee

    try:
        price, congested = _clear_blockspace(cost, load, guess)
    except SolverError as exc:
        if guess is not None and load(guess)[0] == 0.0:  # read only once the kernel has failed
            raise SolverError(f"demand underflows a float at the closed-form fee {guess!r}") from exc
        raise
    acts.update(zip([t.name for t in active], bought[price]))
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
