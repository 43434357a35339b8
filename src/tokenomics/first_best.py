"""Socially optimal blockspace allocations, state by state.

The planner maximizes aggregate flow surplus
sum_k mass_k * u_k(a_k) - c(sum_k mass_k * a_k) subject to the unit
blockspace capacity. Unconstrained optima equate every active type's
marginal utility with marginal cost; when that allocation does not fit,
capacity is rationed at a common shadow marginal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import econ_core as ec
from ._roots import expand_bracket, find_root
from .errors import SolverError


@dataclass(frozen=True)
class Allocation:
    """Per-type activities plus the congestion diagnosis for one state.

    shadow_marginal is the common marginal utility under rationing and 0.0
    for an unconstrained optimum.
    """

    activities: dict[str, float]
    total: float
    congested: bool
    shadow_marginal: float


def _active_types(cfg: ec.EconomyConfig, state: int) -> list[tuple[ec.AgentTypeSpec, ec.UtilityFn]]:
    return [(t, t.utility_in(state)) for t in cfg.agent_types if t.is_active(state)]


def first_best_allocation(cfg: ec.EconomyConfig, state: int) -> Allocation:
    """Planner's optimum for one shock state.

    Solves u_k'(a_k) = c'(total) for the common marginal value by root finding;
    if the implied total exceeds capacity, re-solves for the shadow marginal
    at which demand exactly fills the unit of blockspace.
    """
    active = _active_types(cfg, state)
    if not active:
        return Allocation(
            activities={t.name: 0.0 for t in cfg.agent_types},
            total=0.0,
            congested=False,
            shadow_marginal=0.0,
        )

    def total_at(x: float) -> float:
        return math.fsum(t.mass * ec.u_prime_inv(u, x) for t, u in active)

    # unconstrained: find the marginal value x with x = c'(total demand at x)
    def excess(x: float) -> float:
        return x - ec.c_prime(cfg.cost, total_at(x))

    x0 = max(ec.c_prime(cfg.cost, 1.0), 1e-8)
    x_star = find_root(excess, *expand_bracket(excess, x0, x0))
    total = total_at(x_star)

    if total <= ec.BLOCKSPACE_CAPACITY:
        acts = {t.name: 0.0 for t in cfg.agent_types}
        for t, u in active:
            acts[t.name] = ec.u_prime_inv(u, x_star)
        return Allocation(activities=acts, total=total, congested=False, shadow_marginal=0.0)

    # congested: ration at the common marginal value clearing the capacity
    def excess_demand(c_level: float) -> float:
        return total_at(c_level) - ec.BLOCKSPACE_CAPACITY

    shadow = find_root(excess_demand, *expand_bracket(excess_demand, x_star, x_star))
    if shadow < ec.c_prime(cfg.cost, ec.BLOCKSPACE_CAPACITY) - 1e-10:
        raise SolverError(
            f"rationing produced shadow value {shadow:.6g} below marginal cost at capacity"
        )
    acts = {t.name: 0.0 for t in cfg.agent_types}
    for t, u in active:
        acts[t.name] = ec.u_prime_inv(u, shadow)
    total = math.fsum(t.mass * acts[t.name] for t in cfg.agent_types)
    return Allocation(activities=acts, total=total, congested=True, shadow_marginal=shadow)


def flow_surplus(cfg: ec.EconomyConfig, alloc: Allocation, state: int) -> float:
    """Aggregate flow surplus of an allocation in one state."""
    gross = math.fsum(
        t.mass * ec.u_eval(t.utility_in(state), alloc.activities[t.name])
        for t in cfg.agent_types
    )
    return gross - ec.c_eval(cfg.cost, alloc.total)


def _iid_cross_section(cfg: ec.EconomyConfig) -> ec.EconomyConfig:
    # With independent draws, a fraction rho of each type is in state 1 and
    # the rest in state 0 every period, so the planner faces one deterministic
    # economy whose types are the (type, state) pairs weighted by probability.
    assert cfg.shocks.kind is ec.ShockKind.IID_BINARY
    expanded = []
    for t in cfg.agent_types:
        for state in (0, 1):
            prob = cfg.shocks.probability(state)
            if prob <= 0.0:
                continue
            expanded.append(
                ec.AgentTypeSpec(
                    mass=t.mass * prob,
                    utility_by_state={1: t.utility_in(state)},
                    name=f"{t.name}@{state}",
                )
            )
    return ec.EconomyConfig(
        r=cfg.r,
        gamma=cfg.gamma,
        agent_types=tuple(expanded),
        cost=cfg.cost,
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )


def expected_first_best_surplus(cfg: ec.EconomyConfig) -> float:
    """First-best expected flow surplus under the config's shock process."""
    kind = cfg.shocks.kind
    if kind is ec.ShockKind.DETERMINISTIC:
        alloc = first_best_allocation(cfg, 1)
        return flow_surplus(cfg, alloc, 1)
    if kind is ec.ShockKind.IID_BINARY:
        cross = _iid_cross_section(cfg)
        alloc = first_best_allocation(cross, 1)
        return flow_surplus(cross, alloc, 1)
    total = 0.0
    for state in cfg.shocks.states():
        alloc = first_best_allocation(cfg, state)
        total += cfg.shocks.probability(state) * flow_surplus(cfg, alloc, state)
    return total
