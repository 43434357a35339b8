"""Token-supply rules and the nominal/real supply recursion.

Three rules: a fixed supply, the optimal contraction targeting a token
return of r, and tax-and-burn with a fee surcharge theta in the trading
state. supply_path unrolls the implied nominal supply M_t, token price q_t,
and real balances m_t = q_t * M_t at the rule's steady state. Block-reward
expansion needs no recipient tracking: with quasi-linear payoffs, who
receives newly minted tokens is a pure transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import econ_core as ec
from .equilibrium import solve_regime
from .errors import ConfigError, InfeasiblePolicyError


class SupplyRuleKind(Enum):
    FIXED_SUPPLY = "fixed_supply"
    FRIEDMAN_TARGET = "friedman_target"
    TAX_AND_BURN = "tax_and_burn"


@dataclass(frozen=True)
class SupplyRule:
    """A supply policy: either a closed-form ratio rule or a burn surcharge
    theta on the trading state's fees."""

    kind: SupplyRuleKind
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.theta < math.inf:
            raise ValueError(f"tax rate must be nonnegative and finite, got {self.theta}")
        if self.kind is not SupplyRuleKind.TAX_AND_BURN and self.theta:
            raise ValueError(f"{self.kind.value} does not take a tax rate")

    @classmethod
    def tax_and_burn(cls, theta: float) -> SupplyRule:
        return cls(SupplyRuleKind.TAX_AND_BURN, float(theta))


@dataclass(frozen=True)
class SupplyPath:
    """T+1 rows of a simulated steady-state trajectory (t = 0 is the initial
    condition; returns[0] is nan since no holding period precedes it)."""

    nominal: list[float]
    token_prices: list[float]
    real_balances: list[float]
    returns: list[float]

    def csv_rows(self) -> list[tuple[float, ...]]:
        """Rows (t, M, q, rT, m) matching the serialized column order."""
        return [
            (float(t), self.nominal[t], self.token_prices[t], self.returns[t], self.real_balances[t])
            for t in range(len(self.nominal))
        ]


def friedman_supply_ratio(r: float, gamma: float) -> float:
    """Per-period nominal supply ratio that sets the token return equal to r."""
    if r <= -1 or gamma <= -1:
        raise ValueError(f"rates must exceed -1, got r={r}, gamma={gamma}")
    return (1.0 + gamma) / (1.0 + r)


def supply_path(
    rule: SupplyRule,
    cfg: ec.EconomyConfig,
    M0: float,
    q0: float = 1.0,
    *,
    T: int,
) -> SupplyPath:
    """Simulate T periods of the nominal supply at the rule's steady state.

    Tax-and-burn paths need non-random aggregates, so they accept only
    deterministic or idiosyncratic-shock configurations (any other raises
    InfeasiblePolicyError); each step burns theta * p * a / q_t token units.
    The ratio rules need no solve at all.
    """
    if T < 1:
        raise ConfigError(f"need at least one period, got T={T}")
    if not (0 < M0 < math.inf and 0 < q0 < math.inf):
        raise ConfigError(f"M0 and q0 must be positive and finite, got M0={M0}, q0={q0}")

    burn_flow = 0.0
    m_reference = math.nan
    if rule.kind is SupplyRuleKind.FRIEDMAN_TARGET:
        rt = cfg.r
        nominal_ratio = friedman_supply_ratio(cfg.r, cfg.gamma)
    elif rule.kind is SupplyRuleKind.FIXED_SUPPLY:
        rt = cfg.gamma
        nominal_ratio = 1.0
    else:
        fam = ec.family(cfg)
        if fam not in ("deterministic", "iid"):
            raise InfeasiblePolicyError(
                "tax-and-burn paths need non-random aggregates: got a "
                f"{cfg.shocks.kind.value} shock process (simulate the common-shock "
                "regimes through their state-contingent equilibria instead)"
            )
        eq = solve_regime(cfg, fam, rule.theta)
        out = eq.states[1]
        rt = out.token_return
        burn_flow = out.tax * out.price * out.aggregate_activity
        m_reference = eq.aggregate_real_balances
        nominal_ratio = (1.0 + cfg.gamma) / (1.0 + rt)

    nominal = [float(M0)]
    prices = [float(q0)]
    balances = [float(M0) * float(q0)]
    returns = [math.nan]
    for _ in range(T):
        q_t = prices[-1] * (1.0 + rt)
        if burn_flow > 0.0:
            # burn flow rescaled from solver units to this path's dollar scale
            tokens_burned = burn_flow * (balances[-1] / m_reference) / q_t
            M_t = nominal[-1] - tokens_burned
        else:
            M_t = nominal[-1] * nominal_ratio
        nominal.append(M_t)
        prices.append(q_t)
        balances.append(q_t * M_t)
        returns.append(rt)
    return SupplyPath(nominal=nominal, token_prices=prices, real_balances=balances, returns=returns)
