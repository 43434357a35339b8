"""Welfare accounting, the FOC residuals of an equilibrium, and tax sweeps.

The welfare metric is expected allocation flow surplus,
E_sigma[sum_k lambda_k u_k(a_k, sigma) - c(total(sigma))]. Fees, carry
costs, and burn proceeds are transfers under quasi-linear payoffs and are
deliberately excluded; they matter only through the allocations they induce.
(The alternative of charging carry costs as a real resource cost is noted
and rejected in the package docs.)
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import econ_core as ec
from . import equilibrium as eqm
from .errors import ConfigError, InfeasiblePolicyError, SolverError
from .first_best import expected_first_best_surplus, flow_surplus
from .oracle import holdings_grid_steps

ARGMAX_TIE_TOL = 1e-10

_BUDGET_RTOL = 1e-9


class WelfareReport(NamedTuple):
    """Welfare and verification summary for one equilibrium.

    oracle_delta_max is measured in grid steps: the largest distance between
    a type's equilibrium holdings and the grid-search best response.
    Infinite when no finite optimum exists (expected token return above r).
    """

    expected_flow_welfare: float
    per_state: dict[int, float]
    foc_residual_max: float
    oracle_delta_max: float
    first_best_gap: float

    def as_dict(self) -> dict:
        return {
            "expected_flow_welfare": self.expected_flow_welfare,
            "per_state": {str(s): v for s, v in self.per_state.items()},
            "foc_residual_max": self.foc_residual_max,
            "oracle_delta_max": self.oracle_delta_max,
            "first_best_gap": self.first_best_gap,
        }


def evaluate(cfg: ec.EconomyConfig, eq: eqm.SteadyStateEquilibrium) -> WelfareReport:
    """Score an equilibrium: welfare, first-best gap, and verification margins.

    The first best does not depend on theta: it is solved on the first call
    for a config object and reused for every equilibrium scored against that
    object, so cfg must not be mutated after construction.
    """
    per_state = {
        s: flow_surplus(cfg, out.activities, out.aggregate_activity, s)
        for s, out in eq.states.items()
    }
    expected = math.fsum(cfg.shocks.probability(s) * v for s, v in per_state.items())
    residuals = shock_foc_residual(cfg, eq)
    foc_max = max((abs(v) for v in residuals.values()), default=0.0)
    return WelfareReport(
        expected_flow_welfare=expected,
        per_state=per_state,
        foc_residual_max=foc_max,
        oracle_delta_max=holdings_grid_steps(cfg, eq),
        first_best_gap=expected_first_best_surplus(cfg) - expected,
    )


def shock_foc_residual(
    cfg: ec.EconomyConfig, eq: eqm.SteadyStateEquilibrium
) -> dict[tuple[str, int], float]:
    """Residuals of the holdings optimality conditions, per type and state.

    A type's budget binds where it spends the largest share of its wealth
    and wherever it spends all of it (within _BUDGET_RTOL). Over the binding
    states B, with each a_s implied by the budget, the condition is
    sum_B pi_s (1+rT_s) (u'(a_s) / eff_s - 1) = r - E[rT]. Its residual over
    sum_B pi_s (1+rT_s) is reported at every binding state; with one binding
    state that is u'(a) / eff - (1 + (r - E[rT]) / (pi (1 + rT))). Slack
    states report the static margin u'(a) / eff - 1; states with no demand, 0.
    """
    probs = {s: cfg.shocks.probability(s) for s in eq.states}
    expected_rt = math.fsum(probs[s] * eq.states[s].token_return for s in eq.states)
    residuals: dict[tuple[str, int], float] = {}
    for t in cfg.agent_types:
        m = eq.holdings[t.name]
        live = {s: out for s, out in eq.states.items()
                if t.is_active(s) and out.effective_price > 0 and probs[s] > 0}
        # activity the whole balance buys in each state, and the state's weight
        afford = {s: (1.0 + out.token_return) * m / out.effective_price for s, out in live.items()}
        weight = {s: probs[s] * (1.0 + out.token_return) for s, out in live.items()}
        ratio = {s: live[s].activities[t.name] / afford[s] for s in live if afford[s] > 0}
        top = max(ratio, key=ratio.__getitem__, default=None)
        binding = [s for s in ratio if s == top or abs(ratio[s] - 1.0) <= _BUDGET_RTOL]
        scale = math.fsum(weight[s] for s in binding)
        excess = math.fsum(
            weight[s] * (ec.u_prime(t.utility_in(s), afford[s]) / live[s].effective_price - 1.0)
            for s in binding
        ) - (cfg.r - expected_rt)
        for s, out in eq.states.items():
            a = out.activities[t.name]
            if s in binding:
                residuals[(t.name, s)] = excess / scale
            elif s in live and a > 0:
                residuals[(t.name, s)] = ec.u_prime(t.utility_in(s), a) / out.effective_price - 1.0
            else:
                residuals[(t.name, s)] = 0.0
    return residuals


# ---------------------------------------------------------------------------
# tax sweeps
# ---------------------------------------------------------------------------


class SweepResult(NamedTuple):
    grid: tuple[float, ...]
    welfare: tuple[float, ...]
    congestion_flags: tuple[bool, ...]
    statuses: tuple[str, ...]
    reports: tuple[WelfareReport | None, ...]
    equilibria: tuple[eqm.SteadyStateEquilibrium | None, ...]
    argmax_theta: float

    def as_dict(self) -> dict:
        return {
            "schema_version": ec.SCHEMA_VERSION,
            "grid": list(self.grid),
            "welfare": list(self.welfare),
            "congestion_flags": list(self.congestion_flags),
            "statuses": list(self.statuses),
            "argmax_theta": self.argmax_theta,
            "reports": [r.as_dict() if r is not None else None for r in self.reports],
        }


def _grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _sweep_point(
    cfg: ec.EconomyConfig, regime: str, theta: float
) -> tuple[str, float, bool, WelfareReport | None, eqm.SteadyStateEquilibrium | None]:
    try:
        eq = eqm.solve_regime(cfg, regime, theta)
    except (SolverError, InfeasiblePolicyError) as exc:
        return f"error: {exc}", math.nan, False, None, None
    report = evaluate(cfg, eq)
    status = "congestion-broken" if eq.congestion_broken else "ok"
    congested = any(out.congested for out in eq.states.values())
    return status, report.expected_flow_welfare, congested, report, eq


def sweep_tax(cfg: ec.EconomyConfig, regime: str, theta_grid: list[float]) -> SweepResult:
    """Solve and score one equilibrium per tax rate.

    ConfigError if the grid is empty or unsorted, or if the regime takes no
    tax. Failed points are recorded (status "error: ..."), never raised; points
    whose congested branch broke are flagged. Both are excluded from the
    argmax, which breaks ties toward the smallest tax within 1e-10.
    """
    if not theta_grid:
        raise ConfigError("tax grid must be nonempty")
    if any(b < a for a, b in zip(theta_grid, theta_grid[1:])):
        raise ConfigError("tax grid must be sorted ascending")
    row = eqm.REGIMES.get(regime)
    if row is not None and not row.taxed:
        raise ConfigError(f"the {regime} regime takes no tax; there is no tax grid to sweep")
    rows = [_sweep_point(cfg, regime, float(th)) for th in theta_grid]

    statuses = tuple(r[0] for r in rows)
    welfare = tuple(r[1] for r in rows)
    eligible = [
        (th, w) for th, w, s in zip(theta_grid, welfare, statuses) if s == "ok"
    ]
    if eligible:
        best = max(w for _, w in eligible)
        argmax = min(th for th, w in eligible if w >= best - ARGMAX_TIE_TOL)
    else:
        argmax = math.nan
    return SweepResult(
        grid=tuple(float(th) for th in theta_grid),
        welfare=welfare,
        congestion_flags=tuple(r[2] for r in rows),
        statuses=statuses,
        reports=tuple(r[3] for r in rows),
        equilibria=tuple(r[4] for r in rows),
        argmax_theta=argmax,
    )
