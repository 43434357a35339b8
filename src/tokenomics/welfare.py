"""Welfare accounting, the equilibrium certificate, and tax sweeps.

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
from .oracle import holdings_grid_steps, holdings_slope

ARGMAX_TIE_TOL = 1e-10

#: tolerance of each certify reading; a steady state passes when every
#: reading is at or below its tolerance
CERT_TOL = {
    "over_capacity": 1e-12,
    "foc_residual": 1e-8,
    "burn_identity": 1e-8,
    "return_above_r": 1e-12,
    "above_first_best": 1e-12,
    "holdings_slope": 1e-10,
}


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
    residuals = eqm.shock_foc_residual(cfg, eq)
    foc_max = max((abs(v) for v in residuals.values()), default=0.0)
    return WelfareReport(
        expected_flow_welfare=expected,
        per_state=per_state,
        foc_residual_max=foc_max,
        oracle_delta_max=holdings_grid_steps(cfg, eq),
        first_best_gap=expected_first_best_surplus(cfg) - expected,
    )


def _burn_residual(eq: eqm.SteadyStateEquilibrium, gamma: float) -> float:
    """Largest |(rT - gamma) M - theta p A| over the states that burn; the
    others are outside the identity (Friedman's return comes from its supply
    ratio, not a burn)."""
    m_agg = eq.aggregate_real_balances
    return max(
        (
            abs((out.token_return - gamma) * m_agg - burn)
            for out in eq.states.values()
            if (burn := out.tax * out.price * out.aggregate_activity) > 0.0
        ),
        default=0.0,
    )


def certify(
    cfg: ec.EconomyConfig, eq: eqm.SteadyStateEquilibrium, report: WelfareReport
) -> dict[str, float]:
    """The worst reading of each steady-state invariant, keyed as CERT_TOL:
    the largest state load above capacity, the FOC residual, the burn
    identity's residual, E[rT] above r, welfare above first best, and the
    largest holdings slope |V'(m)| (V'(0) where m = 0, whose optimum may be
    a corner).

    report is evaluate(cfg, eq), whose readings are reused; no grid is searched.
    """
    return {
        "over_capacity": max(out.aggregate_activity for out in eq.states.values())
        - ec.BLOCKSPACE_CAPACITY,
        "foc_residual": report.foc_residual_max,
        "burn_identity": _burn_residual(eq, cfg.gamma),
        "return_above_r": eq.expected_return - cfg.r,
        "above_first_best": -report.first_best_gap,
        "holdings_slope": max(
            abs(v) if eq.holdings[n] > 0.0 else max(v, 0.0)
            for n, v in holdings_slope(cfg, eq).items()
        ),
    }


def cert_failures(certificate: dict[str, float]) -> list[str]:
    """The certify readings above their CERT_TOL entry; a nan reading fails."""
    return [k for k, v in certificate.items() if not v <= CERT_TOL[k]]


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
