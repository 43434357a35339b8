"""Welfare accounting, tax sweeps, and the proposition check battery.

The welfare metric is expected allocation flow surplus,
E_sigma[sum_k lambda_k u_k(a_k, sigma) - c(total(sigma))]. Fees, carry
costs, and burn proceeds are transfers under quasi-linear payoffs and are
deliberately excluded; they matter only through the allocations they induce.
(The alternative of charging carry costs as a real resource cost is noted
and rejected in the package docs.)
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from . import econ_core as ec
from . import equilibrium as eqm
from .errors import ConfigError, InfeasiblePolicyError, SolverError
from .first_best import expected_first_best_surplus, first_best_allocation, flow_surplus
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


@dataclass(frozen=True)
class WelfareReport:
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


@dataclass(frozen=True)
class SweepResult:
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


# ---------------------------------------------------------------------------
# proposition battery
# ---------------------------------------------------------------------------


def _check(name: str, passed: bool | None, measured: dict, detail: str) -> dict:
    status = "not applicable" if passed is None else ("pass" if passed else "fail")
    return {"name": name, "status": status, "measured": measured, "detail": detail}


def _grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _burn_identity_check(cfg: ec.EconomyConfig, equilibria: Iterable) -> dict:
    worst = max(
        (_burn_residual(eq, cfg.gamma) for eq in equilibria if eq is not None), default=0.0
    )
    return _check(
        "burn_identity", worst <= CERT_TOL["burn_identity"], {"max_residual": worst},
        "per-state burn value equals the return premium on aggregate balances",
    )


def _deterministic_battery(cfg: ec.EconomyConfig) -> list[dict]:
    checks = []
    fr = eqm.solve_regime(cfg, "friedman")
    fb = first_best_allocation(cfg, 1)
    gap = max(
        abs(fr.states[1].activities[t.name] - fb.activities[t.name])
        for t in cfg.agent_types
    )
    checks.append(_check(
        "friedman_matches_first_best", gap <= 1e-8, {"max_activity_gap": gap},
        "optimal-rule activities coincide with the planner's allocation",
    ))
    checks.append(_check(
        "friedman_return_is_r", abs(fr.expected_return - cfg.r) <= 1e-12,
        {"return_gap": abs(fr.expected_return - cfg.r)},
        "the optimal rule makes the token return equal the outside rate",
    ))

    deflationary = cfg.r > cfg.gamma
    if not deflationary:
        for name, detail in (
            ("deterministic_tax_neutrality", "burn surcharges leave activities unchanged"),
            ("friedman_weakly_dominates_burn", "no burn rate beats the optimal rule"),
            ("burn_identity", "steady-state burn equals the return premium"),
        ):
            checks.append(_check(name, None, {}, f"{detail} (needs r > gamma)"))
        return checks

    grid = _grid(0.0, 0.5, 11)
    sweep = sweep_tax(cfg, "deterministic", grid)
    acts = [
        {t.name: e.states[1].activities[t.name] for t in cfg.agent_types}
        for e in sweep.equilibria
        if e is not None
    ]
    spread = max(
        abs(a[t.name] - acts[0][t.name]) for a in acts for t in cfg.agent_types
    )
    rt_gap = max(
        abs(e.states[1].token_return - ((1 + th) * (1 + cfg.gamma) - 1))
        for th, e in zip(grid, sweep.equilibria)
        if e is not None
    )
    checks.append(_check(
        "deterministic_tax_neutrality", spread <= 1e-8 and rt_gap <= 1e-10,
        {"max_activity_spread": spread, "max_return_gap": rt_gap},
        "activities are tax-invariant while the return tracks (1+theta)(1+gamma)-1",
    ))
    fr_welfare = evaluate(cfg, fr).expected_flow_welfare
    margin = min(fr_welfare - w for w in sweep.welfare)
    checks.append(_check(
        "friedman_weakly_dominates_burn", margin >= -1e-10,
        {"min_welfare_margin": margin},
        "the optimal rule's welfare is never below any burn rate's",
    ))
    checks.append(_burn_identity_check(cfg, sweep.equilibria))
    return checks


def _iid_battery(cfg: ec.EconomyConfig) -> list[dict]:
    checks = []
    if not cfg.r > cfg.gamma:
        for name in ("iid_return_formula", "iid_tax_never_helps", "burn_identity"):
            checks.append(_check(name, None, {}, "needs r > gamma"))
        return checks
    rho = cfg.shocks.rho
    grid = _grid(0.0, 0.3, 31)
    sweep = sweep_tax(cfg, "iid", grid)
    rt_gap = max(
        abs((1 + e.expected_return) - (1 + cfg.gamma) * (1 + th) / (1 + (1 - rho) * th))
        for th, e in zip(grid, sweep.equilibria)
        if e is not None
    )
    checks.append(_check(
        "iid_return_formula", rt_gap <= 1e-10, {"max_return_gap": rt_gap},
        "the return matches the idiosyncratic-shock burn identity",
    ))
    congested_at_zero = sweep.congestion_flags[0]
    if congested_at_zero:
        checks.append(_check(
            "iid_tax_never_helps", None, {},
            "zero-tax point is congested; the uncongested argument does not apply",
        ))
    else:
        min_drop = min(a - b for a, b in zip(sweep.welfare, sweep.welfare[1:]))
        checks.append(_check(
            "iid_tax_never_helps",
            sweep.argmax_theta == 0.0 and min_drop >= -1e-12,
            {"argmax_theta": sweep.argmax_theta, "min_step_drop": min_drop},
            "welfare is non-increasing in the burn rate; the optimum is zero tax",
        ))
    checks.append(_burn_identity_check(cfg, sweep.equilibria))
    return checks


def _common_battery(cfg: ec.EconomyConfig) -> list[dict]:
    checks = []
    if not cfg.r > cfg.gamma:
        for name in (
            "common_shock_tax_neutrality",
            "common_shock_return_formula",
            "burn_identity",
        ):
            checks.append(_check(name, None, {}, "needs r > gamma"))
        return checks
    rho = cfg.shocks.rho
    name = cfg.agent_types[0].name
    grid = _grid(0.0, 0.5, 11)
    sweep = sweep_tax(cfg, "common", grid)
    acts = [e.states[1].activities[name] for e in sweep.equilibria if e is not None]
    spread = max(abs(a - acts[0]) for a in acts)
    checks.append(_check(
        "common_shock_tax_neutrality", spread <= 1e-8,
        {"max_activity_spread": spread},
        "active-state activity is invariant to the burn rate",
    ))
    ret_gap = max(
        abs((1 + e.expected_return) - ((1 - rho) + rho * (1 + th) * (1 + cfg.gamma)))
        for th, e in zip(grid, sweep.equilibria)
        if e is not None
    )
    checks.append(_check(
        "common_shock_return_formula", ret_gap <= 1e-10, {"max_return_gap": ret_gap},
        "expected gross return matches the state-weighted burn identity",
    ))
    checks.append(_burn_identity_check(cfg, sweep.equilibria))
    return checks


def heterogeneous_roles(cfg: ec.EconomyConfig) -> tuple[ec.AgentTypeSpec, ...]:
    """The types by state-1 demand u'(1) (the scale), strongest first; of two, (shocked, unshocked)."""
    return tuple(sorted(cfg.agent_types, key=lambda t: -t.utility_in(1).scale))


#: the heterogeneous battery's claims about a shocked and an unshocked type
_TWO_TYPE_CLAIMS = ("low_state_unshocked_demand_rises", "low_state_shocked_demand_stable",
                    "congested_utility_sum_monotone")


def _heterogeneous_battery(cfg: ec.EconomyConfig) -> list[dict]:
    checks = []
    grid = _grid(0.0, 0.5, 21)
    sweep = sweep_tax(cfg, "heterogeneous", grid)
    if sweep.statuses[0] == "congestion-broken":
        # every claim but the burn identity compares against a congested
        # zero-tax high state
        for name in ("heterogeneous_tax_improves_welfare", *_TWO_TYPE_CLAIMS):
            checks.append(_check(name, None, {}, "the zero-tax high state is not congested"))
        checks.append(_burn_identity_check(cfg, sweep.equilibria))
        return checks
    ok = [
        (th, e, w)
        for th, e, w, s in zip(grid, sweep.equilibria, sweep.welfare, sweep.statuses)
        if s == "ok"
    ]
    if not ok or ok[0][0] != 0.0:
        checks.append(_check(
            "heterogeneous_tax_improves_welfare", False,
            {"surviving_points": float(len(ok))},
            "could not compare against the zero-tax baseline",
        ))
        return checks

    # welfare never exceeds first best, so where zero tax is within 1e-6 of it
    # no tax can beat zero tax by more: the claim does not apply
    base_gap = sweep.reports[0].first_best_gap
    margin = max(w for _, _, w in ok) - ok[0][2]
    checks.append(_check(
        "heterogeneous_tax_improves_welfare",
        None if base_gap <= 1e-6 else sweep.argmax_theta > 0.0 and margin > 1e-6,
        {"zero_tax_first_best_gap": base_gap} if base_gap <= 1e-6 else
        {"argmax_theta": sweep.argmax_theta, "welfare_margin": margin},
        "some positive burn rate strictly beats zero tax",
    ))
    if len(cfg.agent_types) != 2:
        detail = f"a claim about two types; this config has {len(cfg.agent_types)}"
        checks += [_check(name, None, {}, detail) for name in _TWO_TYPE_CLAIMS]
        checks.append(_burn_identity_check(cfg, [e for _, e, _ in ok]))
        return checks
    shocked, unshocked = heterogeneous_roles(cfg)
    base_eq = ok[0][1]
    last_eq = ok[-1][1]
    b_low_rise = (
        last_eq.states[0].activities[unshocked.name]
        - base_eq.states[0].activities[unshocked.name]
    )
    checks.append(_check(
        "low_state_unshocked_demand_rises", b_low_rise > 0.0,
        {"activity_rise": b_low_rise},
        "the burn-funded return relaxes the unshocked type's low-state budget",
    ))
    a_low_spread = max(
        abs(e.states[0].activities[shocked.name] - base_eq.states[0].activities[shocked.name])
        for _, e, _ in ok
    )
    checks.append(_check(
        "low_state_shocked_demand_stable", a_low_spread <= 1e-8,
        {"max_spread": a_low_spread},
        "the shocked type's low-state margin is untouched by the high-state tax",
    ))

    # concavity check: along the capacity line, shifting blockspace toward the
    # type with the higher marginal utility must not lower the utility sum
    lam = shocked.mass
    u_hi = shocked.utility_in(1)
    u_lo = unshocked.utility_in(1)
    worst = math.inf
    for (_, e1, _), (_, e2, _) in zip(ok, ok[1:]):
        if not (e1.states[1].congested and e2.states[1].congested):
            continue
        pairs = []
        for e in (e1, e2):
            a = e.states[1].activities[shocked.name]
            b = e.states[1].activities[unshocked.name]
            pairs.append((a, b, ec.u_prime(u_hi, a), ec.u_prime(u_lo, b)))
        if not all(up_a > up_b for _, _, up_a, up_b in pairs):
            continue
        pairs.sort(key=lambda p: p[0])

        def utility_sum(pair: tuple[float, float, float, float]) -> float:
            return lam * ec.u_eval(u_hi, pair[0]) + (1 - lam) * ec.u_eval(u_lo, pair[1])

        worst = min(worst, utility_sum(pairs[1]) - utility_sum(pairs[0]))
    checks.append(_check(
        "congested_utility_sum_monotone",
        None if math.isinf(worst) else worst >= -1e-12,
        {} if math.isinf(worst) else {"min_increase": worst},
        "utility sum never falls as the high-marginal type's share grows",
    ))

    checks.append(_burn_identity_check(cfg, [e for _, e, _ in ok]))
    return checks


_BATTERIES = {
    "deterministic": _deterministic_battery,
    "iid": _iid_battery,
    "common": _common_battery,
    "heterogeneous": _heterogeneous_battery,
}


def proposition_report(cfg: ec.EconomyConfig) -> dict:
    """Run every check applicable to the configuration's demand structure.

    Failures are data, not exceptions: each check carries a status of
    "pass", "fail", or "not applicable" plus its measured slack.
    """
    family = ec.family(cfg)
    checks = _BATTERIES[family](cfg)
    return {
        "schema_version": ec.SCHEMA_VERSION,
        "family": family,
        "checks": checks,
        "all_passed": all(c["status"] != "fail" for c in checks),
    }
