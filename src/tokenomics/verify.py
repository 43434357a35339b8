"""The checks behind `tokenomics verify`, and only them.

verify_checks runs, in order: the proposition battery of the config's
family (the paper's claims, checked on tax sweeps), the oracle
cross-checks and equilibrium certificates of every regime of that family,
the first-best weak-duality certificate, and the regression against the
config's golden file, as the verify.json document. Each check is a dict
with a name, a status of "pass", "fail" or "not applicable", its measured
slack and a detail line; failures are data, not exceptions. The
equilibrium certificate, certify with CERT_TOL and cert_failures, is here.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterable
from pathlib import Path
from typing import Callable

from . import econ_core as ec
from . import equilibrium as eqm
from .errors import TokenomicsError
from .first_best import first_best_allocation, planner_economy
from .oracle import first_best_dual_gap, holdings_slope
from .welfare import SweepResult, WelfareReport, _grid, evaluate, sweep_tax

GOLDEN_TOL = 1e-8

#: largest weak-duality gap of the planner's solution that verify accepts
FIRST_BEST_GAP_TOL = 1e-9

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


def _check(name: str, passed: bool | None, measured: dict, detail: str) -> dict:
    status = "not applicable" if passed is None else ("pass" if passed else "fail")
    return {"name": name, "status": status, "measured": measured, "detail": detail}


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
# proposition battery
# ---------------------------------------------------------------------------


def _burn_identity_check(cfg: ec.EconomyConfig, equilibria: Iterable) -> dict:
    worst = max(
        (_burn_residual(eq, cfg.gamma) for eq in equilibria if eq is not None), default=0.0
    )
    return _check(
        "burn_identity", worst <= CERT_TOL["burn_identity"], {"max_residual": worst},
        "per-state burn value equals the return premium on aggregate balances",
    )


def _law_sweep(
    cfg: ec.EconomyConfig, regime: str, grid: list[float],
    deviation: Callable[[float, eqm.SteadyStateEquilibrium], float],
) -> tuple[SweepResult, float, float]:
    """Sweep a closed-form regime over grid: the sweep, the largest spread of
    a type's state-1 activity over the solved points, and the largest
    |deviation(theta, eq)| of a solved point from a stated return law."""
    sweep = sweep_tax(cfg, regime, grid)
    solved = [(th, e) for th, e in zip(grid, sweep.equilibria) if e is not None]
    first = solved[0][1].states[1].activities
    spread = max(abs(e.states[1].activities[t.name] - first[t.name])
                 for _, e in solved for t in cfg.agent_types)
    return sweep, spread, max(abs(deviation(th, e)) for th, e in solved)


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

    sweep, spread, rt_gap = _law_sweep(
        cfg, "deterministic", _grid(0.0, 0.5, 11),
        lambda th, e: e.states[1].token_return - ((1 + th) * (1 + cfg.gamma) - 1),
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
    sweep, _, rt_gap = _law_sweep(
        cfg, "iid", _grid(0.0, 0.3, 31),
        lambda th, e: (1 + e.expected_return) - (1 + cfg.gamma) * (1 + th) / (1 + (1 - rho) * th),
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
    sweep, spread, ret_gap = _law_sweep(
        cfg, "common", _grid(0.0, 0.5, 11),
        lambda th, e: (1 + e.expected_return) - ((1 - rho) + rho * (1 + th) * (1 + cfg.gamma)),
    )
    checks.append(_check(
        "common_shock_tax_neutrality", spread <= 1e-8,
        {"max_activity_spread": spread},
        "active-state activity is invariant to the burn rate",
    ))
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
    return _report(family, _BATTERIES[family](cfg))


def _report(family: str, checks: list[dict]) -> dict:
    """The document of a run of checks on a config of family, as verify.json holds it."""
    return {
        "schema_version": ec.SCHEMA_VERSION,
        "family": family,
        "checks": checks,
        "all_passed": all(c["status"] != "fail" for c in checks),
    }


# ---------------------------------------------------------------------------
# oracle cross-checks
# ---------------------------------------------------------------------------


#: solve_regime + evaluate for one config: (regime, theta) -> (equilibrium, report)
Scorer = Callable[[str, float], tuple[eqm.SteadyStateEquilibrium, WelfareReport]]


def _scorer(cfg: ec.EconomyConfig) -> Scorer:
    """A Scorer for cfg that solves and evaluates each (regime, theta) once,
    so verify's oracle checks and golden comparison share each solve."""

    @functools.cache
    def score(regime: str, theta: float):
        eq = eqm.solve_regime(cfg, regime, theta)
        return eq, evaluate(cfg, eq)

    return score


def _oracle_checks(cfg: ec.EconomyConfig, score: Scorer) -> list[dict]:
    """Oracle cross-checks of the analytic solvers on this config and the
    equilibrium certificate, over every regime of its family at theta = 0
    and 0.05 where the regime is taxed, then the first-best certificate."""
    checks: list[dict] = []
    worst_holdings = 0.0
    certificates = []
    fam = ec.family(cfg)
    for regime, row in eqm.REGIMES.items():
        if row.family != fam:
            continue
        for theta in (0.0, 0.05) if row.taxed else (0.0,):
            eq, report = score(regime, theta)
            worst_holdings = max(worst_holdings, report.oracle_delta_max)
            certificates.append(certify(cfg, eq, report))
    checks.append(_check(
        "oracle_holdings_agreement", worst_holdings <= 2.0, {"max_grid_steps": worst_holdings},
        "grid-search best responses sit within 2 steps of solver holdings",
    ))
    # The grid oracle resolves holdings to 2 of 2001 steps, too coarse to see
    # a wrong wedge that moves them by a fraction of a percent; the exact
    # slope V'(m) of the holdings objective does. At the optimum it reads
    # rounding (about 1e-16), at any scale and at the rT = r kink.
    over = [k for k in CERT_TOL if any(k in cert_failures(c) for c in certificates)]
    checks.append(_check(
        "equilibrium_certificate", not over,
        {k: max(c[k] for c in certificates) for k in CERT_TOL},
        f"above tolerance: {', '.join(over)}" if over else
        "every steady-state invariant holds within its tolerance at every solve",
    ))
    checks.append(_first_best_check(cfg))
    return checks


def _first_best_check(cfg: ec.EconomyConfig) -> dict:
    """Weak-duality certificate of the planner's solution in each state of
    planner_economy(cfg), the market first_best_gap reads (under iid draws
    its one pair type@1): the surplus bound D(x) at the solution's marginal
    utility x minus its surplus, 0 up to rounding at the optimum and
    negative only past capacity, so its size is read."""
    planner = planner_economy(cfg)
    worst = max(
        abs(first_best_dual_gap(planner, s, first_best_allocation(planner, s).activities))
        for s in planner.shocks.states()
    )
    return _check(
        "oracle_first_best_agreement", worst <= FIRST_BEST_GAP_TOL, {"max_dual_gap": worst},
        "the planner's surplus meets its weak-duality bound in every state",
    )


# ---------------------------------------------------------------------------
# golden regression
# ---------------------------------------------------------------------------


def golden_path_for(config_path: Path) -> Path:
    return config_path.with_name(config_path.stem + ".golden.json")


def _compare_tree(expected, actual, path: str, mismatches: list[str]) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected:
                mismatches.append(f"{path}.{key} (unexpected)")
            elif key not in actual:
                mismatches.append(f"{path}.{key} (missing)")
            else:
                _compare_tree(expected[key], actual[key], f"{path}.{key}", mismatches)
        return
    if isinstance(expected, bool) or isinstance(actual, bool):
        if expected is not actual:
            mismatches.append(f"{path} ({expected!r} != {actual!r})")
        return
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if abs(float(expected) - float(actual)) > GOLDEN_TOL * max(1.0, abs(float(expected))):
            mismatches.append(f"{path} ({expected} != {actual})")
        return
    if expected != actual:
        mismatches.append(f"{path} ({expected!r} != {actual!r})")


def golden_case_result(score: Scorer, regime: str, theta: float) -> dict:
    eq, report = score(regime, theta)
    return {
        "regime": regime,
        "theta": theta,
        "equilibrium": eq.as_dict(),
        "welfare": report.as_dict(),
    }


def check_golden(score: Scorer, golden_file: Path) -> tuple[bool, str]:
    try:
        doc = json.loads(golden_file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        return False, f"golden file unreadable: {exc}"
    cases = doc.get("cases") if isinstance(doc, dict) else None
    if not isinstance(cases, list) or not cases:
        return False, "golden file has no cases"
    mismatches: list[str] = []
    for i, case in enumerate(cases):
        # a case that is malformed, or that no regime of this config solves, fails
        try:
            actual = golden_case_result(score, case["regime"], float(case["theta"]))
        except (TokenomicsError, TypeError, ValueError, ArithmeticError, KeyError) as exc:
            return False, f"golden case {i} cannot be scored: {type(exc).__name__}: {exc}"
        _compare_tree(case, actual, f"golden:case.{i}", mismatches)
    if mismatches:
        shown = "; ".join(mismatches[:4])
        more = f" (+{len(mismatches) - 4} more)" if len(mismatches) > 4 else ""
        return False, f"{shown}{more}"
    return True, f"{len(cases)} cases match within {GOLDEN_TOL:g}"


# ---------------------------------------------------------------------------
# the whole run
# ---------------------------------------------------------------------------


def verify_checks(cfg: ec.EconomyConfig, config_path: Path) -> dict:
    """The verify.json document of every verify check, in report order: the
    proposition battery, the oracle checks, then the golden regression
    against the golden file beside config_path (not applicable without one)."""
    report = proposition_report(cfg)
    checks = list(report["checks"])
    score = _scorer(cfg)
    checks.extend(_oracle_checks(cfg, score))

    golden_file = golden_path_for(config_path)
    ok, detail = check_golden(score, golden_file) if golden_file.exists() else (
        None, f"no golden file at {golden_file.name}")
    checks.append(_check("golden_regression", ok, {}, detail))
    return _report(report["family"], checks)
