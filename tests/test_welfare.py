import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from tokenomics import econ_core as ec
from tokenomics import equilibrium as eqm
from tokenomics import verify
from tokenomics import welfare as wf
from tokenomics.errors import ConfigError, InfeasiblePolicyError, SolverError

from helpers import (
    CONFIG_DIR,
    assert_holdings_slope_matches,
    record_evaluations,
    replace,
    scaled_config,
    single_user_config,
    two_type_config,
)

# the benchmark's independent model of the economy, which imports nothing
# from the package
sys.path.insert(0, str(CONFIG_DIR.parent / "perfbench"))
import model  # noqa: E402

FRIEDMAN_WELFARE = 0.5952753944880749


def test_evaluate_friedman_scores_first_best(det_cfg):
    eq = eqm.solve_regime(det_cfg, "friedman")
    report = wf.evaluate(det_cfg, eq)
    assert report.expected_flow_welfare == pytest.approx(FRIEDMAN_WELFARE, abs=1e-10)
    assert abs(report.first_best_gap) <= 1e-8
    assert report.foc_residual_max <= 1e-10
    assert report.oracle_delta_max <= 2.0  # grid steps


def test_evaluate_expected_welfare_aggregates_states(common_cfg):
    eq = eqm.solve_regime(common_cfg, "common", 0.1)
    report = wf.evaluate(common_cfg, eq)
    rho = common_cfg.shocks.rho
    recombined = rho * report.per_state[1] + (1 - rho) * report.per_state[0]
    assert report.expected_flow_welfare == pytest.approx(recombined, abs=1e-12)
    assert report.per_state[0] == 0.0
    assert report.first_best_gap > 1e-4  # away from the optimal rule


def test_evaluate_gap_positive_under_deterministic_tax(det_cfg):
    eq = eqm.solve_regime(det_cfg, "deterministic", 0.1)
    report = wf.evaluate(det_cfg, eq)
    assert report.first_best_gap > 1e-4
    doc = report.as_dict()
    assert set(doc["per_state"]) == {"1"}
    assert doc["expected_flow_welfare"] == report.expected_flow_welfare


def test_sweep_deterministic_is_flat_and_ties_break_low(det_cfg):
    res = wf.sweep_tax(det_cfg, "deterministic", [0.0, 0.1, 0.2])
    assert max(res.welfare) - min(res.welfare) == pytest.approx(0.0, abs=1e-12)
    assert res.argmax_theta == 0.0
    assert res.statuses == ("ok", "ok", "ok")


def test_sweep_iid_prefers_zero_tax(iid_cfg):
    res = wf.sweep_tax(iid_cfg, "iid", [0.0, 0.04, 0.08])
    assert res.argmax_theta == 0.0
    assert all(a > b for a, b in zip(res.welfare, res.welfare[1:]))


def test_sweep_heterogeneous_prefers_positive_tax(het_cfg):
    res = wf.sweep_tax(het_cfg, "heterogeneous", [0.0, 0.05, 0.1])
    assert res.argmax_theta == 0.1
    assert res.welfare[2] - res.welfare[0] > 1e-6
    assert all(s == "ok" for s in res.statuses)
    assert all(res.congestion_flags)


def test_sweep_records_failures_without_raising(het_cfg):
    res = wf.sweep_tax(het_cfg, "heterogeneous", [0.0, 0.1, 0.2, 0.3])
    assert res.statuses[0] == "ok" and res.statuses[1] == "ok"
    assert res.statuses[2].startswith("error: ")
    assert res.statuses[3].startswith("error: ")
    assert math.isnan(res.welfare[2]) and math.isnan(res.welfare[3])
    assert res.reports[2] is None and res.equilibria[2] is None
    assert res.argmax_theta == 0.1  # errors excluded from the argmax


def test_sweep_all_failures_yield_nan_argmax(het_cfg):
    res = wf.sweep_tax(het_cfg, "heterogeneous", [0.3, 0.4])
    assert all(s.startswith("error: ") for s in res.statuses)
    assert math.isnan(res.argmax_theta)


def test_sweep_grid_validation(det_cfg):
    with pytest.raises(ConfigError, match="nonempty"):
        wf.sweep_tax(det_cfg, "deterministic", [])
    with pytest.raises(ConfigError, match="sorted"):
        wf.sweep_tax(det_cfg, "deterministic", [0.2, 0.1])


def test_sweep_as_dict_drops_solver_objects(common_cfg):
    doc = wf.sweep_tax(common_cfg, "common", [0.0, 0.05]).as_dict()
    assert "equilibria" not in doc
    assert doc["argmax_theta"] == 0.0
    assert len(doc["reports"]) == 2 and doc["reports"][0] is not None


@pytest.mark.parametrize(
    "fixture_name, family",
    [
        ("det_cfg", "deterministic"),
        ("iid_cfg", "iid"),
        ("common_cfg", "common"),
        ("het_cfg", "heterogeneous"),
    ],
)
def test_proposition_report_passes_on_shipped_configs(fixture_name, family, request):
    cfg = request.getfixturevalue(fixture_name)
    report = verify.proposition_report(cfg)
    assert report["family"] == family
    assert report["all_passed"], [c for c in report["checks"] if c["status"] == "fail"]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_proposition_report_check_names(det_cfg, iid_cfg):
    det_names = [c["name"] for c in verify.proposition_report(det_cfg)["checks"]]
    assert det_names == [
        "friedman_matches_first_best",
        "friedman_return_is_r",
        "deterministic_tax_neutrality",
        "friedman_weakly_dominates_burn",
        "burn_identity",
    ]
    iid_names = [c["name"] for c in verify.proposition_report(iid_cfg)["checks"]]
    assert "iid_return_formula" in iid_names and "iid_tax_never_helps" in iid_names


def test_proposition_report_marks_unreachable_checks():
    not_applicable = "not applicable"
    cases = [
        # balances outgrow the discount rate: no nonnegative burn rate applies
        (
            single_user_config(ec.ShockKind.DETERMINISTIC, r=0.02, gamma=0.05),
            {
                "friedman_matches_first_best": "pass",
                "friedman_return_is_r": "pass",
                "deterministic_tax_neutrality": not_applicable,
                "friedman_weakly_dominates_burn": not_applicable,
                "burn_identity": not_applicable,
            },
        ),
        (
            single_user_config(ec.ShockKind.IID_BINARY, r=0.02, gamma=0.05),
            {
                "iid_return_formula": not_applicable,
                "iid_tax_never_helps": not_applicable,
                "burn_identity": not_applicable,
            },
        ),
        (
            single_user_config(ec.ShockKind.COMMON_BINARY, r=0.02, gamma=0.05),
            {
                "common_shock_tax_neutrality": not_applicable,
                "common_shock_return_formula": not_applicable,
                "burn_identity": not_applicable,
            },
        ),
        # demand fills capacity at zero tax: the uncongested argument is silent
        (
            scaled_config("iid", utility=10.0),
            {
                "iid_return_formula": "pass",
                "iid_tax_never_helps": not_applicable,
                "burn_identity": "pass",
            },
        ),
    ]
    for cfg, expected in cases:
        report = verify.proposition_report(cfg)
        assert {c["name"]: c["status"] for c in report["checks"]} == expected
        assert report["all_passed"]  # "not applicable" is not a failure


def test_heterogeneous_battery_needs_a_congested_zero_tax_state():
    # a shocked type too weak to fill capacity: every sweep point is slack
    report = verify.proposition_report(two_type_config(shocked_high=0.9))
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name == {
        "heterogeneous_tax_improves_welfare": "not applicable",
        "low_state_unshocked_demand_rises": "not applicable",
        "low_state_shocked_demand_stable": "not applicable",
        "congested_utility_sum_monotone": "not applicable",
        "burn_identity": "pass",
    }
    assert report["all_passed"]


def test_heterogeneous_battery_fails_on_zero_tax_solver_error(het_cfg, monkeypatch):
    def failing(cfg, theta):
        raise SolverError("no steady state")

    row = eqm.REGIMES["heterogeneous"]
    monkeypatch.setitem(eqm.REGIMES, "heterogeneous", replace(row, solve=failing))
    report = verify.proposition_report(het_cfg)
    assert report["checks"][0]["status"] == "fail"
    assert not report["all_passed"]


# ---------------------------------------------------------------------------
# the equilibrium certificate
# ---------------------------------------------------------------------------

CLOSED_FORM_KINDS = {
    "friedman": ec.ShockKind.DETERMINISTIC,
    "deterministic": ec.ShockKind.DETERMINISTIC,
    "iid": ec.ShockKind.IID_BINARY,
    "common": ec.ShockKind.COMMON_BINARY,
}


@st.composite
def closed_form_solves(draw, regimes, past_frontier):
    """(cfg, regime, theta): a one-type config of the regime's family with
    gamma in [-0.03, 0.03], and a tax up to the frontier
    model.frontier_theta, or past it (theta = 0 where the frontier is
    negative)."""
    regime = draw(st.sampled_from(regimes))
    cfg = single_user_config(
        CLOSED_FORM_KINDS[regime],
        r=draw(st.floats(0.01, 0.1)),
        gamma=draw(st.floats(-0.03, 0.03)),
        rho=draw(st.floats(0.1, 1.0)),
        scale=draw(st.floats(0.01, 100.0)),
        curvature=draw(st.floats(0.2, 0.8)),
        cost=(draw(st.floats(0.2, 3.0)), draw(st.floats(0.05, 3.0))),
    )
    if regime == "friedman":
        return cfg, regime, 0.0
    frontier = model.frontier_theta(ec.config_to_dict(cfg), regime)
    assume(math.isfinite(frontier))
    if past_frontier:
        return cfg, regime, max(0.0, frontier + draw(st.floats(1e-3, 0.5)))
    assume(frontier >= 0.0)
    return cfg, regime, draw(st.floats(0.0, 1.0)) * frontier


@settings(max_examples=80, deadline=None)
@given(closed_form_solves(tuple(CLOSED_FORM_KINDS), past_frontier=False))
def test_closed_form_solves_inside_the_frontier_are_certified(solve):
    cfg, regime, theta = solve
    eq = eqm.solve_regime(cfg, regime, theta)
    report = wf.evaluate(cfg, eq)
    assert verify.cert_failures(verify.certify(cfg, eq, report)) == []
    # the model's relative burn check still fails on some draws with
    # gamma != 0 at a tiny tax: rT - gamma keeps only ulp(gamma) of absolute
    # accuracy, which at theta = 1e-9 is about 1e-8 of the burn. In 4,000
    # draws of this strategy with theta log-uniform on [1e-14, 1e-5] the
    # largest failing theta was 1.6e-9, so the bound leaves a margin of about
    # 60; in 6,000 such draws at gamma = 0 none failed.
    if cfg.gamma != 0.0 and 0.0 < theta < 1e-7:
        return
    doc = ec.config_to_dict(cfg)
    assert model.check_equilibrium(doc, regime, theta, eq.as_dict(), report.as_dict()) == []


@pytest.mark.parametrize("theta", [1e-9, 1e-12])
@pytest.mark.parametrize(
    "fixture_name, regime",
    [("det_cfg", "deterministic"), ("iid_cfg", "iid"), ("common_cfg", "common")],
)
def test_model_burn_check_passes_at_a_tiny_tax(fixture_name, regime, theta, request):
    # the return laws give rT - gamma to the relative precision of theta, so
    # at gamma = 0 the model's burn identity, checked to 1e-8 of the burn,
    # holds at any positive tax; rounding 1 + theta to a double first would
    # leave an error of about 1e-16 in rT, 1e-7 of it at theta = 1e-9
    cfg = request.getfixturevalue(fixture_name)
    eq = eqm.solve_regime(cfg, regime, theta)
    report = wf.evaluate(cfg, eq)
    assert verify.cert_failures(verify.certify(cfg, eq, report)) == []
    doc = ec.config_to_dict(cfg)
    assert model.check_equilibrium(doc, regime, theta, eq.as_dict(), report.as_dict()) == []


@settings(max_examples=80, deadline=None)
@given(closed_form_solves(tuple(CLOSED_FORM_KINDS), past_frontier=False))
def test_closed_form_holdings_slope_matches_the_model(solve):
    cfg, regime, theta = solve
    assert_holdings_slope_matches(cfg, eqm.solve_regime(cfg, regime, theta), model.holdings_slope)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@settings(max_examples=40, deadline=None)
@given(closed_form_solves(("deterministic", "iid", "common"), past_frontier=True))
def test_closed_form_solves_past_the_frontier_raise(solve):
    cfg, regime, theta = solve
    with pytest.raises(InfeasiblePolicyError):
        eqm.solve_regime(cfg, regime, theta)


@pytest.mark.parametrize(
    "fixture_name, regime, theta, holdings_factor, flagged",
    [
        ("det_cfg", "deterministic", 0.2, 1.0, "return_above_r"),
        ("iid_cfg", "iid", 0.05, 1.01, "holdings_slope"),
        # an empty wallet buys nothing in the trading state: V'(0) = inf
        ("iid_cfg", "iid", 0.05, 0.0, "holdings_slope"),
    ],
)
def test_certify_flags_a_return_above_r_and_inflated_holdings(
    fixture_name, regime, theta, holdings_factor, flagged, request
):
    cfg = request.getfixturevalue(fixture_name)
    eq = eqm.solve_regime(cfg, regime, theta)
    eq = replace(
        eq, holdings={n: holdings_factor * m for n, m in eq.holdings.items()}
    )
    assert flagged in verify.cert_failures(verify.certify(cfg, eq, wf.evaluate(cfg, eq)))


def test_certify_reuses_the_report(iid_cfg, monkeypatch):
    # certify calls no econ_core primitive: the FOC residual and the
    # first-best gap come from the report
    eq = eqm.solve_regime(iid_cfg, "iid", 0.05)
    report = wf.evaluate(iid_cfg, eq)
    seen = record_evaluations(monkeypatch)
    certificate = verify.certify(iid_cfg, eq, report)
    assert (seen.u_prime_inv, seen.u_prime, seen.c_prime) == ([], [], [])
    assert certificate["foc_residual"] == report.foc_residual_max
    assert certificate["above_first_best"] == -report.first_best_gap
