import logging
import math
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from tokenomics import _roots, heterogeneous_roles
from tokenomics import econ_core as ec
from tokenomics import equilibrium as eqm
from tokenomics.errors import ConfigError, InfeasiblePolicyError, SolverError
from tokenomics.first_best import _clear_blockspace, first_best_allocation
from tokenomics.oracle import holdings_objective, holdings_slope
from tokenomics.verify import cert_failures, certify
from tokenomics.welfare import evaluate, shock_foc_residual

from helpers import (
    CONFIG_DIR,
    ISO,
    ZERO,
    assert_holdings_slope_matches,
    both_bind_config,
    het_band_config,
    log_slope_error,
    low_state_over_capacity_config,
    one_sided_ascent,
    record_evaluations,
    record_slopes,
    replace,
    scaled_config,
    single_user_config,
    split_iid_config,
    split_steady_config,
    two_type_config,
    underflow_config,
)

# the benchmark's independent model of the economy, which imports nothing
# from the package
sys.path.insert(0, str(CONFIG_DIR.parent / "perfbench"))
import model  # noqa: E402

_EPS = math.ulp(1.0)

# canonical frozen values (all with A=0.5, eta=0.5, kappa=eps=1, r=0.05, gamma=0)
FRIEDMAN_ACTIVITY = 0.6299605249474366       # 0.5 a^(-1/2) = a
DET_ACTIVITY = 0.6097996023749973            # 0.5 a^(-1/2) = 1.05 a
IID_ACTIVITY_0 = 0.9384364685966974          # 0.5 a^(-1/2) = 1.1 * (a/2)
IID_ACTIVITY_01 = 0.9356034501489061         # wedge 1.105 at theta = 0.1
COMMON_ACTIVITY = 0.5911779303869941         # 0.5 a^(-1/2) = 1.1 a

# heterogeneous canonical at theta = 0 (the shocked type's budget binds in
# the high state, the unshocked type's in the low state)
HET_P_HIGH = 1.3333763767156936
HET_A_HIGH = 1.8593840790238225
HET_B_HIGH = 0.14061592097617662
HET_A_LOW = 0.25
HET_B_LOW = 0.20661157024793386
HET_M_SHOCKED = 2.4792588062116314

# het_band_config arguments of a config whose shocked type's budget binds in
# both states (its unshocked type's in the low state) at theta = 0 to 0.05
SHOCKED_BINDS_BOTH = (
    (1.9464, 0.5171, 1.476, 0.6196), (1.202, 0.7104, 1.2722, 0.9178), 0.6377, 0.2996
)

# het_band_config arguments, tax shares (theta = share * r / rho) and where
# each type's budget binds there, shocked type first: the six pattern pairs
# in which the shocked type's budget does not bind in the high state alone
BINDING_EXAMPLES = [
    (((3.91, 0.42, 3.47, 1.34), (0.72, 0.68, 0.96, 1.72), 0.21, 0.57), [0.0], ("low", "low")),
    (((1.62, 0.71, 3.43, 3.97), (1.2, 1.23, 0.63, 0.65), 0.36, 0.29), [0.0], ("both", "high")),
    (((3.4, 0.76, 0.71, 1.91), (0.61, 0.86, 0.61, 1.5), 0.76, 0.86), [0.5], ("low", "high")),
    (((2.72, 0.5, 3.01, 1.2), (0.61, 0.9, 1.59, 0.81), 0.72, 0.93), [0.0], ("both", "low")),
    (((3.69, 0.87, 3.21, 3.74), (0.6, 1.03, 1.63, 0.74), 0.86, 0.3), [0.0], ("both", "both")),
    (((3.3, 0.9, 1.41, 1.38), (0.57, 1.83, 1.67, 1.57), 0.06, 0.81), [0.0], ("low", "both")),
    # theta = 0, 0.03 and 0.05
    (SHOCKED_BINDS_BOTH, [0.0, 0.03 * 0.2996 / 0.05, 0.05 * 0.2996 / 0.05], ("both", "low")),
]


# ---------------------------------------------------------------------------
# Friedman rule
# ---------------------------------------------------------------------------


def test_friedman_matches_first_best(det_cfg):
    eq = eqm.solve_regime(det_cfg, "friedman")
    assert eq.states[1].activities["users"] == pytest.approx(FRIEDMAN_ACTIVITY, abs=1e-10)
    assert eq.expected_return == det_cfg.r
    assert eq.states[1].token_return == det_cfg.r
    assert eq.states[1].tax == 0.0
    fb = first_best_allocation(det_cfg, 1)
    assert eq.states[1].activities["users"] == pytest.approx(fb.activities["users"], abs=1e-12)


def test_friedman_with_growth_still_first_best():
    cfg = single_user_config(ec.ShockKind.DETERMINISTIC, gamma=0.05)
    eq = eqm.solve_regime(cfg, "friedman")
    fb = first_best_allocation(cfg, 1)
    assert eq.states[1].activities["users"] == pytest.approx(fb.activities["users"], abs=1e-12)
    assert eq.expected_return == pytest.approx(0.05)


def test_friedman_congested_prices_at_shadow_value():
    cfg = single_user_config(ec.ShockKind.DETERMINISTIC, scale=2.0)
    eq = eqm.solve_regime(cfg, "friedman")
    out = eq.states[1]
    assert out.congested
    assert out.aggregate_activity == pytest.approx(1.0, abs=1e-9)
    assert out.price == pytest.approx(2.0, rel=1e-9)  # u'(1) = 2
    assert out.price >= ec.c_prime(cfg.cost, 1.0)


# ---------------------------------------------------------------------------
# deterministic tax-and-burn
# ---------------------------------------------------------------------------


def test_deterministic_tax_neutrality(det_cfg):
    """Activities identical across surcharges; only the return moves."""
    eqs = {th: eqm.solve_regime(det_cfg, "deterministic", th) for th in (0.0, 0.05, 0.2)}
    for th, eq in eqs.items():
        out = eq.states[1]
        assert out.activities["users"] == pytest.approx(DET_ACTIVITY, abs=1e-10)
        assert out.price == pytest.approx(DET_ACTIVITY, abs=1e-10)  # c'(a) = a
        assert out.token_return == pytest.approx(th, abs=1e-14)     # gamma = 0
        assert out.tax == th
        assert eq.expected_return == out.token_return


def test_deterministic_surcharge_cannot_mimic_friedman(det_cfg):
    # theta = (1+r)/(1+gamma) - 1 matches the optimal rule's *return* but not
    # its allocation: the surcharge raises the effective price exactly as much
    # as the burn-funded return relaxes the budget
    eq = eqm.solve_regime(det_cfg, "deterministic", 0.05)
    assert eq.states[1].token_return == pytest.approx(det_cfg.r, abs=1e-14)
    friedman = eqm.solve_regime(det_cfg, "friedman")
    assert eq.states[1].activities["users"] == pytest.approx(DET_ACTIVITY, abs=1e-10)
    assert friedman.states[1].activities["users"] - eq.states[1].activities["users"] > 0.01


def test_deterministic_zero_tax_with_matching_growth_is_first_best():
    cfg = single_user_config(ec.ShockKind.DETERMINISTIC, r=0.05, gamma=0.05)
    eq = eqm.solve_regime(cfg, "deterministic", 0.0)
    fb = first_best_allocation(cfg, 1)
    assert eq.states[1].activities["users"] == pytest.approx(fb.activities["users"], rel=1e-10)


def test_deterministic_holdings_satisfy_budget(det_cfg):
    eq = eqm.solve_regime(det_cfg, "deterministic", 0.2)
    out = eq.states[1]
    spend = out.effective_price * out.activities["users"]
    assert (1.0 + out.token_return) * eq.holdings["users"] == pytest.approx(spend, rel=1e-12)
    assert eq.aggregate_real_balances == pytest.approx(eq.holdings["users"], rel=1e-12)


def test_deterministic_rejects_negative_tax(det_cfg):
    with pytest.raises(ConfigError):
        eqm.solve_regime(det_cfg, "deterministic", -0.1)


# ---------------------------------------------------------------------------
# idiosyncratic shocks
# ---------------------------------------------------------------------------


def test_iid_frozen_values(iid_cfg):
    eq0 = eqm.solve_regime(iid_cfg, "iid", 0.0)
    assert eq0.states[1].activities["users"] == pytest.approx(IID_ACTIVITY_0, abs=1e-10)
    assert eq0.expected_return == pytest.approx(0.0, abs=1e-14)

    eq1 = eqm.solve_regime(iid_cfg, "iid", 0.1)
    assert eq1.states[1].activities["users"] == pytest.approx(IID_ACTIVITY_01, abs=1e-10)
    assert 1.0 + eq1.expected_return == pytest.approx(1.1 / 1.05, rel=1e-12)


def test_iid_states_share_market_conditions(iid_cfg):
    eq = eqm.solve_regime(iid_cfg, "iid", 0.1)
    high, low = eq.states[1], eq.states[0]
    assert high.price == low.price
    assert high.token_return == low.token_return
    assert high.aggregate_activity == low.aggregate_activity
    assert low.activities["users"] == 0.0
    assert high.aggregate_activity == pytest.approx(0.5 * high.activities["users"], rel=1e-12)


def test_iid_with_certain_shock_matches_deterministic_return(det_cfg):
    cfg = single_user_config(ec.ShockKind.IID_BINARY, rho=1.0)
    eq = eqm.solve_regime(cfg, "iid", 0.2)
    assert 1.0 + eq.expected_return == pytest.approx(1.2, rel=1e-12)
    det = eqm.solve_regime(det_cfg, "deterministic", 0.2)
    assert eq.states[1].activities["users"] == pytest.approx(
        det.states[1].activities["users"], rel=1e-10
    )


def test_iid_congested_when_demand_is_strong():
    cfg = single_user_config(ec.ShockKind.IID_BINARY, scale=3.0)
    eq = eqm.solve_regime(cfg, "iid", 0.0)
    out = eq.states[1]
    assert out.congested
    assert out.aggregate_activity == pytest.approx(1.0, rel=1e-12)
    assert out.activities["users"] == pytest.approx(2.0, rel=1e-12)  # 1/rho


def centered_slope(cfg, eq, name):
    m = eq.holdings[name]
    h = 1e-6 * m
    objective = holdings_objective(cfg, eq, name)
    return (objective(m + h) - objective(m - h)) / (2.0 * h)


@pytest.mark.parametrize("theta", [0.0, 0.05])
def test_iid_growth_wedge_is_the_holdings_optimum(iid_cfg, theta):
    cfg = replace(iid_cfg, gamma=0.02)
    eq = eqm.solve_regime(cfg, "iid", theta)
    report = evaluate(cfg, eq)
    assert report.foc_residual_max <= 1e-8
    # the exact slope V'(m) vanishes (the check verify runs); no one-sided
    # step gains, which resolves holdings to about 5e-7 of m, and the
    # objective's centered slope, whose step bias is second order, pins them
    # ten times finer on this smooth optimum
    assert max(abs(v) for v in holdings_slope(cfg, eq).values()) <= 1e-12
    assert max(one_sided_ascent(cfg, eq).values()) <= 1e-8
    assert max(abs(centered_slope(cfg, eq, t.name)) for t in cfg.agent_types) <= 1e-8
    assert report.oracle_delta_max == 0.0


# ---------------------------------------------------------------------------
# common shock, single type
# ---------------------------------------------------------------------------


def test_common_shock_neutral_activity(common_cfg):
    activities = [
        eqm.solve_regime(common_cfg, "common", th).states[1].activities["users"]
        for th in (0.0, 0.1, 0.5)
    ]
    for a in activities:
        assert a == pytest.approx(COMMON_ACTIVITY, abs=1e-10)


def test_common_shock_low_state_is_shut(common_cfg):
    eq = eqm.solve_regime(common_cfg, "common", 0.3)
    low = eq.states[0]
    assert low.price == 0.0 and low.tax == 0.0 and low.token_return == 0.0
    assert low.aggregate_activity == 0.0
    assert eq.states[1].token_return == pytest.approx(0.3, abs=1e-14)
    assert eq.expected_return == pytest.approx(0.15, abs=1e-14)  # rho * rT_high


def test_common_shock_expected_gross_return(common_cfg):
    rho = common_cfg.shocks.rho
    for th in (0.0, 0.2):
        eq = eqm.solve_regime(common_cfg, "common", th)
        expected = (1 - rho) + rho * (1 + th)
        assert 1.0 + eq.expected_return == pytest.approx(expected, rel=1e-12)


def test_common_shock_certain_and_patient_is_first_best():
    cfg = single_user_config(ec.ShockKind.COMMON_BINARY, rho=1.0, r=0.05, gamma=0.05)
    eq = eqm.solve_regime(cfg, "common", 0.0)
    fb = first_best_allocation(cfg, 1)
    # wedge (rho + r)/((1+gamma) rho) = 1: the static margin u'(a) = p holds
    assert eq.states[1].activities["users"] == pytest.approx(fb.activities["users"], rel=1e-10)


def test_common_shock_congested_branch():
    cfg = single_user_config(ec.ShockKind.COMMON_BINARY, scale=2.0)
    eq = eqm.solve_regime(cfg, "common", 0.0)
    out = eq.states[1]
    assert out.congested
    assert out.activities["users"] == pytest.approx(1.0, rel=1e-12)
    assert out.price == pytest.approx(2.0 / 1.1, rel=1e-10)  # u'(1)/wedge


# ---------------------------------------------------------------------------
# heterogeneous types
# ---------------------------------------------------------------------------


def test_heterogeneous_roles_orders_by_demand(het_cfg):
    shocked, steady = heterogeneous_roles(het_cfg)
    assert shocked.name == "shocked" and steady.name == "steady"


def test_heterogeneous_roles_precondition():
    # every type must be active in both states
    idle = replace(two_type_config(), agent_types=(
        two_type_config().agent_types[0],
        ec.AgentTypeSpec(mass=0.5, utility_by_state={0: ec.ZeroUtility(), 1: ISO(0.5, 0.5)},
                         name="steady"),
    ))
    with pytest.raises(ConfigError, match="every type active in both states"):
        eqm.solve_regime(idle, "heterogeneous", 0.0)
    # the shocked type cannot outbid c'(1) at 1/mass, so the high state stays
    # slack: the solve returns that equilibrium and flags it
    weak = two_type_config(shocked_high=0.9)
    for theta in (0.0, 0.03, 0.05):
        eq = eqm.solve_regime(weak, "heterogeneous", theta)
        assert eq.congestion_broken
        for out in eq.states.values():
            assert not out.congested and out.aggregate_activity < 1.0
        report = evaluate(weak, eq)
        assert report.foc_residual_max <= 1e-8
        assert report.oracle_delta_max <= 2.0
        assert report.first_best_gap > 0.0


def test_heterogeneous_frozen_baseline(het_cfg):
    eq = eqm.solve_regime(het_cfg, "heterogeneous", 0.0)
    high, low = eq.states[1], eq.states[0]
    assert high.congested and not eq.congestion_broken
    assert high.price == pytest.approx(HET_P_HIGH, rel=1e-9)
    assert high.activities["shocked"] == pytest.approx(HET_A_HIGH, rel=1e-9)
    assert high.activities["steady"] == pytest.approx(HET_B_HIGH, rel=1e-8)
    assert high.aggregate_activity == pytest.approx(1.0, abs=1e-10)
    assert low.price == pytest.approx(1.0, abs=1e-6)  # near-flat marginal cost
    assert low.activities["shocked"] == pytest.approx(HET_A_LOW, rel=1e-6)
    assert low.activities["steady"] == pytest.approx(HET_B_LOW, rel=1e-6)
    assert eq.holdings["shocked"] == pytest.approx(HET_M_SHOCKED, rel=1e-9)
    # the unshocked type's balance binds in the low state at theta = 0
    assert eq.holdings["steady"] == pytest.approx(low.price * HET_B_LOW, rel=1e-6)
    assert eq.expected_return == 0.0


def test_heterogeneous_tax_comparative_statics(het_cfg):
    """The burn-funded return relaxes budgets: the shocked type's peak-state
    share grows, the unshocked type shifts purchases into the low state."""
    eqs = [eqm.solve_regime(het_cfg, "heterogeneous", th) for th in (0.0, 0.05, 0.1)]
    a_high = [e.states[1].activities["shocked"] for e in eqs]
    b_high = [e.states[1].activities["steady"] for e in eqs]
    b_low = [e.states[0].activities["steady"] for e in eqs]
    a_low = [e.states[0].activities["shocked"] for e in eqs]
    assert all(x < y for x, y in zip(a_high, a_high[1:]))
    assert all(x > y for x, y in zip(b_high, b_high[1:]))
    assert all(x < y for x, y in zip(b_low, b_low[1:]))
    assert max(a_low) - min(a_low) <= 1e-8
    for e in eqs:
        assert e.states[1].aggregate_activity == pytest.approx(1.0, abs=1e-9)
        assert e.expected_return <= het_cfg.r + 1e-10


def test_heterogeneous_return_satisfies_burn_identity(het_cfg):
    eq = eqm.solve_regime(het_cfg, "heterogeneous", 0.08)
    high = eq.states[1]
    burn = high.tax * high.price * high.aggregate_activity
    assert high.token_return * eq.aggregate_real_balances == pytest.approx(burn, rel=1e-10)


def test_heterogeneous_high_state_binding_pattern():
    # strong high-state demand from the unshocked type flips its binding
    # budget from the low state to the high state
    cfg = two_type_config(steady_high=0.8, steady_low=0.2)
    eq = eqm.solve_regime(cfg, "heterogeneous", 0.0)
    high, low = eq.states[1], eq.states[0]
    m_b = eq.holdings["steady"]
    high_spend = high.effective_price * high.activities["steady"]
    low_spend = low.price * low.activities["steady"]
    assert high_spend == pytest.approx(m_b, rel=1e-9)
    assert low_spend < m_b * 0.5


def test_heterogeneous_both_budgets_bind():
    # neither single pattern is consistent: the unshocked type spends its
    # whole balance in both states
    cfg = both_bind_config()
    eq = eqm.solve_regime(cfg, "heterogeneous", 0.0)
    high, low = eq.states[1], eq.states[0]
    m_b = eq.holdings["b"]
    assert high.effective_price * high.activities["b"] == pytest.approx(m_b, rel=1e-12)
    assert low.price * low.activities["b"] == pytest.approx(m_b, rel=1e-12)
    assert high.congested and not eq.congestion_broken
    assert high.aggregate_activity == pytest.approx(1.0, abs=1e-10)
    report = evaluate(cfg, eq)
    assert report.foc_residual_max <= 1e-8
    assert report.oracle_delta_max <= 2.0
    assert report.first_best_gap >= 0.0


@pytest.mark.parametrize(
    "args, shares, binds", BINDING_EXAMPLES, ids=["/".join(b) for _, _, b in BINDING_EXAMPLES]
)
def test_heterogeneous_budgets_bind_where_the_best_response_says(args, shares, binds):
    # a binding budget is spent in full, a slack one only in part
    cfg = het_band_config(*args)
    for share in shares:
        eq = eqm.solve_regime(cfg, "heterogeneous", share * cfg.r / cfg.shocks.rho)
        for t, pattern in zip(heterogeneous_roles(cfg), binds):
            for s, out in eq.states.items():
                wealth = (1.0 + out.token_return) * eq.holdings[t.name]
                spent = out.effective_price * out.activities[t.name] / wealth
                if pattern in ("both", ("low", "high")[s]):
                    assert spent == pytest.approx(1.0, rel=1e-12), (t.name, s)
                else:
                    assert spent < 1.0, (t.name, s)
        assert max(abs(v) for v in shock_foc_residual(cfg, eq).values()) <= 1e-8


def test_heterogeneous_solve_evaluation_budget(het_cfg, monkeypatch):
    """Deterministic work count: primitive evaluations per heterogeneous solve.

    Every root starts at its prediction. The outer burn root takes Newton
    steps, with Chebyshev's second-order term, from its first trial on the
    slope each trial's sensitivities give: the implicit-function theorem on
    its clears, one 2x2 system in its two log prices (a budget binding in
    both states enters through its holdings FOC's partials). Each trial
    return's market clears start at prices moved from the nearest trial's
    to second order on those sensitivities (the first high state from the
    planner's shadow value, which loading the config has already solved),
    and accept them when the residual there is at float resolution. Every
    root stops once its residual is at float resolution. On the shipped
    config no budget binds in both states, so the holdings FOC root, the
    solver's one user of u_prime, never runs, and heterogeneous_roles orders
    the types by their utility scales: no u_prime call at all. Where the
    shocked type's budget binds in both states, that root runs at every
    low-state load evaluation, from the type's last balance moved on the
    FOC's partials, by Newton steps on the FOC's slope, and the low state
    clears from the last low price found. Each FOC evaluation takes two
    u_prime calls: 6, 11 and 13 evaluations at theta = 0, 0.03 and 0.05
    (8, 13 and 14 by Brent's method toward the end a Newton step named;
    15, 38 and 36 on the log secant and a balance restarted from the last
    one found). Every clear and balance root takes Newton steps on its
    load's or FOC's exact slope. c'(1) is the cost's scale, so c_prime is
    called once per slack residual only.
    """
    seen = record_evaluations(monkeypatch)
    both = het_band_config(*SHOCKED_BINDS_BOTH)
    for cfg, theta, budget in [
        (het_cfg, 0.0, (8, 0, 2)), (het_cfg, 0.02, (18, 0, 4)), (het_cfg, 0.05, (20, 0, 5)),
        (het_cfg, 0.08, (20, 0, 5)), (het_cfg, 0.1, (18, 0, 5)), (both, 0.0, (21, 12, 9)),
        (both, 0.03, (35, 22, 15)), (both, 0.05, (36, 26, 16)),
    ]:
        seen.clear()
        eqm.solve_regime(cfg, "heterogeneous", theta)
        counts = len(seen.u_prime_inv), len(seen.u_prime), len(seen.c_prime)
        assert all(n <= most for n, most in zip(counts, budget)), (theta, counts)


def test_taxed_heterogeneous_solve_inverts_demand_as_the_readme_says(het_cfg, monkeypatch):
    # a taxed solve of the shipped config, theta = 0.005, 0.01, ..., 0.1,
    # takes 18 to 20 demand inversions: the range the README states (22 to
    # 26 when each clear ran Brent's method, 22 to 34 with first-order
    # predictions, 32 to 42 when the burn identity was bracketed and rooted
    # by Brent's method)
    seen = record_evaluations(monkeypatch)
    counts = []
    for i in range(1, 21):
        seen.clear()
        eqm.solve_regime(het_cfg, "heterogeneous", 0.005 * i)
        counts.append(len(seen.u_prime_inv))
    assert (min(counts), max(counts)) == (18, 20), counts
    readme = " ".join((CONFIG_DIR.parent / "README.md").read_text().split())
    stated = "`configs/heterogeneous.json` takes 18 to 20 demand inversions for theta in [0.005, 0.1]"
    assert stated in readme


@pytest.mark.parametrize(
    "name, regime",
    [
        ("deterministic", "friedman"),
        ("deterministic", "deterministic"),
        ("iid", "iid"),
        ("common", "common"),
    ],
)
def test_closed_form_solve_evaluation_budget(name, regime, monkeypatch):
    """One isoelastic type under power cost clears at its closed-form fee:
    the kernel evaluates the load there once and keeps it, its residual being
    at float resolution. A solve inverts demand once (the load at that fee,
    which also gives the activity) and evaluates marginal cost once (the
    slack residual; c'(1) is the cost's scale); before, the activity and
    c'(1) took one more of each, bracketing the log-price root 4 to 6 of
    each, and a root in price itself 9 to 15 inversions."""
    cfg = ec.load_config(CONFIG_DIR / f"{name}.json")
    seen = record_evaluations(monkeypatch)
    for theta in (0.0, 0.05):
        seen.clear()
        eqm.solve_regime(cfg, regime, theta)
        assert [len(prices) for prices in seen.clears] == [1], (theta, seen.clears)
        counts = len(seen.u_prime_inv), len(seen.c_prime)
        assert counts == (1, 1), (theta, counts)


@settings(max_examples=150, deadline=None)
@given(
    regime=st.sampled_from(["friedman", "deterministic", "iid", "common"]),
    r=st.floats(0.01, 0.1),
    gamma=st.just(0.0) | st.floats(-0.03, 0.03),
    rho=st.floats(0.05, 0.95),
    scale=st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
    curvature=st.floats(0.01, 0.99),
    cost_scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    cost_curvature=st.just(1e-9) | st.floats(0.01, 10.0),
    theta=st.floats(0.0, 0.5),
)
# the market of test_demand_beyond_a_float_clears: demand overflows a float
# at every fee below about 8.3
@example("deterministic", 0.05, 0.0, 1.0, 1e4, 0.01, 1.0, 1.0, 0.02)
# at the c'(1) tie: the congested fee lies an ulp above c'(1) = 1, so the
# kernel also evaluates c'(1), where demand overfills capacity
@example("friedman", 0.05, 0.0, 1.0, 1.0 + 2.0**-52, 0.5, 1.0, 1.0, 0.0)
def test_a_one_demand_market_clears_at_its_closed_form_fee(
    regime, r, gamma, rho, scale, curvature, cost_scale, cost_curvature, theta
):
    # the kernel evaluates the closed-form fee first and keeps it, in one load
    # evaluation (two at the c'(1) tie), whenever its residual is at float
    # resolution; kept or not, the fee is the cold kernel's to within the
    # bracket test of a root in x = log p, a few EPS * |x|
    kind = {"iid": ec.ShockKind.IID_BINARY, "common": ec.ShockKind.COMMON_BINARY}.get(
        regime, ec.ShockKind.DETERMINISTIC)
    cfg = single_user_config(kind, r=r, gamma=gamma, rho=rho, scale=scale,
                             curvature=curvature, cost=(cost_scale, cost_curvature))
    markets = []
    clear_demands = eqm._clear_demands

    def recording(economy, state, wedge, share):
        markets.append((economy, state, wedge, share))
        return clear_demands(economy, state, wedge, share)

    with pytest.MonkeyPatch.context() as mp:
        seen = record_evaluations(mp)
        mp.setattr(eqm, "_clear_demands", recording)
        try:
            out = eqm.solve_regime(cfg, regime, theta).states[1]
        except SolverError:
            out = None
    (cleared, state, w, share), = markets
    cost = cleared.cost
    (k, u), = [(share * t.mass, t.utility_in(state)) for t in cleared.agent_types]
    (prices,) = seen.clears

    def load(p: float) -> tuple[float, float]:
        return k * ec.u_prime_inv(u, w * p), -1.0 / u.curvature

    if out is None:
        # demand that underflows a float at the root defeats the cold kernel too
        with pytest.raises(SolverError):
            _clear_blockspace(cost, load)
        return
    cold, congested = _clear_blockspace(cost, load)
    assert out.congested == congested
    assert abs(out.price - cold) <= 8.0 * _EPS * (1.0 + abs(math.log(cold))) * cold
    s, c, capacity_cost, kappa = u.scale / w, u.curvature, cost.scale, cost.curvature
    fee = s * k**c
    if fee <= capacity_cost:
        ratio = kappa / c
        fee = math.exp((math.log(capacity_cost) + kappa * math.log(k) + ratio * math.log(s))
                       / (1.0 + ratio))
    assert prices[0] == pytest.approx(fee, rel=1e-13)
    demand = load(prices[0])[0]
    if prices[0] > capacity_cost:
        residual = math.log(demand)
    else:
        residual = math.log(prices[0]) - math.log(ec.c_prime(cost, demand))
    if abs(residual) <= _roots.RESIDUAL_FLOOR:
        if abs(prices[0] - capacity_cost) > 2.0 * _roots.RESIDUAL_FLOOR * capacity_cost:
            assert prices == [out.price]
        elif out.price == prices[0]:
            assert len(prices) == (1 if prices[0] == capacity_cost else 2), prices


@pytest.mark.parametrize("regime", ["friedman", "deterministic"])
def test_demand_below_a_float_at_the_closed_form_fee_is_named(regime):
    # u'^-1 at the fee reads 0.0, which leaves the kernel no load to root on
    with pytest.raises(SolverError, match=r"^demand underflows a float at the closed-form fee 315\.65"):
        eqm.solve_regime(underflow_config(), regime, 0.0)


@pytest.mark.parametrize("cost, prices", [
    # demand overfills capacity at c'(1) = 1 by a log residual of 1.64: the
    # root lies in [1, e^1.64]
    ((1.0, 1.0), [1.0, 1.6443879965881636, 1.6476412536085214, 1.6476412730060723]),
    # the fee exceeds marginal cost at c'(1) = 4 by a log residual of 5.71:
    # the root lies in [4 e^-5.71, 4]
    ((4.0, 2.0), [4.0, 1.8291668058948862, 1.8534866522194149, 1.8534843660244158]),
], ids=["congested", "slack"])
def test_a_two_type_market_clears_on_the_cold_path(cost, prices, monkeypatch):
    # two demands have no closed-form fee: the planner's market is bracketed
    # by c'(1) and the end its residual there bounds, and Newton steps on
    # the load's elasticity from c'(1) evaluate its load at exactly these
    # prices, never at that end (Brent's method, which evaluated the end
    # first, took 7 and 8)
    cfg = ec.EconomyConfig(
        r=0.05, gamma=0.0,
        agent_types=(ec.AgentTypeSpec(0.5, {1: ISO(0.5, 0.5)}, "a"),
                     ec.AgentTypeSpec(0.5, {1: ISO(2.0, 0.3)}, "b")),
        cost=ec.CostFn(*cost), shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )
    seen = record_evaluations(monkeypatch)
    first_best_allocation(cfg, 1)
    assert seen.clears == [prices]


@pytest.mark.parametrize("theta", [0.0, 0.02, 0.05])
def test_heterogeneous_low_state_clears_at_capacity(theta):
    # low-state demand at the marginal cost of capacity exceeds capacity:
    # the low-state fee rations it instead of overfilling blockspace
    cfg = low_state_over_capacity_config()
    eq = eqm.solve_regime(cfg, "heterogeneous", theta)
    high, low = eq.states[1], eq.states[0]
    for out in (high, low):
        assert out.aggregate_activity <= 1.0 + 1e-12
    assert low.congested and low.aggregate_activity == pytest.approx(1.0, abs=1e-12)
    assert low.price >= ec.c_prime(cfg.cost, 1.0)
    report = evaluate(cfg, eq)
    assert report.first_best_gap >= 0.0
    assert report.foc_residual_max <= 1e-8
    assert report.oracle_delta_max <= 2.0


def test_heterogeneous_solve_logs_its_branch_at_debug(het_cfg, caplog):
    slack = two_type_config(r=0.5, steady_high=0.9, steady_low=0.1)
    with caplog.at_level(logging.WARNING, logger="tokenomics"):
        eqm.solve_regime(het_cfg, "heterogeneous", 0.05)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="tokenomics"):
        eqm.solve_regime(het_cfg, "heterogeneous", 0.0)
        eqm.solve_regime(het_cfg, "heterogeneous", 0.05)
        # the planner rations this high state but the equilibrium does not,
        # so demand at the planner's price fits capacity by a residual that
        # bounds the root below c'(1), and the first clear tests c'(1)
        eqm.solve_regime(slack, "heterogeneous", 0.0)
        eqm.solve_regime(het_band_config(*SHOCKED_BINDS_BOTH), "heterogeneous", 0.0)
    # the slack config starts from the unshocked type binding in the low
    # state; the check at the clearing prices moves it to the high state.
    # Only a budget binding in both states runs the holdings FOC root; its
    # low state clears again from the last low price found and its balance
    # from the last root moved on the FOC's partials, so three of those
    # clears and roots accept their prediction. At theta = 0.05 two Newton
    # steps from the first trial reach the root, and two clears accept
    # their predicted price at once: the last trial's high and low states.
    # Every clear that does not accept its prediction takes Newton steps on
    # its load's elasticity (clears=newton:<steps>, with no bisection). An
    # untaxed solve roots no burn identity.
    # (solve_regime adds an INFO line per solve.)
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG] == [
        "heterogeneous theta=0.0 binds=shocked:high,steady:low pattern_switches=0 "
        "first_bracket=planner-seed trial_returns=1 high_load_evals=2 low_load_evals=2 "
        "foc_evals=0 prediction_hits=0 clears=newton:2 outer=none",
        "heterogeneous theta=0.05 binds=shocked:high,steady:low pattern_switches=0 "
        "first_bracket=planner-seed trial_returns=3 high_load_evals=5 low_load_evals=5 "
        "foc_evals=0 prediction_hits=2 clears=newton:4 outer=newton:2",
        "heterogeneous theta=0.0 binds=shocked:high,steady:high pattern_switches=1 "
        "first_bracket=cold-test trial_returns=1 high_load_evals=5 low_load_evals=4 "
        "foc_evals=0 prediction_hits=0 clears=newton:4 outer=none",
        "heterogeneous theta=0.0 binds=shocked:both,steady:low pattern_switches=1 "
        "first_bracket=cold-test trial_returns=1 high_load_evals=4 low_load_evals=5 "
        "foc_evals=6 prediction_hits=3 clears=newton:4 outer=none",
    ]


def common_shock_config(types, r, rho, cost) -> ec.EconomyConfig:
    """A common-shock config of one type per entry (mass weight, state-0
    scale, curvature, state-1 scale, curvature) of types, gamma = 0."""
    total = math.fsum(w for w, *_ in types)
    return ec.EconomyConfig(
        r=r,
        gamma=0.0,
        agent_types=tuple(
            ec.AgentTypeSpec(
                mass=w / total, utility_by_state={0: ISO(s0, c0), 1: ISO(s1, c1)}, name=f"t{i}"
            )
            for i, (w, s0, c0, s1, c1) in enumerate(types)
        ),
        cost=ec.CostFn(*cost),
        shocks=ec.ShockProcess(ec.ShockKind.COMMON_BINARY, rho=rho),
    )


def debug_outer_paths(caplog, cfg, thetas):
    """(trial_returns, outer) of the DEBUG line of each taxed solve of cfg."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="tokenomics.equilibrium"):
        for theta in thetas:
            eqm.solve_regime(cfg, "heterogeneous", theta)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    return [(int(re.search(r"trial_returns=(\d+)", line)[1]), re.search(r"outer=(\S+)", line)[1])
            for line in lines]


def test_the_burn_identity_takes_newton_steps_wherever_budgets_bind(het_cfg, caplog):
    # every taxed solve of the shipped config reaches the root by Newton
    # steps, within 3 trial returns (the first and at most 2 steps). A type
    # whose budget binds in both states couples the two markets through its
    # balance root, which enters its trials' 2x2 implicit-function system
    # through the holdings FOC's partials, so the first trial steps on its
    # own slope: 3 trial returns at theta = 0.03 (5 on the log secant to the
    # nearest other trial, the first on the burn ratio held)
    paths = debug_outer_paths(caplog, het_cfg, [0.005 * i for i in range(1, 21)])
    assert len(paths) == 20
    assert all(outer.startswith("newton:") and trials <= 3 for trials, outer in paths), paths
    assert debug_outer_paths(caplog, het_band_config(*SHOCKED_BINDS_BOTH), [0.03]) == [
        (3, "newton:2")]
    for args, shares, _ in BINDING_EXAMPLES:
        cfg = het_band_config(*args)
        thetas = [share * cfg.r / cfg.shocks.rho for share in shares if share > 0.0]
        paths = debug_outer_paths(caplog, cfg, thetas)
        assert all(outer.startswith("newton:") and trials <= 4 for trials, outer in paths), paths
        # and at the taxes the other examples bind at, no burn root is bracketed
        paths = debug_outer_paths(caplog, cfg, [0.01, 0.03, 0.05])
        assert all(re.fullmatch(r"newton:\d+|none", outer) for _, outer in paths), paths


def test_taxed_trials_predict_their_prices_to_second_order(het_cfg, monkeypatch, caplog):
    # each trial's prices are the nearest trial's moved to second order, on
    # the bend between the slopes of the two trials nearest it, and each
    # Newton step on the burn identity takes Chebyshev's term on the bend of
    # the last two slopes: every taxed solve of the shipped config takes at
    # most 3 trial returns, and the last trial accepts both clears at their
    # prediction, one load evaluation each (to first order, the solves from
    # theta = 0.07 on took 4 trial returns)
    seen = record_evaluations(monkeypatch)
    for i in range(1, 21):
        seen.clear()
        [(trials, outer)] = debug_outer_paths(caplog, het_cfg, [0.005 * i])
        assert trials <= 3 and outer.startswith("newton:"), (i, trials, outer)
        # the last trial's high-state clear, then its low-state one
        assert [len(prices) for prices in seen.clears[-2:]] == [1, 1], (i, seen.clears)


def test_a_both_binding_solve_steps_to_its_root_on_its_own_partials(caplog):
    # two types, the second binding in both states, from a band of 2-4 type
    # configs: on the log secant to the nearest other trial its Newton steps
    # undershot, one gave way to a bisection, and the solve took 11 trial
    # returns (newton:9+bisect:1); on the trials' own partials it takes 6
    types = [(0.6987909748108414, 1.6713623479438955, 0.2766418945795839,
              0.9306763219270515, 0.10936272339739493),
             (0.9154246728235033, 1.7299714128766288, 0.31279136126834073,
              0.9346314089659454, 0.6691360394464445)]
    cfg = common_shock_config(types, 0.24411775376177622, 0.9198006963180692,
                              (1.3007851316169425, 1e-9))
    theta = 0.2943814522016032
    [(trials, outer)] = debug_outer_paths(caplog, cfg, [theta])
    assert "binds=t0:low,t1:both " in caplog.records[0].getMessage()
    assert (trials, outer) == (6, "newton:5")
    eq = eqm.solve_regime(cfg, "heterogeneous", theta)
    report = evaluate(cfg, eq)
    assert cert_failures(certify(cfg, eq, report)) == []
    assert model.check_equilibrium(ec.config_to_dict(cfg), "heterogeneous", theta, eq.as_dict(),
                                   report.as_dict()) == []


def test_newton_steps_on_the_burn_identity_until_the_gap_stops_halving(caplog):
    # four types, none binding in both states, against a steep cost: Newton
    # steps go on while each at least halves the gap, and the fourth reaches
    # the root
    types = [(0.208, 3.033, 0.4655, 3.964, 0.247), (0.2864, 3.748, 0.6833, 2.553, 0.61),
             (0.1666, 1.682, 0.1492, 0.5319, 0.8323), (0.339, 2.781, 0.5641, 0.6597, 0.3428)]
    cfg = common_shock_config(types, 0.0995, 0.9148, (1.1007, 1.9459))
    [(trials, outer)] = debug_outer_paths(caplog, cfg, [0.1386])
    assert ":both" not in caplog.records[0].getMessage()
    assert outer.startswith("newton:") and trials <= 5, (trials, outer)



# (types, r, rho, cost, theta) of solves whose Newton steps on the burn
# identity give way to bisection
BISECTING_SOLVES = {
    # two types that both bind low against a flat cost: a Newton step stops
    # halving the gap
    "stalled": ([(0.9937154983754911, 1.9326222549556487, 0.39921386509517076,
                  1.4764337497214586, 0.024500749975559906),
                 (0.5614772046025294, 4.998636870533904, 0.17605572012561926,
                  6.716459494368112, 0.23322935687336058)],
                0.28126957233936617, 0.6664656485494989, (3.890788182935225, 1e-9),
                0.6157931171183175),
    # four types, one binding in both states: the Newton step at share 1
    # leaves the bracket
    "outside": ([(0.17699129672434982, 3.4660706242115187, 0.3656094034942323,
                  3.6385881078508033, 0.30067997611465197),
                 (0.501428865092679, 7.797608207349702, 0.027660198055545385,
                  1.9164930574012762, 0.8351170829757159),
                 (0.5245026682071743, 6.2929548551107, 0.09598551221292294,
                  7.920219447905853, 0.02240823728866637),
                 (0.7969057973895518, 2.0390631694089065, 0.7032378606228287,
                  6.457240201346734, 0.725113722920975)],
                0.2864893072407095, 0.23358925767099853, (3.438100349972364, 1e-9),
                1.3285666208995228),
    # two types, one binding high and one low, so the 2x2 system is
    # triangular: the third trial's gap is 1.8e-15, above RESIDUAL_FLOOR, and
    # from there the burn ratio takes values about 3e-15 apart while the
    # share moves by single ulps, until the midpoint rounds to an end of the
    # bracket
    "rounding": ([(0.5349997074733788, 0.0063898519200375386, 0.1549328094227589,
                   0.5207152840451522, 0.5232891618052659),
                  (0.651563527490033, 35.4371266304911, 0.8694727341167826,
                   15.902851606624125, 0.06934733219168888)],
                 0.11776992341939634, 0.5906232327297751, (1.0923613101262484, 1e-9),
                 0.009710161282936336),
}


@pytest.mark.parametrize("case", sorted(BISECTING_SOLVES))
def test_the_burn_identity_bisects_its_bracket_where_newton_steps_fail(case, caplog):
    # where a Newton step leaves the bracket or fails to halve the gap, the
    # next step bisects the bracket, and Newton steps resume from there
    types, r, rho, cost, theta = BISECTING_SOLVES[case]
    cfg = common_shock_config(types, r, rho, cost)
    [(trials, outer)] = debug_outer_paths(caplog, cfg, [theta])
    path = re.fullmatch(r"newton:(\d+)\+bisect:(\d+)", outer)
    assert path and int(path[2]) >= 1 and trials <= 10, (trials, outer)
    eq = eqm.solve_regime(cfg, "heterogeneous", theta)
    report = evaluate(cfg, eq)
    assert cert_failures(certify(cfg, eq, report)) == []
    doc = ec.config_to_dict(cfg)
    assert model.check_equilibrium(doc, "heterogeneous", theta, eq.as_dict(),
                                   report.as_dict()) == []

def with_binding_examples(test):
    """test with each of BINDING_EXAMPLES as a hypothesis @example."""
    for args, shares, _ in BINDING_EXAMPLES:
        test = example(*args, shares)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    scales=st.tuples(*[st.floats(0.25, 4.0)] * 4),
    curvatures=st.tuples(*[st.floats(0.5, 2.0)] * 4),
    mass=st.floats(0.05, 0.95),
    rho=st.floats(0.05, 0.95),
    shares=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=2),
)
@with_binding_examples
# the shipped config, the shocked type binding high and the steady one low
@example((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), 0.5, 0.5, [0.5])
def test_heterogeneous_loads_and_balance_focs_return_their_exact_log_slopes(
    scales, curvatures, mass, rho, shares
):
    # each heterogeneous load returns its elasticity with its value: -1/c per
    # demand where one budget binds, d log m - 1 in the low state where both
    # do, and in a high state whose low state clears again at each price the
    # Schur complement of the trial's 2x2 system; each both-binding balance
    # root's holdings FOC returns F_m as its slope in log m. Every one, and
    # the kernel's residuals, matches a central difference in log price (log
    # m) within 1e-6 at the root it returned, under every binding pattern of
    # BINDING_EXAMPLES
    cfg = het_band_config(scales, curvatures, mass, rho)
    with pytest.MonkeyPatch.context() as mp:
        seen = record_slopes(mp)
        for share in shares:
            try:
                eqm.solve_regime(cfg, "heterogeneous", share * cfg.r / rho)
            except (SolverError, InfeasiblePolicyError):
                pass
        for kind, fn, x in list(seen):
            assert log_slope_error(kind, fn, x) <= 1e-6, (kind, fn.__qualname__, x)


@settings(max_examples=150, deadline=None)
@given(
    scales=st.tuples(*[st.floats(0.25, 4.0)] * 4),
    curvatures=st.tuples(*[st.floats(0.5, 2.0)] * 4),
    mass=st.floats(0.05, 0.95),
    rho=st.floats(0.05, 0.95),
    shares=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=3),
)
# a trial's predicted high-state bracket lies above the root (the cold test
# at c'(1) runs), and one lies below it (the root widens past it)
@example((1.18, 1.34, 1.89, 1.2), (1.06, 1.11, 0.83, 1.06), 0.58, 0.68, [0.5, 0.0, 1.0])
@example((1.97, 1.18, 0.61, 0.55), (1.31, 0.73, 1.2, 1.1), 0.39, 0.67, [0.75, 0.0, 1.0])
# both types bind in the high state at a tax just short of r / rho, so the
# burn funds rT = theta up to rounding: the gap at share 1 is negative but at
# float resolution, and the burn identity is rooted there with no step
@example(
    (3.4659543451033095, 1.4484041395270209, 1.6868035974329414, 2.425951598786249),
    (1.8782603464560688, 1.0998928900070628, 1.8200452531601177, 1.6378407923062634),
    0.18704577173560294,
    0.8723119283274643,
    [0.9664811212886688],
)
@with_binding_examples
def test_heterogeneous_solves_hold_invariants_or_raise_typed_errors(
    scales, curvatures, mass, rho, shares
):
    # a wide band around the shipped config, gamma = 0, theta up to 1.5 r / rho;
    # the only error accepted is a tax past the feasibility frontier
    try:
        cfg = het_band_config(scales, curvatures, mass, rho)
    except ConfigError:
        return  # a degenerate shock: both states have the same first best
    for share in shares:
        try:
            eq = eqm.solve_regime(cfg, "heterogeneous", share * cfg.r / rho)
        except InfeasiblePolicyError:
            continue
        # so every point sweep_tax marks "ok" has a congested high state, which
        # verify's congested_utility_sum_monotone check relies on
        assert eq.congestion_broken is (not eq.states[1].congested)
        report = evaluate(cfg, eq)
        assert cert_failures(certify(cfg, eq, report)) == []
        # certify reads the burn identity only where a state burns; here it
        # must hold in every state, the untaxed ones (all of them at theta = 0)
        # included
        assert all(
            abs((out.token_return - cfg.gamma) * eq.aggregate_real_balances
                - out.tax * out.price * out.aggregate_activity) <= 1e-8
            for out in eq.states.values()
        )
        assert report.oracle_delta_max <= 2.0


@settings(max_examples=60, deadline=None)
@given(
    scales=st.tuples(*[st.floats(0.25, 4.0)] * 4),
    curvatures=st.tuples(*[st.floats(0.5, 2.0)] * 4),
    mass=st.floats(0.05, 0.95),
    rho=st.floats(0.05, 0.95),
    share=st.floats(0.0, 1.0),
)
def test_heterogeneous_holdings_slope_matches_the_model(scales, curvatures, mass, rho, share):
    # the band of the invariants test above, theta up to r / rho
    try:
        cfg = het_band_config(scales, curvatures, mass, rho)
        eq = eqm.solve_regime(cfg, "heterogeneous", share * cfg.r / rho)
    except (ConfigError, InfeasiblePolicyError):
        return
    assert_holdings_slope_matches(cfg, eq, model.holdings_slope)


@settings(max_examples=100, deadline=None)
@given(
    # per type: weight of its mass, then (scale, curvature) in states 0 and 1
    types=st.lists(
        st.tuples(st.floats(0.1, 1.0), *[st.floats(0.25, 4.0), st.floats(0.1, 0.9)] * 2),
        min_size=2,
        max_size=4,
    ),
    r=st.floats(0.01, 0.1),
    rho=st.floats(0.05, 0.95),
    cost=st.tuples(st.floats(0.5, 2.0), st.sampled_from([1e-9]) | st.floats(0.1, 2.0)),
    theta=st.floats(0.0, 0.3),
)
# a balance root whose Newton end lies 73 units of log m from its start,
# where the FOC is 6e21: Brent's first secant step from the start is 1e-20
# in log m, which rounds back to the start unless a step moves an ulp
@example(types=[(1.0, 4.0, 0.5, 1.0, 0.5), (0.5, 3.0, 0.25, 2.0, 0.75)], r=0.0625, rho=0.25,
         cost=(0.5, 1e-09), theta=0.125)
# a both-binding balance root whose far end lies where m / p underflows to
# 0.0: the holdings FOC reads +inf there, as u'(0+) is, and the root lies above
@example(types=[(0.6, 106.6, 0.04, 1e-05, 0.0088), (0.54, 0.0164, 0.0138, 3.9e-05, 0.0325),
                (0.84, 9003.0, 0.0305, 1.04e-07, 0.062)], r=0.19, rho=0.08,
         cost=(0.0154, 4.54), theta=0.26)
def test_heterogeneous_solves_of_any_number_of_types_are_certified_or_infeasible(
    types, r, rho, cost, theta
):
    # two to four types, each active in both states: every solve passes the
    # certificate and the independent model, or the tax is past the frontier
    cfg = common_shock_config(types, r, rho, cost)
    try:
        eq = eqm.solve_regime(cfg, "heterogeneous", theta)
    except InfeasiblePolicyError:
        return
    report = evaluate(cfg, eq)
    assert cert_failures(certify(cfg, eq, report)) == []
    doc = ec.config_to_dict(cfg)
    bad = model.check_equilibrium(doc, "heterogeneous", theta, eq.as_dict(), report.as_dict())
    if 0.0 < theta < sys.float_info.min:
        # a subnormal tax leaves rT and the burn theta p A a few significant
        # bits, so a correctly rounded rT = 0 can face a burn of one subnormal
        # step, which the model's relative burn check flags; certify's is absolute
        bad = [v for v in bad if v.code != "burn-identity"]
    assert bad == []


@pytest.mark.parametrize("theta", [5e-324, 2.2250738585072014e-309, 1e-300])
def test_heterogeneous_solves_at_a_vanishing_tax(het_cfg, theta):
    # the burn root runs in rT's share of its cap, on [0, 1]: a bracket
    # [0, theta] in rT is narrower than the root finder's resolution here,
    # and its relative residual could not reach the tolerance
    zero = eqm.solve_regime(het_cfg, "heterogeneous", 0.0)
    eq = eqm.solve_regime(het_cfg, "heterogeneous", theta)
    assert 0.0 <= eq.states[1].token_return <= theta
    assert eq.states[1].price == pytest.approx(zero.states[1].price, rel=1e-12)
    assert eq.holdings == pytest.approx(zero.holdings, rel=1e-12)


def test_heterogeneous_congestion_broken_fallback():
    # expensive carry (large r) compresses demand below capacity
    cfg = two_type_config(r=0.5, steady_high=0.9, steady_low=0.1)
    eq = eqm.solve_regime(cfg, "heterogeneous", 0.0)
    assert eq.congestion_broken
    assert not eq.states[1].congested
    assert eq.states[1].aggregate_activity < 1.0
    assert eq.states[1].price == pytest.approx(1.0, abs=1e-6)
    residual = max(abs(v) for v in shock_foc_residual(cfg, eq).values())
    assert residual <= 1e-8


def test_heterogeneous_infeasible_tax_raises(het_cfg):
    with pytest.raises(InfeasiblePolicyError):
        eqm.solve_regime(het_cfg, "heterogeneous", 0.2)


def test_heterogeneous_config_guards():
    # both-active types under a common shock are heterogeneous only with
    # gamma = 0 and a low state that occurs: family() and validation refuse
    # the rest, and so does solve_regime before any solve
    het = ec.load_config(CONFIG_DIR / "heterogeneous.json")
    always_high = replace(het, shocks=replace(het.shocks, rho=1.0))
    for cfg, why in ((two_type_config(gamma=0.02), "the heterogeneous regime needs gamma = 0"),
                     (always_high, "the heterogeneous regime needs rho < 1")):
        message = "no regime solves this common_binary config: " + why
        with pytest.raises(ConfigError, match=message):
            ec.family(cfg)
        assert [(v.field, v.severity) for v in ec.validate_config(cfg)] == [("family", "error")]
        assert message in ec.validate_config(cfg)[0].message
        with pytest.raises(ConfigError, match=message):
            ec.require_valid(cfg)
        with pytest.raises(ConfigError, match=message):
            eqm.solve_regime(cfg, "heterogeneous", 0.0)


def ulps(x: float, reference: float) -> float:
    """|x - reference| in units in the last place of reference."""
    return abs(x - reference) / math.ulp(reference)


@pytest.mark.parametrize("theta", [0.0, 0.03, 0.05, 0.1])
def test_heterogeneous_solve_is_invariant_to_splitting_a_type(het_cfg, theta):
    # two identical halves of the steady type are the steady type: the solve
    # moves by rounding alone (at most 4 ulps, at theta = 0.1)
    whole = eqm.solve_regime(het_cfg, "heterogeneous", theta)
    split = eqm.solve_regime(split_steady_config(), "heterogeneous", theta)
    assert split.holdings["steady_1"] == split.holdings["steady_2"]
    halves = {"shocked": "shocked", "steady_1": "steady", "steady_2": "steady"}
    for s, out in whole.states.items():
        assert abs(split.states[s].price - out.price) <= 2.2e-16 * out.price
        for part, name in halves.items():
            assert ulps(split.states[s].activities[part], out.activities[name]) <= 4
    for part, name in halves.items():
        assert ulps(split.holdings[part], whole.holdings[name]) <= 4
    assert ulps(split.expected_return, whole.expected_return) <= 3


@pytest.mark.parametrize("theta", [0.0, 0.03, 0.05, 0.1])
def test_heterogeneous_solve_is_invariant_to_type_order(het_cfg, theta):
    reversed_cfg = replace(het_cfg, agent_types=het_cfg.agent_types[::-1])
    forward = eqm.solve_regime(het_cfg, "heterogeneous", theta)
    backward = eqm.solve_regime(reversed_cfg, "heterogeneous", theta)
    assert backward.as_dict() == forward.as_dict()


@pytest.mark.parametrize("theta", [0.0, 0.05])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
def test_heterogeneous_solver_contains_the_common_law(common_cfg, eps, theta):
    # configs/common.json's type with a small low-state demand eps u(a) is a
    # heterogeneous economy of one type; its low-state budget stays slack, and
    # the high state obeys the common row's closed form
    (users,) = common_cfg.agent_types
    high = users.utility_in(1)
    low = ISO(eps, high.curvature)
    cfg = replace(common_cfg, agent_types=(
        replace(users, utility_by_state={0: low, 1: high}),
    ))
    assert ec.family(cfg) == "heterogeneous" and ec.require_valid(cfg) == []
    law = eqm.solve_regime(common_cfg, "common", theta)
    het = eqm.solve_regime(cfg, "heterogeneous", theta)
    name = users.name
    assert ulps(het.states[1].price, law.states[1].price) <= 2
    assert ulps(het.states[1].activities[name], law.states[1].activities[name]) <= 2
    assert ulps(het.expected_return, law.expected_return) <= 2
    assert ulps(het.holdings[name], law.holdings[name]) <= 2


# ---------------------------------------------------------------------------
# the regime table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", ["deterministic", "iid", "common", "heterogeneous"])
@pytest.mark.parametrize("regime", list(eqm.REGIMES))
def test_regime_solves_exactly_its_family(regime, config):
    cfg = ec.load_config(CONFIG_DIR / f"{config}.json")
    row = eqm.REGIMES[regime]
    if row.family != ec.family(cfg):
        with pytest.raises(ConfigError) as raised:
            eqm.solve_regime(cfg, regime, 0.0)
        assert f"the {regime} regime" in str(raised.value)
        assert repr(ec.family(cfg)) in str(raised.value)
        return
    eq = eqm.solve_regime(cfg, regime, 0.0)
    if row.taxed:
        with pytest.raises(ConfigError, match="nonnegative"):
            eqm.solve_regime(cfg, regime, -0.01)
    else:
        assert eqm.solve_regime(cfg, regime, 0.05) == eq


def test_closed_form_laws_solve_one_type():
    # the iid and common regimes solve one type, idle in state 0: two types
    # under an idiosyncratic shock are of no family, and validation says so
    cfg = split_iid_config()
    message = ("no regime solves this iid_binary config: the iid regime needs one agent "
               "type with zero utility in state 0 and demand in state 1")
    with pytest.raises(ConfigError, match=message):
        ec.family(cfg)
    assert [v.field for v in ec.validate_config(cfg)] == ["family"]
    assert ec.validate_config(cfg)[0].message == message
    with pytest.raises(ConfigError, match=message):
        eqm.solve_regime(cfg, "iid", 0.05)


def _shape_family(cfg: ec.EconomyConfig) -> str | None:
    """The family the admission rule gives cfg, read off its shape; None
    where no regime solves it."""
    kind, types = cfg.shocks.kind, cfg.agent_types
    if kind is ec.ShockKind.DETERMINISTIC:
        return "deterministic"
    if len(types) == 1 and not types[0].is_active(0) and types[0].is_active(1):
        return "iid" if kind is ec.ShockKind.IID_BINARY else "common"
    both = all(t.is_active(0) and t.is_active(1) for t in types)
    if kind is ec.ShockKind.COMMON_BINARY and both and cfg.gamma == 0.0 and cfg.shocks.rho < 1:
        return "heterogeneous"
    return None


@st.composite
def _any_shape_config(draw) -> ec.EconomyConfig:
    """One to four types under any shock kind (common ones twice as often),
    each state's utility zero or isoelastic: half the draws keep every type
    active in both states, a quarter idle in state 0 and active in state 1
    (the shapes some regime solves, given the kind, K, gamma and rho), a
    quarter mix freely. gamma is 0 in three draws of four, else in
    [-0.03, 0.03]; rho < 1 in three draws of four, else 1."""
    kind = draw(st.sampled_from([*ec.ShockKind, ec.ShockKind.COMMON_BINARY]))
    shape = draw(st.sampled_from(["both", "both", "idle-low", "mixed"]))
    iso = st.tuples(st.floats(0.25, 4.0), st.floats(0.1, 0.9)).map(lambda u: ISO(*u))
    state = {"both": (iso, iso), "idle-low": (st.just(ZERO), iso),
             "mixed": (st.just(ZERO) | iso, st.just(ZERO) | iso)}[shape]
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
    total = math.fsum(weights)
    return ec.EconomyConfig(
        r=draw(st.floats(0.01, 0.1)),
        gamma=draw(st.floats(-0.03, 0.03)) if draw(st.integers(0, 3)) == 0 else 0.0,
        agent_types=tuple(
            ec.AgentTypeSpec(w / total, {s: draw(u) for s, u in enumerate(state)}, f"t{i}")
            for i, w in enumerate(weights)
        ),
        cost=ec.CostFn(draw(st.floats(0.5, 2.0)), draw(st.just(1e-9) | st.floats(0.1, 2.0))),
        shocks=ec.ShockProcess(
            kind, rho=draw(st.floats(0.05, 0.95)) if draw(st.integers(0, 3)) else 1.0),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=_any_shape_config())
def test_validation_admits_exactly_the_configs_a_regime_solves(cfg):
    # a config that validates solves at theta = 0 through every regime of its
    # family and is certified where r > gamma; one refused for its shape
    # alone is told which solver it lacks
    kind = cfg.shocks.kind
    errors = [v for v in ec.validate_config(cfg) if v.severity == "error"]
    fam = _shape_family(cfg)
    if fam is None and [v.field for v in errors] == ["family"]:
        message = errors[0].message
        assert message.startswith(f"no regime solves this {kind.value} config: the ")
        named = re.findall(r"the (\w+) regime", message)
        assert named and set(named) <= {"iid", "common", "heterogeneous"}
        with pytest.raises(ConfigError, match=re.escape(message)):
            ec.family(cfg)
        return
    assert "family" not in [v.field for v in errors]
    if errors:
        return  # refused for no demand or a degenerate shock
    assert fam is not None and ec.family(cfg) == fam
    for regime, row in eqm.REGIMES.items():
        if row.family == fam:
            eq = eqm.solve_regime(cfg, regime, 0.0)
            if cfg.r > cfg.gamma:
                assert cert_failures(certify(cfg, eq, evaluate(cfg, eq))) == []


def test_solve_regime_dispatch(det_cfg, iid_cfg, common_cfg, het_cfg):
    assert eqm.solve_regime(det_cfg, "friedman").expected_return == det_cfg.r
    assert eqm.solve_regime(det_cfg, "deterministic", 0.1).regime == "deterministic"
    assert eqm.solve_regime(iid_cfg, "iid", 0.1).regime == "iid_binary"
    assert eqm.solve_regime(common_cfg, "common", 0.1).regime == "common_binary"
    assert eqm.solve_regime(het_cfg, "heterogeneous", 0.1).regime == "heterogeneous"
    with pytest.raises(ConfigError, match="unknown regime"):
        eqm.solve_regime(det_cfg, "bogus")


def test_equilibrium_serialization_shape(common_cfg):
    doc = eqm.solve_regime(common_cfg, "common", 0.1).as_dict()
    assert doc["schema_version"] == ec.SCHEMA_VERSION
    assert doc["regime"] == "common_binary"
    assert set(doc["states"]) == {"0", "1"}
    assert "effective_price" in doc["states"]["1"]


# ---------------------------------------------------------------------------
# market clearing
# ---------------------------------------------------------------------------


def _assert_clears(cost: ec.CostFn, price: float, load: float, congested: bool) -> None:
    assert load <= 1.0 + 1e-12
    if congested:
        assert load == pytest.approx(1.0, abs=1e-12)
        assert price >= ec.c_prime(cost, 1.0)
    else:
        assert price == pytest.approx(ec.c_prime(cost, load), rel=1e-10, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(
    utility_offset=st.floats(1.0, 15.0),
    utility_sign=st.sampled_from([-1.0, 1.0]),
    cost_offset=st.floats(1.0, 15.0),
    cost_sign=st.sampled_from([-1.0, 1.0]),
    curvature=st.floats(0.2, 0.8),
    cost_curvature=st.floats(0.05, 3.0),
    guess=st.none() | st.floats(-0.1, 0.1),
)
def test_a_clear_never_evaluates_load_twice_at_one_price(
    utility_offset, utility_sign, cost_offset, cost_sign, curvature, cost_curvature, guess
):
    # utility and cost scales 1 +- 10^-k put the root near p = 1, where
    # neighbouring log prices that Brent's method tries round to one price;
    # guesses near 1 miss it on either side
    u = ISO(1.0 + utility_sign * 10.0**-utility_offset, curvature)
    cost = ec.CostFn(1.0 + cost_sign * 10.0**-cost_offset, cost_curvature)
    prices = []

    def load(p: float) -> tuple[float, float]:
        prices.append(p)
        return ec.u_prime_inv(u, p), -1.0 / u.curvature

    price, congested = _clear_blockspace(cost, load, None if guess is None else 1.0 + guess)
    assert len(set(prices)) == len(prices)
    assert price in prices
    _assert_clears(cost, price, ec.u_prime_inv(u, price), congested)


def test_a_clear_near_unit_price_ends_where_the_price_grid_does():
    # a draw of the test above: scales 1 + 3e-15 and 1 + 5e-15 put the slack
    # root three ulps above p = 1, where the log-price residual's rounding
    # stays above RESIDUAL_FLOOR and the bracket test in x = log(p / c'(1))
    # is far finer than an ulp of p. Brent's method once took 49 steps on 4
    # distinct prices, and later the guess c'(1), its bound end and two
    # steps; the Newton step from c'(1) lands on the root, and the next one
    # rounds to that price, so the root ends there.
    u, cost = ISO(1.0 + 3e-15, 0.21), ec.CostFn(1.0 + 5e-15, 2.8)
    prices = []

    def load(p: float) -> tuple[float, float]:
        prices.append(p)
        return ec.u_prime_inv(u, p), -1.0 / u.curvature

    price, congested = _clear_blockspace(cost, load)
    assert prices == [1.000000000000005, 1.0000000000000033]
    assert price == 1.0000000000000033
    _assert_clears(cost, price, ec.u_prime_inv(u, price), congested)


def test_a_steep_clear_far_from_unit_price_roots_within_tolerance():
    # one demand of curvature 1e-4, whose congested residual falls 1e4 per
    # unit of log price, against c'(1) = e^200, overfilled by a fraction of
    # a percent there. Rooted in x = log p, whose grid near the root is
    # EPS * 200 wide, 38 of these 160 clears stalled where the float grid
    # ends; in x = log(p / c'(1)) all clear, each price loaded once
    scale = math.exp(200.0)
    cost = ec.CostFn(scale, 1.0)
    for i in range(1, 161):
        u = ISO(scale * (1.0 + 5e-5 * i), 1e-4)
        prices = []

        def load(p: float) -> tuple[float, float]:
            prices.append(p)
            return ec.u_prime_inv(u, p), -1.0 / u.curvature

        price, congested = _clear_blockspace(cost, load)
        assert congested and len(set(prices)) == len(prices), i
        _assert_clears(cost, price, ec.u_prime_inv(u, price), congested)


def test_a_slack_clear_whose_bound_end_rounds_short_closes_in_a_few_ulps():
    # a heterogeneous solve's low-state clear at the trial return
    # rt = 0.03827340640778977, type a's budget binding in the high state and
    # b's in the low, from the guess 0.9602604251762252, whose residual
    # 4.3e-15 puts its bound end at 0.9602604251762212, one ulp above the
    # root, with a residual of the guess's sign. The end's residual is at
    # float resolution, so it is the fee; a bracket widened by halving and
    # doubling took 6 evaluations.
    r, rho, rt = 0.037688383960281596, 0.4732435835817568, 0.03827340640778977
    a, b = ISO(0.6134395674388662, 0.5786247076185894), ISO(0.5996057278251841, 0.5413316289951586)
    wedge = 1.0 + (r - rho * rt) / (1.0 - rho)  # where b's low-state budget binds
    prices = []

    def load(p: float) -> tuple[float, float]:
        # summed in type order from 0.0, as the solver sums its loads
        prices.append(p)
        ka, kb = 0.4297053945140615 * ec.u_prime_inv(a, p), 0.5702946054859386 * ec.u_prime_inv(b, wedge * p)
        return 0.0 + ka + kb, (0.0 - ka / a.curvature - kb / b.curvature) / (0.0 + ka + kb)

    cost = ec.CostFn(0.9602604260059702, 1e-09)
    assert _clear_blockspace(cost, load, 0.9602604251762252) == (0.9602604251762212, False)
    assert prices == [0.9602604251762252, 0.9602604251762212]


def test_heterogeneous_clears_never_evaluate_load_twice_at_one_price(het_cfg, monkeypatch):
    # at theta = r / rho the first trial return is the planner's, so its
    # predicted bracket is an ulp wide, and here the root lies just above it
    band = het_band_config((1.52, 1.89, 1.78, 1.99), (1.17, 0.81, 1.3, 1.38), 0.74, 0.54)
    seen = record_evaluations(monkeypatch)
    for theta in (0.0, 0.02, 0.05, 0.08, 0.1):
        eqm.solve_regime(het_cfg, "heterogeneous", theta)
    eqm.solve_regime(band, "heterogeneous", band.r / 0.54)
    assert seen.clears
    assert all(len(set(prices)) == len(prices) for prices in seen.clears)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(
        [ec.ShockKind.DETERMINISTIC, ec.ShockKind.IID_BINARY, ec.ShockKind.COMMON_BINARY]
    ),
    r=st.floats(0.01, 0.1),
    gamma=st.floats(-0.03, 0.03),
    rho=st.floats(0.1, 1.0),
    scale=st.floats(0.1, 5.0),
    curvature=st.floats(0.2, 0.8),
    cost_scale=st.floats(0.2, 3.0),
    cost_curvature=st.floats(0.05, 3.0),
    theta=st.floats(0.0, 0.2),
)
# the planner's congested price is its shadow marginal value, here c'(1) =
# 0.2; u'(a) recomputed from the stored activity reads 0.19999999999999998
@example(ec.ShockKind.DETERMINISTIC, 0.0625, 0.0, 1.0, 0.20000000000000004, 0.5, 0.2, 1.0, 0.0)
def test_every_state_clears_blockspace(
    kind, r, gamma, rho, scale, curvature, cost_scale, cost_curvature, theta
):
    cfg = single_user_config(
        kind, r=r, gamma=gamma, rho=rho, scale=scale, curvature=curvature,
        cost=(cost_scale, cost_curvature),
    )
    # each single-type family is named after its solver
    regimes = [ec.family(cfg)]
    if kind is ec.ShockKind.DETERMINISTIC:
        regimes.append("friedman")
    for regime in regimes:
        eq = eqm.solve_regime(cfg, regime, theta)
        for out in eq.states.values():
            _assert_clears(cfg.cost, out.price, out.aggregate_activity, out.congested)
    for state in cfg.shocks.states():
        alloc = first_best_allocation(cfg, state)
        if not cfg.agent_types[0].is_active(state):
            assert alloc.total == 0.0 and not alloc.congested
            continue
        # the planner's price is the common marginal value of activity
        marginal = ec.u_prime(cfg.agent_types[0].utility_in(state), alloc.activities["users"])
        if alloc.congested:
            assert marginal == pytest.approx(alloc.shadow_marginal, rel=1e-12)
            marginal = alloc.shadow_marginal
        _assert_clears(cfg.cost, marginal, alloc.total, alloc.congested)


@settings(max_examples=60, deadline=None)
@given(
    utilities=st.lists(
        st.tuples(st.floats(0.1, 5.0), st.floats(0.2, 0.8)), min_size=1, max_size=2
    ),
    mass=st.floats(0.1, 0.9),
    r=st.floats(0.01, 0.1),
    gamma=st.floats(-0.03, 0.03),
    cost_scale=st.floats(0.2, 3.0),
    cost_curvature=st.floats(0.05, 3.0),
    theta=st.floats(0.0, 0.2),
)
def test_deterministic_laws_match_planner_and_budget(
    utilities, mass, r, gamma, cost_scale, cost_curvature, theta
):
    masses = (1.0,) if len(utilities) == 1 else (mass, 1.0 - mass)
    cfg = ec.EconomyConfig(
        r=r,
        gamma=gamma,
        agent_types=tuple(
            ec.AgentTypeSpec(mass=m, utility_by_state={1: ISO(*u)}, name=f"t{i}")
            for i, (m, u) in enumerate(zip(masses, utilities))
        ),
        cost=ec.CostFn(cost_scale, cost_curvature),
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )
    friedman = eqm.solve_regime(cfg, "friedman")
    planner = first_best_allocation(cfg, 1)
    assert friedman.states[1].congested == planner.congested
    for name, a in planner.activities.items():
        assert friedman.states[1].activities[name] == pytest.approx(a, rel=1e-12, abs=0.0)
    for eq in (friedman, eqm.solve_regime(cfg, "deterministic", theta)):
        out = eq.states[1]
        for name, a in out.activities.items():
            # the whole balance is spent in the one state
            spend = out.effective_price * a
            assert (1.0 + out.token_return) * eq.holdings[name] == pytest.approx(
                spend, rel=1e-12, abs=0.0
            )
        assert max(abs(v) for v in shock_foc_residual(cfg, eq).values()) <= 1e-8


# ---------------------------------------------------------------------------
# optimality diagnostics
# ---------------------------------------------------------------------------


def _all_equilibria(det_cfg, iid_cfg, common_cfg, het_cfg):
    return [
        (det_cfg, eqm.solve_regime(det_cfg, "friedman")),
        (det_cfg, eqm.solve_regime(det_cfg, "deterministic", 0.03)),
        (iid_cfg, eqm.solve_regime(iid_cfg, "iid", 0.1)),
        (common_cfg, eqm.solve_regime(common_cfg, "common", 0.08)),
        (het_cfg, eqm.solve_regime(het_cfg, "heterogeneous", 0.05)),
    ]


def test_foc_residuals_vanish_at_equilibrium(det_cfg, iid_cfg, common_cfg, het_cfg):
    for cfg, eq in _all_equilibria(det_cfg, iid_cfg, common_cfg, het_cfg):
        residuals = shock_foc_residual(cfg, eq)
        worst = max(abs(v) for v in residuals.values())
        assert worst <= 1e-10, (eq.regime, residuals)


def test_friedman_binding_ratio_is_one(det_cfg):
    eq = eqm.solve_regime(det_cfg, "friedman")
    out = eq.states[1]
    ratio = ec.u_prime(ISO(0.5, 0.5), out.activities["users"]) / out.effective_price
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_inflated_holdings_make_binding_residual_negative(det_cfg, common_cfg):
    for cfg, eq, binding_state in (
        (det_cfg, eqm.solve_regime(det_cfg, "deterministic", 0.02), 1),
        (common_cfg, eqm.solve_regime(common_cfg, "common", 0.05), 1),
    ):
        name = cfg.agent_types[0].name
        bumped = replace(eq, holdings={name: eq.holdings[name] * 1.01})
        res = shock_foc_residual(cfg, bumped)
        assert res[(name, binding_state)] < -1e-4
        trimmed = replace(eq, holdings={name: eq.holdings[name] * 0.99})
        assert shock_foc_residual(cfg, trimmed)[(name, binding_state)] > 1e-4


def test_finite_difference_sign_pattern(det_cfg, common_cfg, het_cfg):
    """The holdings objective is concave: no one-sided step gains at the
    optimum, and one does from either side of it (up from below, down from
    above)."""
    # small balances (m about 2.3e-6): an absolute step of 1e-6 would be
    # about half of m and read 5e-2 at the optimum
    tiny = scaled_config("heterogeneous", utility=0.01, cost=10.0)
    cases = [
        (det_cfg, eqm.solve_regime(det_cfg, "deterministic", 0.02)),
        (common_cfg, eqm.solve_regime(common_cfg, "common", 0.05)),
        (het_cfg, eqm.solve_regime(het_cfg, "heterogeneous", 0.05)),
        (tiny, eqm.solve_regime(tiny, "heterogeneous", 0.0)),
        (tiny, eqm.solve_regime(tiny, "heterogeneous", 0.05)),
    ]
    for cfg, eq in cases:
        for name, ascent in one_sided_ascent(cfg, eq).items():
            obj = holdings_objective(cfg, eq, name)(eq.holdings[name])
            assert abs(ascent) <= 1e-5 * (1.0 + abs(obj)), (name, ascent)
        for factor in (0.9, 1.1):
            off = replace(
                eq, holdings={k: factor * v for k, v in eq.holdings.items()}
            )
            for name, ascent in one_sided_ascent(cfg, off).items():
                assert ascent > 1e-8, (name, factor)
