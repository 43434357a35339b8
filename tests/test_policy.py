import math

import pytest

from tokenomics import econ_core as ec
from tokenomics import equilibrium as eqm
from tokenomics import policy as pol
from tokenomics import verify
from tokenomics import welfare as wf
from tokenomics.errors import ConfigError, InfeasiblePolicyError

from helpers import single_user_config

FIXED = pol.SupplyRule(pol.SupplyRuleKind.FIXED_SUPPLY)
TARGET = pol.SupplyRule(pol.SupplyRuleKind.FRIEDMAN_TARGET)


def test_friedman_supply_ratio_values():
    assert pol.friedman_supply_ratio(0.05, 0.05) == 1.0
    assert pol.friedman_supply_ratio(0.05, 0.02) == pytest.approx(1.02 / 1.05, rel=1e-15)
    assert pol.friedman_supply_ratio(0.02, 0.05) > 1.0  # supply must grow
    with pytest.raises(ValueError):
        pol.friedman_supply_ratio(-1.0, 0.0)


def test_supply_rule_validation():
    assert pol.SupplyRule.tax_and_burn(0.1).theta == 0.1
    assert TARGET.theta == 0.0
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            pol.SupplyRule.tax_and_burn(bad)
    with pytest.raises(ValueError, match="does not take a tax rate"):
        pol.SupplyRule(pol.SupplyRuleKind.FIXED_SUPPLY, theta=0.1)
    # the rule has one tax rate; a per-state schedule is refused, not read
    # as a zero tax
    with pytest.raises(TypeError):
        pol.SupplyRule.tax_and_burn({0: 0.2})


def test_burn_residual_vanishes_in_burning_states(det_cfg, iid_cfg):
    for cfg, regime in ((det_cfg, "deterministic"), (iid_cfg, "iid")):
        eq = eqm.solve_regime(cfg, regime, 0.1)
        assert verify.certify(cfg, eq, wf.evaluate(cfg, eq))["burn_identity"] <= 1e-8


def test_fixed_supply_path_is_flat_when_balances_are(det_cfg):
    path = pol.supply_path(FIXED, det_cfg, M0=100.0, T=5)
    assert path.nominal == [100.0] * 6
    assert path.token_prices == [1.0] * 6  # gamma = 0: flat token price
    assert math.isnan(path.returns[0])
    assert path.returns[1:] == [0.0] * 5


def test_friedman_target_path_ratios():
    cfg = single_user_config(ec.ShockKind.DETERMINISTIC, r=0.05, gamma=0.02)
    path = pol.supply_path(TARGET, cfg, M0=1.0, q0=2.0, T=10)
    ratio = pol.friedman_supply_ratio(0.05, 0.02)
    assert path.nominal[10] == pytest.approx(ratio**10, rel=1e-12)
    assert path.token_prices[10] == pytest.approx(2.0 * 1.05**10, rel=1e-12)
    for t in range(1, 11):
        assert path.returns[t] == pytest.approx(0.05, abs=1e-15)
        growth = path.real_balances[t] / path.real_balances[t - 1]
        assert growth == pytest.approx(1.02, rel=1e-12)


def test_tax_and_burn_path_matches_friedman_target_balances(det_cfg):
    # a burn rate targeting rT = r deflates real balances along the same path
    # the ratio rule does, even though the nominal mechanics differ
    theta = (1.0 + det_cfg.r) / (1.0 + det_cfg.gamma) - 1.0
    burn = pol.supply_path(pol.SupplyRule.tax_and_burn(theta), det_cfg, M0=3.0, T=12)
    target = pol.supply_path(TARGET, det_cfg, M0=3.0, T=12)
    for t in range(13):
        assert burn.real_balances[t] == pytest.approx(target.real_balances[t], rel=1e-8)
        assert burn.token_prices[t] == pytest.approx(target.token_prices[t], rel=1e-12)


def test_long_iid_burn_path_stays_on_the_identity(iid_cfg):
    theta = 0.08
    path = pol.supply_path(pol.SupplyRule.tax_and_burn(theta), iid_cfg, M0=1.0, T=1000)
    eq = eqm.solve_regime(iid_cfg, "iid", theta)
    rt = eq.states[1].token_return
    assert 1.0 + rt == pytest.approx((1 + theta) / (1 + 0.5 * theta), rel=1e-12)
    # gamma = 0: real balances are a fixed point of the burn recursion
    for t in (1, 500, 1000):
        assert path.real_balances[t] == pytest.approx(path.real_balances[0], rel=1e-8)
        assert path.token_prices[t] / path.token_prices[t - 1] == pytest.approx(
            1.0 + rt, rel=1e-12
        )
        assert path.nominal[t] / path.nominal[t - 1] == pytest.approx(
            1.0 / (1.0 + rt), rel=1e-8
        )


def test_supply_path_rejects_random_aggregates(common_cfg):
    with pytest.raises(InfeasiblePolicyError, match="non-random aggregates"):
        pol.supply_path(pol.SupplyRule.tax_and_burn(0.05), common_cfg, M0=1.0, T=3)


def test_supply_path_input_guards(det_cfg):
    with pytest.raises(ConfigError, match="at least one period"):
        pol.supply_path(FIXED, det_cfg, M0=1.0, T=0)
    for M0, q0 in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ConfigError, match="positive and finite"):
            pol.supply_path(FIXED, det_cfg, M0=M0, q0=q0, T=3)


def test_csv_rows_shape(det_cfg):
    path = pol.supply_path(TARGET, det_cfg, M0=1.0, T=4)
    rows = path.csv_rows()
    assert len(rows) == 5
    assert rows[0][0] == 0.0 and math.isnan(rows[0][3])
    assert all(len(row) == 5 for row in rows)
    assert rows[3] == (
        3.0,
        path.nominal[3],
        path.token_prices[3],
        path.returns[3],
        path.real_balances[3],
    )
