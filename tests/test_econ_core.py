import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from tokenomics import econ_core as ec
from tokenomics.errors import ConfigError
from tokenomics.oracle import GridSpec

from helpers import CONFIG_DIR, ISO, ZERO, replace, single_user_config


# ---------------------------------------------------------------------------
# utility and cost primitives
# ---------------------------------------------------------------------------


def test_utility_frozen_values():
    assert ec.u_eval(ISO(2.0, 0.5), 4.0) == pytest.approx(8.0, abs=1e-14)
    assert ec.u_prime(ISO(1.0, 0.5), 4.0) == pytest.approx(0.5, abs=1e-14)
    assert ec.u_prime_inv(ISO(1.0, 0.5), 0.5) == pytest.approx(4.0, rel=1e-14)
    assert ec.u_eval(ZERO, 3.0) == 0.0


def test_cost_frozen_values():
    c = ec.CostFn(1.0, 1.0)
    assert ec.c_eval(c, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert ec.c_prime(c, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert ec.c_prime(c, 0.0) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        ec.u_eval(ISO(1.0, 0.5), -1.0)
    with pytest.raises(ValueError):
        ec.u_prime(ISO(1.0, 0.5), 0.0)
    with pytest.raises(ValueError):
        ec.u_prime_inv(ISO(1.0, 0.5), 0.0)
    with pytest.raises(TypeError):
        ec.u_prime(ZERO, 1.0)
    with pytest.raises(ValueError):
        ec.c_eval(ec.CostFn(1.0, 1.0), -0.1)
    with pytest.raises(ValueError):
        ec.UtilityFn(1.0, 1.0)  # curvature must stay below 1
    with pytest.raises(ValueError):
        ec.CostFn(0.0, 1.0)


@given(
    scale=st.floats(0.1, 10.0),
    curvature=st.floats(0.05, 0.95),
    a=st.floats(1e-3, 1e3),
)
def test_marginal_utility_round_trip(scale, curvature, a):
    f = ISO(scale, curvature)
    assert ec.u_prime_inv(f, ec.u_prime(f, a)) == pytest.approx(a, rel=1e-10)


@given(
    scale=st.floats(0.1, 5.0),
    curvature=st.floats(0.1, 0.9),
    a=st.floats(0.01, 100.0),
)
def test_marginal_utility_matches_finite_difference(scale, curvature, a):
    f = ISO(scale, curvature)
    h = 1e-6 * a
    fd = (ec.u_eval(f, a + h) - ec.u_eval(f, a - h)) / (2 * h)
    assert abs(fd - ec.u_prime(f, a)) <= 1e-5 * (1.0 + ec.u_prime(f, a))


def test_marginals_are_monotone():
    f, c = ISO(1.0, 0.5), ec.CostFn(2.0, 0.7)
    grid = [0.1 * k for k in range(1, 40)]
    u_vals = [ec.u_prime(f, a) for a in grid]
    c_vals = [ec.c_prime(c, a) for a in grid]
    assert all(x > y for x, y in zip(u_vals, u_vals[1:]))
    assert all(x < y for x, y in zip(c_vals, c_vals[1:]))


# ---------------------------------------------------------------------------
# shock processes and agent types
# ---------------------------------------------------------------------------


def test_shock_process_states_and_probabilities():
    det = ec.ShockProcess(ec.ShockKind.DETERMINISTIC)
    assert det.states() == (1,)
    assert det.probability(1) == 1.0 and det.probability(0) == 0.0
    iid = ec.ShockProcess(ec.ShockKind.IID_BINARY, rho=0.3)
    assert iid.states() == (0, 1)
    assert iid.probability(1) == pytest.approx(0.3)
    assert iid.probability(0) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        ec.ShockProcess(ec.ShockKind.IID_BINARY, rho=0.0)


@pytest.mark.parametrize("rho", [-5.0, math.nan, 0.0, 2.0])
def test_a_deterministic_rho_is_checked_like_any_other(rho):
    # rho is refused outside (0, 1] whatever the shock kind, so a
    # deterministic config cannot carry a NaN that config_to_dict would write
    with pytest.raises(ValueError, match=re.escape("rho must lie in (0, 1]")):
        ec.ShockProcess(ec.ShockKind.DETERMINISTIC, rho)
    doc = json.loads((CONFIG_DIR / "deterministic.json").read_text())
    doc["shocks"]["rho"] = rho
    with pytest.raises(ConfigError, match=re.escape("config.shocks: shock probability rho")):
        ec.config_from_dict(doc)


def test_agent_type_fills_missing_states_with_zero():
    t = ec.AgentTypeSpec(mass=1.0, utility_by_state={1: ISO(1.0, 0.5)})
    assert t.is_active(1) and not t.is_active(0)
    assert isinstance(t.utility_in(0), ec.ZeroUtility)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_canonical(det_cfg):
    assert ec.validate_config(det_cfg) == []


def test_validate_rejects_bad_masses():
    cfg = ec.EconomyConfig(
        r=0.05,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(mass=0.6, utility_by_state={1: ISO(1.0, 0.5)}, name="a"),
            ec.AgentTypeSpec(mass=0.5, utility_by_state={1: ISO(1.0, 0.5)}, name="b"),
        ),
        cost=ec.CostFn(1.0, 1.0),
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )
    violations = ec.validate_config(cfg)
    assert any("sum to 1" in v.message for v in violations)
    with pytest.raises(ConfigError):
        ec.require_valid(cfg)


def test_validate_rejects_nonpositive_r():
    cfg = single_user_config(ec.ShockKind.DETERMINISTIC, r=0.05)
    bad = ec.EconomyConfig(
        r=-0.01, gamma=cfg.gamma, agent_types=cfg.agent_types, cost=cfg.cost, shocks=cfg.shocks
    )
    assert any(v.field == "r" and v.severity == "error" for v in ec.validate_config(bad))


def test_r_below_gamma_is_a_warning_not_error(caplog):
    cfg = single_user_config(ec.ShockKind.DETERMINISTIC, r=0.02, gamma=0.05)
    # loading the config logs the warning of its one validation pass
    assert ec.config_from_dict(ec.config_to_dict(cfg)) == cfg
    assert [(r.name, r.levelname, r.getMessage()[:8]) for r in caplog.records] == [
        ("tokenomics", "WARNING", "r: r = 0")]
    violations = ec.validate_config(cfg)
    assert [v.severity for v in violations] == ["warning"]
    assert ec.require_valid(cfg) == violations  # warnings returned, not raised


def test_validate_rejects_no_demand_anywhere():
    cfg = ec.EconomyConfig(
        r=0.05,
        gamma=0.0,
        agent_types=(ec.AgentTypeSpec(mass=1.0, utility_by_state={}),),
        cost=ec.CostFn(1.0, 1.0),
        shocks=ec.ShockProcess(ec.ShockKind.DETERMINISTIC),
    )
    assert any("no demand" in v.message for v in ec.validate_config(cfg))


def test_validate_rejects_degenerate_common_shock():
    # identical utilities across states make the two-type "shock" carry no risk
    cfg = ec.EconomyConfig(
        r=0.05,
        gamma=0.0,
        agent_types=(
            ec.AgentTypeSpec(mass=0.5, utility_by_state={0: ISO(2.0, 0.5), 1: ISO(2.0, 0.5)}, name="a"),
            ec.AgentTypeSpec(mass=0.5, utility_by_state={0: ISO(0.5, 0.5), 1: ISO(0.5, 0.5)}, name="b"),
        ),
        cost=ec.CostFn(1.0, 1.0),
        shocks=ec.ShockProcess(ec.ShockKind.COMMON_BINARY, rho=0.5),
    )
    assert any(v.field == "shocks" for v in ec.validate_config(cfg))


def test_validate_rejects_one_type_whose_common_shock_changes_nothing():
    # the degeneracy check runs on every heterogeneous config, one type too:
    # a type with the same utility in both states is refused, a shocked one
    # is not, and a common config whose market shuts in state 0 is not checked
    def one_type(low, high):
        return ec.EconomyConfig(
            r=0.05,
            gamma=0.0,
            agent_types=(ec.AgentTypeSpec(1.0, {0: low, 1: high}, "users"),),
            cost=ec.CostFn(1.0, 1.0),
            shocks=ec.ShockProcess(ec.ShockKind.COMMON_BINARY, rho=0.5),
        )

    steady = one_type(ISO(0.5, 0.5), ISO(0.5, 0.5))
    assert ec.family(steady) == "heterogeneous"
    assert [str(v) for v in ec.validate_config(steady)] == [
        "[error] shocks: common shock is degenerate: the optimal allocation is identical "
        "in both states (max difference 0.0e+00)"
    ]
    assert ec.validate_config(one_type(ISO(0.5, 0.5), ISO(2.0, 0.5))) == []
    assert ec.validate_config(one_type(ZERO, ISO(0.5, 0.5))) == []


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def test_config_round_trip(het_cfg):
    doc = ec.config_to_dict(het_cfg)
    again = ec.config_from_dict(doc)
    assert again == het_cfg


def test_load_config_reads_canonical_files(det_cfg, iid_cfg, common_cfg, het_cfg):
    assert det_cfg.shocks.kind is ec.ShockKind.DETERMINISTIC
    assert iid_cfg.shocks.rho == 0.5
    assert common_cfg.shocks.kind is ec.ShockKind.COMMON_BINARY
    assert [t.name for t in het_cfg.agent_types] == ["shocked", "steady"]


def test_unknown_fields_fail_closed(det_cfg):
    doc = ec.config_to_dict(det_cfg)
    doc["blockspace"] = 2.0
    with pytest.raises(ConfigError, match="unknown field"):
        ec.config_from_dict(doc)


def test_wrong_schema_version_rejected(det_cfg):
    doc = ec.config_to_dict(det_cfg)
    doc["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        ec.config_from_dict(doc)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "r": }')
    with pytest.raises(ConfigError, match="line 2"):
        ec.load_config(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        ec.load_config(tmp_path / "absent.json")


def test_unknown_utility_kind_rejected(det_cfg):
    doc = ec.config_to_dict(det_cfg)
    doc["agent_types"][0]["utility_by_state"]["1"] = {"kind": "quadratic"}
    with pytest.raises(ConfigError, match="unknown utility kind"):
        ec.config_from_dict(doc)


def test_bool_is_not_a_number(det_cfg):
    doc = json.loads(json.dumps(ec.config_to_dict(det_cfg)))
    doc["r"] = True
    with pytest.raises(ConfigError, match="expected a number"):
        ec.config_from_dict(doc)


_DROP = object()


def _iid_doc_with(path: tuple, value):
    """configs/iid.json as parsed JSON with the field at path set to value
    (removed when value is _DROP); the empty path replaces the document."""
    doc = json.loads((CONFIG_DIR / "iid.json").read_text())
    if not path:
        return value
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


def _parse(path: tuple, value):
    return lambda: ec.config_from_dict(_iid_doc_with(path, value))


_USERS = ("agent_types", 0)
_ISO = {"kind": "isoelastic", "scale": 0.5, "curvature": 0.5}


@pytest.mark.parametrize(
    "make, error, message",
    [
        (_parse((), [1]), ConfigError, "config: expected an object, got list"),
        (_parse(("cost",), 1.0), ConfigError, "config.cost: expected an object, got float"),
        (_parse(("gamma",), _DROP), ConfigError, "config: missing required field(s) ['gamma']"),
        (_parse(("shocks", "kind"), "markov"), ConfigError, "config.shocks.kind: unknown kind 'markov'"),
        (_parse(("shocks", "rho"), 0.0), ConfigError, "config.shocks: shock probability rho must lie in (0, 1]"),
        (_parse(("shocks", "rho"), 1.5), ConfigError, "config.shocks: shock probability rho must lie in (0, 1]"),
        (_parse(("agent_types",), []), ConfigError, "config.agent_types: expected a non-empty array"),
        (_parse(("agent_types",), {}), ConfigError, "config.agent_types: expected a non-empty array"),
        (_parse((*_USERS, "utility_by_state"), []), ConfigError,
         "config.agent_types[0].utility_by_state: expected an object"),
        (_parse((*_USERS, "utility_by_state", "2"), _ISO), ConfigError,
         "config.agent_types[0].utility_by_state: unknown state '2'"),
        (_parse((*_USERS, "utility_by_state", "1", "kind"), _DROP), ConfigError,
         "config.agent_types[0].utility_by_state.1: expected an object with a 'kind' field"),
        (_parse((*_USERS, "utility_by_state", "1", "curvature"), 1.0), ConfigError,
         "config.agent_types[0].utility_by_state.1: utility curvature must lie in (0, 1)"),
        (_parse((*_USERS, "name"), 3), ConfigError, "config.agent_types[0].name: expected a string"),
        (_parse((*_USERS, "mass"), 0.0), ConfigError,
         "config.agent_types[0]: agent mass must be a positive finite number"),
        (_parse(("cost", "curvature"), 0.0), ConfigError, "config.cost: cost curvature must be positive"),
        # validate_config's cross-field violations, raised by require_valid
        (_parse(("gamma",), -1.0), ConfigError, "[error] gamma: growth rate must exceed -1"),
        (_parse(("agent_types",), [{"name": "users", "mass": 0.5, "utility_by_state": {"1": _ISO}}] * 2),
         ConfigError, "[error] agent_types: duplicate type names: ['users', 'users']"),
        (lambda: ec.require_valid(
            replace(ec.load_config(CONFIG_DIR / "iid.json"), agent_types=())),
         ConfigError, "[error] agent_types: at least one agent type is required"),
        (lambda: GridSpec(0.0), ValueError, "grid upper bound must be positive and finite"),
        (lambda: GridSpec(1.0, 2), ValueError, "grid needs at least 3 points"),
    ],
    ids=[
        "document", "section", "missing-field", "shock-kind", "rho-zero", "rho-above-one",
        "no-types", "types-not-array", "utility-by-state", "state-key", "utility-kind",
        "curvature-one", "name", "mass", "cost-curvature", "gamma", "duplicate-names",
        "validate-no-types", "grid-upper", "grid-points",
    ],
)
def test_malformed_inputs_are_rejected_naming_their_field(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()
