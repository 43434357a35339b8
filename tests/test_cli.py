import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tokenomics import cli
from tokenomics import econ_core as ec
from tokenomics import verify, welfare
from tokenomics.first_best import first_best_allocation, planner_economy

from helpers import (
    CONFIG_DIR, both_bind_config, marginal_cost_overflow_config, replace, scaled_config,
    split_iid_config, split_steady_config, three_type_config, two_type_config,
    underflow_config,
)

DET = str(CONFIG_DIR / "deterministic.json")
IID = str(CONFIG_DIR / "iid.json")
COMMON = str(CONFIG_DIR / "common.json")
HET = str(CONFIG_DIR / "heterogeneous.json")


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(ec.config_to_dict(cfg)))
    return str(path)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def test_dumps_canonical_sorts_and_pins_float_digits():
    doc = {"b": 0.1, "a": {"z": True, "y": None}, "list": [1.0, float("nan")]}
    text = cli.dumps_canonical(doc)
    assert text.index('"a"') < text.index('"b"')
    assert "0.10000000000000001" in text  # 17 significant digits
    assert text.count("null") == 2  # explicit None and the nan
    assert json.loads(text)["a"]["z"] is True


def test_format_float_edge_cases():
    assert cli.format_float(float("nan")) == ""
    assert cli.format_float(float("inf")) == ""
    assert cli.format_float(1.05) == "1.05"
    assert cli.format_float(1 / 3) == "0.33333333333333331"


def test_csv_cell_quoting():
    assert cli._csv_cell("plain") == "plain"
    assert cli._csv_cell('error: a, b "c"') == '"error: a, b ""c"""'
    assert cli._csv_cell(True) == "true"
    assert cli._csv_cell(float("nan")) == ""
    assert cli._csv_cell(None) == ""


def test_dumps_canonical_refuses_a_record():
    # a record is a NamedTuple: it must not serialize as a bare JSON array
    with pytest.raises(TypeError, match="cannot serialize CostFn"):
        cli.dumps_canonical({"cost": ec.CostFn(1.0, 1.0)})


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


def test_scenario_writes_reports(tmp_path, capsys):
    code = cli.main(
        ["scenario", "--config", DET, "--regime", "friedman", "--out", str(tmp_path)]
    )
    assert code == 0
    eq_doc = json.loads((tmp_path / "equilibrium.json").read_text())
    wf_doc = json.loads((tmp_path / "welfare.json").read_text())
    summary = (tmp_path / "summary.txt").read_text()
    assert eq_doc["requested_regime"] == "friedman"
    assert eq_doc["states"]["1"]["activities"]["users"] == pytest.approx(
        0.6299605249474366, abs=1e-12
    )
    assert wf_doc["first_best_gap"] == pytest.approx(0.0, abs=1e-8)
    assert summary.startswith("regime            friedman")
    assert capsys.readouterr().out.strip() == summary.strip()


def test_scenario_clears_where_marginal_cost_passes_a_float(tmp_path, capsys):
    # clearing this market evaluates marginal cost at loads whose cost
    # exceeds the largest float; that reads inf instead of a traceback
    cfg_path = write_config(tmp_path, marginal_cost_overflow_config())
    code = cli.main(["scenario", "--config", cfg_path, "--regime", "friedman",
                     "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    eq_doc = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert eq_doc["states"]["1"]["congested"] is False


def test_scenario_solves_both_budgets_binding(tmp_path):
    cfg_path = write_config(tmp_path, both_bind_config())
    code = cli.main(
        ["scenario", "--config", cfg_path, "--regime", "heterogeneous",
         "--theta", "0.0", "--out", str(tmp_path)]
    )
    assert code == 0
    wf_doc = json.loads((tmp_path / "welfare.json").read_text())
    assert wf_doc["foc_residual_max"] <= 1e-8


def test_scenario_reports_broken_congestion(tmp_path):
    cfg_path = write_config(
        tmp_path, two_type_config(r=0.5, steady_high=0.9, steady_low=0.1)
    )
    code = cli.main(
        ["scenario", "--config", cfg_path, "--regime", "heterogeneous",
         "--theta", "0.0", "--out", str(tmp_path)]
    )
    assert code == 0
    eq_doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert eq_doc["congestion_broken"] is True
    assert eq_doc["states"]["1"]["congested"] is False


def test_scenario_solver_failure_exits_2(tmp_path, capsys):
    code = cli.main(
        ["scenario", "--config", HET, "--regime", "heterogeneous",
         "--theta", "0.3", "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "expected token return above r" in err
    assert not (tmp_path / "equilibrium.json").exists()


def test_scenario_rejects_unknown_regime(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scenario", "--config", DET, "--regime", "nonsense"])
    assert exc.value.code == 3


#: a locale whose encoding is ASCII, with Python's UTF-8 mode and locale
#: coercion off, so that only explicit encodings read and write UTF-8
ASCII_LOCALE = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_a_utf8_config_runs_under_an_ascii_locale(tmp_path):
    doc = ec.config_to_dict(ec.load_config(DET))
    doc["agent_types"][0]["name"] = "us\u00e9rs"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "tokenomics.cli", "scenario", "--config", str(cfg_path),
         "--regime", "deterministic", "--theta", "0.02", "--out", str(out)],
        capture_output=True, env=ASCII_LOCALE,
    )
    assert proc.returncode == 0, proc.stderr
    eq_doc = json.loads((out / "equilibrium.json").read_bytes().decode("utf-8"))
    assert list(eq_doc["holdings"]) == ["us\u00e9rs"]
    # stdout is the summary, in UTF-8 as the file is
    assert proc.stdout == (out / "summary.txt").read_bytes()
    assert "us\u00e9rs".encode("utf-8") in proc.stdout


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path):
    text = (CONFIG_DIR / "deterministic.json").read_text().replace('"users"', '"us\u00e9rs"')
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(text.encode("latin-1"))
    proc = subprocess.run(
        [sys.executable, "-m", "tokenomics.cli", "scenario", "--config", str(cfg_path),
         "--regime", "friedman", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=ASCII_LOCALE,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error: ") and "is not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["scenario", "--regime", "friedman"],
    ["scenario", "--regime", "deterministic", "--theta", "0.02"],
    ["sweep", "--regime", "deterministic", "--theta-max", "0.1", "--points", "3"],
    ["verify"],
], ids=["friedman", "deterministic", "sweep", "verify"])
def test_demand_beyond_a_float_clears(argv, tmp_path, capsys):
    # at scale 1e4 and curvature 0.01, demand u'^-1(p) = (1e4 / p)**100
    # overflows a float at any fee below about 8.3, where the clearing
    # bracket starts; it must expand past that to the fee near 1e4
    doc = ec.config_to_dict(ec.load_config(DET))
    doc["agent_types"][0]["utility_by_state"]["1"].update(scale=1e4, curvature=0.01)
    cfg_path = write_config(tmp_path, ec.config_from_dict(doc))
    code = cli.main([*argv, "--config", cfg_path, "--out", str(tmp_path / "out")])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "FAIL" not in printed


def _iid_beyond_a_positive_wedge(tmp_path) -> str:
    # r < gamma: at a large theta the iid wedge
    # 1 + (r - gamma)(1 + (1 - rho) theta) / (rho (1 + gamma)) is negative,
    # -0.2 at theta = 40
    doc = ec.config_to_dict(ec.load_config(IID))
    doc.update(r=0.02, gamma=0.05)
    return write_config(tmp_path, ec.config_from_dict(doc))


def test_iid_past_a_positive_wedge_is_infeasible(tmp_path, capsys):
    # no holdings are optimal there: an infeasible policy (exit 2) named by
    # its theta, not a crash in demand inversion
    out = tmp_path / "out"
    code = cli.main(["scenario", "--config", _iid_beyond_a_positive_wedge(tmp_path),
                     "--regime", "iid", "--theta", "40", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "theta=40.0 is past the feasibility frontier" in errors[0]
    assert "Traceback" not in err
    assert not out.exists()


def test_demand_below_a_float_exits_2_and_names_the_underflow(tmp_path, capsys):
    # the kernel has no load to root on, so the error names the underflow
    # rather than a stalled root finder
    out = tmp_path / "out"
    code = cli.main(["scenario", "--config", write_config(tmp_path, underflow_config()),
                     "--regime", "deterministic", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: demand underflows a float at the closed-form fee 315.65"), err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_records_iid_points_past_a_positive_wedge_as_errors(tmp_path):
    code = cli.main(["sweep", "--config", _iid_beyond_a_positive_wedge(tmp_path),
                     "--regime", "iid", "--theta-max", "40", "--points", "3",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert doc["statuses"][:2] == ["ok", "ok"]
    assert doc["statuses"][2].startswith("error: theta=40.0 is past the feasibility frontier")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_outputs_and_argmax(tmp_path):
    code = cli.main(
        ["sweep", "--config", IID, "--regime", "iid", "--theta-max", "0.06",
         "--points", "4", "--out", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["argmax_theta"] == 0.0
    assert doc["grid"] == [0.0, 0.02, 0.04, 0.06]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "theta,welfare,congested,rT_high,rT_expected,surplus_state_0,surplus_state_1,status"
    assert len(lines) == 5
    assert lines[1].endswith(",ok")


def test_sweep_tolerates_failed_points(tmp_path):
    code = cli.main(
        ["sweep", "--config", HET, "--regime", "heterogeneous",
         "--theta-max", "0.3", "--points", "4", "--out", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["statuses"][0] == "ok"
    assert doc["statuses"][-1].startswith("error: ")
    assert doc["welfare"][-1] is None  # nan serializes to null
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[-1].split(",")[1] == ""  # empty welfare cell on the error row


def test_sweep_with_no_solvable_points_exits_2(tmp_path, capsys):
    code = cli.main(
        ["sweep", "--config", HET, "--regime", "heterogeneous",
         "--theta-min", "0.3", "--theta-max", "0.4", "--points", "2",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "0 solved" in capsys.readouterr().out


@pytest.mark.parametrize("rho", ["-5", "NaN", "2"])
def test_scenario_refuses_a_deterministic_rho_outside_the_unit_interval(tmp_path, capsys, rho):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text((CONFIG_DIR / "deterministic.json").read_text().replace(
        '{"kind": "deterministic"}', f'{{"kind": "deterministic", "rho": {rho}}}'))
    out = tmp_path / "out"
    assert cli.main(["scenario", "--config", str(cfg_path), "--regime", "deterministic",
                     "--out", str(out)]) == 3
    assert "config error: config.shocks: shock probability rho must lie in (0, 1]" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_sweep_usage_errors(tmp_path, capsys):
    assert cli.main(
        ["sweep", "--config", IID, "--regime", "iid", "--theta-max", "0.1",
         "--points", "1", "--out", str(tmp_path)]
    ) == 3
    capsys.readouterr()
    # sweep_tax, not the CLI, rejects a descending grid
    assert cli.main(
        ["sweep", "--config", IID, "--regime", "iid", "--theta-min", "0.2",
         "--theta-max", "0.1", "--points", "3", "--out", str(tmp_path)]
    ) == 3
    assert "config error: tax grid must be sorted ascending" in capsys.readouterr().err
    # friedman takes no tax: a sweep would write one theta = 0 solve per row
    assert cli.main(
        ["sweep", "--config", DET, "--regime", "friedman", "--theta-max", "0.1",
         "--points", "3", "--out", str(tmp_path)]
    ) == 3
    assert "the friedman regime takes no tax" in capsys.readouterr().err
    assert cli.main(
        ["sweep", "--config", IID, "--regime", "iid", "--theta-max", "0.1",
         "--points", "3", "--jobs", "0", "--out", str(tmp_path)]
    ) == 3
    assert "usage error: --jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------


def test_path_friedman_target(tmp_path):
    code = cli.main(
        ["path", "--config", DET, "--rule", "friedman_target", "--M0", "100",
         "--T", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "path.csv").read_text().splitlines()
    assert lines[0] == "t,M,q,rT,m"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[1] == "100" and first[3] == ""  # returns[0] is nan
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(100.0 / 1.05**5, rel=1e-12)


def run_without_numpy_or_pools(args):
    """Run the CLI in a fresh interpreter in which importing numpy,
    concurrent.futures or multiprocessing fails: every command runs in the
    one process, in plain floats."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "for name in ('numpy', 'concurrent.futures', 'multiprocessing'):\n"
        "    sys.modules[name] = None\n"
        "from tokenomics import cli\n"
        f"code = cli.main({args!r})\n"
        "assert code == 0, code\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize(
    "args",
    [
        ["scenario", "--config", DET, "--regime", "friedman"],
        ["scenario", "--config", DET, "--regime", "deterministic", "--theta", "0.02"],
        ["scenario", "--config", IID, "--regime", "iid", "--theta", "0.02"],
        ["scenario", "--config", COMMON, "--regime", "common", "--theta", "0.02"],
        ["scenario", "--config", HET, "--regime", "heterogeneous", "--theta", "0.05"],
        ["sweep", "--config", HET, "--regime", "heterogeneous", "--theta-max", "0.1",
         "--points", "3", "--jobs", "1"],
        ["sweep", "--config", HET, "--regime", "heterogeneous", "--theta-max", "0.1",
         "--points", "3", "--jobs", "2"],
        ["path", "--config", DET, "--rule", "tax_and_burn", "--theta", "0.02",
         "--M0", "100", "--T", "5"],
        ["verify", "--config", DET],
        ["verify", "--config", HET],
    ],
    ids=["friedman", "deterministic", "iid", "common", "heterogeneous", "sweep-jobs-1",
         "sweep-jobs-2", "path", "verify-deterministic", "verify-heterogeneous"],
)
def test_scenario_and_sweep_do_not_import_numpy(tmp_path, args):
    # no command needs numpy: the grid oracles that score every scenario and
    # sweep point and verify's first best are plain floats; and no command
    # starts a worker, --jobs 2 included
    run_without_numpy_or_pools(args + ["--out", str(tmp_path)])


def test_path_tax_and_burn_requires_theta_compatible_shocks(tmp_path, capsys):
    code = cli.main(
        ["path", "--config", COMMON, "--rule", "tax_and_burn", "--theta", "0.05",
         "--M0", "1", "--T", "3", "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-random aggregates" in err
    assert not (tmp_path / "path.csv").exists()


def test_config_errors_exit_3_from_scenario_and_path(tmp_path, capsys, monkeypatch):
    # the iid regime solves one type, idle in state 0: no regime solves two
    # types, or one with demand in state 0 too, so every command refuses such
    # a config at load, before any solve (path's fixed supply, which solves
    # nothing, included), and leaves no --out behind
    iid = ec.load_config(IID)
    (users,) = iid.agent_types
    both = replace(users, utility_by_state={0: ec.UtilityFn(0.5, 0.5),
                                                        1: users.utility_in(1)})

    def no_solve(*args):
        raise AssertionError("a refused config reached a solver")

    monkeypatch.setattr(cli.eqm, "solve_regime", no_solve)
    out = tmp_path / "out"
    for i, cfg in enumerate((split_iid_config(), replace(iid, agent_types=(both,)))):
        cfg_path = write_config(tmp_path, cfg, f"config{i}.json")
        for args in (
            ["verify"],
            ["scenario", "--regime", "iid", "--theta", "0.05"],
            ["path", "--rule", "tax_and_burn", "--theta", "0.05", "--M0", "1", "--T", "3"],
            ["path", "--rule", "fixed_supply", "--M0", "1", "--T", "3"],
        ):
            assert cli.main([args[0], "--config", cfg_path, *args[1:], "--out", str(out)]) == 3
            assert capsys.readouterr().err == (
                "config error: [error] family: no regime solves this iid_binary config: the iid "
                "regime needs one agent type with zero utility in state 0 and demand in state 1\n"
            )
    assert not out.exists()


@pytest.mark.parametrize("name", ["shocked", "steady"])
def test_verify_on_a_one_type_cut_of_the_heterogeneous_config(tmp_path, capsys, name):
    # each type of configs/heterogeneous.json alone, at mass 1, is a
    # heterogeneous config of one type. The shocked type's is congested in
    # the high state and reaches first best at zero tax, so no tax can help;
    # the steady type's shock changes nothing, and it is refused as degenerate
    het = ec.load_config(HET)
    (cut,) = [replace(t, mass=1.0) for t in het.agent_types if t.name == name]
    cfg_path = write_config(tmp_path, replace(het, agent_types=(cut,)))
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", cfg_path, "--out", str(out)])
    if name == "steady":
        assert code == 3 and not out.exists()
        assert "common shock is degenerate" in capsys.readouterr().err
        return
    assert code == 0
    checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
    skipped = {"heterogeneous_tax_improves_welfare", *verify._TWO_TYPE_CLAIMS, "golden_regression"}
    assert {n: c["status"] for n, c in checks.items() if c["status"] != "pass"} == dict.fromkeys(
        skipped, "not applicable")
    assert checks["heterogeneous_tax_improves_welfare"]["measured"] == {
        "zero_tax_first_best_gap": 0.0}


def test_path_logs_the_r_below_gamma_warning_once(tmp_path):
    # validate_config warns, not errors, when r < gamma; fixed supply still
    # simulates, in a fresh process so that main's logging setup writes stderr
    cfg_path = write_config(tmp_path, replace(ec.load_config(DET), r=0.02, gamma=0.05))
    proc = subprocess.run(
        [sys.executable, "-m", "tokenomics.cli", "path", "--config", cfg_path,
         "--rule", "fixed_supply", "--M0", "100", "--T", "5", "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "WARNING tokenomics: r: r = 0.02 is below gamma = 0.05; deflationary supply "
        "rules (fixed supply, tax-and-burn) have no steady state here"
    ]
    assert (tmp_path / "out" / "path.csv").exists()


def test_path_validates_its_config_once(tmp_path, monkeypatch):
    # loading the config refuses its errors and logs its warnings in one pass
    validate = ec.validate_config
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(ec, "validate_config", counting)
    assert cli.main(["path", "--config", HET, "--rule", "fixed_supply", "--M0", "100",
                     "--T", "3", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_path_rule_choices_are_the_supply_rule_kinds():
    # the CLI names them without loading tokenomics.policy; in enum order,
    # path --help and the invalid-choice message read as before
    from tokenomics.policy import SupplyRuleKind

    assert cli.SUPPLY_RULES == tuple(k.value for k in SupplyRuleKind)


def test_path_usage_guards(tmp_path, capsys):
    # supply_path, not the CLI, rejects --T, --M0 and --q0
    assert cli.main(
        ["path", "--config", DET, "--rule", "fixed_supply", "--M0", "1",
         "--T", "0", "--out", str(tmp_path)]
    ) == 3
    assert "config error: need at least one period" in capsys.readouterr().err
    assert cli.main(
        ["path", "--config", DET, "--rule", "fixed_supply", "--M0", "-1",
         "--T", "3", "--out", str(tmp_path)]
    ) == 3
    assert "config error: M0 and q0 must be positive and finite" in capsys.readouterr().err
    assert cli.main(
        ["path", "--config", DET, "--rule", "tax_and_burn", "--theta", "-0.1", "--M0", "1",
         "--T", "3", "--out", str(tmp_path)]
    ) == 3
    assert "--theta must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "path.csv").exists()



@pytest.mark.parametrize("rule", ["fixed_supply", "friedman_target"])
def test_path_refuses_a_tax_on_a_rule_that_takes_none(tmp_path, capsys, rule):
    # the tax would be silently ignored: a usage error, before any output
    args = ["path", "--config", DET, "--rule", rule, "--M0", "1", "--T", "3"]
    assert cli.main([*args, "--theta", "0.3", "--out", str(tmp_path / "taxed")]) == 3
    assert f"usage error: --theta is for tax_and_burn only: {rule} does not take a tax rate" in (
        capsys.readouterr().err)
    assert not (tmp_path / "taxed").exists()
    for theta in ([], ["--theta", "0"]):
        assert cli.main([*args, *theta, "--out", str(tmp_path / "untaxed")]) == 0

@pytest.mark.parametrize(
    "args",
    [
        ["scenario", "--config", DET, "--regime", "deterministic", "--theta", "nan"],
        ["scenario", "--config", HET, "--regime", "heterogeneous", "--theta", "nan"],
        ["scenario", "--config", IID, "--regime", "iid", "--theta", "inf"],
        ["path", "--config", DET, "--rule", "tax_and_burn", "--theta", "nan",
         "--M0", "1", "--T", "3"],
        ["path", "--config", DET, "--rule", "fixed_supply", "--M0", "nan", "--T", "3"],
        ["path", "--config", DET, "--rule", "fixed_supply", "--M0", "1", "--q0", "inf",
         "--T", "3"],
        ["sweep", "--config", IID, "--regime", "iid", "--theta-max", "nan", "--points", "3"],
        ["sweep", "--config", IID, "--regime", "iid", "--theta-max", "inf", "--points", "3"],
        ["sweep", "--config", IID, "--regime", "iid", "--theta-min=-inf", "--theta-max", "0.1",
         "--points", "3"],
        # both bounds finite, but the grid's span overflows
        ["sweep", "--config", IID, "--regime", "iid", "--theta-min=-1e308", "--theta-max", "1e308",
         "--points", "3"],
    ],
    ids=["scenario-deterministic-nan", "scenario-heterogeneous-nan", "scenario-iid-inf",
         "path-theta-nan", "path-M0-nan", "path-q0-inf", "sweep-theta-max-nan",
         "sweep-theta-max-inf", "sweep-theta-min-minus-inf", "sweep-span-overflow"],
)
def test_non_finite_numbers_exit_3(tmp_path, capsys, args):
    assert cli.main(args + ["--out", str(tmp_path)]) == 3
    assert not any(tmp_path.iterdir())
    if args[0] == "sweep":
        # the bounds are named, not the nan that their grid would compute
        err = capsys.readouterr().err
        assert "--theta-min" in err and "--theta-max" in err
        assert "got nan" not in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_on_shipped_config(tmp_path, capsys):
    code = cli.main(["verify", "--config", DET, "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS  friedman_matches_first_best" in printed
    assert "PASS  golden_regression" in printed
    assert "FAIL" not in printed
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_passed"] is True
    assert doc["family"] == "deterministic"


def test_verify_certificate_fails_on_inflated_holdings(iid_cfg, monkeypatch):
    def certificate():
        checks = verify._oracle_checks(iid_cfg, verify._scorer(iid_cfg))
        return next(c for c in checks if c["name"] == "equilibrium_certificate")

    passed = certificate()
    assert passed["status"] == "pass"
    assert sorted(passed["measured"]) == sorted(verify.CERT_TOL)
    solve = cli.eqm.solve_regime

    def inflated(cfg, regime, theta=0.0):
        eq = solve(cfg, regime, theta)
        return replace(eq, holdings={n: 1.01 * m for n, m in eq.holdings.items()})

    monkeypatch.setattr(cli.eqm, "solve_regime", inflated)
    failed = certificate()
    assert failed["status"] == "fail"
    assert "holdings_slope" in failed["detail"]


@pytest.mark.parametrize("name", ["deterministic", "heterogeneous"])
def test_verify_oracle_checks_pass_at_small_utility_scale(name):
    # small balances: at x0.2 a centered difference of the holdings objective
    # reads about 3e-6 at the rT = r kink of deterministic (friedman, and the
    # deterministic regime at theta = r) and 7e-6 on heterogeneous at
    # theta = 0.05, on correct solves. At x0.001 a tie tolerance absolute in
    # the objective put the heterogeneous holdings oracle 13 steps off.
    for scale in (0.2, 0.001):
        cfg = scaled_config(name, utility=scale)
        checks = verify._oracle_checks(cfg, verify._scorer(cfg))
        assert [c["name"] for c in checks if c["status"] != "pass"] == [], scale


def test_verify_scores_each_regime_and_tax_once_for_oracle_and_golden(
    tmp_path, monkeypatch, capsys
):
    # heterogeneous verify scores the 5 feasible points of the battery's tax
    # grid, then theta = 0 and 0.05 once each for the oracle checks and the
    # golden comparison together: 7 evaluate calls, not 9
    scored = []
    evaluate = welfare.evaluate

    def counting(cfg, eq, **kwargs):
        scored.append(eq.states[1].tax)
        return evaluate(cfg, eq, **kwargs)

    monkeypatch.setattr(welfare, "evaluate", counting)
    monkeypatch.setattr(verify, "evaluate", counting)
    assert cli.main(["verify", "--config", HET, "--out", str(tmp_path)]) == 0
    assert "PASS  golden_regression" in capsys.readouterr().out
    assert len(scored) == 7
    assert scored[-2:] == [0.0, 0.05]


def test_verify_detects_golden_corruption(tmp_path, capsys):
    cfg_path = tmp_path / "deterministic.json"
    cfg_path.write_text((CONFIG_DIR / "deterministic.json").read_text())
    golden = json.loads((CONFIG_DIR / "deterministic.golden.json").read_text())
    golden["cases"][1]["equilibrium"]["states"]["1"]["price"] += 1e-3
    # a list where the result has a number, a key the result lacks and one
    # the golden case lacks
    golden["cases"][0]["welfare"]["first_best_gap"] = [0.0]
    golden["cases"][2]["welfare"]["retired_metric"] = 0.0
    del golden["cases"][0]["equilibrium"]["holdings"]
    (tmp_path / "deterministic.golden.json").write_text(json.dumps(golden))
    code = cli.main(["verify", "--config", str(cfg_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL  golden_regression" in captured.out
    assert "case.1.equilibrium.states.1.price" in captured.out
    assert "case.0.welfare.first_best_gap ([0.0] != 0.0)" in captured.out
    assert "case.2.welfare.retired_metric (missing)" in captured.out
    assert "case.0.equilibrium.holdings (unexpected)" in captured.out
    assert "golden_regression" in captured.err


@pytest.mark.parametrize(
    "golden",
    [
        [{"regime": "friedman", "theta": 0.0}],
        {"cases": [{"theta": 0.0}]},
        {"cases": [{"regime": "friedman", "theta": "a"}]},
        {"cases": [{"regime": "iid", "theta": 0.0}]},
        {"cases": [{"regime": "deterministic", "theta": -1}]},
        {"cases": [{"regime": "deterministic", "theta": 10**400}]},
        b'\xff{"cases": []}',
    ],
    ids=["array", "no-regime", "text-theta", "other-family", "negative-theta", "huge-theta",
         "not-utf8"],
)
def test_verify_reports_a_malformed_golden_file(tmp_path, golden):
    cfg_path = tmp_path / "deterministic.json"
    cfg_path.write_text((CONFIG_DIR / "deterministic.json").read_text())
    data = golden if isinstance(golden, bytes) else json.dumps(golden).encode()
    (tmp_path / "deterministic.golden.json").write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "tokenomics.cli", "verify", "--config", str(cfg_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "FAIL  golden_regression" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_verify_checks_first_best_with_three_active_types(tmp_path, capsys):
    # the weak-duality certificate reads any number of active types
    cfg_path = write_config(tmp_path, three_type_config())
    code = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "PASS  oracle_first_best_agreement [max_dual_gap=" in printed
    assert "FAIL" not in printed
    check = next(
        c for c in json.loads((tmp_path / "verify.json").read_text())["checks"]
        if c["name"] == "oracle_first_best_agreement"
    )
    assert check["status"] == "pass"
    assert check["measured"]["max_dual_gap"] <= verify.FIRST_BEST_GAP_TOL


@pytest.mark.parametrize("name", ["deterministic", "iid", "common", "heterogeneous"])
def test_first_best_certificate_passes_on_every_shipped_config(name):
    # the planner's solutions meet their dual bounds to rounding: at most
    # 2.2e-16 on these configs
    check = verify._first_best_check(ec.load_config(CONFIG_DIR / f"{name}.json"))
    assert check["status"] == "pass"
    assert check["measured"]["max_dual_gap"] <= 2.3e-16


def test_verify_checks_first_best_with_a_type_split_in_two(tmp_path, capsys):
    # configs/heterogeneous.json with its steady type in two identical halves:
    # three active types in each state
    cfg_path = write_config(tmp_path, split_steady_config())
    code = cli.main(["verify", "--config", cfg_path])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "PASS  oracle_first_best_agreement [max_dual_gap=" in printed


def _record_first_best_gaps(monkeypatch) -> list[tuple[int, dict[str, float]]]:
    # (state, mass of each active type) for every dual-gap reading
    readings = []
    gap = verify.first_best_dual_gap

    def recording(cfg, state, activities):
        readings.append((state, {t.name: t.mass for t in cfg.agent_types if t.is_active(state)}))
        return gap(cfg, state, activities)

    monkeypatch.setattr(verify, "first_best_dual_gap", recording)
    return readings


def test_iid_first_best_grid_searches_the_type_state_economy(iid_cfg, monkeypatch):
    # first_best_gap reads the planner of the iid type's one pair, and so does
    # the first-best certificate: on configs/iid.json users@1, of mass
    # rho = 0.5, where 0.5 a^(-1/2) = c'(0.5 a) = 0.5 a puts the planner at
    # a = 1, load 0.5
    readings = _record_first_best_gaps(monkeypatch)
    checks = verify._oracle_checks(iid_cfg, verify._scorer(iid_cfg))
    assert readings == [(1, {"users@1": 0.5})]
    analytic = first_best_allocation(planner_economy(iid_cfg), 1)
    assert analytic.activities == pytest.approx({"users@1": 1.0}, rel=1e-12)
    assert analytic.total == pytest.approx(0.5, rel=1e-12)
    assert checks[-1]["name"] == "oracle_first_best_agreement"
    assert checks[-1]["status"] == "pass"


def test_verify_fails_when_the_planner_misses_its_dual_bound(tmp_path, capsys, monkeypatch):
    # a planner allocation at half the optimal activities leaves surplus below
    # the weak-duality bound: 0.17 on configs/deterministic.json
    planner = verify.first_best_allocation

    def halved(cfg, state):
        alloc = planner(cfg, state)
        return replace(
            alloc, activities={n: 0.5 * a for n, a in alloc.activities.items()}, total=0.5 * alloc.total
        )

    monkeypatch.setattr(verify, "first_best_allocation", halved)
    code = cli.main(["verify", "--config", DET, "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL  oracle_first_best_agreement" in capsys.readouterr().out
    check = next(
        c for c in json.loads((tmp_path / "verify.json").read_text())["checks"]
        if c["name"] == "oracle_first_best_agreement"
    )
    assert check["status"] == "fail"
    assert check["measured"]["max_dual_gap"] == pytest.approx(0.16584103378871307, rel=1e-12)


def test_scenario_and_verify_solve_three_types_under_a_common_shock(tmp_path):
    # configs/heterogeneous.json with a third type: verify runs the battery's
    # claims that hold for any number of types and the first-best
    # certificate, and skips its two-type claims
    doc = json.loads(Path(HET).read_text())
    doc["agent_types"][0]["mass"], doc["agent_types"][1]["mass"] = 0.4, 0.3
    doc["agent_types"].append({"name": "third", "mass": 0.3, "utility_by_state": {
        "0": {"kind": "isoelastic", "scale": 0.8, "curvature": 0.5},
        "1": {"kind": "isoelastic", "scale": 1.0, "curvature": 0.5},
    }})
    cfg_path = tmp_path / "three.json"
    cfg_path.write_text(json.dumps(doc))
    for args in (["scenario", "--regime", "heterogeneous", "--theta", "0.05",
                  "--out", str(tmp_path)], ["verify"]):
        proc = subprocess.run(
            [sys.executable, "-m", "tokenomics.cli", args[0], "--config", str(cfg_path), *args[1:]],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
    for name in ("heterogeneous_tax_improves_welfare", "burn_identity", "equilibrium_certificate",
                 "oracle_first_best_agreement"):
        assert f"PASS  {name} [" in proc.stdout
    for name in ("low_state_unshocked_demand_rises", "low_state_shocked_demand_stable",
                 "congested_utility_sum_monotone"):
        assert f"SKIP  {name}\n" in proc.stdout


def test_verify_without_golden_skips_regression(tmp_path, capsys):
    cfg_path = write_config(tmp_path, two_type_config())
    code = cli.main(["verify", "--config", cfg_path])
    assert code == 0
    assert "SKIP  golden_regression" in capsys.readouterr().out


def test_missing_config_exits_3(tmp_path, capsys):
    code = cli.main(["verify", "--config", str(tmp_path / "absent.json")])
    assert code == 3
    assert "cannot read config file" in capsys.readouterr().err


def test_malformed_config_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["scenario", "--config", str(bad), "--regime", "friedman",
                     "--out", str(tmp_path)])
    assert code == 3
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_scenario_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert cli.main(
            ["scenario", "--config", COMMON, "--regime", "common",
             "--theta", "0.07", "--out", str(out)]
        ) == 0
    for name in ("equilibrium.json", "welfare.json", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sweep_output_is_jobs_invariant(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "parallel"
    for out, jobs in ((a, "1"), (b, "3")):
        out.mkdir()
        assert cli.main(
            ["sweep", "--config", IID, "--regime", "iid", "--theta-max", "0.08",
             "--points", "5", "--jobs", jobs, "--out", str(out)]
        ) == 0
    assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_log_environment_variable(tmp_path):
    # INFO adds one stderr line per solve and changes no artifact; fresh
    # processes, since basicConfig does nothing once pytest installs handlers
    args = ["scenario", "--config", DET, "--regime", "friedman"]
    runs = {}
    for level in ("INFO", "WARNING"):
        out = tmp_path / level
        proc = subprocess.run(
            [sys.executable, "-m", "tokenomics.cli", *args, "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "TOKENOMICS_LOG": level},
        )
        assert proc.returncode == 0
        runs[level] = proc.stderr, {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs["INFO"][0].splitlines() == [
        "INFO tokenomics.equilibrium: solved friedman theta=0.0 E[rT]=0.05 "
        "congested=1:False congestion_broken=False"
    ]
    assert runs["WARNING"][0] == ""
    assert runs["INFO"][1] == runs["WARNING"][1]


# ---------------------------------------------------------------------------
# the README's examples
# ---------------------------------------------------------------------------


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    # (arguments, files it writes) for each `tokenomics` line of the README's
    # bash blocks; the files are those named by the comment heading its group
    # of lines and by its own trailing comment
    examples, heading = [], []
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            files = re.findall(r"\w+\.(?:json|csv|txt)", comment)
            if not command.strip():
                heading = files
            elif command.startswith("tokenomics "):
                examples.append((shlex.split(command)[1:], heading + files))
    return examples


def test_readme_examples_run_and_write_the_files_they_name(tmp_path):
    examples = _readme_examples()
    assert {args[0] for args, _ in examples} == {"scenario", "sweep", "path", "verify"}
    assert {f for _, files in examples for f in files} == {
        "equilibrium.json", "welfare.json", "summary.txt", "sweep.csv", "sweep.json",
        "path.csv", "verify.json",
    }
    for i, (args, files) in enumerate(examples):
        # each example writes to its own directory in place of out/
        out = tmp_path / str(i)
        args = [str(out) if a == "out/" else str(CONFIG_DIR.parent / a) if a.startswith("configs/")
                else a for a in args]
        assert cli.main(args) == 0, args
        for name in files:
            assert (out / name).is_file(), (args, name)
