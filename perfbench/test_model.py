"""Tests of the benchmark's independent checker and input generator.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The checker must accept the package's solutions on the shipped configs,
reject hand-perturbed ones, and flag each known fault the workloads keep.
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import model  # noqa: E402
import tokenomics as tk  # noqa: E402

inputs.CONFIG_DIR = HERE.parent / "configs"

SHIPPED_CASES = [
    ("deterministic", "friedman", 0.0),
    ("deterministic", "deterministic", 0.0),
    ("deterministic", "deterministic", 0.03),
    ("iid", "iid", 0.0),
    ("iid", "iid", 0.05),
    ("common", "common", 0.0),
    ("common", "common", 0.05),
    ("heterogeneous", "heterogeneous", 0.0),
    ("heterogeneous", "heterogeneous", 0.05),
]


def solve(doc: dict, regime: str, theta: float) -> tuple[dict, dict]:
    cfg = tk.config_from_dict(doc)
    eq = tk.solve_regime(cfg, regime, theta)
    return eq.as_dict(), tk.evaluate(cfg, eq).as_dict()


def codes(violations) -> set[str]:
    return {v.code for v in violations}


class ShippedSolutions(unittest.TestCase):
    def test_accepts_every_shipped_solution(self):
        for name, regime, theta in SHIPPED_CASES:
            with self.subTest(config=name, regime=regime, theta=theta):
                doc = inputs.shipped(name)
                eq, report = solve(doc, regime, theta)
                self.assertEqual(model.check_equilibrium(doc, regime, theta, eq, report), [])

    def test_rejects_load_above_capacity(self):
        doc = inputs.shipped("deterministic")
        eq, report = solve(doc, "deterministic", 0.03)
        bad = copy.deepcopy(eq)
        state = bad["states"]["1"]
        scale = 1.1 / state["aggregate_activity"]
        state["activities"] = {n: a * scale for n, a in state["activities"].items()}
        state["aggregate_activity"] = 1.1
        self.assertIn("over-capacity", codes(model.check_equilibrium(doc, "deterministic", 0.03, bad)))

    def test_rejects_holdings_off_best_response(self):
        for name, regime, theta in SHIPPED_CASES:
            with self.subTest(config=name, regime=regime):
                doc = inputs.shipped(name)
                eq, _ = solve(doc, regime, theta)
                bad = copy.deepcopy(eq)
                bad["holdings"] = {n: m * 1.01 for n, m in bad["holdings"].items()}
                bad["aggregate_real_balances"] *= 1.01
                found = codes(model.check_equilibrium(doc, regime, theta, bad))
                self.assertIn("not-best-response", found)

    def test_rejects_return_above_r(self):
        doc = inputs.shipped("common")
        eq, _ = solve(doc, "common", 0.05)
        bad = copy.deepcopy(eq)
        bad["states"]["1"]["token_return"] = 0.2
        bad["expected_return"] = 0.5 * 0.2
        self.assertIn("return-above-r", codes(model.check_equilibrium(doc, "common", 0.05, bad)))

    def test_rejects_welfare_report_off_the_allocation(self):
        doc = inputs.shipped("iid")
        eq, report = solve(doc, "iid", 0.05)
        report = dict(report, first_best_gap=report["first_best_gap"] + 1e-6)
        self.assertIn("gap-mismatch", codes(model.check_equilibrium(doc, "iid", 0.05, eq, report)))


class KnownFaults(unittest.TestCase):
    def test_iid_growth_wedge(self):
        doc = inputs.shipped("iid")
        doc["gamma"] = 0.02
        eq, report = solve(doc, "iid", 0.0)
        bad = model.check_equilibrium(doc, "iid", 0.0, eq, report)
        self.assertEqual(codes(bad), {"not-best-response"})
        self.assertAlmostEqual(model.best_response(doc, eq, "users", 0.45), 0.45456, places=5)

    def test_het_zero_tax_solver_error(self):
        with self.assertRaises(tk.SolverError):
            solve(inputs.HET_ZERO_TAX_DOC, "heterogeneous", 0.0)

    def test_het_low_state_over_capacity(self):
        eq, report = solve(inputs.HET_LOW_STATE_DOC, "heterogeneous", 0.0)
        bad = model.check_equilibrium(inputs.HET_LOW_STATE_DOC, "heterogeneous", 0.0, eq, report)
        self.assertIn(("over-capacity", "state 0"), {(v.code, v.where) for v in bad})


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (inputs.het_sweep, inputs.closed_form_scan, inputs.cli_commands):
            with self.subTest(workload=make.__name__):
                self.assertEqual(make(7), make(7))
                self.assertNotEqual(make(7), make(8))

    def test_fault_operations_do_not_depend_on_the_seed(self):
        for make in (inputs.het_sweep, inputs.closed_form_scan):
            faults = [sorted((op.config, op.regime, op.theta, op.fault) for op in make(s)[1] if op.fault)
                      for s in (1, 2)]
            self.assertEqual(faults[0], faults[1])
            self.assertTrue(faults[0])

    def test_seeded_het_configs_are_admissible_and_valid(self):
        docs, _ = inputs.het_sweep(3)
        for key, doc in docs.items():
            if key.startswith("het"):
                self.assertTrue(inputs.het_admissible(doc))
                tk.heterogeneous_roles(tk.config_from_dict(doc))

    def test_closed_form_taxes_inside_the_frontier(self):
        docs, ops = inputs.closed_form_scan(3)
        for op in ops:
            if op.regime != "friedman":
                self.assertLess(op.theta, model.frontier_theta(docs[op.config], op.regime))


class SupplyPath(unittest.TestCase):
    def test_closed_form_matches_the_package(self):
        cases = [("deterministic", "tax_and_burn", 0.03), ("iid", "tax_and_burn", 0.05),
                 ("common", "fixed_supply", 0.0), ("deterministic", "friedman_target", 0.0)]
        for name, rule, theta in cases:
            with self.subTest(config=name, rule=rule):
                doc = inputs.shipped(name)
                doc["gamma"] = 0.01
                kind = tk.SupplyRuleKind(rule)
                rule_obj = tk.SupplyRule.tax_and_burn(theta) if theta else tk.SupplyRule(kind)
                path = tk.supply_path(rule_obj, tk.config_from_dict(doc), 1e6, T=20)
                want = model.supply_path_rows(doc, rule, theta, 1e6, 1.0, 20)
                for got, exp in zip(path.csv_rows()[1:], want[1:]):
                    for g, e in zip(got, exp):
                        self.assertAlmostEqual(g / e, 1.0, places=9)


if __name__ == "__main__":
    unittest.main()
