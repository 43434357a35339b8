"""Command-line scenario runner.

Subcommands: scenario (solve one equilibrium), sweep (tax grid), path
(supply trajectory), verify (proposition battery + oracle cross-checks +
golden regression). Exit codes: 0 success, 1 failed verification checks,
2 solver/rule failure, 3 configuration or usage errors.

All emitted JSON/CSV is byte-deterministic: keys sorted, floats at 17
significant digits, non-finite values serialized as null (JSON) or empty
cells (CSV).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Callable

from . import econ_core as ec
from . import equilibrium as eqm
from .errors import ConfigError, TokenomicsError
from .first_best import first_best_allocation, planner_economy
from .oracle import first_best_dual_gap
from .policy import SupplyRule, SupplyRuleKind, supply_path
from .welfare import (
    CERT_TOL, WelfareReport, _check, _grid, cert_failures, certify, evaluate, proposition_report,
    sweep_tax,
)

log = logging.getLogger("tokenomics")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3

GOLDEN_TOL = 1e-8

#: largest weak-duality gap of the planner's solution that verify accepts
FIRST_BEST_GAP_TOL = 1e-9


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Fixed 17-significant-digit rendering, stable across platforms."""
    if math.isnan(x) or math.isinf(x):
        return ""
    return format(float(x), ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fixed float formatting; non-finite -> null."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        rendered = format_float(obj)
        return rendered if rendered else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_canonical(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            rendered = dumps_canonical(obj[key], indent + 2)
            items.append(f'{inner}"{key}": {rendered}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: Path, obj) -> None:
    path.write_text(dumps_canonical(obj) + "\n")


def _csv_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return format_float(cell)
    if cell is None:
        return ""
    text = str(cell)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


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
        doc = json.loads(golden_file.read_text())
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
# subcommand bodies
# ---------------------------------------------------------------------------


def _load(config_arg: str) -> ec.EconomyConfig:
    cfg = ec.load_config(config_arg)
    warnings = ec.require_valid(cfg)
    for v in warnings:
        log.warning("%s: %s", v.field, v.message)
    return cfg


def _summary_text(regime: str, theta: float, eq, report) -> str:
    lines = [
        f"regime            {regime}",
        f"theta             {format_float(theta)}",
        f"expected_return   {format_float(eq.expected_return)}",
        f"congestion_broken {'true' if eq.congestion_broken else 'false'}",
        f"welfare           {format_float(report.expected_flow_welfare)}",
        f"first_best_gap    {format_float(report.first_best_gap)}",
        f"foc_residual_max  {format_float(report.foc_residual_max)}",
        f"oracle_delta_max  {format_float(report.oracle_delta_max) or 'unbounded'}",
        "",
        "state  price        tax      token_return  aggregate  congested",
    ]
    for s in sorted(eq.states):
        out = eq.states[s]
        lines.append(
            f"{s:>5}  {format_float(out.price):<11}  {format_float(out.tax):<7}  "
            f"{format_float(out.token_return):<12}  {format_float(out.aggregate_activity):<9}  "
            f"{'true' if out.congested else 'false'}"
        )
    lines.append("")
    lines.append("type_holdings")
    for name in sorted(eq.holdings):
        lines.append(f"  {name:<12} {format_float(eq.holdings[name])}")
    return "\n".join(lines) + "\n"


def run_scenario(args) -> int:
    cfg = _load(args.config)
    eq = eqm.solve_regime(cfg, args.regime, args.theta)
    report = evaluate(cfg, eq)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "equilibrium.json", {
        "requested_regime": args.regime,
        "theta": args.theta,
        **eq.as_dict(),
    })
    write_json(out_dir / "welfare.json", report.as_dict())
    summary = _summary_text(args.regime, args.theta, eq, report)
    (out_dir / "summary.txt").write_text(summary)
    sys.stdout.write(summary)
    return EXIT_OK


def run_sweep(args) -> int:
    cfg = _load(args.config)
    grid = _grid(args.theta_min, args.theta_max, args.points)
    result = sweep_tax(cfg, args.regime, grid)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for th, w, congested, status, eq, report in zip(
        result.grid, result.welfare, result.congestion_flags,
        result.statuses, result.equilibria, result.reports,
    ):
        if eq is not None:
            rt_high = eq.states[max(eq.states)].token_return
            rt_expected = eq.expected_return
            s0 = report.per_state.get(0)
            s1 = report.per_state.get(1)
        else:
            rt_high = rt_expected = s0 = s1 = None
        rows.append([th, w if not math.isnan(w) else None, congested,
                     rt_high, rt_expected, s0, s1, status])
    write_csv(
        out_dir / "sweep.csv",
        ["theta", "welfare", "congested", "rT_high", "rT_expected",
         "surplus_state_0", "surplus_state_1", "status"],
        rows,
    )
    write_json(out_dir / "sweep.json", {"regime": args.regime, **result.as_dict()})
    ok_points = sum(1 for s in result.statuses if not s.startswith("error"))
    print(
        f"swept {len(grid)} points, {ok_points} solved, "
        f"argmax_theta={format_float(result.argmax_theta) or 'none'}"
    )
    return EXIT_OK if ok_points else EXIT_SOLVER


def run_supply_path(args) -> int:
    cfg = _load(args.config)
    kind = SupplyRuleKind(args.rule)
    if kind is SupplyRuleKind.TAX_AND_BURN:
        rule = SupplyRule.tax_and_burn(args.theta)
    else:
        rule = SupplyRule(kind)
    path = supply_path(rule, cfg, args.M0, args.q0, T=args.T)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "path.csv", ["t", "M", "q", "rT", "m"],
              [list(row) for row in path.csv_rows()])
    print(f"wrote {args.T + 1} rows to {out_dir / 'path.csv'}")
    return EXIT_OK


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
    planner_economy(cfg), the market first_best_gap reads, for any number
    of active types: the surplus bound D(x) at the solution's marginal
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


def run_verify(args) -> int:
    cfg = _load(args.config)
    report = proposition_report(cfg)
    checks = list(report["checks"])
    score = _scorer(cfg)
    checks.extend(_oracle_checks(cfg, score))

    golden_file = golden_path_for(Path(args.config))
    ok, detail = check_golden(score, golden_file) if golden_file.exists() else (
        None, f"no golden file at {golden_file.name}")
    checks.append(_check("golden_regression", ok, {}, detail))

    failed = [c for c in checks if c["status"] == "fail"]
    for c in checks:
        tag = {"pass": "PASS", "fail": "FAIL", "not applicable": "SKIP"}[c["status"]]
        measured = ", ".join(
            f"{k}={format_float(v) if isinstance(v, float) else v}"
            for k, v in sorted(c["measured"].items())
        )
        suffix = f" [{measured}]" if measured else ""
        line = f"{tag}  {c['name']}{suffix}"
        if c["status"] == "fail":
            line += f" -- {c['detail']}"
        print(line)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "verify.json", {
            "schema_version": ec.SCHEMA_VERSION,
            "family": report["family"],
            "checks": checks,
            "all_passed": not failed,
        })
    if failed:
        print(f"{len(failed)} check(s) failed: " + ", ".join(c["name"] for c in failed),
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the config exit code."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tokenomics", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="economy config JSON")
        p.add_argument("--out", default=".", help="output directory (default: .)")

    p = sub.add_parser("scenario", help="solve one steady state and score it")
    common(p)
    p.add_argument("--regime", required=True, choices=eqm.REGIMES)
    p.add_argument("--theta", type=float, default=0.0, help="burn surcharge (ignored by friedman)")
    p.set_defaults(func=run_scenario)

    p = sub.add_parser("sweep", help="solve a grid of burn surcharges")
    common(p)
    p.add_argument("--regime", required=True, choices=eqm.REGIMES)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; sweeps run in one process")
    p.set_defaults(func=run_sweep)

    p = sub.add_parser("path", help="simulate a token-supply trajectory")
    common(p)
    p.add_argument("--rule", required=True, choices=[k.value for k in SupplyRuleKind])
    p.add_argument("--theta", type=float, default=0.0, help="burn surcharge for tax_and_burn")
    p.add_argument("--M0", type=float, required=True, help="initial nominal supply")
    p.add_argument("--T", type=int, required=True, help="periods to simulate")
    p.add_argument("--q0", type=float, default=1.0, help="initial token price (default 1)")
    p.set_defaults(func=run_supply_path)

    p = sub.add_parser("verify", help="run proposition, oracle, and golden checks")
    p.add_argument("--config", required=True, help="economy config JSON")
    p.add_argument("--out", default="", help="optional directory for verify.json")
    p.set_defaults(func=run_verify)
    return parser


def _validate_usage(args) -> str | None:
    if args.command == "sweep":
        if args.points < 2:
            return "sweep needs --points >= 2"
        if not math.isfinite(args.theta_max - args.theta_min):
            return "--theta-min and --theta-max must be finite, and so must their difference"
        if args.jobs < 1:
            return "--jobs must be >= 1"
    if args.command == "path":
        if not 0 <= args.theta < math.inf:
            return "--theta must be >= 0 and finite"
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Package errors become exit codes here and
    nowhere else: a ConfigError exits 3, any other TokenomicsError 2."""
    level = os.environ.get("TOKENOMICS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate_usage(args)
    if problem:
        print(f"usage error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TokenomicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
