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
import json
import logging
import math
import os
import sys
from pathlib import Path

# Only what the parser needs loads with this module; each subcommand imports
# its own work, so a process compiles and runs only the modules it uses.
from . import econ_core as ec
from . import equilibrium as eqm
from .errors import ConfigError, TokenomicsError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3

#: path's --rule choices, policy.SupplyRuleKind's values named so that only path loads policy
SUPPLY_RULES = ("fixed_supply", "friedman_target", "tax_and_burn")


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
    # exactly a list or tuple: a record, a NamedTuple, is refused like any object
    if type(obj) in (list, tuple):
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
    path.write_text(dumps_canonical(obj) + "\n", encoding="utf-8")


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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


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
    from .welfare import evaluate

    cfg = ec.load_config(args.config)
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
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    sys.stdout.write(summary)
    return EXIT_OK


def run_sweep(args) -> int:
    from .welfare import _grid, sweep_tax

    cfg = ec.load_config(args.config)
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
    from .policy import SupplyRule, SupplyRuleKind, supply_path

    cfg = ec.load_config(args.config)
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


def run_verify(args) -> int:
    from .verify import verify_checks

    cfg = ec.load_config(args.config)
    doc = verify_checks(cfg, Path(args.config))

    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    for c in doc["checks"]:
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
        write_json(out_dir / "verify.json", doc)
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
    p.add_argument("--rule", required=True, choices=SUPPLY_RULES)
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
        if args.theta and args.rule != "tax_and_burn":
            return f"--theta is for tax_and_burn only: {args.rule} does not take a tax rate"
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Package errors become exit codes here and
    nowhere else: a ConfigError exits 3, any other TokenomicsError 2."""
    if hasattr(sys.stdout, "reconfigure"):
        # what a command prints is UTF-8, as its artifacts are, in any locale
        sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
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
