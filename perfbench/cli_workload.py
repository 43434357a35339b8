"""cli_commands workload: each `tokenomics` subcommand as a fresh process, one at a time.

The shipped configs and their golden files are copied into a work directory
under ``.perfbench_out``; every command gets its own output directory. Each
pass runs the same command list (``inputs.cli_commands``) and is checked
after its commands have run:

* exit code 0, and no ``FAIL`` line from ``verify``;
* artifacts byte-identical to the command's first run (a pass is a run's
  100 commands, so the rerun is the in-process count or traced pass), and
  the ``--jobs 2`` iid sweep byte-identical to the ``--jobs 1`` one;
* ``scenario`` output through ``model.check_equilibrium``;
* ``sweep`` rows: status ok, the return law, E[rT] <= r, welfare <= first best;
* ``path.csv`` against the closed-form supply recursion.

The traced run calls ``tokenomics.cli.main`` in-process instead, so that
the tracer sees every call; ``cli.<kind>.ms`` come from an untraced
in-process pass and ``cli.import_ms`` from fresh interpreters.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import model
from harness import MIN_OPS, OUT_DIR, checkout_env, import_ms, import_package, require_checkout, setup_seconds
from speed import RefClock
from tracing import Tracer, layer_metrics

PATH_RTOL = 1e-9


class CliWorkload:
    """The shipped configs in a private work directory, and the command list."""

    def __init__(self, seed: int) -> None:
        require_checkout()
        self.env = checkout_env()
        self.cpus = os.sched_getaffinity(0)
        self.root = (OUT_DIR / f"cli-seed{seed}-pid{os.getpid()}").resolve()
        shutil.rmtree(self.root, ignore_errors=True)
        (self.root / "configs").mkdir(parents=True)
        for name in inputs.SHIPPED:
            for suffix in (".json", ".golden.json"):
                shutil.copyfile(inputs.CONFIG_DIR / f"{name}{suffix}", self.root / "configs" / f"{name}{suffix}")
        self.docs = {name: inputs.shipped(name) for name in inputs.SHIPPED}
        self.commands = inputs.cli_commands(seed)
        # warm-up: one short command pays the first import from a cold cache
        warm = self.spawn(inputs.Command("warm-up", "path", "deterministic",
                                         ("--rule", "fixed_supply", "--M0", "1", "--T", "1")), "warm-up")
        if warm[0] != 0:
            raise SystemExit(f"perfbench: warm-up command exited with {warm[0]}")

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def argv(self, cmd: inputs.Command, out: Path) -> list[str]:
        return [cmd.kind, "--config", str(self.root / "configs" / f"{cmd.config}.json"),
                *cmd.args, "--out", str(out)]

    def out_dir(self, cmd: inputs.Command, label: str) -> Path:
        return self.root / label / cmd.key

    def spawn(self, cmd: inputs.Command, label: str) -> tuple[int, float, float]:
        """Run one command as a fresh process: (exit code, seconds, peak RSS in MB)."""
        out = self.out_dir(cmd, label)
        out.mkdir(parents=True, exist_ok=True)
        with open(out.parent / f"{cmd.key}.stdout", "wb") as so, open(out.parent / f"{cmd.key}.stderr", "wb") as se:
            t0 = time.perf_counter()
            # a --jobs command gets every CPU back, even while the run is pinned to one
            free = (lambda: os.sched_setaffinity(0, self.cpus)) if "--jobs" in cmd.args else None
            proc = subprocess.Popen([sys.executable, "-m", "tokenomics.cli", *self.argv(cmd, out)],
                                    stdout=so, stderr=se, env=self.env, cwd=self.root, preexec_fn=free)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0

    def call(self, cli, cmd: inputs.Command, label: str) -> tuple[int, float]:
        """Run one command in this process through tokenomics.cli.main: (exit code, seconds)."""
        out = self.out_dir(cmd, label)
        out.mkdir(parents=True, exist_ok=True)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argv(cmd, out))
        elapsed = time.perf_counter() - t0
        (out.parent / f"{cmd.key}.stdout").write_text(buf.getvalue())
        return code, elapsed

    # -- checks --------------------------------------------------------------

    def artifacts(self, cmd: inputs.Command, label: str) -> dict[str, bytes]:
        out = self.out_dir(cmd, label)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def problems(self, cmd: inputs.Command, label: str, code: int, reference: dict | None) -> list[str]:
        """Everything wrong with one command's run; empty when it passes."""
        if code != 0:
            return [f"exit code {code}"]
        bad = []
        stdout = (self.out_dir(cmd, label).parent / f"{cmd.key}.stdout").read_text()
        files = self.artifacts(cmd, label)
        if reference is not None and files != reference:
            bad.append("artifacts differ from the reference run")
        doc = self.docs[cmd.config]
        if cmd.kind == "verify":
            fails = [line for line in stdout.splitlines() if line.startswith("FAIL")]
            bad.extend(fails)
            if "verify.json" not in files:
                bad.append("no verify.json")
        elif cmd.kind == "scenario":
            eq = json.loads(files["equilibrium.json"])
            report = json.loads(files["welfare.json"])
            bad.extend(str(v) for v in model.check_equilibrium(doc, cmd.regime, cmd.theta, eq, report))
        elif cmd.kind == "sweep":
            bad.extend(sweep_problems(doc, cmd.regime, files["sweep.csv"].decode()))
        elif cmd.kind == "path":
            bad.extend(path_problems(doc, cmd, files["path.csv"].decode()))
        return bad


def sweep_problems(doc: dict, regime: str, text: str) -> list[str]:
    bad = []
    fb, _ = model.first_best(doc)
    r = float(doc["r"])
    for row in csv.DictReader(io.StringIO(text)):
        theta = float(row["theta"])
        if row["status"] != "ok":
            bad.append(f"theta={theta}: status {row['status']}")
            continue
        if float(row["rT_expected"]) > r + model.RETURN_TOL:
            bad.append(f"theta={theta}: E[rT] {row['rT_expected']} > r")
        if float(row["welfare"]) > fb + model.WELFARE_TOL * max(1.0, abs(fb)):
            bad.append(f"theta={theta}: welfare {row['welfare']} above first best {fb!r}")
        law = model.return_law(doc, regime, theta)
        if law is not None and abs(float(row["rT_high"]) - law) > model.LAW_TOL:
            bad.append(f"theta={theta}: rT {row['rT_high']} off the return law {law!r}")
    return bad


def path_problems(doc: dict, cmd: inputs.Command, text: str) -> list[str]:
    args = dict(zip(cmd.args[::2], cmd.args[1::2]))
    expected = model.supply_path_rows(doc, cmd.rule, cmd.theta, float(args["--M0"]), 1.0, int(args["--T"]))
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    bad = []
    for row, want in zip(rows, expected):
        for cell, w in zip(row, want):
            got = math.nan if cell == "" else float(cell)
            if math.isnan(w) != math.isnan(got) or (not math.isnan(w) and abs(got - w) > PATH_RTOL * abs(w)):
                bad.append(f"t={row[0]}: {cell} != {w!r}")
                break
    return bad[:3]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run(args) -> dict:
    setup_s = None if args.trace else setup_seconds(args)
    work = CliWorkload(args.seed)
    reference: dict[str, dict] = {}
    attempted = 0
    unexpected: list[str] = []

    def check(cmd, label, code):
        nonlocal attempted
        attempted += 1
        ref = reference.get(cmd.key)
        if cmd.key == "sweep-iid-jobs2":
            ref = work.artifacts(next(c for c in work.commands if c.key == "sweep-iid"), label)
        problems = work.problems(cmd, label, code, ref)
        if cmd.key not in reference and code == 0:
            reference[cmd.key] = work.artifacts(cmd, label)
        if problems:
            unexpected.append(f"{cmd.key} ({label}): {'; '.join(problems[:3])}")
            return False
        return True

    try:
        if args.trace:
            metrics = traced_run(args, work, check)
        else:
            metrics = timed_run(args, work, check, setup_s)
    finally:
        work.remove()
    for line in unexpected[:20]:
        print(f"unexpected failure: {line}")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def timed_run(args, work: CliWorkload, check, setup_s: float) -> dict:
    counted, timed_s, peak_mb, passes = bytearray(), 0.0, 0.0, 0
    # The commands and the reference kernel share one CPU, so that the kernel
    # times the CPU the commands ran on (as it does in the in-process workloads).
    os.sched_setaffinity(0, {min(work.cpus)})
    try:
        clock = RefClock()
        while passes * len(work.commands) < MIN_OPS or timed_s < args.seconds:
            label = f"pass{passes}"
            runs = []
            for cmd in work.commands:
                runs.append((cmd, *work.spawn(cmd, label)))
                clock.add(runs[-1][2])
            passes += 1
            for cmd, code, elapsed, rss in runs:
                timed_s += elapsed
                peak_mb = max(peak_mb, rss)
                counted.append(check(cmd, label, code))
            shutil.rmtree(work.root / label)
    finally:
        os.sched_setaffinity(0, work.cpus)
    timing = clock.metrics(counted)
    print(clock.wall_summary(counted))

    import_package()
    import tokenomics.cli as cli

    counter = Tracer("count", OUT_DIR / "children")
    counter.install()
    codes = {}
    for cmd in work.commands:
        codes[cmd.key], _ = work.call(cli, cmd, "count")
        counter.collect_children()
    counter.uninstall()
    for cmd in work.commands:
        check(cmd, "count", codes[cmd.key])
    return {
        "setup_s": (setup_s, "s"),
        **timing,
        "peak_rss_mb": (peak_mb, "MB"),
        "prim_evals_per_op": (counter.primitive_calls() / len(work.commands), "count"),
    }


def traced_run(args, work: CliWorkload, check) -> dict:
    import_package()
    import tokenomics.cli as cli

    codes: dict[str, int] = {}
    by_kind: dict[str, list[float]] = {}
    reference_s = 0.0
    for cmd in work.commands:
        code, elapsed = work.call(cli, cmd, "reference")
        reference_s += elapsed
        by_kind.setdefault(cmd.kind, []).append(elapsed)
        codes[cmd.key] = code
    for cmd in work.commands:
        check(cmd, "reference", codes[cmd.key])

    tracer = Tracer("trace", OUT_DIR / "children")
    tracer.install()
    traced_s, passes = 0.0, 0
    while passes == 0 or traced_s < args.seconds:
        label = f"traced{passes}"
        for cmd in work.commands:
            codes[cmd.key], elapsed = work.call(cli, cmd, label)
            tracer.collect_children()
            traced_s += elapsed
        for cmd in work.commands:
            check(cmd, label, codes[cmd.key])
        passes += 1
    tracer.uninstall()
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    metrics = layer_metrics(tracer, passes * len(work.commands))
    metrics["cli.import_ms"] = (import_ms(), "ms")
    for kind, values in by_kind.items():
        metrics[f"cli.{kind}.ms"] = (1e3 * statistics.mean(values), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / passes / reference_s - 1.0), "%")
    return metrics
