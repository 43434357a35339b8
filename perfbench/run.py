"""Benchmark of the tokenomics solver: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload het_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (``src/tokenomics`` and ``configs``);
the package is imported from ``src``, never from an installed copy.

``--trace 0`` times whole passes over the workload's operation list for at
least ``--seconds`` seconds, checks every output against the independent
model in ``model.py``, then counts primitive calls in one more, untimed pass,
and prints the end-to-end metrics; operation times are given in units of
the reference kernel of ``speed.py``, timed between operations. ``--trace 1``
runs one untraced pass as a reference, then traced passes, and prints the
per-layer metrics; spans go to ``.perfbench_out/``. The last line of
standard output is always ``{"correct", "attempted", "failed", "metrics"}``;
lines before it give the run's wall-clock figures and name each failed
operation's fault label.

The harness imports only the standard library (numpy comes in through the
package), so the package's own import cost lands in ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter

import inputs
import model
from harness import MIN_OPS, OUT_DIR, SETUP_READY, import_ms, import_package, require_checkout, setup_seconds
from speed import RefClock
from tracing import Tracer, layer_metrics

WORKLOADS = ("het_sweep", "closed_form_scan", "cli_commands")


# ---------------------------------------------------------------------------
# in-process workloads: het_sweep, closed_form_scan
# ---------------------------------------------------------------------------


class SolverWorkload:
    """A fixed list of solve + evaluate operations on generated configs."""

    def __init__(self, name: str, seed: int) -> None:
        self.tk = import_package()
        self.docs, self.ops = getattr(inputs, name)(seed)
        self.cfgs = {key: self.tk.config_from_dict(doc) for key, doc in self.docs.items()}
        self._verdicts: dict = {}
        # warm-up: one zero-tax operation per regime, so lazy imports and
        # first-call costs land in set-up, not in the first timed pass
        seen = set()
        for op in self.ops:
            if op.fault is None and op.theta == 0.0 and op.regime not in seen:
                seen.add(op.regime)
                self.run_op(op)

    def run_op(self, op: inputs.Op):
        cfg = self.cfgs[op.config]
        try:
            eq = self.tk.solve_regime(cfg, op.regime, op.theta)
            return eq, self.tk.evaluate(cfg, eq)
        except self.tk.TokenomicsError as exc:
            return exc

    def run_pass(self, on_op=None) -> tuple[list, float]:
        """Outputs and per-op seconds of one pass, and the operations' total time.

        `on_op`, if given, gets each operation's seconds right after it ends.
        """
        clock = time.perf_counter
        results = []
        for op in self.ops:
            t0 = clock()
            out = self.run_op(op)
            dt = clock() - t0
            results.append((op, out, dt))
            if on_op is not None:
                on_op(dt)
        return results, sum(dt for _, _, dt in results)

    def label(self, op: inputs.Op, out) -> str | None:
        """None if the output passes every check, else the name of what failed.

        Passes repeat the same operations, so a verdict is kept per operation
        and output; an output identical to one already checked gets its
        verdict without running the model again.
        """
        if isinstance(out, Exception):
            key = (op, type(out).__name__, str(out))
        else:
            key = (op, json.dumps([out[0].as_dict(), out[1].as_dict()], sort_keys=True))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, out)
        return self._verdicts[key]

    def _check(self, op: inputs.Op, out) -> str | None:
        if isinstance(out, Exception):
            if op.regime == "heterogeneous" and op.theta == 0.0 and isinstance(out, self.tk.SolverError):
                return inputs.HET_ZERO_TAX
            return f"unexpected-error:{type(out).__name__}:{out}"
        eq, report = out
        bad = model.check_equilibrium(self.docs[op.config], op.regime, op.theta, eq.as_dict(), report.as_dict())
        if not bad:
            return None
        codes = {v.code for v in bad}
        if op.regime == "heterogeneous" and any(v.code == "over-capacity" and v.where == "state 0" for v in bad):
            return inputs.HET_LOW_STATE
        if op.regime == "iid" and self.docs[op.config]["gamma"] > 0.0 and codes == {"not-best-response"}:
            return inputs.IID_WEDGE
        return "unexpected:" + "; ".join(str(v) for v in bad)


def run_solver_workload(args) -> dict:
    setup_s = None if args.trace else setup_seconds(args)
    work = SolverWorkload(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        reference, reference_s = work.run_pass()
        tally.add(work, reference)
        tracer = Tracer("trace", OUT_DIR / "children")
        tracer.install()
        traced_s, passes = 0.0, 0
        while passes == 0 or traced_s < args.seconds:
            results, elapsed = work.run_pass()
            traced_s += elapsed
            passes += 1
            tally.add(work, results)
        tracer.uninstall()
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
        n_ops = passes * len(work.ops)
        metrics = layer_metrics(tracer, n_ops)
        metrics["cli.import_ms"] = (import_ms(), "ms")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / passes / reference_s - 1.0), "%")
        return tally.result(metrics)

    timed_s, passes, counted = 0.0, 0, bytearray()
    clock = RefClock()
    while passes * len(work.ops) < MIN_OPS or timed_s < args.seconds:
        results, elapsed = work.run_pass(clock.add)
        timed_s += elapsed
        passes += 1
        counted.extend(tally.add_one(work, op, out) for op, out, _ in results)
    timing = clock.metrics(counted)
    print(clock.wall_summary(counted))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counter = Tracer("count", OUT_DIR / "children")
    counter.install()
    results, _ = work.run_pass()
    counter.uninstall()
    tally.add(work, results)
    metrics = {
        "setup_s": (setup_s, "s"),
        **timing,
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "prim_evals_per_op": (counter.primitive_calls() / len(work.ops), "count"),
    }
    return tally.result(metrics)


class Tally:
    """Attempted and failed operations, by fault label."""

    def __init__(self) -> None:
        self.attempted = 0
        self.labels: Counter = Counter()
        self.unexpected: list[str] = []

    def add_one(self, work, op, out) -> bool:
        self.attempted += 1
        label = work.label(op, out)
        if label is None:
            return True
        self.labels[label] += 1
        if label != op.fault:
            self.unexpected.append(f"{op}: {label}")
        return False

    def add(self, work, results) -> None:
        for op, out, _ in results:
            self.add_one(work, op, out)

    def result(self, metrics: dict) -> dict:
        for label, n in sorted(self.labels.items()):
            print(f"failed {n} x {label}")
        for line in self.unexpected[:20]:
            print(f"unexpected failure: {line}")
        return {
            "correct": not self.unexpected,
            "attempted": self.attempted,
            "failed": sum(self.labels.values()),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up the workload, print a ready line and exit")
    args = parser.parse_args(argv)
    require_checkout()

    if args.workload == "cli_commands":
        import cli_workload

        if args.setup_probe:
            work = cli_workload.CliWorkload(args.seed)
            print(SETUP_READY, flush=True)
            work.remove()
            return 0
        result = cli_workload.run(args)
    else:
        if args.setup_probe:
            SolverWorkload(args.workload, args.seed)
            print(SETUP_READY, flush=True)
            return 0
        result = run_solver_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
