"""Operation times in units of a reference kernel timed next to them.

The machine this benchmark runs on is a few cores of a shared host, and its
speed drifts: the same pure-Python loop takes from 1x to 2x as long from one
minute to the next, CPU time moving with wall time. A wall-clock time of an
operation therefore says as much about the host as about the program. So
the benchmark process runs a fixed pure-Python kernel (bisection with
math.exp, math.log and powers, like the solver's inner loops) whenever about
PROBE_EVERY_S of operation time has passed, and each operation's time is
divided by the mean of the kernel times taken just before and just after
it. The quotient, in units of "ref" (one kernel run), moves with the program
and hardly with the host's speed. The two neighbouring kernel runs follow
slowdowns of a second or less, which a median over more distant runs
smoothed away: over eight two-pass stretches of one het_sweep seed, the 90th
percentile spread by 0.07 this way and by 0.15 with the median of five.

The kernel runs in the benchmark process itself, between operations, so it
runs on the CPU the operations ran on; a helper process was tried and ran on
the other vCPU 95% of the time, which tracked the operations' speed about
half as well. The cost is that a package change slowing the whole
interpreter (a background thread, say) would slow the kernel too; such a
change still shows in the wall-clock line each run prints and in setup_s.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array

PROBE_EVERY_S = 0.05
KERNEL_ROUNDS = 100


def kernel() -> float:
    """About 2-3 ms of float work on a 2-vCPU VM; the result is only returned to keep it live."""
    total = 0.0
    for k in range(KERNEL_ROUNDS):
        lo, hi = 1e-6, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if math.exp(-0.5 * math.log(mid)) - 0.3 * mid ** 0.7 - 0.01 * k > 0.0:
                lo = mid
            else:
                hi = mid
        total += lo
    return total


class RefClock:
    """Operation times, the kernel times taken between them, and their quotients."""

    def __init__(self) -> None:
        self.ref_s: list[float] = []
        # per operation: its seconds and the index of the probe that follows it;
        # arrays, so that the benchmark's own memory barely adds to peak_rss_mb
        self.op_s = array("d")
        self.op_probe = array("l")
        self.pending_s = 0.0
        self.probe()

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.ref_s.append(time.perf_counter() - t0)
        self.pending_s = 0.0

    def add(self, seconds: float) -> None:
        """One operation's wall time; probes the kernel once PROBE_EVERY_S have gathered."""
        self.op_s.append(seconds)
        self.op_probe.append(len(self.ref_s))
        self.pending_s += seconds
        if self.pending_s >= PROBE_EVERY_S:
            self.probe()

    def costs(self, counted: bytearray) -> tuple[list[float], float]:
        """Costs in ref of the operations flagged (1) in `counted`, and the total cost of all of them."""
        if self.op_probe and self.op_probe[-1] == len(self.ref_s):
            self.probe()
        kept, total = [], 0.0
        for seconds, j, ok in zip(self.op_s, self.op_probe, counted, strict=True):
            cost = seconds / (0.5 * (self.ref_s[j - 1] + self.ref_s[j]))
            total += cost
            if ok:
                kept.append(cost)
        return kept, total

    def metrics(self, counted: bytearray) -> dict[str, tuple[float, str]]:
        """The end-to-end timing metrics: cost per passing operation, and the median and p90 cost."""
        kept, total = self.costs(counted)
        return {
            "cost_per_op": (total / len(kept), "ref"),
            "op_cost_p50": (statistics.median(kept), "ref"),
            "op_cost_p90": (statistics.quantiles(kept, n=10)[8], "ref"),
        }

    def wall_summary(self, counted: bytearray) -> str:
        """Wall-clock figures of the same operations, for the log (they are not metrics)."""
        times = [s for s, ok in zip(self.op_s, counted) if ok]
        total = sum(self.op_s)
        return (f"wall clock: {len(times) / total:.6g} ops/s, op p50 {1e3 * statistics.median(times):.6g} ms, "
                f"kernel median {1e3 * statistics.median(self.ref_s):.6g} ms over {len(self.ref_s)} probes")

