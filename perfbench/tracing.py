"""Counting and span tracing of the package, installed from outside it.

``Tracer`` wraps every public function of each layer module
(``tokenomics.<layer>``) and rebinds each copy that a ``tokenomics`` module
holds, whether as a module attribute or as a name imported with
``from ._roots import bisect``. Nothing inside the package changes.

Two modes:

* ``count``: only the econ_core primitives are wrapped, each with a bare
  call counter. Used after the timed phase of an untraced run to report
  ``prim_evals_per_op``.
* ``trace``: every public function is wrapped. Calls are kept in memory as
  spans (id, parent, name, start, end, self time) and written out when the
  run ends. Two kinds of call are too frequent to keep one span each
  (about 4e5 per heterogeneous solve): the econ_core primitives, and the
  residual callbacks that the root finders evaluate. Those are timed and
  counted, and folded into the enclosing span, whose self time excludes
  them. A direct recursive call (``dumps_canonical``) is folded into its
  caller the same way.

A pool worker forked while the tracer is installed keeps tracing; it dumps
its counts and spans when it exits and ``collect_children`` merges them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import multiprocessing.util
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("econ_core", "_roots", "equilibrium", "first_best", "oracle", "welfare", "policy", "cli")
PRIMITIVES = ("u_eval", "u_prime", "u_prime_inv", "c_eval", "c_prime", "c_prime_inv")
ROOT_FINDERS = ("bisect", "expand_bracket", "damped_fixed_point")


def _public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Wraps the package's public functions; see the module docstring."""

    def __init__(self, mode: str, child_dir: Path) -> None:
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.child_dir = child_dir
        self.calls: dict[str, int] = defaultdict(int)
        self.folded_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._next_id = 0
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []
        self._installed = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tokenomics.{layer}")
            for name, fn in _public_functions(module).items():
                qual = f"{layer}.{name}"
                if layer == "econ_core" and name in PRIMITIVES:
                    wrappers[id(fn)] = self._wrap_primitive(fn, qual)
                elif self.mode == "trace":
                    wrappers[id(fn)] = self._wrap_span(fn, qual)
        for _, module in list(_package_modules()):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)
        # multiprocessing clears its finalizers in a new worker, then runs
        # these hooks; os.register_at_fork would run too early
        multiprocessing.util.register_after_fork(self, Tracer._after_fork_in_child)
        self._installed = True

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()
        self._installed = False

    # -- wrappers -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap_primitive(self, fn, qual: str):
        calls = self.calls
        if self.mode == "count":
            def counted(f, x):
                calls[qual] += 1
                return fn(f, x)

            return counted
        folded = self.folded_s
        stack = self._stack
        clock = time.perf_counter

        def timed(f, x):
            t0 = clock()
            try:
                return fn(f, x)
            finally:
                dt = clock() - t0
                calls[qual] += 1
                folded[qual] += dt
                if stack:
                    stack[-1][1] += dt

        return timed

    def _wrap_span(self, fn, qual: str):
        nid = self._intern(qual)
        stack = self._stack
        clock = time.perf_counter
        calls = self.calls
        root_finder = qual.startswith("_roots.")
        work = _work_meter(fn, qual)

        def traced(*args, **kwargs):
            if stack and stack[-1][2] == nid:
                # direct recursion: fold into the caller's span
                return fn(*args, **kwargs)
            if root_finder and args:
                args = (self._callback(args[0], qual),) + args[1:]
            if work is not None:
                self.work[qual] += work(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][3] if stack else -1
            frame = [clock(), 0.0, nid, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                calls[qual] += 1
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_name.append(nid)
                self.span_start.append(frame[0])
                self.span_end.append(end)
                self.span_self.append(duration - frame[1])

        return traced

    def _callback(self, f, finder: str):
        """Wrap a residual passed to a root finder: counted as that finder's evaluations."""
        layer = getattr(f, "__module__", "") or ""
        key = f"{layer.rpartition('.')[2]}.<callback>"
        evals_key = f"{finder}.evals"
        stack = self._stack
        clock = time.perf_counter
        calls, folded = self.calls, self.folded_s

        def evaluated(x):
            frame = [clock(), 0.0, -1, stack[-1][3] if stack else -1]
            stack.append(frame)
            try:
                return f(x)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                calls[evals_key] += 1
                calls[key] += 1
                folded[key] += duration - frame[1]

        return evaluated

    # -- forked pool workers ------------------------------------------------

    def _after_fork_in_child(self) -> None:
        if not self._installed:
            return
        self.calls.clear()
        self.folded_s.clear()
        self.work.clear()
        for col in self._columns():
            del col[:]
        self._stack.clear()
        multiprocessing.util.Finalize(None, self._dump_child, exitpriority=100)

    def _columns(self):
        return (self.span_id, self.span_parent, self.span_name, self.span_start, self.span_end, self.span_self)

    def _dump_child(self) -> None:
        self.child_dir.mkdir(parents=True, exist_ok=True)
        path = self.child_dir / f"child-{os.getpid()}.json"
        path.write_text(json.dumps(self._snapshot()))

    def _snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "folded_s": dict(self.folded_s),
            "work": dict(self.work),
            "spans": [
                [self.names[n], s, e, own]
                for n, s, e, own in zip(self.span_name, self.span_start, self.span_end, self.span_self)
            ],
        }

    def collect_children(self) -> None:
        """Merge what forked workers dumped; their spans become roots."""
        if not self.child_dir.is_dir():
            return
        for path in sorted(self.child_dir.glob("child-*.json")):
            doc = json.loads(path.read_text())
            path.unlink()
            for k, v in doc["calls"].items():
                self.calls[k] += v
            for k, v in doc["folded_s"].items():
                self.folded_s[k] += v
            for k, v in doc["work"].items():
                self.work[k] += v
            for name, start, end, own in doc["spans"]:
                self.span_id.append(self._next_id)
                self._next_id += 1
                self.span_parent.append(-1)
                self.span_name.append(self._intern(name))
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_self.append(own)

    # -- output -------------------------------------------------------------

    def primitive_calls(self) -> int:
        return sum(self.calls[f"econ_core.{p}"] for p in PRIMITIVES)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for sid, parent, n, s, e, own in zip(*self._columns()):
                fh.write(f"{sid},{parent},{self.names[n]},{s!r},{e!r},{own!r}\n")

    def layer_times(self) -> dict:
        """Per-name inclusive time of outermost calls and self time, from the spans."""
        parent_of = dict(zip(self.span_id, self.span_parent))
        name_of = {sid: self.names[n] for sid, n in zip(self.span_id, self.span_name)}
        self_s: dict[str, float] = defaultdict(float)
        outer_s: dict[str, float] = defaultdict(float)
        for sid, parent, n, s, e, own in zip(*self._columns()):
            name = self.names[n]
            self_s[name] += own
            # outermost: no ancestor with the same name prefix (e.g. solve_regime -> solve_*)
            group = _group(name)
            p = parent
            while p != -1 and _group(name_of.get(p, "")) != group:
                p = parent_of.get(p, -1)
            if p == -1:
                outer_s[group] += e - s
        layer_self: dict[str, float] = defaultdict(float)
        for name, v in self_s.items():
            layer_self[name.partition(".")[0]] += v
        for name, v in self.folded_s.items():
            layer_self[name.partition(".")[0]] += v
        return {"self": dict(self_s), "outer": dict(outer_s), "layer_self": dict(layer_self)}


def _group(name: str) -> str:
    """Span names that count as one entry point: any equilibrium.solve_*, any first_best call."""
    if name.startswith("equilibrium.solve_"):
        return "equilibrium.solve"
    if name.startswith("first_best."):
        return "first_best"
    return name


def _package_modules():
    import sys

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "tokenomics" or name.startswith("tokenomics.")):
            yield name, module


def _work_meter(fn, qual: str):
    """Grid points an oracle call evaluates, read from its arguments."""
    if qual not in ("oracle.grid_best_response", "oracle.grid_first_best"):
        return None
    sig = inspect.signature(fn)

    def meter(args, kwargs) -> float:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if qual == "oracle.grid_best_response":
            return float(a["m_grid"].points)
        cfg, state, grids = a["cfg"], a["state"], a["grids"]
        active = [t for t in cfg.agent_types if t.is_active(state)]
        if grids is None:
            return float(a["points"]) ** len(active)
        return float(math.prod(grids[t.name].points for t in active))

    return meter


def layer_metrics(tracer, n_ops: int) -> dict:
    calls, work = tracer.calls, tracer.work
    times = tracer.layer_times()
    outer, self_s, layer_self = times["outer"], times["self"], times["layer_self"]

    def per_op(x: float) -> float:
        return x / n_ops

    def ms(x: float) -> float:
        return 1e3 * x / n_ops

    m = {}
    for p in ("u_prime_inv", "u_prime", "c_prime", "c_prime_inv"):
        m[f"econ_core.{p}.calls_per_op"] = (per_op(calls[f"econ_core.{p}"]), "count")
    m["econ_core.self_ms_per_op"] = (ms(layer_self.get("econ_core", 0.0)), "ms")
    m["roots.bisect.calls_per_op"] = (per_op(calls["_roots.bisect"]), "count")
    m["roots.bisect.evals_per_op"] = (per_op(calls["_roots.bisect.evals"]), "count")
    m["roots.expand_bracket.evals_per_op"] = (per_op(calls["_roots.expand_bracket.evals"]), "count")
    m["roots.damped_fixed_point.calls_per_op"] = (per_op(calls["_roots.damped_fixed_point"]), "count")
    m["roots.damped_fixed_point.iters_per_op"] = (per_op(calls["_roots.damped_fixed_point.evals"]), "count")
    m["roots.self_ms_per_op"] = (ms(layer_self.get("_roots", 0.0)), "ms")
    m["equilibrium.solve_ms_per_op"] = (ms(outer.get("equilibrium.solve", 0.0)), "ms")
    m["equilibrium.self_ms_per_op"] = (ms(layer_self.get("equilibrium", 0.0)), "ms")
    m["oracle.grid_best_response.ms_per_op"] = (ms(outer.get("oracle.grid_best_response", 0.0)), "ms")
    m["oracle.grid_best_response.points_per_op"] = (per_op(work["oracle.grid_best_response"]), "count")
    m["oracle.grid_first_best.ms_per_op"] = (ms(outer.get("oracle.grid_first_best", 0.0)), "ms")
    m["oracle.grid_first_best.cells_per_op"] = (per_op(work["oracle.grid_first_best"]), "count")
    m["oracle.self_ms_per_op"] = (ms(layer_self.get("oracle", 0.0)), "ms")
    fb_calls = sum(v for k, v in calls.items() if k.startswith("first_best.") and k != "first_best.<callback>")
    m["first_best.calls_per_op"] = (per_op(fb_calls), "count")
    m["first_best.ms_per_op"] = (ms(outer.get("first_best", 0.0)), "ms")
    m["first_best.self_ms_per_op"] = (ms(layer_self.get("first_best", 0.0)), "ms")
    m["welfare.evaluate.ms_per_op"] = (ms(outer.get("welfare.evaluate", 0.0)), "ms")
    m["welfare.evaluate.self_ms_per_op"] = (ms(self_s.get("welfare.evaluate", 0.0)), "ms")
    m["welfare.self_ms_per_op"] = (ms(layer_self.get("welfare", 0.0)), "ms")
    m["welfare.sweep_tax.ms_per_op"] = (ms(outer.get("welfare.sweep_tax", 0.0)), "ms")
    m["welfare.proposition_report.ms_per_op"] = (ms(outer.get("welfare.proposition_report", 0.0)), "ms")
    m["policy.supply_path.ms_per_op"] = (ms(outer.get("policy.supply_path", 0.0)), "ms")
    m["cli.self_ms_per_op"] = (ms(layer_self.get("cli", 0.0)), "ms")
    for kind in ("verify", "scenario", "sweep", "path"):
        m[f"cli.{kind}.ms"] = (0.0, "ms")
    return m
