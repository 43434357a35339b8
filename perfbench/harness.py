"""Helpers shared by the workloads: the checkout, child processes, set-up time."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

MIN_OPS = 100
SETUP_PROBES = 5
IMPORT_PROBES = 3
OUT_DIR = Path(".perfbench_out")
SETUP_READY = "setup-ready"
RUN_PY = Path(__file__).with_name("run.py")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def checkout_env() -> dict:
    """Environment for child processes: the checkout's src first on the path."""
    src = str(Path("src").resolve())
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def require_checkout() -> Path:
    """The checkout's src directory; exits with code 2 outside a checkout."""
    src = Path("src").resolve()
    if not (src / "tokenomics" / "__init__.py").is_file() or not inputs.CONFIG_DIR.is_dir():
        fail(f"run from the root of a tokenomics checkout (no src/tokenomics or configs in {Path.cwd()})")
    return src


def import_package():
    src = require_checkout()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import tokenomics

    if Path(tokenomics.__file__).resolve().parent != src / "tokenomics":
        fail(f"imported tokenomics from {tokenomics.__file__}, not from {src}")
    return tokenomics


def setup_seconds(args) -> float:
    """Median time from starting a fresh interpreter to its set-up-ready line."""
    argv = [sys.executable, str(RUN_PY), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=checkout_env(), text=True)
        try:
            for line in proc.stdout:
                if line.strip() == SETUP_READY:
                    break
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0:
            fail(f"set-up probe {' '.join(argv)} exited with {code}")
    return statistics.median(times)


def import_ms() -> float:
    code = "import time; t = time.perf_counter(); import tokenomics.cli; print(time.perf_counter() - t)"
    values = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=checkout_env(), check=True)
        values.append(float(out.stdout.strip()) * 1e3)
    return statistics.median(values)
