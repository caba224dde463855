"""Benchmark of the mbqc workbench: flow search, the determinism oracle, the CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload flow-search --seed 1 --seconds 25 --trace 0

Workloads: flow-search, determinism-wide, determinism-corpus, cli (see
bench/README.md).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exits 2 without a result when the checkout has no mbqc
sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import ENV_PINS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flow-search", "determinism-wide", "determinism-corpus", "cli")

#: Set-ups per untraced run; setup_s is their median.  The last one is the
#: measuring process itself.
SETUPS = 7
#: A run must end within this many seconds.
DEADLINE_S = 175


def spawn(cmd: list[str], env: dict, timeout: float) -> tuple[float, str]:
    """Run a worker; return (seconds until its ready line, the rest of stdout).

    A watchdog kills the worker after ``timeout`` seconds.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or json.loads(ready or "{}").get("ready") is not True:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited with {code}")
    return ready_s, rest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mbqc" / "__init__.py").is_file():
        print(f"error: no mbqc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ, **ENV_PINS, PYTHONPATH=str(ROOT / "src"))
    env.pop("MBQC_MAX_QUBITS", None)
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(spawn(cmd + ["--setup-only"], env, 60)[0])
        ready_s, out = spawn(cmd, env, DEADLINE_S - (time.perf_counter() - start))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready_s)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
