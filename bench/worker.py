"""One workload process: set up, say so, then run whole timed passes.

Started by ``bench/run.py``, which times set-up from outside: it spawns this
script and stops its clock when the ``{"ready": true}`` line arrives.  With
``--setup-only`` the process exits right there.  Otherwise it runs whole
passes over the op list, one op at a time, and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: Environment of every process the benchmark starts.  One BLAS thread: with
#: the default two, the dense oracle burnt about twice the CPU for no gain in
#: wall time and its wall time spread more.  A fixed hash seed fixes the
#: iteration order of the sets of patterns and labels inside mbqc.
ENV_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: A run holds at least this many timed ops, so that ten lie beyond its p90.
MIN_OPS = 100


def _cpu_s() -> float:
    """CPU seconds of this process and of its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def measure(wl, seconds: float, tracer) -> dict:
    """Whole passes over ``wl.ops`` until ``seconds`` and MIN_OPS are reached.

    The pass count is rounded to the nearest whole number of passes that
    fills ``seconds``.  Only ``wl.run`` is timed; the checks run between ops.
    """
    lat: list[float] = []
    cpu = 0.0
    failed = passes = 0
    start = time.perf_counter()
    while True:
        for op in wl.ops:
            c0 = _cpu_s()
            t0 = time.perf_counter()
            with tracer.op():
                result = wl.run(op)
            t1 = time.perf_counter()
            cpu += _cpu_s() - c0
            lat.append(t1 - t0)
            failed += not wl.verify(op, result)
        passes += 1
        elapsed = time.perf_counter() - start
        if len(lat) >= MIN_OPS and elapsed >= seconds - 0.5 * elapsed / passes:
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "attempted": len(lat),
        "failed": failed,
        "passes": passes,
        "metrics": {
            "ops_per_s": len(lat) / sum(lat),
            "ops_per_cpu_s": len(lat) / cpu,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        },
    }


def per_layer(tracer, passes: int) -> dict:
    """Per-layer metrics from the spans; 0 for a layer the workload never calls."""
    total, calls = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in (
        "flows.find_extended_pauli_flow",
        "flows.find_pauli_flow",
        "flows.check",
        "flows.find_inducing_certificate",
        "simulate.is_robustly_deterministic",
        "simulate.semantics",
        "rewrite.normalize_pauli_first",
        "documents.parse",
    ):
        out[f"{name}.s"] = total.get(name, 0.0) / passes
    out["flows.searches"] = counts["flows.searches"] / passes
    out["flows.found"] = counts["flows.found"] / passes
    out["flows.found_ratio"] = (
        counts["flows.found"] / counts["flows.searches"] if counts["flows.searches"] else 0.0
    )
    peak = tracer.alloc_peak.get("simulate.is_robustly_deterministic", 0)
    out["simulate.is_robustly_deterministic.alloc_peak_mb"] = peak / 2**20
    out["simulate.steps"] = counts["simulate.steps"] / passes
    out["rewrite.pushes"] = counts["rewrite.pushes"] / passes
    out["corpus.generate_s"] = total.get("corpus.generate", 0.0)
    for name in ("interpreter", "import", "check-flow", "find-flow", "check-determinism",
                 "push-pauli", "semantics", "induce", "corpus-verify"):
        key = f"cli.{name}"
        out[f"{key}_ms" if name in ("interpreter", "import") else f"{key}.ms"] = (
            total[key] / calls[key] * 1e3 if calls.get(key) else 0.0
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.environ.update(ENV_PINS)  # before numpy loads OpenBLAS
    os.environ.pop("MBQC_MAX_QUBITS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    from mbqc.simulate import is_robustly_deterministic

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer, workdir)
    try:
        wl.setup()
        print(json.dumps({"ready": True}), flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, args.seconds, tracer)
        wl.finish()
        if args.trace:
            for pat in wl.patterns():
                tracer.alloc("simulate.is_robustly_deterministic", is_robustly_deterministic, pat)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["correct"] = not wl.errors
    for err in wl.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path)
        print(
            f"trace: {trace_path}; traced ops_per_s {result['metrics']['ops_per_s']:.6g}",
            file=sys.stderr,
        )
        result["metrics"] = per_layer(tracer, result["passes"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
