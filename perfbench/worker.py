"""Workload process: one fresh interpreter per benchmark run.

run.py starts it with the BLAS thread variables already set and `src` on
PYTHONPATH.  It prints "ready" once set up; with --setup-only it then
exits, which is how run.py times set-up.  Otherwise it runs one untimed
smoke-size operation to warm up, then runs operations in a closed loop
(one client, the next operation after the previous one ends) until
--seconds have passed, and prints one JSON line with per-operation
statistics and timings.

With --trace 1 the loop is: operation 0 untraced, operation 0 traced twice
(the determinism check), then further traced operations while time remains.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import fmtt
import tracer as tr
import workloads
from spec import WORKLOADS, op_seed


def peak_rss_mb() -> float:
    """Peak resident set of this process.

    getrusage's ru_maxrss is not used: Linux carries the parent's resident
    set at fork time into the child's figure, so it would report run.py's
    oracle memory.  VmHWM belongs to this process's own address space.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _operate(ctx, seed: int) -> dict:
    start = time.perf_counter()
    try:
        stats = workloads.operate(ctx, seed)
    except Exception:  # a failed operation is counted, not fatal
        stats = {"error": traceback.format_exc(limit=3)}
    return {"seed": seed, "seconds": time.perf_counter() - start, **stats}


def _traced(ctx, seed: int, only=None):
    tracer = tr.Tracer(only)
    uninstall = tr.install(tracer)
    try:
        return _operate(ctx, seed), tracer
    finally:
        uninstall()


def timed_loop(ctx, seed: int, seconds: float) -> dict:
    ops, start = [], time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(_operate(ctx, op_seed(seed, len(ops))))
    return {"ops": ops}


def traced_loop(ctx, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    # Operation 0 runs three times: untraced, with only smc.run wrapped to
    # digest its results, then twice with every wrapper on.
    reference, capture = _traced(ctx, op_seed(seed, 0), only={tr.RUN})
    ops, tracers = [], []
    for index in (0, 0):
        op, tracer = _traced(ctx, op_seed(seed, index))
        ops.append(op)
        tracers.append(tracer)
    while time.perf_counter() - start < seconds:
        op, tracer = _traced(ctx, op_seed(seed, len(ops) - 1))
        ops.append(op)
        tracers.append(tracer)
    checks = {
        "counts_repeat": tracers[0].counts() == tracers[1].counts(),
        "outputs_bitwise": (bool(capture.digests)
                            and capture.digests == tracers[0].digests == tracers[1].digests),
    }
    metrics = tr.layer_metrics(tr.merge(tracers), len(tracers))
    metrics["trace.run_s"] = float(np.mean([op["seconds"] for op in ops]))
    metrics["trace.overhead_s"] = ops[0]["seconds"] - reference["seconds"]
    return {"ops": [reference] + ops, "checks": checks, "layers": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ctx = workloads.setup(args.workload, args.size, Path(args.work_dir))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # One untimed smoke-size operation first, so that lazy imports and
    # first-call costs fall outside every timed operation.
    warm = workloads.setup(args.workload, "smoke", Path(args.work_dir) / "warm-up")
    workloads.operate(warm, op_seed(args.seed, 0))
    loop = traced_loop if args.trace else timed_loop
    report = loop(ctx, args.seed, args.seconds)
    report["peak_rss_mb"] = peak_rss_mb()
    report["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__, "fmtt": fmtt.__version__,
                          "fmtt_file": fmtt.__file__}
    report["threads"] = {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                          "FMTT_THREADS")}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
