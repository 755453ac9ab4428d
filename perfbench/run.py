"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  Earlier lines report provenance and each operation.

This process never imports fmtt.  It computes the workload's oracle, times
set-up in fresh interpreters, runs the workload in one more (worker.py) and
checks every operation against the oracle.  --size smoke runs tiny sizes
through the same code for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from spec import ORACLE_SEED, SIZES, STDERR_INFLATION, WORKLOADS, Z_MAX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set for every interpreter this script starts, before it imports numpy.
# fmtt's own FMTT_THREADS cap cannot serve: fmtt.cli applies it only after
# numpy is imported, when the BLAS thread pools already exist.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("FMTT_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker_cmd(args, work_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--size", args.size, "--work-dir", str(work_dir), *extra]


def time_setup(args, work_dir: Path, deadline: float) -> list[float]:
    """Seconds from starting an interpreter to its "ready" line, per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(_worker_cmd(args, work_dir, "--setup-only"), cwd=ROOT,
                              env=_child_env(), stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
    return times


def run_worker(args, work_dir: Path, deadline: float) -> dict:
    cmd = _worker_cmd(args, work_dir, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace))
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(workload: str, size: dict, op: dict, oracle: oracles.Oracle) -> str | None:
    """Why the operation fails its checks, or None when it passes."""
    if "error" in op:
        return op["error"].strip().splitlines()[-1]
    if not op["finite"]:
        return "non-finite positions, weights or summary values"
    stderr = op["stderr"]
    if workload == "exact-small":
        # The estimate is a weighted mean of a 0/1 indicator, whose delta-method
        # stderr is 0 when every particle lands in one mode; use the binomial
        # stderr at the oracle's mass instead.
        stderr = math.sqrt(oracle.value * (1.0 - oracle.value) / op["ess"])
    allowed = Z_MAX * math.hypot(STDERR_INFLATION * stderr, oracle.stderr)
    if not abs(op["estimate"] - oracle.value) <= allowed:
        return (f"estimate {op['estimate']:.5f} vs oracle {oracle.value:.5f}"
                f" +- {allowed:.5f}")
    if workload == "refine-cli":
        if not abs(op["log_z"] - oracle.log_z) <= size["log_z_tol"]:
            return f"log_z {op['log_z']:.5f} vs {oracle.log_z:.5f}"
        if not op["schedule_ok"]:
            return "refined schedule is not K+1 increasing knots from 0 to 1"
    return None


def provenance() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.splitlines()
    except OSError:
        git = []
    # A checkout that is not itself a git repository may sit inside one.
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
            "thread_env": THREAD_ENV, "platform": platform.platform()}


def end_to_end(report: dict, setup_times: list[float]) -> dict:
    ops = report["ops"]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(op["seconds"] for op in ops),
        "particle_steps_per_s": statistics.median(
            op.get("particle_steps", 0) / op["seconds"] for op in ops),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "fmtt" / "__init__.py").is_file():
        print(f"error: no fmtt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    size = SIZES[args.workload][args.size]
    oracle = oracles.for_workload(args.workload, ORACLE_SEED)
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = [] if args.trace else time_setup(args, work_dir, deadline)
        report = run_worker(args, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not report["versions"]["fmtt_file"].startswith(str(ROOT / "src")):
        raise RuntimeError(f"measured an fmtt outside this checkout: {report['versions']}")

    print(json.dumps({"provenance": {**provenance(), **report.pop("versions"),
                                     "worker_thread_env": report.pop("threads")},
                      "oracle": vars(oracle)}))
    if setup_times:
        print(json.dumps({"setup_s": setup_times}))
    failed = 0
    for op in report["ops"]:
        why = gate(args.workload, size, op, oracle)
        failed += why is not None
        if "error" in op:
            sys.stderr.write(op.pop("error"))
        print(json.dumps({"op": op, "failure": why}))
    checks = report.get("checks", {})
    if checks:
        print(json.dumps({"checks": checks}))
        # The repeated operation 0 is the one a failed check condemns.
        failed += not all(checks.values())
    correct = failed == 0

    if args.trace:
        names, values = bench["per_layer"], report["layers"]
    else:
        names, values = bench["end_to_end"], end_to_end(report, setup_times)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": correct, "attempted": len(report["ops"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
