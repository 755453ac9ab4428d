"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import gate
from oracles import Oracle, for_workload, line_tilt, two_mode_mass
from spec import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)
    return proc


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    return {k: v["value"] for k, v in out["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    metrics = result(workload, 1)
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    size = SIZES[workload]["smoke"]
    steps = size["steps"]
    # `fmtt sample` makes one SMC run and `fmtt refine` `runs` per round.
    smc_runs = 1 + size["rounds"] * size["runs"] if workload == "refine-cli" else 1
    assert metrics["smc.steps"] == smc_runs * steps
    if workload == "exact-small":
        assert metrics["flowmap.jacobian_solves"] == steps
        assert metrics["flowmap.map_solves"] == steps
        assert metrics["flowmap.memo_hit_ratio"] == pytest.approx(1 / 3)
        assert metrics["rewards.lookahead_per_step"] == 3
        assert metrics["flowmap.rhs_evals"] > 0
    else:
        assert all(v == 0 for k, v in metrics.items() if k.startswith("flowmap."))
    if workload == "refine-cli":
        assert metrics["rewards.hutchinson_grad_calls"] == 2 * size["probes"] * steps * smc_runs
        assert metrics["config.parse_s"] > 0 and metrics["cli.self_s"] > 0
        assert metrics["diagnostics.trace_s"] > 0
    else:
        assert metrics["rewards.hutchinson_grad_calls"] == 0
        assert metrics["cli.self_s"] == 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("exact-small", 0, tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracles():
    assert two_mode_mass().value == pytest.approx(0.9469, abs=2e-4)
    wide = for_workload("naive-wide", 12345)
    assert wide.value == pytest.approx(2.912, abs=5 * wide.stderr + 1e-3)
    assert line_tilt() == Oracle(3.02, 0.0, 1.505)


def test_gate_rejects_wrong_and_broken_operations():
    oracle = two_mode_mass()
    size = SIZES["exact-small"]["full"]
    good = {"finite": True, "estimate": 0.93, "stderr": 0.02, "ess": 120.0}
    assert gate("exact-small", size, good, oracle) is None
    # An untilted sampler puts half the mass in each mode.
    assert gate("exact-small", size, {**good, "estimate": 0.5}, oracle)
    assert gate("exact-small", size, {**good, "finite": False}, oracle)
    assert gate("exact-small", size, {"error": "Traceback\nValueError: x"}, oracle)
    cli = {"finite": True, "estimate": 3.02, "stderr": 0.012, "log_z": 1.5,
           "schedule_ok": True}
    size = SIZES["refine-cli"]["full"]
    assert gate("refine-cli", size, cli, line_tilt()) is None
    assert gate("refine-cli", size, {**cli, "log_z": 1.7}, line_tilt())
    assert gate("refine-cli", size, {**cli, "schedule_ok": False}, line_tilt())
    assert gate("refine-cli", size, {**cli, "estimate": math.nan}, line_tilt())
