"""`run_many`: a batch of seeds gives each seed's run bitwise, whatever the
look-ahead, weights, chi, resampling and BLAS thread count."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fmtt import (ConfigError, FlowMapEvaluator, GaussianMixture, InterpolantSchedule,
                  LogResponsibilityReward, MixturePath, RunConfig, TimeDependentReward,
                  run, run_many, standard_normal)
from fmtt.rewards import MODES
from fmtt.schedule import CHI_CHOICES
from fmtt.tilt import WEIGHT_SCHEMES

SEEDS = (7, 11, 2**63 + 5)
FIELDS = ("ess_history", "log_z_history", "mean_reward_history", "log_moments",
          "log_g_finite", "resample_steps", "resample_log_means")
# Every look-ahead mode x weight scheme x chi that a run accepts: simplified
# weights take the exact flow map and chi default only.
GRID = [(mode, scheme, chi) for mode in MODES for scheme in WEIGHT_SCHEMES
        for chi in (("default",) if scheme == "simplified" else CHI_CHOICES)
        if scheme != "simplified" or mode == "flowmap_exact"]


@dataclasses.dataclass(frozen=True)
class RowCountingFlow(FlowMapEvaluator):
    """Records the row count of every flow-map solve."""

    rows: list = dataclasses.field(default_factory=list)

    def flow_map(self, s, t, x):
        self.rows.append(np.atleast_2d(x).shape[0])
        return super().flow_map(s, t, x)

    def flow_map_jacobian(self, s, t, x):
        self.rows.append(np.atleast_2d(x).shape[0])
        return super().flow_map_jacobian(s, t, x)


def problem(mode, flow_cls=FlowMapEvaluator):
    """The two-mode target's path and its look-ahead reward in mode."""
    target = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    path = MixturePath(standard_normal(2), target, InterpolantSchedule.linear(eta_offset=0.05))
    # A loose tolerance: the batch must match its runs bitwise at any.
    flow = flow_cls(path, rel_tol=1e-4, abs_tol=1e-6) if mode.startswith("flowmap") else None
    return path, TimeDependentReward(LogResponsibilityReward(target, 1, 0.5), mode, path, flow)


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def batch_and_differences(cfg, path, rt, seeds=SEEDS):
    """The batch of seeds, and the outputs in which it differs from one run
    per seed."""
    batch = run_many(cfg, path, rt, seeds)
    assert len(batch) == len(seeds)
    differ = []
    for seed, res in zip(seeds, batch):
        alone = run(dataclasses.replace(cfg, seed=seed), path, rt)
        outputs = {"positions": (res.ensemble.positions, alone.ensemble.positions),
                   "logweights": (res.ensemble.logweights, alone.ensemble.logweights),
                   **{f: (getattr(res, f), getattr(alone, f)) for f in FIELDS}}
        differ += [f"seed {seed}: {name}" for name, (a, b) in outputs.items() if not same(a, b)]
    return batch, differ


def config(**run_block):
    return RunConfig(**{"n_particles": 16, "n_steps": 8, "expectation_samples": 4,
                        **run_block})


@pytest.mark.parametrize("mode,scheme,chi", GRID, ids=map("-".join, GRID))
def test_batch_is_bitwise_each_seed_alone(mode, scheme, chi):
    path, rt = problem(mode)
    _, differ = batch_and_differences(config(chi=chi, weight_scheme=scheme), path, rt)
    assert differ == []


@pytest.mark.parametrize("resampling,method", [
    ({"kind": "ess", "threshold": 0.85}, "systematic"),
    ({"kind": "ess", "threshold": 0.85}, "multinomial"),
    ({"kind": "every", "r": 2}, "systematic"),
    ({"kind": "at_steps", "steps": [3, 5]}, "systematic"),
    ({"kind": "never"}, "systematic"),
], ids=["ess", "ess-multinomial", "every", "at_steps", "never"])
def test_batch_is_bitwise_under_each_resampling_kind(resampling, method):
    path, rt = problem("naive")
    batch, differ = batch_and_differences(
        config(chi="tilted_score", weight_scheme="ito", resampling=resampling,
               resample_method=method), path, rt)
    assert differ == []
    if resampling["kind"] == "ess":
        # Each run keeps its own trigger: the seeds resample at other steps.
        assert len({tuple(res.resample_steps) for res in batch}) > 1


@pytest.mark.parametrize("mode", ["naive", "denoiser", "flowmap_ksteps"])
def test_searching_batch_is_bitwise_each_seed_alone(mode):
    path, rt = problem(mode)
    batch, differ = batch_and_differences(
        config(clones=2, mode="searching", chi="tilted_score", weight_scheme="ito",
               resampling={"kind": "every", "r": 2}), path, rt)
    assert differ == []
    assert all(res.resample_steps == [2, 4, 6] for res in batch)


def test_wide_batch_is_bitwise_each_seed_alone():
    # d = 8 with 16 pairs and 3 x 128 rows: products large enough for BLAS
    # to split them over threads where it has several.
    means = np.random.default_rng(3).normal(scale=1.5, size=(16, 8))
    target = GaussianMixture.isotropic(np.full(16, 1.0 / 16), means, 0.25)
    path = MixturePath(standard_normal(8), target, InterpolantSchedule.linear(eta_offset=0.05))
    rt = TimeDependentReward(LogResponsibilityReward(target, 0, 0.1), "naive", path)
    cfg = config(n_particles=128, n_steps=4, chi="tilted_score", weight_scheme="ito")
    _, differ = batch_and_differences(cfg, path, rt)
    assert differ == []


def test_flowmap_exact_batch_solves_one_run_at_a_time():
    # scipy's RK45 sets one step size for its whole batch, so stacked runs
    # would share it: every solve takes one run's n rows.
    path, rt = problem("flowmap_exact", RowCountingFlow)
    cfg = config(chi="tilted_score", weight_scheme="ito")
    _, differ = batch_and_differences(cfg, path, rt)
    assert differ == []
    assert rt.flow.rows and set(rt.flow.rows) == {cfg.n_particles}


def test_run_is_the_batch_of_its_own_seed():
    path, rt = problem("denoiser")
    cfg = config(chi="local_tilt", weight_scheme="laplacian", seed=2**63 + 5)
    _, differ = batch_and_differences(cfg, path, rt, [cfg.seed])
    assert differ == []


def test_empty_seed_list_is_refused():
    path, rt = problem("naive")
    with pytest.raises(ValueError, match="at least one seed"):
        run_many(config(weight_scheme="ito"), path, rt, [])


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3"])
def test_bad_seed_is_refused_as_run_config_refuses_it(seed):
    path, rt = problem("naive")
    with pytest.raises(ConfigError) as want:
        RunConfig(seed=seed)
    with pytest.raises(ConfigError) as got:
        run_many(config(weight_scheme="ito"), path, rt, [3, seed])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("threads", ["1", "default"])
def test_batches_are_bitwise_under_each_blas_thread_count(threads):
    # BLAS pools are sized when numpy is imported, so each count runs the
    # bitwise tests above in a fresh interpreter.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "FMTT_THREADS")}
    if threads != "default":
        env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in [src, env.get("PYTHONPATH")] if p)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          __file__, "-k", "bitwise and not thread_count and not flowmap_exact"],
                         env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-3000:]
