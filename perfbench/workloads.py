"""The three workloads, built and run through fmtt's public API and CLI.

`setup` builds everything a run needs before the first operation; `operate`
runs one operation and returns the statistics its gate checks.  All fmtt
calls go through module attributes (`fmtt.run`, `fmtt.cli.main`), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import fmtt
import fmtt.cli

import oracles as problem
from spec import SIZES

# Flow-map look-ahead tolerances of the exact-small workload: those of fmtt's
# default flow-map reward.
LOOKAHEAD_REL_TOL = 1e-7
LOOKAHEAD_ABS_TOL = 1e-9
# Keeps the tilted-score multiplier eta finite at t = 0.
ETA_OFFSET = 0.05


@dataclass
class Context:
    name: str
    size: dict
    path: object = None
    rt: object = None
    config_file: Path | None = None
    out_dir: Path | None = None


def _two_mode(size: dict) -> Context:
    target = fmtt.GaussianMixture.isotropic([0.5, 0.5], problem.TWO_MODE_MEANS,
                                            problem.TWO_MODE_VAR)
    path = fmtt.MixturePath(fmtt.standard_normal(2), target,
                            fmtt.InterpolantSchedule.linear(eta_offset=ETA_OFFSET))
    reward = fmtt.LogResponsibilityReward(target, 1, problem.TWO_MODE_SCALE)
    flow = fmtt.FlowMapEvaluator(path, rel_tol=LOOKAHEAD_REL_TOL,
                                 abs_tol=LOOKAHEAD_ABS_TOL)
    rt = fmtt.TimeDependentReward(reward, "flowmap_exact", path, flow)
    return Context("", size, path, rt)


def _wide(size: dict) -> Context:
    k = problem.WIDE_COMPONENTS
    target = fmtt.GaussianMixture.isotropic(np.full(k, 1.0 / k), problem.wide_means(),
                                            problem.WIDE_VAR)
    path = fmtt.MixturePath(fmtt.standard_normal(problem.WIDE_DIM), target,
                            fmtt.InterpolantSchedule.linear(eta_offset=ETA_OFFSET))
    reward = fmtt.LogResponsibilityReward(target, 0, problem.WIDE_SCALE)
    return Context("", size, path, fmtt.TimeDependentReward(reward, "naive", path))


def cli_config(size: dict) -> str:
    """YAML for the refine-cli workload; the seed comes from --seed."""
    return yaml.safe_dump({
        "problem": {
            "base": "standard_normal",
            "target": {"weights": [1.0], "means": [[problem.LINE_MEAN]],
                       "covariances": [[[problem.LINE_VAR]]]},
        },
        "schedule": {"kind": "linear"},
        "run": {"n_particles": size["n"], "n_steps": size["steps"],
                "chi": "local_tilt", "weight_scheme": "laplacian",
                "hutchinson": {"probes": size["probes"]},
                "resampling": {"kind": "ess", "threshold": 0.5}},
        "reward": {"kind": "linear", "params": {"coeffs": [problem.LINE_COEFF]},
                   "mode": "naive"},
        "diagnostics": {"enabled": True, "refinement_rounds": size["rounds"],
                        "n_runs": size["runs"]},
    }, sort_keys=False)


def setup(name: str, size_name: str, work_dir: Path) -> Context:
    """Build the problem (or write and parse the CLI config) for one workload."""
    size = SIZES[name][size_name]
    if name == "exact-small":
        ctx = _two_mode(size)
    elif name == "naive-wide":
        ctx = _wide(size)
    elif name == "refine-cli":
        work_dir.mkdir(parents=True, exist_ok=True)
        ctx = Context("", size, config_file=work_dir / "refine.yaml", out_dir=work_dir)
        ctx.config_file.write_text(cli_config(size))
        fmtt.ExperimentConfig.from_file(str(ctx.config_file))
    else:
        raise ValueError(f"unknown workload {name!r}")
    ctx.name = name
    return ctx


def _weighted(h: np.ndarray, logw: np.ndarray) -> dict:
    """Self-normalized mean of h, its delta-method stderr, and the ESS."""
    w = np.exp(logw - logw.max())
    w /= w.sum()
    est = float(w @ h)
    return {"estimate": est, "stderr": float(np.sqrt(np.sum(w**2 * (h - est) ** 2))),
            "ess": float(1.0 / np.sum(w**2))}


def _api_operation(ctx: Context, seed: int) -> dict:
    n, steps = ctx.size["n"], ctx.size["steps"]
    if ctx.name == "naive-wide":
        cfg = fmtt.RunConfig(n_particles=n, n_steps=steps, chi="tilted_score",
                             weight_scheme="ito", seed=seed)
    else:
        cfg = fmtt.RunConfig(n_particles=n, n_steps=steps, chi="default",
                             weight_scheme="simplified", seed=seed)
    res = fmtt.run(cfg, ctx.path, ctx.rt)
    x, logw = res.ensemble.positions, res.ensemble.logweights
    finite = bool(np.all(np.isfinite(x)) and np.all(np.isfinite(logw)))
    # Mode 2 of the two-mode target is the half-plane x_0 > 0 (see oracles).
    h = (x[:, 0] > 0.0).astype(float) if ctx.name == "exact-small" else x[:, 0]
    stats = _weighted(h, logw) if finite else {}
    return {"particle_steps": n * steps, "finite": finite, **stats}


def _cli_operation(ctx: Context, seed: int) -> dict:
    sample_dir, refine_dir = ctx.out_dir / "sample", ctx.out_dir / "refine"
    common = ["--config", str(ctx.config_file), "--seed", str(seed)]
    codes = (fmtt.cli.main(["sample", *common, "--out", str(sample_dir)]),
             fmtt.cli.main(["refine", *common, "--out", str(refine_dir)]))
    if codes != (0, 0):
        return {"error": f"fmtt exit codes {codes}"}
    sample = json.loads((sample_dir / "summary.json").read_text())
    refine = json.loads((refine_dir / "summary.json").read_text())
    knots = yaml.safe_load((refine_dir / "refined_schedule.yaml").read_text())
    knots = np.asarray(knots["schedule_times"], dtype=float)
    d_totals = [sample["diagnostics"]["D_total"]] + [r["D_total"] for r in refine["rounds"]]
    runs = 1 + ctx.size["runs"] * len(refine["rounds"])
    est, se = sample["tilted_mean"][0], sample["tilted_mean_stderr"][0]
    return {
        "particle_steps": runs * ctx.size["n"] * ctx.size["steps"],
        "finite": bool(np.all(np.isfinite([est, se, sample["log_z"], *d_totals]))),
        "estimate": est, "stderr": se, "log_z": sample["log_z"],
        "schedule_ok": bool(knots.shape == (ctx.size["steps"] + 1,) and knots[0] == 0.0
                            and knots[-1] == 1.0 and np.all(np.diff(knots) > 0.0)),
    }


def operate(ctx: Context, seed: int) -> dict:
    """Run one operation: one SMC run, or `fmtt sample` then `fmtt refine`."""
    if ctx.name == "refine-cli":
        return _cli_operation(ctx, seed)
    return _api_operation(ctx, seed)
