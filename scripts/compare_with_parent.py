"""Compare the flow maps, SMC runs and CLI outputs of this tree with another revision.

Usage, from the repository root:

    git archive <rev> | tar -x -C /tmp/other
    python scripts/compare_with_parent.py /tmp/other

Each tree's `fmtt` is imported in its own interpreter with one BLAS thread.
Both compute the same outputs:

- the mixture kernel itself, on a 1-D and a 2-D two-mode path and on the
  naive-wide benchmark's d = 8 path with 16 pairs, at t = 0, 0.37 and 1,
  for 64 rows (512 at d = 8) and for their first row alone: every
  `MixturePath.dynamics` field, both Jacobians, `conditional_means`, the
  target's `log_density` and a `LogResponsibilityReward`'s
  `value_and_grad`, so a move in a run's last bits can be traced to its
  source;
- `flow_map`, `flow_map_jacobian`, `k_step_map` and `k_step_map_jacobian`
  (Euler and Heun, k = 1 and 4) on a 2-D two-mode path, for (d,) and (n, d)
  inputs, s < t, s > t and s == t;
- the final positions and log-weights of the exact-small and naive-wide
  benchmark workloads (built by `perfbench/workloads.py` of this tree) at
  seeds 7 and 11;
- a grid of short SMC runs (n = 16, K = 8, 4 expectation samples, seed 7)
  on the 2-D two-mode target: every look-ahead mode x {simplified
  (flowmap_exact only), laplacian, ito, expectation} weights x chi in
  {default, local_tilt, base, tilted_score} (simplified: default only), each
  with its final positions and log-weights, log Z history and log-moments;
- one batch of three seeds (7, 11 and 2^63 + 5) per look-ahead mode on the
  same target (n = 16, K = 8, ito weights, tilted_score chi, ESS
  resampling), made by `fmtt.run_many` where the tree has it and by one
  `fmtt.run` per seed otherwise, with each seed's final positions and
  log-weights, log Z history, log-moments and resampling steps;
- runs whose Laplacian stencil or expectation samples span several stacked
  look-ahead calls (at the bound of 8,192 elements,
  `fmtt.rewards.STACK_ELEMENTS`), chi local_tilt, K = 8, seed 7, each with
  its final positions and log-weights and log Z history: a denoiser
  expectation run on the same target (n = 1024, 10 samples in chunks of 4,
  4 and 2) and a naive laplacian run on the naive-wide benchmark's d = 8
  target (n = 512, one coordinate of the stencil per call);
- the two value-only runs of a step reward r = log 4 * [x_0 > 0] known by
  its values only (a `CustomReward` without `grad_fn`) on the same target
  (n = 16, K = 8, seed 7): epsilon zero with flowmap_exact simplified
  weights, and chi base with naive expectation weights (4 samples), each
  with its final positions and log-weights and log Z history;
- one searching run per look-ahead mode on the same target (n = 16, 2
  clones, K = 8, top-n selection every 2 steps, tilted_score chi, ito
  weights, seed 7), with its final positions and log-weights: the record
  each mode gathers after selection feeds the next step;
- every file that `fmtt sample`, `refine` and `diagnose` write for the
  refine-cli workload's config at smoke size (`perfbench/workloads.py`
  `cli_config`) at seeds 7 and 11, every file that `fmtt search` writes
  for its searching variant (`mode: searching`, 2 clones, selection every 5
  steps), every file that `fmtt diagnose --paper-literal` writes for it at
  `n_runs: 2` and every file that `fmtt diagnose` writes for it at
  `n_runs: 3`, at the same seeds.

Every output is reported as bitwise equal, or with its largest absolute
difference and that difference relative to the output's largest magnitude
(arrays), or as differing (files), with the largest absolute and relative
differences of their numbers when the files differ in numbers only.  The
exit code is 1 when an output differs, except `config_resolved.yaml`, which
is only reported: its layout may change while the run it describes does
not.

The public names that one tree has and the other lacks are listed too:
`fmtt`'s exports and the public attributes of the classes it exports.
They are informational and do not set the exit code.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SEEDS = (7, 11)
BATCH_SEEDS = (7, 11, 2**63 + 5)
# Output name: (fmtt command, its extra flags).
CLI_RUNS = {"sample": ("sample", []), "refine": ("refine", []),
            "diagnose": ("diagnose", []), "search": ("search", []),
            "diagnose-paper-literal": ("diagnose", ["--paper-literal"]),
            "diagnose-3-runs": ("diagnose", [])}
KERNEL_TIMES = (0.0, 0.37, 1.0)
GRID_MODES = ("naive", "denoiser", "flowmap_ksteps", "flowmap_exact")
GRID_SCHEMES = ("simplified", "laplacian", "ito", "expectation")
GRID_CHIS = ("default", "local_tilt", "base", "tilted_score")
# (epsilon, look-ahead mode, weight scheme, chi) of the runs that read no
# grad r_t, so that a value-only reward runs in them.
VALUE_ONLY_RUNS = (("zero", "flowmap_exact", "simplified", "default"),
                   ("one_minus_t", "naive", "expectation", "base"))
INFORMATIONAL = "config_resolved.yaml"
NAMES = "public_names"


def public_names(package) -> list[str]:
    """The package's exports (modules excluded) and the public attributes of
    the classes among them, as dotted names."""
    names = []
    for name, obj in vars(package).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        names.append(f"fmtt.{name}")
        if inspect.isclass(obj):
            # A field with a default_factory is no class attribute, so dir()
            # misses it.
            attrs = set(dir(obj))
            if dataclasses.is_dataclass(obj):
                attrs |= {f.name for f in dataclasses.fields(obj)}
            names += [f"fmtt.{name}.{a}" for a in attrs if not a.startswith("_")]
    return sorted(names)


def kernel_outputs(fmtt, name: str, path, reward, x: np.ndarray) -> dict:
    """Every output of the mixture kernel on one path at KERNEL_TIMES, for
    the rows x and for their first row alone."""
    arrays = {}
    for rows, xr in (("rows", x), ("row0", x[:1])):
        for t in KERNEL_TIMES:
            key = f"kernel/{name}/{rows}/t={t}"
            dyn = path.dynamics(t, xr)
            for field in ("velocity", "score", "denoiser", "log_density"):
                arrays[f"{key}/{field}"] = getattr(dyn, field)
            for jacobian in ("velocity", "denoiser"):
                arrays[f"{key}/{jacobian}_jacobian"] = path.dynamics(t, xr, jacobian).jacobian
            arrays[f"{key}/e0"], arrays[f"{key}/e1"] = path.conditional_means(t, xr)
        key = f"kernel/{name}/{rows}"
        arrays[f"{key}/target_log_density"] = path.target.log_density(xr)
        arrays[f"{key}/reward_value"], arrays[f"{key}/reward_grad"] = reward.value_and_grad(xr)
    return arrays


def dump(out: str) -> None:
    """Compute every compared output with the `fmtt` on sys.path; save to out."""
    import fmtt
    import fmtt.cli
    import workloads
    import yaml
    from spec import SIZES

    target = fmtt.GaussianMixture.isotropic([0.3, 0.7], [[-2.0, 0.5], [1.5, -1.0]], 0.4)
    path = fmtt.MixturePath(fmtt.standard_normal(2), target)
    ev = fmtt.FlowMapEvaluator(path, rel_tol=1e-7, abs_tol=1e-9)
    xs = np.random.default_rng(3).normal(size=(5, 2))
    arrays = {NAMES: np.array(public_names(fmtt))}
    for shape, x in (("n,d", xs), ("d", xs[1])):
        for s, t in ((0.2, 1.0), (0.9, 0.1), (0.4, 0.4)):
            key = f"{shape}/{s}->{t}"
            arrays[f"flow_map/{key}"] = ev.flow_map(s, t, x)
            res = ev.flow_map_jacobian(s, t, x)
            arrays[f"flow_map_jacobian/{key}/endpoint"] = res.endpoint
            arrays[f"flow_map_jacobian/{key}/jacobian"] = res.jacobian
            for scheme in ("euler", "heun"):
                for k in (1, 4):
                    kkey = f"{key}/{scheme}/k={k}"
                    arrays[f"k_step_map/{kkey}"] = ev.k_step_map(s, t, x, k, scheme)
                    res = ev.k_step_map_jacobian(s, t, x, k, scheme)
                    arrays[f"k_step_map_jacobian/{kkey}/endpoint"] = res.endpoint
                    arrays[f"k_step_map_jacobian/{kkey}/jacobian"] = res.jacobian

    target = fmtt.GaussianMixture.isotropic([0.3, 0.7], [[-2.0], [1.5]], 0.4)
    arrays.update(kernel_outputs(
        fmtt, "1d", fmtt.MixturePath(fmtt.standard_normal(1), target),
        fmtt.LogResponsibilityReward(target, component=1, scale=0.5),
        np.random.default_rng(4).normal(scale=1.5, size=(64, 1))))

    target = fmtt.GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], 0.25)
    path = fmtt.MixturePath(fmtt.standard_normal(2), target,
                            fmtt.InterpolantSchedule.linear(eta_offset=0.05))
    reward = fmtt.LogResponsibilityReward(target, component=1, scale=0.1)
    arrays.update(kernel_outputs(fmtt, "2d", path, reward,
                                 np.random.default_rng(5).normal(scale=1.5, size=(64, 2))))
    for mode in GRID_MODES:
        rt = fmtt.TimeDependentReward(reward, mode, path)
        for scheme in GRID_SCHEMES:
            if scheme == "simplified" and mode != "flowmap_exact":
                continue
            for chi in ("default",) if scheme == "simplified" else GRID_CHIS:
                cfg = fmtt.RunConfig(n_particles=16, n_steps=8, chi=chi, weight_scheme=scheme,
                                     expectation_samples=4, seed=7)
                res = fmtt.run(cfg, path, rt)
                key = f"grid/{mode}/{scheme}/{chi}"
                arrays[f"{key}/positions"] = res.ensemble.positions
                arrays[f"{key}/logweights"] = res.ensemble.logweights
                arrays[f"{key}/log_z_history"] = res.log_z_history
                arrays[f"{key}/log_moments"] = res.log_moments
        cfg = fmtt.RunConfig(n_particles=16, n_steps=8, chi="tilted_score",
                             weight_scheme="ito", seed=7)
        if hasattr(fmtt, "run_many"):
            batch = fmtt.run_many(cfg, path, rt, BATCH_SEEDS)
        else:
            batch = [fmtt.run(dataclasses.replace(cfg, seed=seed), path, rt)
                     for seed in BATCH_SEEDS]
        for seed, res in zip(BATCH_SEEDS, batch):
            key = f"batch/{mode}/{seed}"
            arrays[f"{key}/positions"] = res.ensemble.positions
            arrays[f"{key}/logweights"] = res.ensemble.logweights
            arrays[f"{key}/log_z_history"] = res.log_z_history
            arrays[f"{key}/log_moments"] = res.log_moments
            arrays[f"{key}/resample_steps"] = np.array(res.resample_steps)
        cfg = fmtt.RunConfig(n_particles=16, n_steps=8, clones=2, mode="searching",
                             chi="tilted_score", weight_scheme="ito",
                             resampling={"kind": "every", "r": 2}, seed=7)
        res = fmtt.run(cfg, path, rt)
        arrays[f"search/{mode}/positions"] = res.ensemble.positions
        arrays[f"search/{mode}/logweights"] = res.ensemble.logweights

    cfg = fmtt.RunConfig(n_particles=1024, n_steps=8, chi="local_tilt",
                         weight_scheme="expectation", expectation_samples=10, seed=7)
    res = fmtt.run(cfg, path, fmtt.TimeDependentReward(reward, "denoiser", path))
    arrays["chunks/denoiser/expectation/positions"] = res.ensemble.positions
    arrays["chunks/denoiser/expectation/logweights"] = res.ensemble.logweights
    arrays["chunks/denoiser/expectation/log_z_history"] = res.log_z_history

    step = fmtt.CustomReward(lambda x: np.log(4.0) * (x[:, 0] > 0))
    for epsilon, mode, scheme, chi in VALUE_ONLY_RUNS:
        value_path = fmtt.MixturePath(path.base, target,
                                      fmtt.InterpolantSchedule.linear(epsilon, eta_offset=0.05))
        cfg = fmtt.RunConfig(n_particles=16, n_steps=8, chi=chi, weight_scheme=scheme,
                             expectation_samples=4, seed=7)
        res = fmtt.run(cfg, value_path, fmtt.TimeDependentReward(step, mode, value_path))
        key = f"value_only/{epsilon}/{mode}/{scheme}/{chi}"
        arrays[f"{key}/positions"] = res.ensemble.positions
        arrays[f"{key}/logweights"] = res.ensemble.logweights
        arrays[f"{key}/log_z_history"] = res.log_z_history

    with tempfile.TemporaryDirectory() as work:
        ctx = workloads.setup("naive-wide", "full", Path(work))
        arrays.update(kernel_outputs(fmtt, "8d", ctx.path, ctx.rt.base,
                                     np.random.default_rng(6).normal(size=(512, 8))))
        cfg = fmtt.RunConfig(n_particles=512, n_steps=8, chi="local_tilt",
                             weight_scheme="laplacian", seed=7)
        res = fmtt.run(cfg, ctx.path, ctx.rt)
        arrays["chunks/wide/laplacian/positions"] = res.ensemble.positions
        arrays["chunks/wide/laplacian/logweights"] = res.ensemble.logweights
        arrays["chunks/wide/laplacian/log_z_history"] = res.log_z_history
        for name, chi, scheme in (("exact-small", "default", "simplified"),
                                  ("naive-wide", "tilted_score", "ito")):
            ctx = workloads.setup(name, "full", Path(work))
            size = SIZES[name]["full"]
            for seed in SEEDS:
                cfg = fmtt.RunConfig(n_particles=size["n"], n_steps=size["steps"],
                                     chi=chi, weight_scheme=scheme, seed=seed)
                res = fmtt.run(cfg, ctx.path, ctx.rt)
                arrays[f"{name}/{seed}/positions"] = res.ensemble.positions
                arrays[f"{name}/{seed}/logweights"] = res.ensemble.logweights

        text = workloads.cli_config(SIZES["refine-cli"]["smoke"])
        searching = yaml.safe_load(text)
        searching["run"].update(mode="searching", clones=2, resampling={"kind": "every", "r": 5})
        configs = {"search": yaml.safe_dump(searching, sort_keys=False)}
        for name, n_runs in (("diagnose-paper-literal", 2), ("diagnose-3-runs", 3)):
            runs = yaml.safe_load(text)
            runs["diagnostics"]["n_runs"] = n_runs
            configs[name] = yaml.safe_dump(runs, sort_keys=False)
        for name in CLI_RUNS:
            (Path(work) / f"{name}.yaml").write_text(configs.get(name, text))
        for seed in SEEDS:
            for name, (command, flags) in CLI_RUNS.items():
                config, out_dir = Path(work) / f"{name}.yaml", Path(work) / f"{name}-{seed}"
                code = fmtt.cli.main([command, "--config", str(config), "--seed", str(seed),
                                      "--out", str(out_dir), *flags])
                if code != 0:
                    raise SystemExit(f"fmtt {command} {' '.join(flags)} exited with {code}")
                for file in sorted(out_dir.iterdir()):
                    arrays[f"cli/{name}/{seed}/{file.name}"] = np.frombuffer(
                        file.read_bytes(), dtype=np.uint8)
    np.savez(out, **arrays)


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def file_number_difference(a: np.ndarray, b: np.ndarray) -> str:
    """The largest difference between the numbers of two text files that
    differ only in them, as a suffix for the report; empty otherwise."""
    texts = [bytes(blob).decode(errors="replace") for blob in (a, b)]
    if NUMBER.sub("#", texts[0]) != NUMBER.sub("#", texts[1]):
        return ""
    x, y = (np.array(NUMBER.findall(text), dtype=float) for text in texts)
    moved = x != y
    if not moved.any():
        return " in the spelling of equal numbers only"
    largest = np.max(np.abs(x - y))
    with np.errstate(divide="ignore"):
        relative = np.max(np.abs(x - y)[moved] / np.abs(y[moved]))
    return f" in their numbers only: max |diff| {largest:.3g} (relative {relative:.3g})"


def compute(tree: Path, out: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FMTT_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(REPO / "perfbench")]))
    subprocess.run([sys.executable, __file__, "--dump", str(out)], env=env, check=True)
    with np.load(out) as data:
        return dict(data)


def main(other: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        here = compute(REPO, Path(tmp) / "here.npz")
        there = compute(Path(other).resolve(), Path(tmp) / "there.npz")
    names_here, names_there = set(here.pop(NAMES)), set(there.pop(NAMES))
    for name in sorted(names_there - names_here):
        print(f"public name only in the other tree  {name}")
    for name in sorted(names_here - names_there):
        print(f"public name only in this tree       {name}")
    if here.keys() != there.keys():
        print("the two trees computed different outputs")
        return 1
    failed = 0
    for key in sorted(here):
        a, b = here[key], there[key]
        if a.shape == b.shape and np.array_equal(a, b):
            print(f"bitwise equal  {key}")
            continue
        if key.startswith("cli/"):
            diff = "the files differ" + file_number_difference(a, b)
        elif a.shape == b.shape:
            largest = np.max(np.abs(a - b))
            with np.errstate(divide="ignore", invalid="ignore"):
                relative = largest / np.max(np.abs(b))
            diff = f"max |diff| {largest:.3g} (relative {relative:.3g})"
        else:
            diff = f"shape {a.shape} vs {b.shape}"
        exact = not key.endswith(INFORMATIONAL)
        failed += exact
        print(f"{'DIFFERS' if exact else 'differs'}        {key}: {diff}")
    print(f"{len(here)} outputs, {failed} that should be bitwise equal differ")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:
        dump(sys.argv[2])
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
