"""Experiment configuration: strict YAML schema and object construction.

Unknown keys are rejected at every nesting level so configs stay diffable
and typos fail fast instead of silently using defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
from .flowmap import FlowMapEvaluator
from .mixtures import GaussianMixture, MixturePath, standard_normal
from .rewards import (LinearReward, LogResponsibilityReward, QuadraticReward,
                      Reward, TimeDependentReward, ZeroReward)
from .schedule import InterpolantSchedule
from .smc import RunConfig


def _check_keys(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _mixture_from_block(block, where: str) -> GaussianMixture:
    if isinstance(block, str):
        if block == "standard_normal":
            return standard_normal(1)
        raise ConfigError(f"{where}: unknown mixture shorthand {block!r}")
    _check_keys(block, {"weights", "means", "covariances", "standard_normal_dim"}, where)
    if "standard_normal_dim" in block:
        if len(block) != 1:
            raise ConfigError(f"{where}: standard_normal_dim excludes other keys")
        return standard_normal(int(block["standard_normal_dim"]))
    try:
        return GaussianMixture.from_dict(block)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment description."""

    base: GaussianMixture
    target: GaussianMixture
    schedule: InterpolantSchedule
    run: RunConfig
    reward_kind: str
    reward_params: dict
    reward_mode: str
    reward_k: int
    diagnostics_enabled: bool = True
    refinement_rounds: int = 3
    diagnostics_runs: int = 1
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_yaml(cls, text: str, seed_override: int | None = None) -> "ExperimentConfig":
        raw = yaml.safe_load(text)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        _check_keys(raw, {"seed", "problem", "schedule", "run", "reward",
                          "diagnostics"}, "config root")

        seed = raw.get("seed", 0)
        if seed_override is not None:
            seed = seed_override
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

        problem = raw.get("problem", {})
        _check_keys(problem, {"base", "target"}, "problem")
        base = _mixture_from_block(problem.get("base", "standard_normal"), "problem.base")
        target = _mixture_from_block(problem.get("target", "standard_normal"), "problem.target")

        sched_block = raw.get("schedule", {})
        _check_keys(sched_block, {"kind", "epsilon", "eta_offset"}, "schedule")
        if sched_block.get("kind", "linear") != "linear":
            raise ConfigError("only the linear schedule kind is supported")
        try:
            schedule = InterpolantSchedule.linear(
                epsilon=sched_block.get("epsilon", "one_minus_t"),
                eta_offset=float(sched_block.get("eta_offset", 0.0)))
        except ValueError as exc:
            raise ConfigError(f"schedule: {exc}") from exc

        run_block = raw.get("run", {})
        _check_keys(run_block, {"n_particles", "n_steps", "clones", "mode", "chi",
                                "weight_scheme", "resampling", "resample_method",
                                "expectation_samples", "hutchinson",
                                "schedule_times", "paper_literal"}, "run")
        hutch = run_block.get("hutchinson", {})
        _check_keys(hutch, {"probes", "eps", "probe"}, "run.hutchinson")
        resampling = run_block.get("resampling", {"kind": "ess", "threshold": 0.85})
        _check_keys(resampling, {"kind", "threshold", "r", "steps"}, "run.resampling")
        times = run_block.get("schedule_times")
        run = RunConfig(
            n_particles=int(run_block.get("n_particles", 128)),
            n_steps=int(run_block.get("n_steps", 200)),
            clones=int(run_block.get("clones", 1)),
            schedule_times=None if times is None else np.asarray(times, dtype=float),
            mode=run_block.get("mode", "sampling"),
            chi=run_block.get("chi", "default"),
            weight_scheme=run_block.get("weight_scheme", "simplified"),
            resampling=dict(resampling),
            resample_method=run_block.get("resample_method", "systematic"),
            expectation_samples=int(run_block.get("expectation_samples", 16)),
            hutchinson_probes=int(hutch.get("probes", 64)),
            hutchinson_eps=float(hutch.get("eps", 1e-3)),
            hutchinson_probe=hutch.get("probe", "gaussian"),
            paper_literal=bool(run_block.get("paper_literal", False)),
            seed=seed,
        )

        reward_block = raw.get("reward", {"kind": "zero"})
        _check_keys(reward_block, {"kind", "params", "mode", "k"}, "reward")
        kind = reward_block.get("kind", "zero")
        if kind not in ("zero", "linear", "quadratic", "log_responsibility"):
            raise ConfigError(f"unknown reward kind {kind!r}")
        params = reward_block.get("params", {})
        allowed_params = {"zero": set(), "linear": {"coeffs"}, "quadratic": {"gamma"},
                          "log_responsibility": {"component", "scale"}}[kind]
        _check_keys(params, allowed_params, "reward.params")
        mode = reward_block.get("mode", "flowmap_exact")
        k = int(reward_block.get("k", 4))

        diag = raw.get("diagnostics", {})
        _check_keys(diag, {"enabled", "refinement_rounds", "n_runs"}, "diagnostics")

        cfg = cls(base=base, target=target, schedule=schedule, run=run,
                  reward_kind=kind, reward_params=dict(params), reward_mode=mode,
                  reward_k=k, diagnostics_enabled=bool(diag.get("enabled", True)),
                  refinement_rounds=int(diag.get("refinement_rounds", 3)),
                  diagnostics_runs=int(diag.get("n_runs", 1)), raw=raw)
        # Fail early on invariants that would otherwise surface mid-run.
        cfg.run.validate(cfg.build_reward(cfg.build_path()))
        return cfg

    @classmethod
    def from_file(cls, path: str, seed_override: int | None = None) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_yaml(fh.read(), seed_override)

    def build_path(self) -> MixturePath:
        return MixturePath(self.base, self.target, self.schedule)

    def build_base_reward(self) -> Reward:
        if self.reward_kind == "zero":
            return ZeroReward()
        if self.reward_kind == "linear":
            return LinearReward(np.asarray(self.reward_params.get("coeffs", [1.0]),
                                           dtype=float))
        if self.reward_kind == "quadratic":
            return QuadraticReward(float(self.reward_params.get("gamma", 1.0)))
        return LogResponsibilityReward(self.target,
                                       int(self.reward_params.get("component", 0)),
                                       float(self.reward_params.get("scale", 1.0)))

    def build_reward(self, path: MixturePath) -> TimeDependentReward:
        flow = None
        if self.reward_mode.startswith("flowmap"):
            flow = FlowMapEvaluator(path, rel_tol=1e-7, abs_tol=1e-9)
        try:
            return TimeDependentReward(self.build_base_reward(), self.reward_mode,
                                       path, flow, self.reward_k)
        except ValueError as exc:
            raise ConfigError(f"reward: {exc}") from exc

    def resolved_yaml(self) -> str:
        """Fully resolved snapshot written next to run outputs."""
        snap = {
            "seed": self.run.seed,
            "problem": {"base": self.base.to_dict(), "target": self.target.to_dict()},
            "schedule": dict(self.raw.get("schedule", {"kind": "linear"})),
            "run": {
                "n_particles": self.run.n_particles,
                "n_steps": self.run.n_steps,
                "clones": self.run.clones,
                "mode": self.run.mode,
                "chi": self.run.chi,
                "weight_scheme": self.run.weight_scheme,
                "resampling": self.run.resampling,
                "resample_method": self.run.resample_method,
                "expectation_samples": self.run.expectation_samples,
                "hutchinson": {"probes": self.run.hutchinson_probes,
                               "eps": self.run.hutchinson_eps,
                               "probe": self.run.hutchinson_probe},
                "paper_literal": self.run.paper_literal,
                "schedule_times": (None if self.run.schedule_times is None
                                   else [float(t) for t in self.run.schedule_times]),
            },
            "reward": {"kind": self.reward_kind, "params": self.reward_params,
                       "mode": self.reward_mode, "k": self.reward_k},
            "diagnostics": {"enabled": self.diagnostics_enabled,
                            "refinement_rounds": self.refinement_rounds,
                            "n_runs": self.diagnostics_runs},
        }
        return yaml.safe_dump(snap, sort_keys=False)
