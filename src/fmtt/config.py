"""Experiment configuration: strict YAML schema and object construction.

Each key, type and default is stated once: by `RunConfig`'s fields, in the
YAML's form, for the run block and the seed, by `smc.RESAMPLING` for its
resampling kinds and by `DEFAULTS` for the rest.  Unknown keys and values of
another type than their default's are rejected by `smc._resolve`, which
`RunConfig` applies to its own fields, so typos fail fast instead of
silently using defaults.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields

import yaml

from .errors import ConfigError
from .mixtures import GaussianMixture, MixturePath, standard_normal
from .oracles import tilted_mixture
from .rewards import (LinearReward, LogResponsibilityReward, QuadraticReward,
                      TimeDependentReward, ZeroReward)
from .schedule import InterpolantSchedule
from .smc import RunConfig, _check_keys, _kind, _resolve

DEFAULTS = {
    "schedule": {"kind": "linear", "epsilon": "one_minus_t", "eta_offset": 0.0},
    "reward": {"kind": "zero",
               "params": {"zero": {}, "linear": {"coeffs": [1.0]},
                          "quadratic": {"gamma": 1.0},
                          "log_responsibility": {"component": 0, "scale": 1.0}},
               "mode": "flowmap_exact", "k": 4},
    "diagnostics": {"enabled": True, "refinement_rounds": 3, "n_runs": 1},
}


def _plain(value):
    """A RunConfig value with its tuples as lists and its mappings as dicts."""
    if isinstance(value, Mapping):
        return {key: _plain(v) for key, v in value.items()}
    return list(value) if isinstance(value, tuple) else value


def _run_table(run: RunConfig) -> dict:
    """The run block of a RunConfig as the YAML states it."""
    return {f.name: _plain(getattr(run, f.name)) for f in fields(run) if f.name != "seed"}


def _mixture_from_block(block, where: str) -> GaussianMixture:
    if isinstance(block, str):
        if block == "standard_normal":
            return standard_normal(1)
        raise ConfigError(f"{where}: unknown mixture shorthand {block!r}")
    _check_keys(block, {"weights", "means", "covariances", "standard_normal_dim"}, where)
    try:
        if "standard_normal_dim" in block:
            if len(block) != 1:
                raise ConfigError(f"{where}: standard_normal_dim excludes other keys")
            return standard_normal(_resolve(block["standard_normal_dim"], 1,
                                            f"{where}.standard_normal_dim"))
        return GaussianMixture.from_dict(block)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _lookahead_reward(block: dict, path: MixturePath) -> TimeDependentReward:
    """The look-ahead reward on path that a resolved reward block states."""
    kind, params, target = block["kind"], block["params"], path.target
    try:
        if kind == "log_responsibility":
            base = LogResponsibilityReward(target, **params)
        else:
            base = {"zero": ZeroReward, "linear": LinearReward,
                    "quadratic": QuadraticReward}[kind](**params)
        if kind in ("linear", "quadratic"):
            # The closed form refuses coeffs of another dimension and an improper gamma.
            try:
                tilted_mixture(target, base)
            except ValueError as exc:
                key = "coeffs" if kind == "linear" else "gamma"
                raise ConfigError(f"reward.params.{key}: {exc}") from exc
        return TimeDependentReward(base, block["mode"], path, k=block["k"])
    except ValueError as exc:
        raise ConfigError(f"reward: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment description: ``path`` and its
    look-ahead reward ``rt`` are the objects ``run`` was checked against;
    ``schedule``, ``reward`` and ``diagnostics`` are the YAML blocks with
    every key set."""

    path: MixturePath
    rt: TimeDependentReward
    schedule: dict
    run: RunConfig
    reward: dict
    diagnostics: dict

    @classmethod
    def from_yaml(cls, text: str, seed_override: int | None = None) -> "ExperimentConfig":
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        _check_keys(raw, {*DEFAULTS, "problem", "run", "seed"}, "config root")

        problem = raw.get("problem", {})
        _check_keys(problem, {"base", "target"}, "problem")
        base = _mixture_from_block(problem.get("base", "standard_normal"), "problem.base")
        target = _mixture_from_block(problem.get("target", "standard_normal"), "problem.target")
        if base.dim != target.dim:
            raise ConfigError(f"problem.base has dimension {base.dim} and problem.target "
                              f"dimension {target.dim}; they must agree")

        block = raw.get("schedule", {})
        spec = DEFAULTS["schedule"]
        # epsilon names a schedule or is a constant
        if isinstance(block, dict) and type(block.get("epsilon")) in (int, float):
            spec = {**spec, "epsilon": 0.0}
        _kind(block, spec["kind"], [spec["kind"]], "schedule")
        schedule = _resolve(block, spec, "schedule")

        block = raw.get("reward", {})
        spec = DEFAULTS["reward"]
        kind = _kind(block, spec["kind"], spec["params"], "reward")
        reward = _resolve(block, {**spec, "params": spec["params"][kind]}, "reward")

        diagnostics = _resolve(raw.get("diagnostics", {}), DEFAULTS["diagnostics"],
                               "diagnostics")
        if diagnostics["n_runs"] < 1 or diagnostics["refinement_rounds"] < 0:
            raise ConfigError("diagnostics needs n_runs >= 1 and refinement_rounds >= 0")

        seed = raw.get("seed", RunConfig.seed) if seed_override is None else seed_override
        block = raw.get("run", {})
        _check_keys(block, _run_table(RunConfig()), "run")
        run = RunConfig(**block, seed=seed)
        # Fail early on invariants that would otherwise surface mid-run.
        try:
            path = MixturePath(base, target, InterpolantSchedule.linear(
                schedule["epsilon"], schedule["eta_offset"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rt = _lookahead_reward(reward, path)
        run.check(path, rt)
        return cls(path, rt, schedule, run, reward, diagnostics)

    @classmethod
    def from_file(cls, path: str, seed_override: int | None = None) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
        return cls.from_yaml(text, seed_override)

    def resolved_yaml(self) -> str:
        """Fully resolved snapshot written next to run outputs; parsing it
        gives back the same snapshot."""
        table = {"seed": self.run.seed,
                 "problem": {"base": self.path.base.to_dict(),
                             "target": self.path.target.to_dict()},
                 "schedule": self.schedule, "run": _run_table(self.run),
                 "reward": self.reward, "diagnostics": self.diagnostics}
        return yaml.safe_dump(table, sort_keys=False)
