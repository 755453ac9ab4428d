"""Experiment configuration: strict YAML schema and object construction.

Each key, type and default is stated once: by `RunConfig`'s fields for the
run block, by `smc.RESAMPLING` for its resampling kinds and by `DEFAULTS`
for the rest.  Unknown keys and values of another type than their default's
are rejected, so typos fail fast instead of silently using defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import yaml

from .errors import ConfigError
from .mixtures import GaussianMixture, MixturePath, standard_normal
from .rewards import (LinearReward, LogResponsibilityReward, QuadraticReward,
                      Reward, TimeDependentReward, ZeroReward)
from .schedule import InterpolantSchedule
from .smc import RESAMPLING, RunConfig

# Every value must have its default's type (an int passes as a float); a
# type stands for a required value, and a list's elements take the type of
# its first element.
DEFAULTS = {
    "seed": 0,
    "schedule": {"kind": "linear", "epsilon": "one_minus_t", "eta_offset": 0.0},
    "reward": {"kind": "zero",
               "params": {"zero": {}, "linear": {"coeffs": [1.0]},
                          "quadratic": {"gamma": 1.0},
                          "log_responsibility": {"component": 0, "scale": 1.0}},
               "mode": "flowmap_exact", "k": 4},
    "diagnostics": {"enabled": True, "refinement_rounds": 3, "n_runs": 1},
}


def _resolve(value, default, where: str):
    """value, checked to have the type of default; a mapping gets every key
    of its default, and None stands for an optional list of numbers."""
    if isinstance(default, dict):
        _check_keys(value, default, where)
        return {key: _resolve(value.get(key, d), d, f"{where}.{key}")
                for key, d in default.items()}
    if default is None:
        return None if value is None else _resolve(value, [0.0], where)
    if isinstance(value, type):
        raise ConfigError(f"{where} is required")
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_resolve(v, default[0], f"{where}[{i}]") for i, v in enumerate(value)]
    want = default if isinstance(default, type) else type(default)
    if want is float and type(value) is int:
        value = float(value)
    if type(value) is not want:
        raise ConfigError(f"{where} must be {want.__name__}, got {value!r}")
    return value


def _check_keys(block, allowed, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _kind(block: dict, default: str, kinds: dict, where: str) -> str:
    """The kind a block names, which selects the rest of its keys."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    kind = _resolve(block.get("kind", default), default, f"{where}.kind")
    if kind not in kinds:
        raise ConfigError(f"unknown {where} kind {kind!r}; expected one of {sorted(kinds)}")
    return kind


def _run_table(run: RunConfig) -> dict:
    """The run block of a RunConfig as the YAML states it."""
    out = {}
    for f in fields(run):
        value = getattr(run, f.name)
        group, _, key = f.name.partition("_")
        if group == "hutchinson":
            out.setdefault(group, {})[key] = value
        elif f.name != "seed":
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _run_config(block, seed: int) -> RunConfig:
    spec = _run_table(RunConfig())
    _check_keys(block, spec, "run")
    kind = _kind(block.get("resampling", {}), spec["resampling"]["kind"], RESAMPLING,
                 "run.resampling")
    spec["resampling"] = {"kind": kind, **RESAMPLING[kind]}
    run = _resolve(block, spec, "run")
    hutchinson = {f"hutchinson_{key}": v for key, v in run.pop("hutchinson").items()}
    return RunConfig(**run, **hutchinson, seed=seed)


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment description; ``schedule``,
    ``reward`` and ``diagnostics`` are the YAML blocks with every key set."""

    base: GaussianMixture
    target: GaussianMixture
    schedule: dict
    run: RunConfig
    reward: dict
    diagnostics: dict

    @classmethod
    def from_yaml(cls, text: str, seed_override: int | None = None) -> "ExperimentConfig":
        raw = yaml.safe_load(text)
        _check_keys(raw, {*DEFAULTS, "problem", "run"}, "config root")

        seed = _resolve(raw.get("seed", DEFAULTS["seed"]) if seed_override is None
                        else seed_override, DEFAULTS["seed"], "seed")
        if seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

        problem = raw.get("problem", {})
        _check_keys(problem, {"base", "target"}, "problem")
        base = _mixture_from_block(problem.get("base", "standard_normal"), "problem.base")
        target = _mixture_from_block(problem.get("target", "standard_normal"), "problem.target")

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

        cfg = cls(base, target, schedule, _run_config(raw.get("run", {}), seed),
                  reward, diagnostics)
        # Fail early on invariants that would otherwise surface mid-run.
        path = cfg.build_path()
        cfg.run.validate(cfg.build_reward(path))
        cfg.run.check_knots(path)
        return cfg

    @classmethod
    def from_file(cls, path: str, seed_override: int | None = None) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_yaml(fh.read(), seed_override)

    def build_path(self) -> MixturePath:
        try:
            return MixturePath(self.base, self.target, InterpolantSchedule.linear(
                self.schedule["epsilon"], self.schedule["eta_offset"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_base_reward(self) -> Reward:
        kind, params = self.reward["kind"], self.reward["params"]
        if kind == "linear" and len(params["coeffs"]) != self.target.dim:
            raise ValueError(f"coeffs needs one entry per dimension ({self.target.dim})")
        if kind == "log_responsibility":
            return LogResponsibilityReward(self.target, **params)
        return {"zero": ZeroReward, "linear": LinearReward,
                "quadratic": QuadraticReward}[kind](**params)

    def build_reward(self, path: MixturePath) -> TimeDependentReward:
        try:
            return TimeDependentReward(self.build_base_reward(), self.reward["mode"],
                                       path, k=self.reward["k"])
        except ValueError as exc:
            raise ConfigError(f"reward: {exc}") from exc

    def resolved_yaml(self) -> str:
        """Fully resolved snapshot written next to run outputs; parsing it
        gives back the same snapshot."""
        table = {"seed": self.run.seed,
                 "problem": {"base": self.base.to_dict(), "target": self.target.to_dict()},
                 "schedule": self.schedule, "run": _run_table(self.run),
                 "reward": self.reward, "diagnostics": self.diagnostics}
        return yaml.safe_dump(table, sort_keys=False)
