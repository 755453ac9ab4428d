"""Sequential Monte Carlo driver for reward-tilted interpolant dynamics.

Particles are initialized from the base density, propagated by the tilted
position SDE, and reweighted by the chosen log-weight scheme.  In sampling
mode, resampling by the softmax of the log-weights is triggered either when
the effective sample size drops below a threshold, periodically, or at
explicit steps; in searching mode the ensemble is greedily truncated to the
top-n states by the current look-ahead reward and recloned.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .diagnostics import _log_moments
from .errors import (ConfigError, DegenerateEnsembleError, ScheduleDomainError,
                     SchemeCompatibilityError)
from .mixtures import MixturePath, _logsumexp
from .rewards import TimeDependentReward, _check_hutchinson
from .schedule import CHI_CHOICES, InterpolantSchedule
from .tilt import (WEIGHT_SCHEMES, StepInput, _ito_coefficient, position_step,
                   weight_step_expectation, weight_step_ito, weight_step_laplacian,
                   weight_step_simplified)


@dataclass
class ParticleEnsemble:
    """Flat ensemble of n_particles * clones states with log-weights.

    ``ancestors`` holds, after resampling or selection, the row of the
    previous ensemble that each state was copied from.
    """

    positions: np.ndarray
    logweights: np.ndarray
    n_particles: int
    clones: int = 1
    ancestors: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.logweights = np.atleast_1d(np.asarray(self.logweights, dtype=float))
        if self.positions.shape[0] != self.n_particles * self.clones:
            raise ValueError("positions must hold n_particles * clones states")
        if self.logweights.shape[0] != self.positions.shape[0]:
            raise ValueError("one log-weight per state required")

    @property
    def size(self) -> int:
        return self.positions.shape[0]


def _shifted_weights(logweights: np.ndarray) -> np.ndarray:
    """exp(a - max a); raises DegenerateEnsembleError naming the particles
    whose log-weight is NaN or +inf, or when every log-weight is -inf."""
    a = np.asarray(logweights, dtype=float)
    m = np.max(a)
    if not np.isfinite(m):
        bad = np.flatnonzero(np.isnan(a) | (a == np.inf))
        if bad.size:
            raise DegenerateEnsembleError(
                f"{bad.size} of {a.size} log-weights are NaN or +inf "
                f"(first at particles {bad[:5].tolist()})")
        raise DegenerateEnsembleError("no finite log-weight in the ensemble")
    return np.exp(a - m)


def ess(logweights: np.ndarray) -> float:
    """Effective sample size (sum w)^2 / sum w^2, computed in log-space."""
    w = _shifted_weights(logweights)
    return float(w.sum() ** 2 / np.sum(w**2))


def _normalized_weights(logweights: np.ndarray) -> np.ndarray:
    w = _shifted_weights(logweights)
    return w / w.sum()


def weighted_expectation(ensemble_or_logw, h, positions: np.ndarray | None = None):
    """Self-normalized weighted mean of the observable h over the ensemble,
    or over positions weighted by bare log-weights."""
    if isinstance(ensemble_or_logw, ParticleEnsemble):
        if positions is not None:
            raise ValueError("an ensemble carries its own positions")
        logw, pos = ensemble_or_logw.logweights, ensemble_or_logw.positions
    else:
        if positions is None:
            raise ValueError("bare log-weights need the positions they weight")
        logw, pos = np.asarray(ensemble_or_logw, dtype=float), np.atleast_2d(positions)
        if pos.shape[0] != logw.shape[0]:
            raise ValueError(f"{logw.shape[0]} log-weights but {pos.shape[0]} positions")
    w = _normalized_weights(logw)
    vals = np.asarray(h(pos), dtype=float)
    return float(np.sum(w * vals)) if vals.ndim == 1 else w @ vals


def _ancestors_multinomial(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(probs.shape[0], size=probs.shape[0], p=probs)


def _ancestors_systematic(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = probs.shape[0]
    u = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(probs), u).clip(max=n - 1)


RESAMPLE_METHODS = {"systematic": _ancestors_systematic,
                    "multinomial": _ancestors_multinomial}


def resample(ensemble: ParticleEnsemble, rng: np.random.Generator,
             scheme: str = "systematic") -> ParticleEnsemble:
    """Draw ancestors by the softmax of the log-weights; reset weights to 0."""
    probs = _normalized_weights(ensemble.logweights)
    if scheme not in RESAMPLE_METHODS:
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    idx = RESAMPLE_METHODS[scheme](probs, rng)
    return ParticleEnsemble(ensemble.positions[idx], np.zeros(ensemble.size),
                            ensemble.n_particles, ensemble.clones, idx)


def top_n_select(ensemble: ParticleEnsemble, scores: np.ndarray, n: int) -> ParticleEnsemble:
    """Keep the n highest-scoring states (ties to the lower flat index) and
    reclone each survivor to the ensemble's clone count; weights reset to 0."""
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    idx = np.repeat(np.sort(order[:n]), ensemble.clones)
    return ParticleEnsemble(ensemble.positions[idx], np.zeros(n * ensemble.clones),
                            n, ensemble.clones, idx)


# Keys of each resampling kind and their defaults; a type marks a required value.
RESAMPLING = {"ess": {"threshold": 0.85}, "every": {"r": int},
              "at_steps": {"steps": [int]}, "never": {}}


def _resolve(value, default, where: str):
    """value, checked to have the type of default (an int passes as a float,
    a bool never as a number) and, if a float, to be finite.  A mapping gets
    every key of its default, a type stands for a required value, a list's
    elements take the type of its first element, and None stands for an
    optional list of numbers.  Numpy scalars and arrays pass as the Python
    values they hold, a tuple as a list."""
    if isinstance(default, dict):
        _check_keys(value, default, where)
        return {key: _resolve(value.get(key, d), d, f"{where}.{key}")
                for key, d in default.items()}
    if default is None:
        return None if value is None else _resolve(value, [0.0], where)
    if isinstance(value, type):
        raise ConfigError(f"{where} is required")
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_resolve(v, default[0], f"{where}[{i}]") for i, v in enumerate(value)]
    want = default if isinstance(default, type) else type(default)
    if want is float and type(value) is int:
        value = float(value)
    if type(value) is not want:
        raise ConfigError(f"{where} must be {want.__name__}, got {value!r}")
    if want is float and not np.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _check_keys(block, allowed, where: str) -> None:
    if not isinstance(block, Mapping):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _kind(block: Mapping, default: str, kinds: dict, where: str) -> str:
    """The kind a block names, which selects the rest of its keys."""
    if not isinstance(block, Mapping):
        raise ConfigError(f"{where} must be a mapping")
    kind = _resolve(block.get("kind", default), default, f"{where}.kind")
    if kind not in kinds:
        raise ConfigError(f"unknown {where} kind {kind!r}; expected one of {sorted(kinds)}")
    return kind


def _frozen(value):
    """A resolved value with its lists as tuples and its mappings read-only."""
    if isinstance(value, dict):
        return MappingProxyType({key: _frozen(v) for key, v in value.items()})
    return tuple(value) if isinstance(value, list) else value


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one SMC run, in the form of the YAML run block plus
    the seed, checked when built: a value out of range or of another type
    than its default's is a ConfigError that names the value by its YAML
    path (``run.hutchinson.eps``, ``seed``).  It cannot be changed once
    built: ``schedule_times`` and the resampling steps are tuples and
    ``resampling`` and ``hutchinson`` are read-only mappings."""

    n_particles: int = 128
    n_steps: int = 200
    clones: int = 1
    schedule_times: tuple[float, ...] | None = None
    mode: str = "sampling"
    chi: str = "default"
    weight_scheme: str = "simplified"
    resampling: Mapping = field(default_factory=lambda: {"kind": "ess"})
    resample_method: str = "systematic"
    expectation_samples: int = 16
    # The laplacian weights read eps alone, their exact trace's stencil
    # half-width; probes and probe are still parsed and checked, so that a
    # config written for the Hutchinson estimate stays valid, but not read.
    hutchinson: Mapping = field(
        default_factory=lambda: {"probes": 64, "eps": 1e-3, "probe": "gaussian"})
    paper_literal: bool = False
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            where = f.name if f.name == "seed" else f"run.{f.name}"
            if f.name == "resampling":
                kind = _kind(value, "ess", RESAMPLING, where)
                default = {"kind": kind, **RESAMPLING[kind]}
            else:
                default = f.default if f.default_factory is MISSING else f.default_factory()
            object.__setattr__(self, f.name, _frozen(_resolve(value, default, where)))
        for name in ("n_particles", "n_steps", "clones", "expectation_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"run.{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an integer in [0, 2**64)")
        for name, choices in (("mode", ("sampling", "searching")), ("chi", CHI_CHOICES),
                              ("weight_scheme", WEIGHT_SCHEMES),
                              ("resample_method", RESAMPLE_METHODS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown run.{name} {getattr(self, name)!r}; "
                                  f"expected one of {sorted(choices)}")
        if self.weight_scheme == "simplified" and self.chi != "default":
            raise ConfigError("run.chi must be default with simplified weights")
        h = self.hutchinson
        try:
            _check_hutchinson(h["probes"], h["eps"], h["probe"], "run.hutchinson.")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        spec = self.resampling
        if spec["kind"] == "ess" and not 0.0 < spec["threshold"] <= 1.0:
            raise ConfigError("run.resampling.threshold must be in (0, 1]")
        if spec["kind"] == "every" and not (spec["r"] >= 1 and self.n_steps % spec["r"] == 0):
            raise ConfigError("run.resampling.r must divide run.n_steps")
        if spec["kind"] == "at_steps" and not all(1 <= s <= self.n_steps
                                                  for s in spec["steps"]):
            raise ConfigError("run.resampling.steps must lie in [1, run.n_steps]")
        ts = self.times()
        if ts.shape[0] != self.n_steps + 1:
            raise ConfigError("run.schedule_times must have run.n_steps + 1 knots")
        if ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0):
            raise ConfigError("run.schedule_times must increase strictly from 0 to 1")

    def times(self) -> np.ndarray:
        if self.schedule_times is None:
            return np.linspace(0.0, 1.0, self.n_steps + 1)
        return np.array(self.schedule_times)

    def reads_grad(self, schedule: InterpolantSchedule, t: float) -> bool:
        """Whether the run reads grad r_t at knot t: the laplacian and ito
        weights always do, and the position step does where its coefficient
        chi + epsilon is nonzero."""
        return (self.weight_scheme in ("laplacian", "ito")
                or schedule.chi(self.chi, t) + schedule.epsilon(t) != 0.0)

    def check(self, path: MixturePath, rt: TimeDependentReward) -> None:
        """Check the settings against the problem: the reward must read the
        run's path, simplified weights need a flow-map reward, at every knot
        epsilon (ValueError where negative), chi and the ito coefficient must
        be defined, and a value-only reward is refused at every knot where
        the run reads grad r_t."""
        if rt.path is not None and rt.path is not path:
            raise ConfigError("the reward's look-ahead reads another path than the run's")
        if self.weight_scheme == "simplified" and not rt.is_flowmap():
            raise ConfigError("run.weight_scheme simplified needs a flow-map look-ahead")
        schedule = path.schedule
        for t in self.times():
            eps = schedule.checked_epsilon(t)
            try:
                c = schedule.chi(self.chi, t)
                if self.weight_scheme == "ito":
                    _ito_coefficient(c, eps, t)
            except (ScheduleDomainError, SchemeCompatibilityError) as exc:
                raise ConfigError(f"run.chi {self.chi}: {exc}") from exc
            if not rt.base.has_grad and self.reads_grad(schedule, t):
                raise ConfigError(
                    f"run.weight_scheme {self.weight_scheme} with run.chi {self.chi} reads "
                    f"grad r_t at t={t:.6g}, and the reward is value-only (no gradient); "
                    "a value-only reward runs with simplified or expectation weights "
                    "where chi + epsilon = 0 at every knot")


@dataclass
class RunResult:
    """Trace of one SMC run.

    Per step k, ``log_moments[k]`` holds log sum_n w_n g_n^i for i = 0, 1, 2,
    with w_n the weight of particle n before the step and g_n its incremental
    weight, and ``log_g_finite[k]`` whether every log g_n was finite; the
    discrepancy diagnostics read nothing else of the weights.
    ``log_z_history`` is NaN when searching, which estimates no normalization.
    """

    ensemble: ParticleEnsemble
    times: np.ndarray
    ess_history: np.ndarray
    resample_steps: list
    resample_log_means: list
    log_z_history: np.ndarray
    mean_reward_history: np.ndarray
    log_moments: np.ndarray
    log_g_finite: np.ndarray
    mode: str

    def log_z(self, k: int | None = None) -> float:
        """Log of the unbiased normalization estimate after step k in [0, K]
        (default: K): the product of pre-reset mean weights over earlier
        resampling events times the current mean weight, so 0 at k = 0; NaN
        when searching."""
        steps = self.log_z_history.shape[0]
        k = steps if k is None else k
        if not 0 <= k <= steps:
            raise ValueError(f"step k must be in [0, K = {steps}], got {k}")
        if self.mode == "searching":
            return float("nan")
        return 0.0 if k == 0 else float(self.log_z_history[k - 1])


def _step_rng(seed: int, step: int, channel: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, step, channel); thread-safe
    determinism independent of execution order."""
    key = np.array([seed, (step << 8) + channel], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run(cfg: RunConfig, path: MixturePath, rt: TimeDependentReward) -> RunResult:
    """Execute the full propagate / reweight / resample-or-select loop.

    The look-ahead of each state is evaluated once, right after the state is
    reached: the next step's position and weight updates, the trace's mean
    reward and the search scores all read that record, which resampling and
    selection gather along with the states.
    """
    cfg.check(path, rt)
    ts = cfg.times()
    sched, chi = path.schedule, cfg.chi
    n, c = cfg.n_particles, cfg.clones
    total = n * c
    d = path.dim

    init_rng = _step_rng(cfg.seed, 0, 0)
    x0 = path.base.sample(n, init_rng)
    ens = ParticleEnsemble(np.repeat(x0, c, axis=0), np.zeros(total), n, c)
    look = rt.lookahead_value_and_grad(ts[0], ens.positions, cfg.reads_grad(sched, ts[0]))

    K = cfg.n_steps
    ess_hist = np.empty(K)
    log_z_hist = np.empty(K)
    mean_r_hist = np.empty(K)
    log_moments = np.empty((K, 3))
    log_g_finite = np.empty(K, dtype=bool)
    resample_steps: list[int] = []
    resample_log_means: list[float] = []
    log_z_events = 0.0

    spec = cfg.resampling
    kind = spec["kind"]

    for k in range(1, K + 1):
        t, t_next = ts[k - 1], ts[k]
        noise = _step_rng(cfg.seed, k, 1).standard_normal((total, d))
        inp = StepInput(ens.positions, ens.logweights, t, t_next, noise,
                        look, path.dynamics(t, ens.positions))
        x_next = position_step(inp, chi, path)
        look = rt.lookahead_value_and_grad(t_next, x_next, cfg.reads_grad(sched, t_next))

        if cfg.weight_scheme == "simplified":
            a_next = weight_step_simplified(inp, rt)
        elif cfg.weight_scheme == "laplacian":
            a_next = weight_step_laplacian(inp, chi, rt, path, cfg.hutchinson["eps"])
        elif cfg.weight_scheme == "ito":
            a_next = weight_step_ito(inp, chi, rt, path, look)
        else:
            a_next = weight_step_expectation(
                inp, chi, rt, path, cfg.expectation_samples,
                _step_rng(cfg.seed, k, 2), cfg.paper_literal)

        log_g = a_next - ens.logweights
        log_moments[k - 1] = _log_moments(ens.logweights, log_g)
        log_g_finite[k - 1] = np.isfinite(log_g).all()
        ens = ParticleEnsemble(x_next, a_next, n, c)

        ess_hist[k - 1] = ess(ens.logweights)
        log_mean_w = float(_logsumexp(ens.logweights) - np.log(total))
        log_z_hist[k - 1] = log_z_events + log_mean_w if cfg.mode == "sampling" else np.nan
        mean_r_hist[k - 1] = float(np.mean(look.value))

        if k == K:
            break
        if kind == "never":
            trigger = False
        elif kind == "ess":
            trigger = ess_hist[k - 1] < spec["threshold"] * total
        elif kind == "every":
            trigger = k % spec["r"] == 0
        else:
            trigger = k in spec["steps"]
        if trigger:
            resample_steps.append(k)
            resample_log_means.append(log_mean_w)
            if cfg.mode == "sampling":
                log_z_events += log_mean_w
                ens = resample(ens, _step_rng(cfg.seed, k, 3), cfg.resample_method)
            else:
                ens = top_n_select(ens, look.value, n)
            look = look.take(ens.ancestors)

    return RunResult(ens, ts, ess_hist, resample_steps, resample_log_means,
                     log_z_hist, mean_r_hist, log_moments, log_g_finite, cfg.mode)
