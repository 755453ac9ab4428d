"""Sequential Monte Carlo driver for reward-tilted interpolant dynamics.

Particles are initialized from the base density, propagated by the tilted
position SDE, and reweighted by the chosen log-weight scheme.  In sampling
mode, resampling by the softmax of the log-weights is triggered either when
the effective sample size drops below a threshold, periodically, or at
explicit steps; in searching mode the ensemble is greedily truncated to the
top-n states by the current look-ahead reward and recloned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import _log_moments
from .errors import (ConfigError, DegenerateEnsembleError, ScheduleDomainError,
                     SchemeCompatibilityError)
from .mixtures import MixturePath, _logsumexp
from .rewards import TimeDependentReward, _check_hutchinson
from .tilt import (CHI_CHOICES, WEIGHT_SCHEMES, DriftMultiplier, StepInput,
                   _ito_coefficient, position_step, weight_step_expectation,
                   weight_step_ito, weight_step_laplacian, weight_step_simplified)


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
    """Self-normalized weighted mean of the observable h over the ensemble."""
    if isinstance(ensemble_or_logw, ParticleEnsemble):
        logw, pos = ensemble_or_logw.logweights, ensemble_or_logw.positions
    else:
        logw, pos = np.asarray(ensemble_or_logw, dtype=float), np.atleast_2d(positions)
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


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one SMC run."""

    n_particles: int = 128
    n_steps: int = 200
    clones: int = 1
    schedule_times: np.ndarray | None = None
    mode: str = "sampling"
    chi: str = "default"
    weight_scheme: str = "simplified"
    resampling: dict = field(default_factory=lambda: {"kind": "ess", **RESAMPLING["ess"]})
    resample_method: str = "systematic"
    expectation_samples: int = 16
    hutchinson_probes: int = 64
    hutchinson_eps: float = 1e-3
    hutchinson_probe: str = "gaussian"
    paper_literal: bool = False
    seed: int = 0

    def times(self) -> np.ndarray:
        if self.schedule_times is None:
            return np.linspace(0.0, 1.0, self.n_steps + 1)
        ts = np.asarray(self.schedule_times, dtype=float)
        if ts.ndim != 1 or ts.shape[0] != self.n_steps + 1:
            raise ConfigError("schedule must have n_steps + 1 knots")
        if ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0):
            raise ConfigError("schedule must increase strictly from 0 to 1")
        return ts

    def validate(self, rt: TimeDependentReward) -> None:
        if self.n_particles < 1 or self.n_steps < 1 or self.clones < 1:
            raise ConfigError("n_particles, n_steps and clones must be >= 1")
        if self.mode not in ("sampling", "searching"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.chi not in CHI_CHOICES:
            raise ConfigError(f"unknown chi choice {self.chi!r}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ConfigError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.weight_scheme == "simplified":
            if self.chi != "default":
                raise ConfigError("simplified weights require chi = default")
            if not rt.is_flowmap():
                raise ConfigError("simplified weights require a flow-map look-ahead reward")
        if self.resample_method not in RESAMPLE_METHODS:
            raise ConfigError(f"unknown resample method {self.resample_method!r}; "
                              f"expected one of {sorted(RESAMPLE_METHODS)}")
        if self.expectation_samples < 1:
            raise ConfigError("expectation_samples must be >= 1")
        try:
            _check_hutchinson(self.hutchinson_probes, self.hutchinson_eps,
                             self.hutchinson_probe)
        except ValueError as exc:
            raise ConfigError(f"hutchinson: {exc}") from exc
        kind = self.resampling.get("kind")
        if kind not in RESAMPLING:
            raise ConfigError(f"unknown resampling kind {kind!r}")
        spec = {**RESAMPLING[kind], **self.resampling}
        if kind == "ess" and not (isinstance(spec["threshold"], (int, float))
                                  and 0.0 < spec["threshold"] <= 1.0):
            raise ConfigError("ESS threshold must be a number in (0, 1]")
        if kind == "every" and not (isinstance(spec["r"], int) and spec["r"] >= 1
                                    and self.n_steps % spec["r"] == 0):
            raise ConfigError("periodic resampling interval must divide n_steps")
        if kind == "at_steps" and not (isinstance(spec["steps"], (list, tuple)) and all(
                isinstance(s, int) and 1 <= s <= self.n_steps for s in spec["steps"])):
            raise ConfigError("explicit resampling steps must be a list in [1, n_steps]")
        self.times()

    def check_knots(self, path: MixturePath) -> None:
        """Evaluate at every knot what the run reads of the path's schedule:
        epsilon (ValueError where negative), chi and the ito coefficient."""
        chi, schedule = DriftMultiplier(self.chi), path.schedule
        for t in self.times():
            eps = schedule.checked_epsilon(t)
            try:
                c = chi.value(schedule, t)
                if self.weight_scheme == "ito":
                    _ito_coefficient(c, eps, t)
            except (ScheduleDomainError, SchemeCompatibilityError) as exc:
                raise ConfigError(f"chi {self.chi}: {exc}") from exc


@dataclass
class RunResult:
    """Trace of one SMC run.

    Per step k, ``log_moments[k]`` holds log sum_n w_n g_n^i for i = 0, 1, 2,
    with w_n the weight of particle n before the step and g_n its incremental
    weight, and ``log_g_finite[k]`` whether every log g_n was finite; the
    discrepancy diagnostics read nothing else of the weights.
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
        """Log of the unbiased normalization estimate after step k (default:
        the last): the product of pre-reset mean weights over earlier
        resampling events times the current mean weight; NaN when searching."""
        k = self.log_z_history.shape[0] if k is None else k
        if self.mode == "searching":
            return float("nan")
        return float(self.log_z_history[k - 1])


def _step_rng(seed: int, step: int, channel: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, step, channel); thread-safe
    determinism independent of execution order."""
    return np.random.Generator(np.random.Philox(key=[seed, (step << 8) + channel]))


def run(cfg: RunConfig, path: MixturePath, rt: TimeDependentReward) -> RunResult:
    """Execute the full propagate / reweight / resample-or-select loop.

    The look-ahead of each state is evaluated once, right after the state is
    reached: the next step's position and weight updates, the trace's mean
    reward and the search scores all read that record, which resampling and
    selection gather along with the states.
    """
    cfg.validate(rt)
    cfg.check_knots(path)
    ts = cfg.times()
    sched = path.schedule
    chi = DriftMultiplier(cfg.chi)
    n, c = cfg.n_particles, cfg.clones
    total = n * c
    d = path.dim
    grad_weights = cfg.weight_scheme in ("laplacian", "ito")

    def lookahead(t: float, x: np.ndarray):
        # grad r_t is read by the position step where its coefficient
        # chi + eps is nonzero, and by the laplacian and ito weights.
        grad = grad_weights or chi.value(sched, t) + sched.epsilon(t) != 0.0
        return rt.lookahead_value_and_grad(t, x, grad)

    init_rng = _step_rng(cfg.seed, 0, 0)
    x0 = path.base.sample(n, init_rng)
    ens = ParticleEnsemble(np.repeat(x0, c, axis=0), np.zeros(total), n, c)
    look = lookahead(ts[0], ens.positions)

    K = cfg.n_steps
    ess_hist = np.empty(K)
    log_z_hist = np.empty(K)
    mean_r_hist = np.empty(K)
    log_moments = np.empty((K, 3))
    log_g_finite = np.empty(K, dtype=bool)
    resample_steps: list[int] = []
    resample_log_means: list[float] = []
    log_z_events = 0.0

    kind = cfg.resampling["kind"]
    spec = {**RESAMPLING[kind], **cfg.resampling}

    for k in range(1, K + 1):
        t, t_next = ts[k - 1], ts[k]
        noise = _step_rng(cfg.seed, k, 1).standard_normal((total, d))
        inp = StepInput(ens.positions, ens.logweights, t, t_next, noise,
                        look, path.dynamics(t, ens.positions))
        x_next = position_step(inp, chi, rt, path)
        look = lookahead(t_next, x_next)

        if cfg.weight_scheme == "simplified":
            a_next = weight_step_simplified(inp, rt)
        elif cfg.weight_scheme == "laplacian":
            a_next = weight_step_laplacian(
                inp, chi, rt, path, cfg.hutchinson_probes, cfg.hutchinson_eps,
                _step_rng(cfg.seed, k, 2), cfg.hutchinson_probe)
        elif cfg.weight_scheme == "ito":
            a_next = weight_step_ito(inp, chi, rt, path, x_next, look)
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
        log_z_hist[k - 1] = log_z_events + log_mean_w
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
