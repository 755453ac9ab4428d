"""Reward-tilted SDE steps and the matching log-weight updates.

One Euler-Maruyama step of the tilted position dynamics

    x' = x + dt * [b_t + chi_t * grad r_t + eps_t * (s_t + grad r_t)] + sqrt(2 eps_t dt) * xi

for a drift-multiplier choice chi, named as `InterpolantSchedule.chi` reads
it, together with four discretizations of the accompanying log-weight ODE:
the flow-map simplification (valid for chi = 0), a Laplacian-corrected
Euler update, an Ito forward/backward difference update, and an
inner-expectation update.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SchemeCompatibilityError
from .flowmap import _check_count
from .mixtures import DynamicsAt, MixturePath, _logsumexp
from .rewards import Lookahead, TimeDependentReward, _stacked_samples, coordinate_laplacian

WEIGHT_SCHEMES = ("simplified", "laplacian", "ito", "expectation")


@dataclass(frozen=True)
class StepInput:
    """State, log-weight, step times, the shared Gaussian increment, and the
    look-ahead record of the reward and the path dynamics at (t, x)."""

    x: np.ndarray
    logweight: np.ndarray
    t: float
    t_next: float
    noise: np.ndarray
    lookahead: Lookahead
    dynamics: DynamicsAt

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_2d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "noise", np.atleast_2d(np.asarray(self.noise, dtype=float)))
        object.__setattr__(self, "logweight",
                           np.atleast_1d(np.asarray(self.logweight, dtype=float)))
        n, look, dyn = self.x.shape[0], self.lookahead, self.dynamics
        if not self.t < self.t_next:
            raise ValueError("require t < t_next")
        if self.noise.shape != self.x.shape:
            raise ValueError("noise shape must match state shape")
        if self.logweight.shape[0] != n:
            raise ValueError("logweight length must match particle count")
        if look.value.shape[0] != n or look.terminal.shape[0] != n:
            raise ValueError("look-ahead record length must match particle count")
        if look.grad is not None and look.grad.shape != self.x.shape:
            raise ValueError("look-ahead gradient shape must match state shape")
        if dyn.velocity.shape != self.x.shape or dyn.score.shape != self.x.shape:
            raise ValueError("dynamics shapes must match state shape")

    @property
    def dt(self) -> float:
        return self.t_next - self.t


def _grad(look: Lookahead) -> np.ndarray:
    """grad r_t of a record; one made without it is refused, not recomputed."""
    if look.grad is None:
        raise ValueError("the look-ahead record carries no grad r_t")
    return look.grad


def position_step(inp: StepInput, chi: str, path: MixturePath) -> np.ndarray:
    """One Euler-Maruyama step of the tilted position SDE."""
    sched = path.schedule
    eps = sched.epsilon(inp.t)
    c = sched.chi(chi, inp.t)
    dyn = inp.dynamics
    drift = dyn.velocity + eps * dyn.score
    coeff = c + eps
    if coeff != 0.0:
        drift = drift + coeff * _grad(inp.lookahead)
    return inp.x + inp.dt * drift + np.sqrt(2.0 * eps * inp.dt) * inp.noise


def weight_step_simplified(inp: StepInput, rt: TimeDependentReward) -> np.ndarray:
    """Log-weight update A' = A + dt * r(endpoint prediction at time t).

    Valid for chi = 0 with the exact flow-map look-ahead reward, whose
    endpoint is transported by b; a k-step map's is not, and the weights
    then converge to another target.  The update is well defined at t = 0
    (no division by t).
    """
    if rt.mode != "flowmap_exact":
        raise SchemeCompatibilityError(
            f"simplified weights require the exact flow-map look-ahead, not {rt.mode}")
    return inp.logweight + inp.dt * inp.lookahead.terminal


def _increment(inp: StepInput, c: float, rt: TimeDependentReward,
               lap: np.ndarray | float = 0.0):
    """Euler log-weight increment D + c * (||grad r_t||^2 + lap + grad r_t . s_t)
    and grad r_t at (t, x).

    D = r(X_{t,1}(x)) with the exact flow map; otherwise D = b . grad r_t +
    d/dt r_t, where d/dt r_t = r(x) in naive mode (r_t = t r) and is a finite
    difference in denoiser and k-step mode.
    """
    look, dyn = inp.lookahead, inp.dynamics
    grad = _grad(look)
    if rt.mode == "flowmap_exact":
        incr = look.terminal
    else:
        dr_dt = look.terminal if rt.mode == "naive" else rt.time_derivative(inp.t, inp.x)
        incr = np.einsum("ni,ni->n", dyn.velocity, grad) + dr_dt
    if c != 0.0:
        incr = incr + c * (np.einsum("ni,ni->n", grad, grad) + lap
                           + np.einsum("ni,ni->n", grad, dyn.score))
    return incr, grad


def weight_step_laplacian(inp: StepInput, chi: str, rt: TimeDependentReward,
                          path: MixturePath, eps: float = 1e-3) -> np.ndarray:
    """Euler log-weight update with a Laplacian correction.

    A' = A + dt * [D + chi * (||grad r_t||^2 + lap r_t + grad r_t . s_t)];
    lap r_t is the exact trace `coordinate_laplacian` with stencil half-width
    eps, 2d gradient rows per state and no random draws, and is skipped
    entirely when chi = 0.
    """
    c = path.schedule.chi(chi, inp.t)
    lap = 0.0 if c == 0.0 else coordinate_laplacian(rt, inp.t, inp.x, eps)
    return inp.logweight + inp.dt * _increment(inp, c, rt, lap)[0]


def _ito_coefficient(c: float, eps: float, t: float) -> float:
    """chi / sqrt(2 eps), with 0 when chi vanishes and an error at eps = 0."""
    if c == 0.0:
        return 0.0
    if eps <= 0.0:
        raise SchemeCompatibilityError(
            f"Ito-difference weights need eps > 0 where chi != 0 (t={t})")
    return c / np.sqrt(2.0 * eps)


def weight_step_ito(inp: StepInput, chi: str, rt: TimeDependentReward,
                    path: MixturePath, lookahead_next: Lookahead) -> np.ndarray:
    """Log-weight update from the forward/backward Ito integral difference.

    The same Gaussian increment used in the position step must be supplied
    in the StepInput; the forward-integral gradient is read from
    ``lookahead_next``, the record at the post-step states (t_next, x_next).
    """
    sched = path.schedule
    c_t = sched.chi(chi, inp.t)
    c_tn = sched.chi(chi, inp.t_next)
    incr, grad = _increment(inp, c_t, rt)
    out = inp.logweight + inp.dt * incr
    sq = np.sqrt(inp.dt)
    coef_fwd = _ito_coefficient(c_tn, sched.epsilon(inp.t_next), inp.t_next)
    coef_bwd = _ito_coefficient(c_t, sched.epsilon(inp.t), inp.t)
    if coef_fwd != 0.0:
        grad_next = _grad(lookahead_next)
        if grad_next.shape != inp.x.shape:
            raise ValueError("the record at (t_next, x_next) must be of the states' batch")
        out = out + coef_fwd * sq * np.einsum("ni,ni->n", grad_next, inp.noise)
    if coef_bwd != 0.0:
        out = out - coef_bwd * sq * np.einsum("ni,ni->n", grad, inp.noise)
    return out


def weight_step_expectation(inp: StepInput, chi: str, rt: TimeDependentReward,
                            path: MixturePath, m_samples: int = 16,
                            rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
                            paper_literal: bool = False) -> np.ndarray:
    """Log-weight update from an inner expectation of exp(reward increments).

    With g = (1/M) sum_m exp(r_{t'}(y_m) - r_t(x)) over perturbed one-step
    predictions y_m, the update is A' = A + log g for chi >= 0 and
    A' = A + 2*[r_{t'}(x + dt b) - r_t(x)] - log g for chi < 0.  At chi = 0
    both branches degenerate to the noise-free A' = A + r_{t'}(y) - r_t(x).

    ``rng`` is one generator, or one per run when the rows stack several
    runs' ensembles in equal blocks: each block's samples come from its own
    run's generator, as when the run steps alone.

    ``paper_literal`` uses g itself (no log) as the additive increment,
    reproducing a multiplicative-form variant of the update.
    """
    _check_count(m_samples, "m_samples")
    rngs = list(rng) if isinstance(rng, Sequence) else [rng or np.random.default_rng()]
    block, rest = divmod(inp.x.shape[0], len(rngs))
    if rest or not block:
        raise ValueError(f"{inp.x.shape[0]} states do not split into {len(rngs)} runs")
    c = path.schedule.chi(chi, inp.t)
    dyn, r_here = inp.dynamics, inp.lookahead.value
    if c <= 0.0:
        drift_only = rt.value(inp.t_next, inp.x + inp.dt * dyn.velocity) - r_here
        if c == 0.0:
            return inp.logweight + drift_only
    mean_drifted = inp.x + inp.dt * (dyn.velocity + abs(c) * dyn.score)
    scale = np.sqrt(2.0 * abs(c) * inp.dt)

    def draw(_, shape):
        k, _, d = shape
        return np.concatenate([g.standard_normal((k, block, d)) for g in rngs], axis=1)
    values = [v[:, 0] for _, v in _stacked_samples(lambda y: rt.value(inp.t_next, y),
                                                   mean_drifted, (scale,), m_samples, draw)]
    deltas = np.concatenate(values) - r_here
    log_g = _logsumexp(deltas) - np.log(m_samples)
    tail = np.exp(log_g) if paper_literal else log_g
    if c > 0.0:
        return inp.logweight + tail
    return inp.logweight + 2.0 * drift_only - tail
