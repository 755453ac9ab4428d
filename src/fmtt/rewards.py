"""Terminal rewards and their time-dependent look-ahead extensions.

A terminal reward r(x) is lifted to r_t(x) by one of three look-ahead modes:
naive (r at the current state), denoiser (r at the conditional mean of the
endpoint), or flow map (r at the ODE-exact or few-step predicted endpoint),
each scaled by t so that r_0 = 0 and r_1 = r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flowmap import FlowMapEvaluator, _check_count, _check_k_steps
from .mixtures import GaussianMixture, MixturePath, _rows


class Reward:
    """Scalar reward, batched over (n, d) inputs, with an analytic gradient
    where its class defines `grad`; one without it is value-only."""

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def has_grad(self) -> bool:
        """Whether `grad` answers: true where the class defines it."""
        return type(self).grad is not Reward.grad

    def value_and_grad(self, x: np.ndarray):
        """(r(x), grad r(x)); a reward overrides it to share work between them."""
        return self.value(x), self.grad(x)


@dataclass(frozen=True)
class LinearReward(Reward):
    """r(x) = coeffs . x"""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.atleast_1d(np.asarray(self.coeffs, dtype=float)))

    def value(self, x):
        # Row by row: a matrix-vector product rounds a row by its batch.
        return np.einsum("ni,i->n", np.atleast_2d(x), self.coeffs)

    def grad(self, x):
        return np.repeat(self.coeffs[None], np.atleast_2d(x).shape[0], axis=0)


@dataclass(frozen=True)
class QuadraticReward(Reward):
    """r(x) = -gamma * ||x||^2 / 2"""

    gamma: float

    def value(self, x):
        x2 = np.atleast_2d(x)
        return -0.5 * self.gamma * np.sum(x2**2, axis=-1)

    def grad(self, x):
        return -self.gamma * np.atleast_2d(x)


@dataclass(frozen=True)
class LogResponsibilityReward(Reward):
    """r(x) = scale * log p(component | x) under the given mixture.

    The analytic analogue of a classifier log-likelihood reward: the
    posterior probability that x belongs to the chosen component.
    """

    mixture: GaussianMixture
    component: int
    scale: float = 1.0

    def __post_init__(self):
        if not 0 <= self.component < self.mixture.n_components:
            raise ValueError("component index out of range")

    def value(self, x):
        return self.scale * self.mixture.log_responsibilities(x)[:, self.component]

    def grad(self, x):
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x):
        """Both from one kernel pass."""
        x2, n = _rows(x)
        h, log_resp, _ = self.mixture._posterior(x2)
        # grad log p(c|x) = sum_j (p(j|x) - [j = c]) C_j^{-1}(x - m_j), and
        # C_j^{-1}(x - m_j) = L_j^{-T} h_j: one product per row of the
        # weighted h with the stacked L_j^{-1}.
        weights = np.exp(log_resp)
        weights[:, self.component] -= 1.0
        h *= weights[:, :, None]
        g = np.matmul(h.reshape(len(h), 1, -1), self.mixture._inv_chols.reshape(-1, h.shape[2]))
        return self.scale * log_resp[:n, self.component], self.scale * g[:n, 0]


@dataclass(frozen=True)
class ZeroReward(Reward):
    def value(self, x):
        return np.zeros(np.atleast_2d(x).shape[0])

    def grad(self, x):
        return np.zeros_like(np.atleast_2d(x), dtype=float)


def _shaped(out, shape: tuple[int, ...], name: str, x: np.ndarray) -> np.ndarray:
    """out as a float array, raising ValueError unless it has the shape."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise ValueError(f"CustomReward.{name} returned shape {out.shape} for states of "
                         f"shape {x.shape}; expected {shape}")
    return out


@dataclass(frozen=True)
class CustomReward(Reward):
    """Arbitrary scalar field fn, (n, d) -> (n,), with its gradient grad_fn,
    (n, d) -> (n, d); without grad_fn it is value-only."""

    fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def has_grad(self) -> bool:
        return self.grad_fn is not None

    def value(self, x):
        x2 = np.atleast_2d(x)
        return _shaped(self.fn(x2), x2.shape[:1], "fn", x2)

    def grad(self, x):
        if self.grad_fn is None:
            raise ValueError("this CustomReward is value-only: it has no grad_fn")
        x2 = np.atleast_2d(x)
        return _shaped(self.grad_fn(x2), x2.shape, "grad_fn", x2)


MODES = ("naive", "denoiser", "flowmap_exact", "flowmap_ksteps")


@dataclass(frozen=True)
class Lookahead:
    """What the look-ahead gives at one batch of states (t, x): ``terminal``
    = r(predicted endpoint) with no factor t, ``value`` = r_t(x) and
    ``grad`` = grad r_t(x), or None when it was not computed."""

    terminal: np.ndarray
    value: np.ndarray
    grad: np.ndarray | None = None

    def take(self, idx: np.ndarray) -> "Lookahead":
        """The record of the states x[idx]."""
        return Lookahead(self.terminal[idx], self.value[idx],
                         None if self.grad is None else self.grad[idx])


class TimeDependentReward:
    """Look-ahead reward r_t(x) with analytic gradients through the mode."""

    def __init__(self, base: Reward, mode: str, path: MixturePath | None = None,
                 flow: FlowMapEvaluator | None = None,
                 k: int = 4, k_scheme: str = "euler"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if mode != "naive" and path is None:
            raise ValueError(f"mode {mode!r} requires a path")
        if mode == "flowmap_ksteps":
            _check_k_steps(k, k_scheme)
        if flow is not None and flow.path is not path:
            raise ValueError("flow must evaluate the reward's own path")
        if mode.startswith("flowmap") and flow is None:
            flow = FlowMapEvaluator(path, rel_tol=1e-7, abs_tol=1e-9)
        self.base = base
        self.mode = mode
        self.path = path
        self.flow = flow
        self.k = k
        self.k_scheme = k_scheme

    def is_flowmap(self) -> bool:
        return self.mode.startswith("flowmap")

    def _predict(self, t: float, x2: np.ndarray, jacobian: bool):
        """(predicted endpoint of the states x2 at time t, its Jacobian in x2);
        the Jacobian is None without ``jacobian`` or where the endpoint is x2
        itself."""
        if self.mode == "naive" or (self.mode == "denoiser" and t == 1.0):
            return x2, None
        if self.mode == "denoiser":
            dyn = self.path.dynamics(t, x2, jacobian="denoiser" if jacobian else None)
            return dyn.denoiser, dyn.jacobian
        if self.mode == "flowmap_exact":
            res = (self.flow.flow_map_jacobian if jacobian else self.flow.flow_map)(t, 1.0, x2)
        else:
            res = (self.flow.k_step_map_jacobian if jacobian else self.flow.k_step_map)(
                t, 1.0, x2, self.k, self.k_scheme)
        return (res.endpoint, res.jacobian) if jacobian else (res, None)

    def value(self, t: float, x: np.ndarray) -> np.ndarray:
        if t == 0.0:
            return np.zeros(np.atleast_2d(x).shape[0])
        return self.lookahead_value_and_grad(t, x, False).value

    def grad(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.lookahead_value_and_grad(t, x).grad

    def lookahead_value_and_grad(self, t: float, x: np.ndarray, grad: bool = True) -> Lookahead:
        """The look-ahead record at (t, x) from one endpoint prediction.

        With ``grad`` the prediction comes with its Jacobian (a sensitivity
        solve in flow-map mode) and the record carries grad r_t; without, it
        is the plain prediction and the record's ``grad`` is None.
        ``terminal`` is r at the predicted endpoint at every t, t = 0 included.
        """
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        end, jac = self._predict(t, x2, grad)
        if not grad:
            terminal = self.base.value(end)
            return Lookahead(terminal, t * terminal)
        terminal, g = self.base.value_and_grad(end)
        if jac is not None:
            g = np.einsum("nij,ni->nj", jac, g)
        return Lookahead(terminal, t * terminal, t * g)

    def time_derivative(self, t: float, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
        """Central finite difference of r_t(x) in t; one-sided at the ends."""
        lo, hi = max(t - h, 0.0), min(t + h, 1.0)
        if hi == lo:
            raise ValueError("degenerate finite-difference stencil")
        return (self.value(hi, x) - self.value(lo, x)) / (hi - lo)


PROBES = ("gaussian", "rademacher")

# Bound on the elements (rows x d) of one stacked look-ahead call in
# `_stacked_samples`, chosen by a sweep (CHANGES.md): a d=1 laplacian run
# gains little from larger calls, and at d=8 with 16 pairs a call of 2,048
# rows takes longer than two of 1,024.
STACK_ELEMENTS = 8_192


def _check_eps(eps: float, where: str = "") -> None:
    """Raise ValueError unless eps, the half-width of a Laplacian's
    central-difference stencil, is > 0."""
    if not eps > 0:
        raise ValueError(f"{where}eps must be > 0, got {eps}")


def _check_hutchinson(m_probes: int, eps: float, probe: str, where: str = "") -> None:
    """Raise ValueError unless these are valid `hutchinson_laplacian` settings;
    a message names the setting by its key in a config's hutchinson block,
    after the prefix ``where``."""
    _check_count(m_probes, f"{where}probes (m_probes)")
    _check_eps(eps, where)
    if probe not in PROBES:
        raise ValueError(f"{where}probe must be one of {PROBES}, got {probe!r}")


def _stacked_samples(look: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                     scales: tuple[float, ...], m: int,
                     draw: Callable[[int, tuple[int, int, int]], np.ndarray]):
    """Evaluate ``look`` at the points x + s * z, for each s in ``scales`` and
    m samples z, in one call per chunk of samples.

    Yields, per chunk of k samples, the samples z, the (k, n, d) array
    ``draw(start, (k, n, d))`` of samples start to start + k, and look's
    output on the k * len(scales) * n stacked rows, as a (k, len(scales), n,
    ...) array.  A chunk holds as many samples as fit in STACK_ELEMENTS
    elements, and at least one.  Random draws of (k, n, d) give the stream of
    k draws of (n, d), so the samples are those of one draw per sample.
    """
    n, d = x.shape
    s = np.asarray(scales, dtype=float)[:, None, None]
    per_chunk = max(1, STACK_ELEMENTS // (len(scales) * n * d))
    for start in range(0, m, per_chunk):
        z = draw(start, (min(per_chunk, m - start), n, d))
        points = x + s * z[:, None]
        out = look(points.reshape(-1, d))
        yield z, out.reshape(points.shape[:-1] + out.shape[1:])


def _probe_sum(rt: TimeDependentReward, t: float, x2: np.ndarray, eps: float, m: int,
               draw: Callable[[int, tuple[int, int, int]], np.ndarray]) -> np.ndarray:
    """Sum over m samples z from ``draw`` of z . [grad r_t(x + eps z) -
    grad r_t(x - eps z)], with one gradient call per chunk of samples
    (`_stacked_samples`)."""
    terms = np.concatenate([
        np.einsum("kni,kni->kn", z, g[:, 0] - g[:, 1])
        for z, g in _stacked_samples(lambda y: rt.grad(t, y), x2, (eps, -eps), m, draw)])
    # cumsum adds the samples one after another, as a loop over them does;
    # sum() may add them pairwise.
    return np.cumsum(terms, axis=0)[-1]


def hutchinson_laplacian(rt: TimeDependentReward, t: float, x: np.ndarray,
                         m_probes: int = 64, eps: float = 1e-3,
                         rng: np.random.Generator | None = None,
                         probe: str = "gaussian") -> np.ndarray:
    """Stochastic trace estimate of the Laplacian of r_t.

    Averages z . [grad r_t(x + eps z) - grad r_t(x - eps z)] / (2 eps) over
    random probes z (Gaussian or Rademacher), with one gradient call per
    chunk of probes (`_stacked_samples`).
    """
    _check_hutchinson(m_probes, eps, probe)
    rng = rng or np.random.default_rng()
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    if probe == "gaussian":
        def draw(_, shape):
            return rng.standard_normal(shape)
    else:
        def draw(_, shape):
            return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    return _probe_sum(rt, t, x2, eps, m_probes, draw) / (2.0 * m_probes * eps)


def coordinate_laplacian(rt: TimeDependentReward, t: float, x: np.ndarray,
                         eps: float = 1e-3) -> np.ndarray:
    """Laplacian of r_t as the exact trace of its central-difference Hessian.

    Sums [d_i r_t(x + eps e_i) - d_i r_t(x - eps e_i)] / (2 eps) over the d
    coordinates: no Monte Carlo variance, and 2d gradient rows per state, in
    one call per chunk of basis rows e_i, each shared by every state.  It
    draws no random numbers.
    """
    _check_eps(eps)
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    basis = np.eye(x2.shape[1])

    def draw(start, shape):
        # e_i . [...] picks d_i r_t out of the gradient rows exactly.
        return np.broadcast_to(basis[start:start + shape[0], None], shape)
    return _probe_sum(rt, t, x2, eps, x2.shape[1], draw) / (2.0 * eps)
