"""Gaussian mixtures and the closed-form dynamics of their interpolant path.

With independent coupling of a base mixture (components m_i, C_i, weights
w_i) and a target mixture (n_j, S_j, u_j), the interpolated density at time
t is itself a mixture over all P pairs (i,j), with weight w_i*u_j, mean
alpha*m_i + beta*n_j and covariance alpha^2*C_i + beta^2*S_j.  One batched
kernel serves both classes: the pair covariances depend on t only, so one
batched Cholesky factors all of them, and one pass over the rows gives
log-responsibilities and the solves Sigma^{-1}(x - mu), from which velocity,
score, denoiser, log-density and their Jacobians all follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .schedule import InterpolantSchedule

_LOG_2PI = float(np.log(2.0 * np.pi))


def _factor(covs: np.ndarray):
    """Cholesky factors, their inverses and the log-determinants of (k, d, d)
    SPD matrices; raises LinAlgError if one is not positive definite."""
    chols = np.linalg.cholesky(covs)
    logdets = 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
    return chols, np.linalg.inv(chols), logdets


def _logsumexp(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """log sum exp(a) along ``axis``, shifted by the finite maxima; NaN, +inf
    and all -inf give NaN, +inf and -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis)


def _kernel(x: np.ndarray, log_w: np.ndarray, means: np.ndarray,
            inv_chols: np.ndarray, logdets: np.ndarray):
    """Posterior of rows x (n, d) under k weighted Gaussians given by their
    inverse Cholesky factors (k, d, d): log-responsibilities (k, n),
    log-density (n,) and whitened residuals L^{-1}(x - mu) (k, n, d).

    Arrays are component-first, so each product is one matmul per component.
    """
    half = (x - means[:, None, :]) @ inv_chols.swapaxes(1, 2)
    quad = np.einsum("kni,kni->kn", half, half)
    logjoint = log_w[:, None] - 0.5 * (x.shape[1] * _LOG_2PI + logdets[:, None] + quad)
    log_density = _logsumexp(logjoint)
    return logjoint - log_density, log_density, half


@dataclass(frozen=True)
class GaussianMixture:
    """Weighted Gaussian components with full covariances."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        c = np.asarray(self.covariances, dtype=float)
        if c.ndim == 2:
            c = c[None]
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covariances", c)
        k, d = m.shape
        if d < 1 or w.shape != (k,) or c.shape != (k, d, d):
            raise ValueError("mixture shapes must be (k,), (k, d) and (k, d, d) with d >= 1")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise ValueError("mixture weights, means and covariances must be finite")
        if np.any(w <= 0):
            raise ValueError("mixture weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {w.sum()}, not 1")
        if not np.allclose(c, np.swapaxes(c, -1, -2)):
            raise ValueError("covariances must be symmetric")
        # The Cholesky factorization also validates positive definiteness.
        chols, inv_chols, logdets = _factor(c)
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_inv_chols", inv_chols)
        object.__setattr__(self, "_logdets", logdets)
        object.__setattr__(self, "_log_w", np.log(w))

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n i.i.d. samples; deterministic for a fixed generator state."""
        if n < 1:
            raise ValueError("n must be >= 1")
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        out = self.means[idx] + np.einsum("nij,nj->ni", self._chols[idx], z)
        return out

    def _posterior(self, x: np.ndarray):
        return _kernel(x, self._log_w, self.means, self._inv_chols, self._logdets)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        return self._posterior(np.atleast_2d(np.asarray(x, dtype=float)))[1]

    def log_responsibilities(self, x: np.ndarray) -> np.ndarray:
        """log p(component | x), shape (n, k)."""
        return self._posterior(np.atleast_2d(np.asarray(x, dtype=float)))[0].T

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianMixture":
        unknown = set(d) - {"weights", "means", "covariances"}
        if unknown:
            raise ValueError(f"unknown mixture keys: {sorted(unknown)}")
        return cls(np.asarray(d["weights"]), np.asarray(d["means"]),
                   np.asarray(d["covariances"]))

    @classmethod
    def isotropic(cls, weights, means, variance: float) -> "GaussianMixture":
        means = np.atleast_2d(np.asarray(means, dtype=float))
        k, d = means.shape
        covs = np.broadcast_to(variance * np.eye(d), (k, d, d)).copy()
        return cls(np.asarray(weights, dtype=float), means, covs)


def standard_normal(dim: int = 1) -> GaussianMixture:
    return GaussianMixture(np.ones(1), np.zeros((1, dim)), np.eye(dim)[None])


@dataclass(frozen=True)
class DynamicsAt:
    """Velocity, score, denoiser and log-density at one (t, x) batch, plus
    the velocity or denoiser Jacobian (n, d, d) when one was requested."""

    velocity: np.ndarray
    score: np.ndarray
    denoiser: np.ndarray
    log_density: np.ndarray
    jacobian: np.ndarray | None = None


_JACOBIANS = (None, "velocity", "denoiser")


@dataclass(frozen=True)
class MixturePath:
    """Interpolant path between two Gaussian mixtures under a schedule."""

    base: GaussianMixture
    target: GaussianMixture
    schedule: InterpolantSchedule = field(default_factory=InterpolantSchedule)

    def __post_init__(self):
        if self.base.dim != self.target.dim:
            raise ValueError("base and target dimensions differ")

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def _pairs(self):
        """Static per-pair data: weights, base/target means and covariances."""
        kb, kt = self.base.n_components, self.target.n_components
        i_idx = np.repeat(np.arange(kb), kt)
        j_idx = np.tile(np.arange(kt), kb)
        return {
            "log_w": (np.log(self.base.weights)[i_idx] + np.log(self.target.weights)[j_idx]),
            "m": self.base.means[i_idx],
            "n": self.target.means[j_idx],
            "C": self.base.covariances[i_idx],
            "S": self.target.covariances[j_idx],
        }

    def _pass(self, t: float, x: np.ndarray):
        """The kernel pass at (t, x) for rows x (n, d), pairs first: the
        interpolant's (a, b) = (alpha(t), beta(t)), responsibilities r (P,n),
        solves u = Sigma^{-1}(x - mu) (P,n,d), log-density (n,) and the
        inverse Cholesky factors (P,d,d) of the pair covariances."""
        if not np.isfinite(x).all():
            raise ValueError("non-finite state")
        s, p = self.schedule, self._pairs
        a, b = s.alpha(t), s.beta(t)
        _, inv_l, logdets = _factor(a * a * p["C"] + b * b * p["S"])
        log_r, log_density, half = _kernel(x, p["log_w"], a * p["m"] + b * p["n"],
                                           inv_l, logdets)
        return (a, b), np.exp(log_r), half @ inv_l, log_density, inv_l

    def dynamics(self, t: float, x: np.ndarray, jacobian: str | None = None) -> DynamicsAt:
        """Closed-form velocity, score, denoiser, log-density at (t, x).

        ``jacobian`` ("velocity" or "denoiser") adds that field's spatial
        Jacobian, computed from the same responsibilities.
        """
        if jacobian not in _JACOBIANS:
            raise ValueError(f"unknown jacobian {jacobian!r}; expected one of {_JACOBIANS}")
        x = np.asarray(x, dtype=float)
        (a, b), r, u, log_density, inv_l = self._pass(t, np.atleast_2d(x))
        p = self._pairs
        # Per-pair denoiser e1_p = n + b*S u_p and velocity v_p = e1_p - e0_p
        # = (n - m) + A_p u_p with A_p = b*S - a*C.
        lin = {"velocity": b * p["S"] - a * p["C"], "denoiser": b * p["S"]}
        v = (p["n"] - p["m"])[:, None, :] + u @ lin["velocity"].swapaxes(1, 2)
        e1 = p["n"][:, None, :] + u @ lin["denoiser"].swapaxes(1, 2)
        score = -np.einsum("pn,pni->ni", r, u)
        jac = None
        if jacobian is not None:
            # grad sum_p r_p f_p = sum_p r_p A_p Sigma_p^{-1} + sum_p r_p f_p g_p^T,
            # where g_p = grad log r_p = -u_p - score.
            P, n, d = u.shape
            f = v if jacobian == "velocity" else e1
            grads = lin[jacobian] @ inv_l.swapaxes(1, 2) @ inv_l
            jac = ((r.T @ grads.reshape(P, d * d)).reshape(n, d, d)
                   + (r[:, :, None] * f).transpose(1, 2, 0) @ (-u - score).transpose(1, 0, 2))
        out = (np.einsum("pn,pni->ni", r, v), score, np.einsum("pn,pni->ni", r, e1),
               log_density, jac)
        if x.ndim == 1:
            out = tuple(None if o is None else o[0] for o in out)
        return DynamicsAt(*out)

    def conditional_means(self, t: float, x: np.ndarray):
        """Posterior-averaged E[x0 | I_t=x] and E[x1 | I_t=x]."""
        (a, b), r, u, _, _ = self._pass(t, np.atleast_2d(np.asarray(x, dtype=float)))
        p = self._pairs
        e1 = p["n"][:, None, :] + b * (u @ p["S"].swapaxes(1, 2))
        e0 = p["m"][:, None, :] + a * (u @ p["C"].swapaxes(1, 2))
        return np.einsum("pn,pni->ni", r, e0), np.einsum("pn,pni->ni", r, e1)
