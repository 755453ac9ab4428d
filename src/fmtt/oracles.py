"""Independent ground-truth generators for tests and acceptance checks.

These deliberately avoid the production code paths: brute-force
self-normalized importance sampling under the target, closed forms for the
tilts of a Gaussian mixture that are again Gaussian mixtures, and plain
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixtures import GaussianMixture, _logsumexp
from .rewards import LinearReward, LogResponsibilityReward, QuadraticReward, Reward, ZeroReward


@dataclass(frozen=True)
class SnisEstimate:
    estimate: float
    stderr: float


def snis_tilted_expectation(target: GaussianMixture, reward: Reward, h,
                            m_samples: int, rng: np.random.Generator) -> SnisEstimate:
    """Self-normalized importance estimate of E[h] under the exp(reward) tilt
    of the target, with a delta-method standard error."""
    if m_samples < 100:
        raise ValueError("m_samples must be >= 100")
    x = target.sample(m_samples, rng)
    r = np.asarray(reward.value(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite reward values")
    w = np.exp(r - np.max(r))
    vals = np.asarray(h(x), dtype=float)
    wsum = w.sum()
    est = float(np.sum(w * vals) / wsum)
    # Delta-method variance of a ratio estimator with normalized weights.
    wn = w / wsum
    var = float(np.sum(wn**2 * (vals - est) ** 2))
    return SnisEstimate(est, np.sqrt(var))


def tilted_mixture(target: GaussianMixture, reward: Reward) -> tuple[float, GaussianMixture]:
    """(log Z, the exp(reward) tilt of the target), Z = E[exp(r)] under the
    target: a Gaussian mixture whose component k, N(m_k, S_k) with weight
    w_k Z_k / Z, tilts the target's N(mu_k, Sigma_k).  A linear reward a . x
    gives m_k = mu_k + Sigma_k a, S_k = Sigma_k, log Z_k = a . mu_k + a^T
    Sigma_k a / 2; a quadratic one -gamma |x|^2 / 2, with M_k = I + gamma
    Sigma_k, m_k = M_k^-1 mu_k, S_k = Sigma_k M_k^-1, log Z_k = -(log det M_k
    + gamma mu_k . m_k) / 2.  The zero reward keeps the target (Z = 1), the
    target's own log p(c | x) at scale 1 its component c (Z = w_c).  Raises
    ValueError for other rewards and where some M_k is not positive definite."""
    mu, cov, log_w = target.means, target.covariances, np.log(target.weights)
    if isinstance(reward, ZeroReward):
        return 0.0, target
    if isinstance(reward, LinearReward):
        if reward.coeffs.shape != (target.dim,):
            raise ValueError(f"linear coeffs need one entry per dimension ({target.dim})")
        shift = cov @ reward.coeffs
        means, covs, log_zk = mu + shift, cov, (mu + 0.5 * shift) @ reward.coeffs
    elif isinstance(reward, QuadraticReward):
        m = np.eye(target.dim) + reward.gamma * cov
        try:
            log_det = 2.0 * np.log(np.diagonal(np.linalg.cholesky(m), axis1=1, axis2=2)).sum(1)
        except np.linalg.LinAlgError:
            raise ValueError("improper tilt: I + gamma Sigma_k is not positive definite "
                             f"at gamma = {reward.gamma}") from None
        means, covs = np.linalg.solve(m, mu[:, :, None])[:, :, 0], np.linalg.solve(m, cov)
        log_zk = -0.5 * (log_det + reward.gamma * np.einsum("ki,ki->k", mu, means))
    elif (isinstance(reward, LogResponsibilityReward) and reward.scale == 1.0
          and reward.mixture.to_dict() == target.to_dict()):
        c = reward.component
        return float(log_w[c]), GaussianMixture([1.0], mu[c:c + 1], cov[c:c + 1])
    else:
        raise ValueError(f"no closed-form tilt of this target by this {type(reward).__name__}")
    log_z = float(_logsumexp(log_w + log_zk))
    return log_z, GaussianMixture(np.exp(log_w + log_zk - log_z), means, covs)


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar field, one coordinate at a time."""
    if h <= 0:
        raise ValueError("h must be > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (float(f(x + e)) - float(f(x - e))) / (2.0 * h)
    return g
