"""Oracles for the workload gates, written without fmtt.

Each oracle is computed from the problem definition alone, with numpy and
scipy, so a defect in fmtt's mixture kernel cannot move the oracle along
with the estimate it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

# Shared problem constants; workloads.py builds the same problems with fmtt.
TWO_MODE_MEANS = ((-2.0, 0.0), (2.0, 0.0))
TWO_MODE_VAR = 0.25
TWO_MODE_SCALE = 0.1
WIDE_COMPONENTS = 16
WIDE_DIM = 8
WIDE_VAR = 0.25
WIDE_SCALE = 0.1
LINE_MEAN = 3.0
LINE_VAR = 0.04
LINE_COEFF = 0.5


def wide_means() -> np.ndarray:
    return np.random.default_rng(3).normal(scale=1.5, size=(WIDE_COMPONENTS, WIDE_DIM))


@dataclass(frozen=True)
class Oracle:
    value: float
    stderr: float
    log_z: float | None = None


def two_mode_mass() -> Oracle:
    """Tilted mass of mode 2 of the 2-D two-mode target, by quadrature.

    With modes at (+-2, 0) and variance 0.25, p(mode 2 | x) is
    sigmoid(16 x_0), so both the mode indicator (x_0 > 0) and the reward
    0.1 * log p(mode 2 | x) depend on x_0 alone, and the tilted mass is a
    ratio of two 1-D integrals over the x_0 marginal.
    """
    (m0, _), (m1, _) = TWO_MODE_MEANS
    slope = 2.0 * (m1 - m0) / (2.0 * TWO_MODE_VAR)

    def tilted(x):
        marginal = 0.5 * (np.exp(-(x - m0) ** 2 / (2 * TWO_MODE_VAR))
                          + np.exp(-(x - m1) ** 2 / (2 * TWO_MODE_VAR)))
        return marginal * np.exp(-TWO_MODE_SCALE * np.logaddexp(0.0, -slope * x))

    upper, _ = integrate.quad(tilted, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12)
    lower, _ = integrate.quad(tilted, -np.inf, 0.0, epsabs=1e-14, epsrel=1e-12)
    return Oracle(upper / (upper + lower), 0.0)


def wide_mean(seed: int, samples: int = 10**6, chunk: int = 125_000) -> Oracle:
    """Tilted mean of x_0 on the 16-component 8-D target, by SNIS.

    Components are sampled in equal strata (the weights are equal), and the
    reward 0.1 * log p(component 0 | x) is computed from squared distances,
    since all components share one isotropic variance.
    """
    means = wide_means()
    rng = np.random.default_rng(seed)
    per = samples // WIDE_COMPONENTS
    comp = np.repeat(np.arange(WIDE_COMPONENTS), per)
    sq_means = np.sum(means**2, axis=1)
    rewards, values = [], []
    for lo in range(0, comp.size, chunk):
        c = comp[lo:lo + chunk]
        x = means[c] + np.sqrt(WIDE_VAR) * rng.standard_normal((c.size, WIDE_DIM))
        sq = np.sum(x**2, axis=1)[:, None] - 2.0 * x @ means.T + sq_means[None, :]
        logp = -sq / (2.0 * WIDE_VAR)
        rewards.append(WIDE_SCALE * (logp[:, 0] - logsumexp(logp, axis=1)))
        values.append(x[:, 0])
    r, h = np.concatenate(rewards), np.concatenate(values)
    w = np.exp(r - r.max())
    w /= w.sum()
    est = float(w @ h)
    return Oracle(est, float(np.sqrt(np.sum(w**2 * (h - est) ** 2))))


def line_tilt() -> Oracle:
    """Closed-form mean and log-normalizer of N(3, 0.04) tilted by 0.5 x."""
    return Oracle(LINE_MEAN + LINE_COEFF * LINE_VAR, 0.0,
                  LINE_COEFF * LINE_MEAN + 0.5 * LINE_COEFF**2 * LINE_VAR)


def for_workload(name: str, seed: int) -> Oracle:
    if name == "exact-small":
        return two_mode_mass()
    if name == "naive-wide":
        return wide_mean(seed)
    if name == "refine-cli":
        return line_tilt()
    raise ValueError(f"unknown workload {name!r}")
