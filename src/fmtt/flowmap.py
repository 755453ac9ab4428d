"""Two-time flow map of the probability-flow ODE.

The map X_{s,t} transports a state from time s to time t along solutions of
dx/dtau = b_tau(x).  All four maps (exact or k-step, with or without the
spatial Jacobian) run one routine with one state (the positions, batched
over particles, plus the identity sensitivity matrix for the Jacobian), one
right-hand side (the velocity and the variational equation J' = grad b J),
and either adaptive Dormand-Prince 5(4) integration via scipy or k fixed
Euler/Heun steps, which model distilled few-step maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45

from .errors import ToleranceError
from .mixtures import MixturePath

SCHEMES = ("euler", "heun")


def _check_count(value, name: str) -> None:
    """Raise ValueError unless value is an integer >= 1 (numpy's too, a bool never)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_k_steps(k: int, scheme: str) -> None:
    """Raise ValueError unless ``k`` >= 1 steps of a known fixed-step scheme."""
    _check_count(k, "k")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@dataclass(frozen=True)
class JacobianResult:
    endpoint: np.ndarray
    jacobian: np.ndarray


@dataclass(frozen=True)
class FlowMapEvaluator:
    """Adaptive-integration evaluator of X_{s,t} and its spatial Jacobian."""

    path: MixturePath
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 10_000

    def _integrate(self, fun, y0: np.ndarray, s: float, t: float) -> np.ndarray:
        solver = RK45(fun, s, y0, t_bound=t, rtol=self.rel_tol, atol=self.abs_tol)
        steps = 0
        while solver.status == "running":
            if steps >= self.max_steps:
                raise ToleranceError(
                    f"integrator exhausted {self.max_steps} steps at tau={solver.t}",
                    partial_time=solver.t,
                )
            solver.step()
            steps += 1
        if solver.status == "failed":
            raise ToleranceError(
                f"integrator failed at tau={solver.t}", partial_time=solver.t
            )
        return solver.y

    def _map(self, s: float, t: float, x: np.ndarray, jacobian: bool,
             k: int | None = None, scheme: str = "euler"):
        """(X_{s,t}(x), grad X_{s,t}(x) or None without ``jacobian``) for x of
        shape (d,) or (n, d); adaptive, or k fixed steps of ``scheme`` when k
        is given.  X_{s,s} is the identity; both s < t and s > t work."""
        if k is not None:
            _check_k_steps(k, scheme)
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite state")
        n, d = np.atleast_2d(x).shape
        nx = n * d
        y = x.flatten()
        if jacobian:
            y = np.concatenate([y, np.broadcast_to(np.eye(d), (n, d, d)).ravel()])

        def rhs(tau, y):
            dyn = self.path.dynamics(tau, y[:nx].reshape(n, d),
                                     jacobian="velocity" if jacobian else None)
            if not jacobian:
                return dyn.velocity.ravel()
            sens = np.einsum("nij,njk->nik", dyn.jacobian, y[nx:].reshape(n, d, d))
            return np.concatenate([dyn.velocity.ravel(), sens.ravel()])

        if s != t and k is None:
            y = self._integrate(rhs, y, s, t)
        elif s != t:
            taus = np.linspace(s, t, k + 1)
            for a, b in zip(taus[:-1], taus[1:]):
                h = b - a
                f = rhs(a, y)
                if scheme == "euler":
                    y = y + h * f
                else:
                    y = y + 0.5 * h * (f + rhs(b, y + h * f))
        jac = y[nx:].reshape(x.shape + (d,)) if jacobian else None
        return y[:nx].reshape(x.shape), jac

    def flow_map(self, s: float, t: float, x: np.ndarray) -> np.ndarray:
        """X_{s,t}(x) for x of shape (d,) or (n, d); both s<t and s>t work."""
        return self._map(s, t, x, False)[0]

    def flow_map_jacobian(self, s: float, t: float, x: np.ndarray) -> JacobianResult:
        """X_{s,t}(x) and the dense Jacobian grad X_{s,t}(x) by forward sensitivity."""
        return JacobianResult(*self._map(s, t, x, True))

    def k_step_map(self, s: float, t: float, x: np.ndarray, k: int,
                   scheme: str = "euler") -> np.ndarray:
        """Compose k fixed-size Euler or Heun steps of the flow ODE."""
        return self._map(s, t, x, False, k, scheme)[0]

    def k_step_map_jacobian(self, s: float, t: float, x: np.ndarray, k: int,
                            scheme: str = "euler") -> JacobianResult:
        """Endpoint and Jacobian of the k-step map (its steps on the sensitivity)."""
        return JacobianResult(*self._map(s, t, x, True, k, scheme))


def gaussian_pair_closed_form(path: MixturePath, s: float, t: float,
                              x: np.ndarray) -> np.ndarray:
    """Analytic flow map for single-Gaussian base/target pairs.

    The map is affine: mu(t) + L(t) L(s)^{-1} (x - mu(s)) with
    Sigma(tau) = L(tau) L(tau)^T the path covariance.  Exact whenever the
    base and target covariances commute (always in 1D and for isotropic or
    co-diagonal pairs, which is what the oracle is used on).
    """
    if path.base.n_components != 1 or path.target.n_components != 1:
        raise ValueError("closed form requires single-component base and target")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x2 = np.atleast_2d(x)
    a_s, b_s = path.schedule.alpha(s), path.schedule.beta(s)
    a_t, b_t = path.schedule.alpha(t), path.schedule.beta(t)
    m, n = path.base.means[0], path.target.means[0]
    C, S = path.base.covariances[0], path.target.covariances[0]
    mu_s = a_s * m + b_s * n
    mu_t = a_t * m + b_t * n
    L_s = np.linalg.cholesky(a_s**2 * C + b_s**2 * S)
    L_t = np.linalg.cholesky(a_t**2 * C + b_t**2 * S)
    dev = np.linalg.solve(L_s, (x2 - mu_s).T)
    out = mu_t + (L_t @ dev).T
    return out[0] if squeeze else out
