"""Two-time flow map of the probability-flow ODE.

The map X_{s,t} transports a state from time s to time t along solutions of
dx/dtau = b_tau(x).  It is evaluated here by high-accuracy adaptive
Runge-Kutta integration (Dormand-Prince 5(4) via scipy), batched over
particles, with an optional dense Jacobian computed by forward sensitivity.
Few-step Euler/Heun approximations model distilled few-step maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45
from scipy.linalg import cholesky, solve_triangular

from .errors import ToleranceError
from .mixtures import MixturePath


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

    def flow_map(self, s: float, t: float, x: np.ndarray) -> np.ndarray:
        """X_{s,t}(x) for x of shape (d,) or (n, d); both s<t and s>t work."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite state")
        if s == t:
            return x.copy()
        squeeze = x.ndim == 1
        x2 = np.atleast_2d(x)
        n, d = x2.shape

        def fun(tau, y):
            return self.path.dynamics(tau, y.reshape(n, d)).velocity.ravel()

        out = self._integrate(fun, x2.ravel(), s, t).reshape(n, d)
        return out[0] if squeeze else out

    def flow_map_jacobian(self, s: float, t: float, x: np.ndarray) -> JacobianResult:
        """X_{s,t}(x) and the dense Jacobian grad X_{s,t}(x) by forward sensitivity."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x2 = np.atleast_2d(x)
        n, d = x2.shape
        if s == t:
            eye = np.broadcast_to(np.eye(d), (n, d, d)).copy()
            return JacobianResult(x.copy(), eye[0] if squeeze else eye)

        nx = n * d

        def fun(tau, y):
            pos = y[:nx].reshape(n, d)
            jac = y[nx:].reshape(n, d, d)
            dyn = self.path.dynamics(tau, pos, jacobian="velocity")
            return np.concatenate([dyn.velocity.ravel(),
                                   np.einsum("nij,njk->nik", dyn.jacobian, jac).ravel()])

        y0 = np.concatenate([x2.ravel(), np.broadcast_to(np.eye(d), (n, d, d)).ravel()])
        y = self._integrate(fun, y0, s, t)
        endpoint = y[:nx].reshape(n, d)
        jacobian = y[nx:].reshape(n, d, d)
        if squeeze:
            return JacobianResult(endpoint[0], jacobian[0])
        return JacobianResult(endpoint, jacobian)

    def k_step_map(self, s: float, t: float, x: np.ndarray, k: int,
                   scheme: str = "euler") -> np.ndarray:
        """Compose k fixed-size Euler or Heun steps of the flow ODE."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if scheme not in ("euler", "heun"):
            raise ValueError(f"unknown scheme {scheme!r}")
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        y = np.atleast_2d(x).copy()
        taus = np.linspace(s, t, k + 1)
        for a, b in zip(taus[:-1], taus[1:]):
            h = b - a
            v0 = self.path.dynamics(a, y).velocity
            if scheme == "euler":
                y = y + h * v0
            else:
                pred = y + h * v0
                v1 = self.path.dynamics(b, pred).velocity
                y = y + 0.5 * h * (v0 + v1)
        return y[0] if squeeze else y

    def k_step_map_jacobian(self, s: float, t: float, x: np.ndarray, k: int,
                            scheme: str = "euler") -> JacobianResult:
        """Endpoint and Jacobian of the k-step map by chain rule through the steps."""
        if k < 1:
            raise ValueError("k must be >= 1")
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        y = np.atleast_2d(x).copy()
        n, d = y.shape
        J = np.broadcast_to(np.eye(d), (n, d, d)).copy()
        taus = np.linspace(s, t, k + 1)
        for a, b in zip(taus[:-1], taus[1:]):
            h = b - a
            dyn0 = self.path.dynamics(a, y, jacobian="velocity")
            v0, g0 = dyn0.velocity, dyn0.jacobian
            if scheme == "euler":
                y = y + h * v0
                J = J + h * np.einsum("nij,njk->nik", g0, J)
            elif scheme == "heun":
                pred = y + h * v0
                Jp = J + h * np.einsum("nij,njk->nik", g0, J)
                dyn1 = self.path.dynamics(b, pred, jacobian="velocity")
                v1, g1 = dyn1.velocity, dyn1.jacobian
                y = y + 0.5 * h * (v0 + v1)
                J = J + 0.5 * h * (np.einsum("nij,njk->nik", g0, J)
                                   + np.einsum("nij,njk->nik", g1, Jp))
            else:
                raise ValueError(f"unknown scheme {scheme!r}")
        if squeeze:
            return JacobianResult(y[0], J[0])
        return JacobianResult(y, J)


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
    L_s = cholesky(a_s**2 * C + b_s**2 * S, lower=True)
    L_t = cholesky(a_t**2 * C + b_t**2 * S, lower=True)
    dev = solve_triangular(L_s, (x2 - mu_s).T, lower=True)
    out = mu_t + (L_t @ dev).T
    return out[0] if squeeze else out
