"""Gaussian mixtures and the closed-form dynamics of their interpolant path.

With independent coupling of a base mixture (components m_i, C_i, weights
w_i) and a target mixture (n_j, S_j, u_j), the interpolated density at time
t is itself a mixture over all P pairs (i,j), with weight w_i*u_j, mean
a*m_i + b*n_j and covariance a^2*C_i + b^2*S_j, where (a, b) = (1-t, t).

One rows-first kernel, `_kernel`, serves both classes.  It whitens the rows
x (n, d) against all k components with one matrix product,
H = (x - xbar) @ [F_1; ...; F_k]^T - [F_j (mu_j - xbar)] of shape (n, k*d),
where F_j^T F_j = Sigma_j^{-1} and xbar is the mixture's mean, and reads the
log-responsibilities and the log-density from H.  A mixture's F_j are its
inverse Cholesky factors.  A path diagonalizes each pair once (Golub & Van
Loan, Matrix Computations, section 8.7): C = V V^T and S = V diag(lam) V^T,
so Sigma(t) = V diag(a^2 + b^2 lam) V^T, and a call whitens with
F = diag(a^2 + b^2 lam)^{-1/2} V^{-1}, a row scaling with no Cholesky
factor or inverse.  One more product of the responsibility-weighted H with
the stacked per-pair blocks [F A | F | b F S | a F C], A = b S - a C, gives
the velocity, score, denoiser and E[x0 | x] together; the Jacobians come
from the same H and responsibilities.

Each output row is bitwise that row of any larger batch (tested at d = 1, 2
and 8 with 16 pairs), as long as BLAS computes the rows of a matrix-matrix
product apart.  numpy's matmul takes BLAS's matrix-vector path for a single
row, so a one-row batch is evaluated as two copies of its row (`_rows`), and
the sums of width d or d^2 go row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .schedule import InterpolantSchedule

_LOG_2PI = float(np.log(2.0 * np.pi))


def _logsumexp(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """log sum exp(a) along ``axis`` of the array a, shifted by the finite
    maxima; NaN, +inf and all -inf give NaN, +inf and -inf."""
    m = a.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)


def _rows(x) -> tuple[np.ndarray, int]:
    """x as a float (n, d) array of at least two rows, and its row count n:
    a single row is doubled, so every product below is matrix-matrix."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    n = x2.shape[0]
    return (np.concatenate((x2, x2)) if n == 1 else x2), n


def _kernel(x: np.ndarray, center: np.ndarray, ft: np.ndarray, c: np.ndarray,
            log_w: np.ndarray, logdets: np.ndarray):
    """Posterior of rows x (n, d) under k weighted Gaussians, given by
    whitening factors F_j with F_j^T F_j = Sigma_j^{-1}, stacked as
    ft = [F_1; ...; F_k]^T (d, k*d), the products c = [F_j (mu_j - center)]
    (k*d,) for the mixture's mean ``center`` (d,), the log-weights (k,) and
    d log 2 pi + log det Sigma_j (k,).

    Returns the whitened residuals h_j = F_j (x - mu_j) as (n, k, d), the
    log-responsibilities (n, k) and the log-density (n,).  The rows are
    centred first, so the rounding of the product scales with the
    mixture's spread, not with |x|.
    """
    n, d = x.shape
    h = (x - center) @ ft
    h -= c
    h = h.reshape(n, -1, d)
    # The log-weights come last: components whose quadratic forms tie keep
    # their weights' ratio however large the forms are.
    logjoint = np.einsum("nki,nki->nk", h, h)
    logjoint += logdets
    logjoint *= -0.5
    logjoint += log_w
    log_density = _logsumexp(logjoint, axis=1)
    return h, logjoint - log_density[:, None], log_density


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
        chols = np.linalg.cholesky(c)
        inv_chols = np.linalg.inv(chols)
        logdets = 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_inv_chols", inv_chols)
        # `_kernel`'s whitening factors F_j = L_j^{-1}, stacked and transposed.
        object.__setattr__(self, "_ft", inv_chols.transpose(2, 0, 1).reshape(d, k * d))
        object.__setattr__(self, "_center", w @ m)
        object.__setattr__(self, "_c",
                           np.einsum("kij,kj->ki", inv_chols, m - self._center).ravel())
        object.__setattr__(self, "_log_w", np.log(w))
        object.__setattr__(self, "_logdets", d * _LOG_2PI + logdets)

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
        """`_kernel` at rows x (n >= 2, d): whitened residuals h_j (n, k, d),
        log-responsibilities (n, k) and log-density (n,)."""
        return _kernel(x, self._center, self._ft, self._c, self._log_w, self._logdets)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x2, n = _rows(x)
        return self._posterior(x2)[2][:n]

    def log_responsibilities(self, x: np.ndarray) -> np.ndarray:
        """log p(component | x), shape (n, k)."""
        x2, n = _rows(x)
        return self._posterior(x2)[1][:n]

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
        """Per-pair factors, computed once per path.

        Pair p couples base component i and target component j.  Each pair
        is diagonalized on both sides (Golub & Van Loan, Matrix
        Computations, section 8.7).  On the base side, with C = L L^T and
        L^{-1} S L^{-T} = Q diag(lam) Q^T, V = L Q gives C = V V^T and
        S = V diag(lam) V^T, and W = V^{-1} = Q^T L^{-1}; the target side
        swaps C and S.  In either basis C = V diag(e_c) V^T and
        S = V diag(e_s) V^T, with (e_c, e_s) = (1, lam) on the base side.

        ``sides`` holds, per side, pair and row k of the basis,
        [V^T | W | V^T | V^T | e_c, e_s, 1, W (m - mbar), W (n - nbar)], where
        mbar and nbar are the base and target means, and ``logdet`` d log
        2 pi + log det L L^T.  ``ends`` holds the blocks, whitened mean
        offsets and log-determinants at t = 0 and t = 1 from the base's and
        the target's own factors.  ``k`` holds the constant terms n - m, 0,
        n and m of the four output blocks.
        """
        base, target = self.base, self.target
        kb, kt = base.n_components, target.n_components
        i_idx = np.repeat(np.arange(kb), kt)
        j_idx = np.tile(np.arange(kt), kb)
        m, n = base.means[i_idx], target.means[j_idx]
        offsets = (m - base._center, n - target._center)
        sides, logdets, ends = [], [], []
        for own, idx, other, on_base in ((base, i_idx, target.covariances[j_idx], True),
                                         (target, j_idx, base.covariances[i_idx], False)):
            chol, inv = own._chols[idx], own._inv_chols[idx]
            e, q = np.linalg.eigh(inv @ other @ inv.swapaxes(1, 2))
            if on_base:
                # The target side serves a pair once b^2 sqrt(lam_min
                # lam_max) > a^2: there its eigenvalues carry the smaller
                # rounding error relative to a^2 e_c + b^2 e_s.
                balance = np.sqrt(e.min(axis=1) * e.max(axis=1))
            w = q.swapaxes(1, 2) @ inv
            vt = q.swapaxes(1, 2) @ chol.swapaxes(1, 2)
            one = np.ones_like(e)
            e_c, e_s = (one, e) if on_base else (e, one)
            w_offsets = [np.einsum("pij,pj->pi", w, o) for o in offsets]
            sides.append(np.concatenate(
                (vt, w, vt, vt, np.stack((e_c, e_s, one, *w_offsets), axis=2)), axis=2))
            logdets.append(own._logdets[idx])
            lt, zero = chol.swapaxes(1, 2), np.zeros_like(chol)
            ends.append((
                np.concatenate((-lt, inv, zero, lt) if on_base else (lt, inv, lt, zero), axis=2),
                np.einsum("pij,pj->pi", inv, offsets[0 if on_base else 1]).ravel(),
                own._logdets[idx]))
        return {
            "log_w": np.log(base.weights)[i_idx] + np.log(target.weights)[j_idx],
            "index": np.arange(len(i_idx)),
            "balance": balance,
            "sides": np.stack(sides),
            "logdet": np.stack(logdets),
            "ends": ends,
            "center": np.stack((base._center, target._center), axis=1),
            "k": np.concatenate((n - m, np.zeros_like(m), n, m), axis=1),
        }

    def _pass(self, t: float, x: np.ndarray):
        """The kernel pass at (t, x) for rows x (n >= 2, d).

        Pair p is whitened by F = diag(a^2 e_c + b^2 e_s)^{-1/2} W, on the
        base side while b^2 sqrt(lam_min lam_max) <= a^2 and on the target
        side after.  At t = 0 (t = 1) every pair's covariance is its base
        (target) component's, and F is that mixture's own L^{-1}, so pairs
        that share the component stay bitwise tied there.

        Returns the per-pair blocks [F A | F | b F S | a F C] (P, d, 4d),
        A = b S - a C; the whitened residuals h_p = F_p (x - mu_p)
        (n, P, d); the responsibilities r (n, P) and the log-density (n,).
        """
        if not np.isfinite(x).all():
            raise ValueError("non-finite state")
        p = self._pairs
        a, b = self.schedule.alpha(t), self.schedule.beta(t)
        d = x.shape[1]
        ab = np.array([a, b])
        if a == 0.0 or b == 0.0:
            blocks, c, logdets = p["ends"][int(a == 0.0)]
        else:
            side = (b * b * p["balance"] > a * a).astype(np.intp)
            g = p["sides"][side, p["index"]]
            # Per row of the basis: the variance a^2 e_c + b^2 e_s, then the
            # unscaled coefficients of the four blocks and W (mu - xbar).
            terms = g[..., 4 * d:] @ np.array([[a * a, -a, 0.0, 0.0, a, 0.0],
                                                [b * b, b, 0.0, b, 0.0, 0.0],
                                                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                                                [0.0, 0.0, 0.0, 0.0, 0.0, a],
                                                [0.0, 0.0, 0.0, 0.0, 0.0, b]])
            var = terms[..., 0]
            scaled = terms[..., 1:] * var[..., None] ** -0.5
            blocks = scaled[..., :4, None] * g[..., :4 * d].reshape(-1, d, 4, d)
            blocks = blocks.reshape(-1, d, 4 * d)
            c = scaled[..., 4].ravel()
            logdets = p["logdet"][side, p["index"]] + np.log(var).sum(axis=1)
        ft = blocks[:, :, d:2 * d].reshape(-1, d).T
        h, log_r, log_density = _kernel(x, p["center"] @ ab, ft, c, p["log_w"], logdets)
        return blocks, h, np.exp(log_r), log_density

    def _sums(self, blocks: np.ndarray, h: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The responsibility-weighted sums of the blocks plus their constant
        terms (n, 4d): velocity, -score, denoiser and E[x0 | x], as one
        product of the stacked blocks with r * h, which overwrites h."""
        n, _, d = h.shape
        h *= r[:, :, None]
        sums = h.reshape(n, -1) @ blocks.reshape(-1, 4 * d)
        sums += r @ self._pairs["k"]
        return sums

    def dynamics(self, t: float, x: np.ndarray, jacobian: str | None = None) -> DynamicsAt:
        """Closed-form velocity, score, denoiser, log-density at (t, x).

        ``jacobian`` ("velocity" or "denoiser") adds that field's spatial
        Jacobian, computed from the same whitened residuals and
        responsibilities.
        """
        if jacobian not in _JACOBIANS:
            raise ValueError(f"unknown jacobian {jacobian!r}; expected one of {_JACOBIANS}")
        x2, rows = _rows(x)
        blocks, h, r, log_density = self._pass(t, x2)
        n, d = x2.shape
        if jacobian is None:
            sums, jac = self._sums(blocks, h, r), None
        else:
            # grad sum_p r_p f_p = sum_p r_p M_p + sum_p r_p f_p g_p^T, with
            # f_p = c_p + A_p u_p the pair's field, whose block is G_p = F_p A_p
            # (A_p = b S - a C for the velocity, b S for the denoiser),
            # M_p = A_p Sigma_p^{-1} = G_p^T F_p and g_p = grad log r_p
            # = sum_q r_q u_q - u_p.  G_p and F_p are adjacent blocks:
            # [F A | F] for the velocity, [F | b F S] for the denoiser.
            lo, f_at, u_at = ((0, slice(0, d), slice(d, None)) if jacobian == "velocity"
                              else (d, slice(d, None), slice(0, d)))
            pair_blocks = blocks[:, :, lo:lo + 2 * d]
            per_pair = np.matmul(h.transpose(1, 0, 2), pair_blocks)
            per_pair += self._pairs["k"][:, None, lo:lo + 2 * d]
            sums = self._sums(blocks, h, r)
            f, u = per_pair[:, :, f_at], per_pair[:, :, u_at]
            f *= r.T[:, :, None]
            np.subtract(sums[:, d:2 * d], u, out=u)
            jac = f.transpose(1, 2, 0) @ u.transpose(1, 0, 2)
            lin = pair_blocks[:, :, f_at].transpose(0, 2, 1) @ pair_blocks[:, :, u_at]
            jac += np.matmul(r[:, None, :], lin.reshape(-1, d * d)).reshape(n, d, d)
        out = (sums[:, :d], -sums[:, d:2 * d], sums[:, 2 * d:3 * d], log_density, jac)
        if np.ndim(x) == 1:
            return DynamicsAt(*(None if o is None else o[0] for o in out))
        return DynamicsAt(*(None if o is None else o[:rows] for o in out))

    def conditional_means(self, t: float, x: np.ndarray):
        """Posterior-averaged E[x0 | I_t=x] and E[x1 | I_t=x], each of x's shape."""
        x2, rows = _rows(x)
        blocks, h, r, _ = self._pass(t, x2)
        sums = self._sums(blocks, h, r)[0 if np.ndim(x) == 1 else slice(rows)]
        return sums[..., 3 * self.dim:], sums[..., 2 * self.dim:3 * self.dim]
