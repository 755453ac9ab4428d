"""Discrepancy, thermodynamic length, and annealing-schedule refinement.

The incremental discrepancy of an SMC step is log(1 + Var[G]) for the
normalized incremental weight G; it is estimated from particle weights by a
self-normalized moment formula.  Square roots of the per-step discrepancies
accumulate into a barrier profile whose inversion equalizes the per-step
discrepancy, which is the schedule-refinement rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticsUndefinedError
from .mixtures import _logsumexp


def _log_moments(log_w: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """log sum_n w_n g_n^i for i = 0, 1, 2, from log w and log g; the i = 0
    moment is log sum_n w_n whatever g is (0 * log g would be NaN at g = 0)."""
    return _logsumexp(np.stack([log_w, log_w + log_g, log_w + 2.0 * log_g]), axis=1)


def _check_inputs(n: int, log_g_finite) -> None:
    """Raise ValueError unless the discrepancy has n >= 2 particles (n = 0
    stands for arrays of different shapes) and every log g is finite."""
    if n < 2:
        raise ValueError("need matching arrays with at least 2 particles")
    if not np.all(log_g_finite):
        raise ValueError("incremental weights must be positive and finite")


def _discrepancy(g: np.ndarray, paper_literal: bool) -> float:
    """log g2 - 2 log g1 +/- log g0 from the three log-moments."""
    sign = -1.0 if paper_literal else 1.0
    return float(g[2] - 2.0 * g[1] + sign * g[0])


def incremental_discrepancy_log(log_w_prev: np.ndarray, log_g: np.ndarray,
                                paper_literal: bool = False) -> float:
    """Per-step discrepancy estimate from log-weights and log incremental
    weights, computed entirely in log-space.

    Uses the self-normalized form log g2 - 2 log g1 + log g0 with
    g_i = sum_n w_n g_n^i, which vanishes exactly for constant g.  The
    ``paper_literal`` variant flips the sign of the log g0 term.
    """
    lw = np.asarray(log_w_prev, dtype=float)
    lg = np.asarray(log_g, dtype=float)
    _check_inputs(lw.shape[0] if lw.shape == lg.shape else 0, np.isfinite(lg))
    return _discrepancy(_log_moments(lw, lg), paper_literal)


def incremental_discrepancy(weights_prev: np.ndarray, g: np.ndarray,
                            paper_literal: bool = False) -> float:
    """Linear-space wrapper around incremental_discrepancy_log."""
    w = np.asarray(weights_prev, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any(g <= 0):
        raise ValueError("incremental weights must be strictly positive")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return incremental_discrepancy_log(np.log(w), np.log(g), paper_literal)


@dataclass(frozen=True)
class DiscrepancyTrace:
    """Per-step discrepancy estimates over a schedule."""

    d_hat: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.d_hat, dtype=float))
        ts = np.atleast_1d(np.asarray(self.times, dtype=float))
        object.__setattr__(self, "d_hat", d)
        object.__setattr__(self, "times", ts)
        if ts.shape[0] != d.shape[0] + 1:
            raise ValueError("need one more time knot than discrepancy entries")
        if not np.all(np.isfinite(d)):
            raise ValueError("discrepancy entries must be finite")

    @property
    def n_steps(self) -> int:
        return self.d_hat.shape[0]


def trace_from_run(result, paper_literal: bool = False) -> DiscrepancyTrace:
    """Per-step discrepancies from one SMC run trace (its streamed
    log-moments; see `incremental_discrepancy_log`)."""
    _check_inputs(result.ensemble.size, result.log_g_finite)
    d = np.array([_discrepancy(g, paper_literal) for g in result.log_moments])
    return DiscrepancyTrace(d, result.times)


def trace_from_runs(results, paper_literal: bool = False) -> DiscrepancyTrace:
    """Multi-run discrepancy estimate: per-run self-normalized g-moments are
    combined with the runs' normalization estimates as relative weights, so
    copies of one run give that run's trace."""
    if len(results) == 0:
        raise ValueError("need at least one run")
    for res in results:
        _check_inputs(res.ensemble.size, res.log_g_finite)
    if len(results) == 1:
        return trace_from_run(results[0], paper_literal)
    # (runs, K, 3): each run's moments at step k, weighted by its log Z at k - 1
    g = np.stack([res.log_moments for res in results])
    log_z = np.stack([np.concatenate([[0.0], res.log_z_history[:-1]]) for res in results])
    d = np.array([_discrepancy(m, False)
                  for m in _logsumexp(log_z[..., None] + g - g[..., :1])])
    if paper_literal:
        # The literal form is the plain one minus 2 log g0, with log g0 the
        # runs' log sum_n w_n averaged by their weights Z_r.
        d = d - 2.0 * np.sum(np.exp(log_z - _logsumexp(log_z)) * g[..., 0], axis=0)
    return DiscrepancyTrace(d, results[0].times)


def total_discrepancy(trace: DiscrepancyTrace) -> float:
    return float(np.sum(trace.d_hat))


@dataclass(frozen=True)
class BarrierProfile:
    """Cumulative square-root discrepancy profile (thermodynamic length)."""

    times: np.ndarray
    lambda_cum: np.ndarray

    def __post_init__(self):
        ts = np.atleast_1d(np.asarray(self.times, dtype=float))
        lc = np.atleast_1d(np.asarray(self.lambda_cum, dtype=float))
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "lambda_cum", lc)
        if ts.shape != lc.shape:
            raise ValueError("times and profile must have equal length")
        if lc[0] != 0.0 or np.any(np.diff(lc) < 0):
            raise ValueError("profile must start at 0 and be nondecreasing")

    @property
    def total(self) -> float:
        return float(self.lambda_cum[-1])


def thermodynamic_length(trace: DiscrepancyTrace) -> BarrierProfile:
    """Barrier profile: cumulative sum of sqrt(max(d_hat, 0))."""
    roots = np.sqrt(np.clip(trace.d_hat, 0.0, None))
    lam = np.concatenate([[0.0], np.cumsum(roots)])
    return BarrierProfile(trace.times, lam)


def quality_ratio(trace: DiscrepancyTrace) -> float:
    """(sum sqrt d)^2 / (K * sum d); equals 1 iff d is constant."""
    d = np.clip(trace.d_hat, 0.0, None)
    total = float(np.sum(d))
    if total <= 0.0:
        raise DiagnosticsUndefinedError("quality ratio undefined for zero total discrepancy")
    return float(np.sum(np.sqrt(d)) ** 2 / (trace.n_steps * total))


@dataclass(frozen=True)
class RefinedSchedule:
    times: np.ndarray
    flat: bool = False


def refine_schedule(profile: BarrierProfile, n_steps: int) -> RefinedSchedule:
    """New schedule knots by piecewise-linear inversion of the barrier profile
    at equispaced levels; a flat profile returns the input times flagged."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if profile.total <= 0.0:
        uniform = np.linspace(0.0, 1.0, n_steps + 1)
        times = profile.times if profile.times.shape[0] == n_steps + 1 else uniform
        return RefinedSchedule(times.copy(), flat=True)
    incr = np.diff(profile.lambda_cum)
    if profile.times.shape[0] == n_steps + 1 and np.allclose(
            incr, incr[0], rtol=1e-12, atol=1e-15 * max(profile.total, 1.0)):
        # Equalized per-step discrepancy is the fixed point of refinement.
        return RefinedSchedule(profile.times.copy(), flat=False)
    levels = profile.total * np.arange(n_steps + 1) / n_steps
    # Invert the monotone piecewise-linear profile; flat segments take their
    # left endpoint, then strict monotonicity is restored by interior nudging.
    new_t = np.interp(levels, profile.lambda_cum, profile.times)
    new_t[0], new_t[-1] = 0.0, 1.0
    for i in range(1, n_steps + 1):
        if new_t[i] <= new_t[i - 1]:
            new_t[i] = np.nextafter(new_t[i - 1], 1.0)
    if new_t[-1] != 1.0:
        raise DiagnosticsUndefinedError("refined schedule could not reach t=1")
    return RefinedSchedule(new_t, flat=False)


def var_model(d_total: float, r_eff: float, n: int) -> float:
    """Variance model for the SMC normalization estimate, evaluated literally
    as (1/N)(exp(D/R_eff) - 1) R_eff - 1.

    Provided as a diagnostic model only (as printed); it goes to -1 as D -> 0,
    so treat small-D outputs as a model artifact, not a variance.
    """
    if d_total <= 0:
        raise ValueError("d_total must be > 0")
    if r_eff < 1 or n <= 1:
        raise ValueError("require r_eff >= 1 and n > 1")
    return (np.expm1(d_total / r_eff)) * r_eff / n - 1.0
