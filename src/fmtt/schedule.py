"""Interpolant schedule: the scalar coefficients that define the transport.

The schedule bundles the interpolation coefficients (alpha, beta), their time
derivatives, the diffusion coefficient epsilon, and the tilted-score
multiplier eta.  The default is the linear schedule alpha=1-t, beta=t with
epsilon=1-t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ScheduleDomainError


def _linear_alpha(t: float) -> float:
    return 1.0 - t


def _linear_beta(t: float) -> float:
    return t


def _linear_alpha_dot(t: float) -> float:
    return -1.0


def _linear_beta_dot(t: float) -> float:
    return 1.0


def _default_epsilon(t: float) -> float:
    return 1.0 - t


def _zero_epsilon(t: float) -> float:
    return 0.0


@dataclass(frozen=True)
class InterpolantSchedule:
    """Time-dependent coefficients of the interpolant transport.

    Invariants: alpha(0)=1, alpha(1)=0, beta(0)=0, beta(1)=1 and
    epsilon(t) >= 0 on [0,1].  ``eta_offset`` regularizes the tilted-score
    multiplier near t=0 (the denominator beta is replaced by beta+offset).
    """

    alpha: Callable[[float], float] = _linear_alpha
    beta: Callable[[float], float] = _linear_beta
    alpha_dot: Callable[[float], float] = _linear_alpha_dot
    beta_dot: Callable[[float], float] = _linear_beta_dot
    epsilon: Callable[[float], float] = _default_epsilon
    eta_offset: float = 0.0

    def __post_init__(self):
        if self.eta_offset < 0:
            raise ValueError("eta_offset must be >= 0")
        for t, a, b in [(0.0, 1.0, 0.0), (1.0, 0.0, 1.0)]:
            if abs(self.alpha(t) - a) > 1e-12 or abs(self.beta(t) - b) > 1e-12:
                raise ValueError("schedule must satisfy alpha0=1, alpha1=0, beta0=0, beta1=1")

    def eta(self, t: float) -> float:
        """Tilted-score multiplier alpha*(beta_dot*alpha/(beta+offset) - alpha_dot).

        Raises ScheduleDomainError where the denominator vanishes (t=0 with
        zero offset on the linear schedule).
        """
        a = self.alpha(t)
        if a == 0.0:
            return 0.0
        denom = self.beta(t) + self.eta_offset
        if denom == 0.0:
            raise ScheduleDomainError(
                f"eta undefined at t={t}: beta + offset = 0 (use a positive eta_offset)"
            )
        return a * (self.beta_dot(t) * a / denom - self.alpha_dot(t))

    def checked_epsilon(self, t: float) -> float:
        """epsilon(t), raising ValueError where it is negative."""
        eps = self.epsilon(t)
        if eps < 0:
            raise ValueError(f"epsilon({t}) = {eps} < 0")
        return eps

    @classmethod
    def linear(cls, epsilon: Callable[[float], float] | str = "one_minus_t",
               eta_offset: float = 0.0) -> "InterpolantSchedule":
        """Linear schedule alpha=1-t, beta=t.

        ``epsilon`` may be a callable, "one_minus_t" (default), "zero", or a
        nonnegative constant.
        """
        if callable(epsilon):
            eps = epsilon
        elif epsilon == "one_minus_t":
            eps = _default_epsilon
        elif epsilon == "zero":
            eps = _zero_epsilon
        elif isinstance(epsilon, (int, float)):
            if epsilon < 0:
                raise ValueError("constant epsilon must be >= 0")
            c = float(epsilon)
            eps = lambda t, _c=c: _c  # noqa: E731
        else:
            raise ValueError(f"unrecognized epsilon choice: {epsilon!r}")
        return cls(epsilon=eps, eta_offset=eta_offset)
