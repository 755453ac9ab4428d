"""Interpolant schedule: the scalar coefficients that define the transport.

The interpolant is the linear one, I_t = alpha(t) x0 + beta(t) x1 with
alpha = 1-t and beta = t.  The schedule adds the diffusion coefficient
epsilon (default 1-t), the tilted-score multiplier eta and the drift
multiplier chi that each named choice reads from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ScheduleDomainError

CHI_CHOICES = ("default", "tilted_score", "local_tilt", "base")


def _default_epsilon(t: float) -> float:
    return 1.0 - t


def _zero_epsilon(t: float) -> float:
    return 0.0


def _nonnegative_constant(value, name: str) -> float:
    """value as a float, raising ValueError unless it is a finite number >= 0
    (a bool is not a number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0 <= value < float("inf"):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class InterpolantSchedule:
    """Time-dependent coefficients of the interpolant transport: the fixed
    alpha = 1-t and beta = t, and the settable epsilon and eta_offset.

    Invariant: epsilon(t) >= 0 on [0,1].  ``eta_offset`` regularizes the
    tilted-score multiplier near t=0 (the denominator beta is replaced by
    beta+offset).
    """

    epsilon: Callable[[float], float] = _default_epsilon
    eta_offset: float = 0.0

    def __post_init__(self):
        _nonnegative_constant(self.eta_offset, "eta_offset")

    @staticmethod
    def alpha(t: float) -> float:
        return 1.0 - t

    @staticmethod
    def beta(t: float) -> float:
        return t

    def eta(self, t: float) -> float:
        """Tilted-score multiplier alpha*(alpha/(beta+offset) + 1).

        Raises ScheduleDomainError where the denominator vanishes (t=0 with
        zero offset).
        """
        a = self.alpha(t)
        if a == 0.0:
            return 0.0
        denom = self.beta(t) + self.eta_offset
        if denom == 0.0:
            raise ScheduleDomainError(
                f"eta undefined at t={t}: beta + offset = 0 (use a positive eta_offset)"
            )
        return a * (a / denom + 1.0)

    def chi(self, choice: str, t: float) -> float:
        """Coefficient chi_t of the extra reward-gradient drift term that a
        choice names: default 0, tilted_score eta_t, local_tilt eps_t, base
        -eps_t (cancels the score-tilt term; the reward enters the weights
        only).  An unknown choice is a ValueError."""
        if choice == "default":
            return 0.0
        if choice == "tilted_score":
            return self.eta(t)
        if choice not in CHI_CHOICES:
            raise ValueError(f"unknown chi choice {choice!r}; expected one of {CHI_CHOICES}")
        eps = self.epsilon(t)
        return eps if choice == "local_tilt" else -eps

    def checked_epsilon(self, t: float) -> float:
        """epsilon(t), raising ValueError where it is negative or not finite."""
        eps = self.epsilon(t)
        if eps < 0:
            raise ValueError(f"epsilon({t}) = {eps} < 0")
        if not eps < float("inf"):
            raise ValueError(f"epsilon({t}) = {eps} is not finite")
        return eps

    @classmethod
    def linear(cls, epsilon: Callable[[float], float] | str = "one_minus_t",
               eta_offset: float = 0.0) -> "InterpolantSchedule":
        """Linear schedule alpha=1-t, beta=t.

        ``epsilon`` may be a callable, "one_minus_t" (default), "zero", or a
        finite nonnegative constant.
        """
        if callable(epsilon):
            eps = epsilon
        elif epsilon == "one_minus_t":
            eps = _default_epsilon
        elif epsilon == "zero":
            eps = _zero_epsilon
        elif isinstance(epsilon, (int, float)):
            c = _nonnegative_constant(epsilon, "constant epsilon")
            eps = lambda t, _c=c: _c  # noqa: E731
        else:
            raise ValueError(f"unrecognized epsilon choice: {epsilon!r}")
        return cls(epsilon=eps, eta_offset=eta_offset)
