"""Exception types shared across the package."""


class FmttError(Exception):
    """Base class for all package-specific errors."""


class ScheduleDomainError(FmttError):
    """A schedule quantity is undefined at the requested time (e.g. the
    tilted-score multiplier at t=0 with zero offset)."""


class ToleranceError(FmttError):
    """The adaptive integrator exhausted its step budget before reaching the
    requested time.  ``partial_time`` holds the time actually reached."""

    def __init__(self, message, partial_time):
        super().__init__(message)
        self.partial_time = partial_time


class SchemeCompatibilityError(FmttError):
    """A weight scheme was combined with dynamics it cannot handle
    (e.g. the Ito-difference scheme with zero diffusion)."""


class DegenerateEnsembleError(FmttError):
    """No usable weight remains: every log-weight is -inf, or some are NaN
    or +inf."""


class DiagnosticsUndefinedError(FmttError):
    """A diagnostic quantity is undefined for the given trace
    (e.g. quality ratio with zero total discrepancy)."""


class ConfigError(FmttError):
    """Experiment configuration failed validation."""
