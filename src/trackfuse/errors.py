"""Exception types shared across the package, and the config classes' count check."""

from numbers import Integral


class TrackfuseError(Exception):
    """Base of the types below; the command line reports any of them as an
    `error:` line with exit code 2."""


class ConfigError(TrackfuseError, ValueError):
    """Inconsistent model/configuration (e.g. dimension mismatch)."""


class InputError(TrackfuseError, ValueError):
    """Input violates a documented precondition."""


class NumericsError(TrackfuseError, ArithmeticError):
    """Numerical failure (singular / non-PD matrix, overflow)."""


class ResourceLimitError(TrackfuseError, RuntimeError):
    """Problem size exceeds a configured cap."""


class UnobservableHypothesisError(NumericsError):
    """Stacked information matrix is singular; hypothesis has no full-state MLE."""


class DegenerateBeliefError(NumericsError):
    """Belief or message normalization constant is not positive."""


class InconsistentTransformError(InputError):
    """Transformed residual falls outside the range of the transformed covariance."""


def require_count(value, what: str):
    """Raise InputError unless `value` is an integer >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise InputError(f"need an integer {what} >= 1, got {value!r}")
