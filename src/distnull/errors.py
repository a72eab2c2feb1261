"""Exception taxonomy shared across the package.

Every failure mode named by an operation contract maps onto one of these
classes so that callers can dispatch on type rather than on message text.
Each class carries the exit code the CLI returns for it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping


class DistnullError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class ParseError(DistnullError):
    """Malformed input file or record.

    Carries the 1-based line number when known so CLI messages can point
    at the offending row.
    """

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigurationError(DistnullError):
    """Invalid or inconsistent command/run configuration."""

    exit_code = 3


class DomainError(DistnullError):
    """Argument outside an operation's mathematical domain."""


class InsufficientDataError(DomainError):
    """Too few observations, experiments, or sites for the estimator."""


class DegenerateVarianceError(DomainError):
    """A variance that must be strictly positive is zero."""


class DegeneratePredictorError(DomainError):
    """Predictor values carry no variation (sum of squares is zero)."""


class NumericError(DistnullError):
    """Numerical routine failed to converge to the requested tolerance.

    ``best_estimate`` and ``error_bound`` carry the last iterate and its
    estimated error so callers can decide whether to accept it anyway.
    """

    exit_code = 5

    def __init__(
        self,
        message: str,
        best_estimate: float | None = None,
        error_bound: float | None = None,
    ):
        if best_estimate is not None:
            message = (
                f"{message} (best estimate {best_estimate!r}, "
                f"error bound {error_bound!r})"
            )
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


def _raise_first(faults: Mapping[int, DistnullError], where: Callable[[int], str]) -> None:
    """Raise the fault of the first faulty row or task, if any; a domain or
    numeric error is prefixed with ``where`` of its index, and keeps its
    class and attributes, such as a NumericError's estimate."""
    if faults:
        first = min(faults)
        exc = faults[first]
        if isinstance(exc, (DomainError, NumericError)):
            exc.args = (f"{where(first)}: {exc}",)
        raise exc
