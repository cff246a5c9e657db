"""Exception hierarchy shared by all solvers.

Solver failures that occur mid-run may carry the partial ``SolveReport``
accumulated so far in the ``report`` attribute.
"""

from __future__ import annotations


class MatrixOptError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DimensionError(MatrixOptError, ValueError):
    """Operands have incompatible or invalid shapes."""


class SingularMatrixError(MatrixOptError):
    """A linear system is numerically singular."""


class NotPositiveDefiniteError(MatrixOptError):
    """Cholesky factorization hit a non-positive pivot."""


class CapacityError(MatrixOptError):
    """A Kronecker product would exceed the configured size cap."""


class ParseError(MatrixOptError, ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(MatrixOptError, ValueError):
    """A documented solver precondition was violated by the caller."""


class ParameterError(PreconditionError):
    """A solver parameter the method does not take, or a value its
    config rejects."""


class DegenerateDirectionError(MatrixOptError):
    """Search direction lies in the null space of the equation operator."""


class LineSearchError(MatrixOptError):
    """Line search exhausted its trial budget without an acceptable step."""


class AdmmBreakdownError(MatrixOptError):
    """An ADMM block solve failed; the penalty systems should be SPD,
    so this signals a bug or pathological input."""


class NewtonBreakdownError(MatrixOptError):
    """The Lyapunov system inside a Newton step was singular."""


class UnknownSuiteError(MatrixOptError, LookupError):
    """Requested benchmark table id is not registered."""
