"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2,
SolverError -> 3, EnumerationCapError -> 4.
"""


class ValidationError(ValueError):
    """Invalid input: bad dimensions, malformed pmf, out-of-range parameter."""


class SupportError(ValidationError):
    """A divergence is infinite because the second argument lacks support."""


class SolverError(RuntimeError):
    """A numerical solver failed to reach its convergence tolerance."""


class EnumerationCapError(RuntimeError):
    """An exact enumeration would exceed the configured work cap."""


def require(cond: bool, message: str) -> None:
    """Raise ValidationError(message) unless cond holds."""
    if not cond:
        raise ValidationError(message)
