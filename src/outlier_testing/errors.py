"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2,
SolverError -> 3, EnumerationCapError -> 4.
"""
import numbers


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


def whole(value, name: str, least: int = 0) -> int:
    """value as an int, the package's one rule for a count, size or index.

    Raises ValidationError naming ``name`` unless value is an int or a numpy
    integer (a `numbers.Integral`) of at least ``least``: a float such as 3.0
    is no whole number here, wherever it enters.
    """
    if not (isinstance(value, (int, numbers.Integral)) and value >= least):  # int: no ABC lookup
        raise ValidationError(f"{name} must be whole numbers of at least {least}, got {value!r}")
    return int(value)
