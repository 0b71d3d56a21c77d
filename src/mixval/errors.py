"""Shared exception types, and the one count rule.

Errors fall into two families: domain errors (inputs outside an
operation's contract) and numerical errors (a computation that cannot
be completed reliably).  The command-line layer maps these onto
distinct exit codes.
"""

import numbers


def is_integer(value) -> bool:
    """Whether a size or count is an integer: a ``numbers.Integral``
    (numpy integers too) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(value, name: str, minimum: int) -> None:
    """The one count rule, for every size, count and index an entry point
    takes: raise :class:`DomainError` naming ``name`` unless ``value``
    passes :func:`is_integer` and is at least ``minimum``."""
    if not is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


class MixvalError(Exception):
    """Base class for all package errors."""


class DomainError(MixvalError, ValueError):
    """An argument violates an operation's precondition."""


class DegenerateDataError(DomainError):
    """Input data has no usable variation (all-identical points, constant vector)."""


class GridError(DomainError):
    """A sample-size grid is too coarse or too short for the requested analysis."""


class NumericalError(MixvalError, ArithmeticError):
    """A numerical routine failed to converge or produced a non-finite result."""


class ConfigError(MixvalError, ValueError):
    """A run configuration is missing, malformed, or holds unknown keys."""
