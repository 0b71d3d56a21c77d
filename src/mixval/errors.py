"""Shared exception types and the input rules: counts, real numbers, arrays.

Errors fall into two families: domain errors (inputs outside an
operation's contract) and numerical errors (a computation that cannot
be completed reliably).  The command-line layer maps these onto
distinct exit codes.
"""

import math
import numbers

import numpy as np


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


def check_real(value, name: str, *, gt=-math.inf, ge=-math.inf, le=math.inf) -> None:
    """The one real-number rule, for every real-valued parameter an entry
    point takes: raise :class:`DomainError` naming ``name`` unless
    ``value`` is a ``numbers.Real`` (numpy floats and integers too) that
    is not a bool, is finite, and is ``> gt``, ``>= ge`` and ``<= le``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    for op, bound, inside in (
        (">", gt, value > gt), (">=", ge, value >= ge), ("<=", le, value <= le)
    ):
        if not inside:
            raise DomainError(f"{name} must be {op} {bound}, got {value}")


def check_reals(values, name: str, *, gt=-math.inf, ge=-math.inf, le=math.inf) -> np.ndarray:
    """The array form of :func:`check_real`, for every data array an entry
    point takes: raise its :class:`DomainError` for the first entry that
    fails it, else return the values as a float array.  Each caller checks
    the shape it needs."""
    raw = np.asarray(values)
    if raw.dtype.kind in "iuf":  # numbers, not bools: every entry is tested at once
        a = np.asarray(raw, dtype=float)
        bounds = ((np.greater, gt), (np.greater_equal, ge), (np.less_equal, le))
        if np.isfinite(a).all() and all(op(a, b).all() for op, b in bounds if math.isfinite(b)):
            return a
    for value in raw.ravel().tolist():
        check_real(value, name, gt=gt, ge=ge, le=le)
    return np.asarray(raw, dtype=float)


def prechecked(cls, **values):
    """An instance of the frozen dataclass ``cls`` holding ``values``,
    built without running its ``__post_init__``.

    Only for values that follow from instances which passed those checks,
    where checking them again per call would repeat the work: a pooled
    coalition's rows (``longtail.pool_contributors``) and a checked bank's
    scaled bandwidths (``mmd.MultiKernelSpec.scaled``).  Every other
    instance is built by ``cls(...)``, which checks it.
    """
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


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
