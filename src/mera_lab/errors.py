"""Exception types shared across the package, and its one integer check.

Every error raised by the public API derives from MeraLabError so callers
(and the CLI exit-code mapping) can distinguish our failures from bugs.
"""

import operator


class MeraLabError(Exception):
    """Base class for all package errors."""


class ShapeError(MeraLabError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class DomainError(MeraLabError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class ContractError(MeraLabError, ValueError):
    """A documented precondition (normalization, Hermiticity, ...) is violated."""


class NumericError(MeraLabError, RuntimeError):
    """An iterative routine failed to converge or lost required accuracy."""


class ResourceError(MeraLabError, ValueError):
    """Requested problem size exceeds the supported desk-scale limits."""


def check_integer(value: object, what: str) -> None:
    """Raise :class:`DomainError` unless ``value`` is a Python or numpy integer (``operator.index`` accepts it)."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
