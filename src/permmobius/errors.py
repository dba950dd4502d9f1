"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MobiusError",
    "NotAPermutation",
    "IndexOutOfRange",
    "EmptyOperand",
    "OperandTooShort",
    "InvalidShape",
    "TooLarge",
    "PreconditionViolation",
    "NotAnOscillation",
    "NotContained",
    "RangeError",
    "Overflow",
]


class MobiusError(Exception):
    """Base class for all package-specific errors."""


class NotAPermutation(MobiusError, ValueError):
    """A value sequence is not a bijection onto {1..n}."""


class IndexOutOfRange(MobiusError, IndexError):
    """A 1-based point position lies outside the permutation."""


class EmptyOperand(MobiusError, ValueError):
    """An operation requiring nonempty operands received an empty one."""


class OperandTooShort(MobiusError, ValueError):
    """An operand is nonempty but still too short for the operation."""


class InvalidShape(MobiusError, ValueError):
    """Shape parameters violate the shape invariants."""


class TooLarge(MobiusError, ValueError):
    """A downset has more members than poset.MAX_DOWNSET_MEMBERS."""


class PreconditionViolation(MobiusError, ValueError):
    """An operation's precondition does not hold for the given input."""


class NotAnOscillation(MobiusError, ValueError):
    """A permutation is not an increasing oscillation where one is required."""


class NotContained(MobiusError, ValueError):
    """The lower bound is not contained in the upper bound."""


class RangeError(MobiusError, ValueError):
    """A numeric range argument is invalid."""


class Overflow(MobiusError, OverflowError):
    """A computed value left the checked 64-bit range."""


# The checked range: a value whose magnitude reaches this raises Overflow.
_INT64_GUARD = 1 << 62
