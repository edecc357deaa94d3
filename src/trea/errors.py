"""Exception types shared across the package, and its two rules for a
number a caller passes: `integer` (a Python or NumPy integer, never a bool)
and `real` (a finite real, never a bool). Each returns the plain Python
value or raises the caller's error class naming the field."""

import math
import numbers


class TreaError(Exception):
    """Base class for all package errors."""


class RangeError(TreaError, ValueError):
    """Value does not fit the target fixed-point format."""


class AllZeroError(TreaError, ValueError):
    """Normalization requested on an all-zero weight set."""


class DomainError(TreaError, ValueError):
    """Operand outside the mathematical domain of an operation."""


class AccumulatorOverflow(TreaError, ArithmeticError):
    """Accumulator result exceeds its configured bit width."""


class LengthMismatch(TreaError, ValueError):
    """Paired operand sequences differ in length."""


class InvalidSelect(TreaError, ValueError):
    """Reserved or unknown activation-function select code."""


class KernelTooSmall(TreaError, ValueError):
    """Kernel window too small for the structured retention rule."""


class DivergenceError(TreaError, ArithmeticError):
    """Training loss became non-finite."""


class ShapeMismatch(TreaError, ValueError):
    """Tensor shapes incompatible with the layer graph."""


class FormatError(TreaError, ValueError):
    """Malformed or unsupported model file."""


def integer(value, what, least=None, error=DomainError) -> int:
    """`value` as a Python int, raising `error` naming `what` unless it is an
    int or NumPy integer, not a bool, and at least `least` when given."""
    if type(value) is not int:   # a plain int skips the ABC check: FxPValue runs this per code
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return value


def real(value, what, error=DomainError) -> float:
    """`value` as a Python float, raising `error` naming `what` unless it is
    a finite real number and not a bool; one past float's range is not
    finite."""
    # a plain float or int skips the ABC checks: `metrics.sfil` runs this per frame
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:   # an int past float's range
            raise error(f"{what} must be a finite number, got {value!r}") from None
    try:
        finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:   # an int past float's range
        finite = False
    if not finite:
        raise error(f"{what} must be a finite number, got {value!r}")
    return float(value)
