"""Exception types shared across the package, and its four rules for what a
caller passes. For a number, `integer` (a Python or NumPy integer, never a
bool) and `real` (a finite real, never a bool) return the plain Python value.
For an array, `reals` (integer or floating elements, every one finite) and
`integers` (integer elements that int64 holds) return a float64 or int64
ndarray, and one already of that dtype as it is; bools, complex numbers,
strings and objects are never cast. Each rule raises the caller's error class
naming the field."""

import math
import numbers

import numpy as np


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


def _array(value, what, error, noun) -> np.ndarray:
    """`value` as an ndarray, raising `error` naming `what` when numpy reads
    no array from it (a ragged list)."""
    try:
        return np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be an array of {noun}: {exc}") from None


# numpy's one float64 dtype object, which every native float64 array carries
_FLOAT64 = np.dtype(np.float64)


def reals(value, what, error=DomainError) -> np.ndarray:
    """`value` as a float64 ndarray, raising `error` naming `what` unless
    its elements are integers or floats and every one is finite. A float64
    ndarray comes back as the same object."""
    # the type test first: every pass reads its input through this rule
    if not (type(value) is np.ndarray and value.dtype is _FLOAT64):
        value = _array(value, what, error, "numbers")
        if value.dtype.kind not in "iuf":
            raise error(f"{what} must be an array of numbers, got dtype {value.dtype}")
        value = value.astype(np.float64)
    # the ufunc's own reduce: `.all()` adds Python frames per call
    if not np.logical_and.reduce(np.isfinite(value), axis=None):
        raise error(f"{what} must be finite, got NaN or infinity")
    return value


def integers(value, what, error=DomainError) -> np.ndarray:
    """`value` as an int64 ndarray, raising `error` naming `what` unless its
    elements are integers that int64 holds. An int64 ndarray comes back as
    the same object."""
    value = _array(value, what, error, "integers")
    # a uint64 past 2**63 - 1 would wrap
    if value.dtype.kind not in "iu" or value.dtype == np.uint64 and value.max(initial=0) >> 63:
        raise error(f"{what} must be an array of integers int64 holds, got dtype {value.dtype}")
    return value.astype(np.int64, copy=False)
