"""Exception types shared across the package."""


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
