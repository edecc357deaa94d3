"""Dual-precision SIMD multiply-accumulate unit model.

One unit runs either four independent 4-bit lanes or a single 8-bit lane per
cycle; every lane executes the truncated shift-and-add product from
:mod:`trea.fxp`. Accumulators are sized from the retained operand count and
overflow is a detected error, never silent wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import AccumulatorOverflow, DomainError, LengthMismatch, integer
from .fxp import FXP4, FXP8, FxPFormat, FxPValue, PoTTerm, msd_decompose, trunc_shift

__all__ = [
    "MacMode",
    "Accumulator",
    "accumulator_width",
    "conventional_accumulator_width",
    "kernel_cycles",
    "mac_step",
    "dot_product",
]


class MacMode(Enum):
    """Operating mode: lane count, operand format and decomposition depth."""

    FXP4_SIMD = "fxp4_simd"
    FXP8 = "fxp8"

    @property
    def lanes(self) -> int:
        return 4 if self is MacMode.FXP4_SIMD else 1

    @property
    def fmt(self) -> FxPFormat:
        return FXP4 if self is MacMode.FXP4_SIMD else FXP8

    @property
    def terms(self) -> int:
        # 4-bit weights decompose fully within 3 steps; 5 is the pipeline
        # design point for 8-bit.
        return 3 if self is MacMode.FXP4_SIMD else 5


def _ceil_log2(k: int) -> int:
    return (integer(k, "operand count", 1) - 1).bit_length()


def accumulator_width(n_bits: int, k_retained: int) -> int:
    """Accumulator width with pre-accumulation truncation: each partial
    product is already back at N bits, so only the operand count grows it."""
    return integer(n_bits, "operand width", 2) + _ceil_log2(k_retained)


def conventional_accumulator_width(n_bits: int, k: int) -> int:
    """Width a full-product multiplier would need for a K-term dot product."""
    return 2 * integer(n_bits, "operand width", 2) + _ceil_log2(k)


def kernel_cycles(k_retained: int, mode: MacMode) -> int:
    """Execution cycles for one kernel window: ceil(retained / lanes)."""
    return -(-integer(k_retained, "operand count", 1) // mode.lanes)


@dataclass(frozen=True)
class Accumulator:
    """Checked signed accumulator of B bits at the operand fractional scale.

    Its range is checked once per value, at construction: `add` builds the
    next accumulator and lets that check reject a sum past B bits."""

    raw: int
    width: int
    fmt: FxPFormat

    def __post_init__(self):
        lim = 1 << (self.width - 1)
        if not -lim <= self.raw <= lim - 1:
            raise AccumulatorOverflow(
                f"value {self.raw} does not fit {self.width} signed bits"
            )

    def add(self, delta: int) -> "Accumulator":
        return Accumulator(self.raw + delta, self.width, self.fmt)

    @property
    def value(self) -> float:
        return self.raw * self.fmt.lsb


def mac_step(x: FxPValue, w_term: PoTTerm, acc: Accumulator) -> Accumulator:
    """One shift-and-add stage: acc +/- trunc(x >> m). No multiplier."""
    shifted = trunc_shift(x, w_term.shift)
    return acc.add(w_term.sign * shifted.raw)


def dot_product(
    xs: list[FxPValue],
    ws: list[FxPValue],
    mode: MacMode,
    bias: FxPValue,
) -> tuple[FxPValue, int]:
    """K'-operand dot product with bias preload.

    The bias is preloaded into the accumulator at zero cycle cost; when it is
    nonzero it occupies one extra accumulated term, so the width grows to
    accumulator_width(N, K'+1). Lanes pack `mode.lanes` operand pairs per
    cycle, giving ceil(K'/lanes) cycles. The result is returned in a widened
    format (accumulator width, same F), deferring any further narrowing to
    the activation boundary.
    """
    if len(xs) != len(ws):
        raise LengthMismatch(f"{len(xs)} activations vs {len(ws)} weights")
    if not xs:
        raise LengthMismatch("dot product needs at least one operand pair")
    fmt = mode.fmt
    for v in (*xs, *ws, bias):
        if v.fmt is not fmt and v.fmt != fmt:
            raise DomainError(f"operand format {v.fmt} does not match mode {fmt}")
    k = len(xs)
    width = accumulator_width(fmt.total_bits, k + (1 if bias.raw != 0 else 0))
    acc = Accumulator(bias.raw, width, fmt)
    for x, w in zip(xs, ws):
        for term in msd_decompose(w, mode.terms).terms:
            acc = mac_step(x, term, acc)
    return FxPValue(acc.raw, FxPFormat(width, fmt.frac_bits)), kernel_cycles(k, mode)
