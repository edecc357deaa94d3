"""Signed two's-complement fixed-point arithmetic and MSD-guided power-of-two
weight decomposition.

All bit-accurate work happens on raw integers; floats only enter at the
encode/decode boundary. A weight with magnitude below one is split greedily
into signed power-of-two terms, most significant digit first, so a multiply
becomes a short cascade of arithmetic shifts and adds.

`msd_decompose` and `potq_multiply` are the scalar oracles; every batched
product (`net`'s accumulate, `error_sweep`) reads the same terms from the one
cached `term_table`, in shift-plane form sum_m sign_m * (x >> m). A weight
code's decomposition is memoized per (code, F, t), as the hardware encodes its
static weights once, offline; the per-call shift-and-add over those terms is
what stays the oracle. The values `potq_multiply` and `trunc_shift` return
come from a second bounded memo, one immutable `FxPValue` per (raw, format)
(`_code`), which holds results, never products: each call still checks its
operands, shifts and adds to find the raw, and range-checks a raw the memo
has not seen.

`term_codes` holds the table's per-code siblings, derived from it and cached
beside it: each code's reach and greedy value, and the shifts it uses. A
layer build gathers each, and the signs of the shifts in use, once per weight
code instead of making a pass per shift plane.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AllZeroError, DomainError, RangeError, integer, real, reals

__all__ = [
    "FxPFormat",
    "FxPValue",
    "PoTTerm",
    "PoTDecomposition",
    "FXP4",
    "FXP8",
    "encode",
    "decode",
    "trunc_shift",
    "mn_normalize",
    "msd_decompose",
    "potq_multiply",
    "term_table",
    "TermCodes",
    "term_codes",
    "error_bound",
    "error_sweep",
]


@dataclass(frozen=True)
class FxPFormat:
    """N-bit signed fixed-point layout with F fractional bits (N >= F + 1)."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        for name in ("total_bits", "frac_bits"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if not 2 <= self.total_bits <= 32:
            raise DomainError(f"total_bits must be in 2..32, got {self.total_bits}")
        if not 1 <= self.frac_bits <= self.total_bits - 1:
            raise DomainError(
                f"frac_bits must be in 1..{self.total_bits - 1}, got {self.frac_bits}"
            )
        # the fields' hash, once: the generated one builds their tuple per
        # call, and every `_code` lookup hashes its format
        object.__setattr__(self, "_hash", hash((self.total_bits, self.frac_bits)))

    def __hash__(self):
        return self._hash

    # Computed once per instance: cached_property stores into the instance
    # dict, which a frozen dataclass without slots allows; eq and repr read
    # only the fields, and the hash is theirs.
    @functools.cached_property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @functools.cached_property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @functools.cached_property
    def lsb(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def min_value(self) -> float:
        return self.raw_min * self.lsb

    @property
    def max_value(self) -> float:
        return self.raw_max * self.lsb


FXP4 = FxPFormat(4, 3)
FXP8 = FxPFormat(8, 7)


@dataclass(frozen=True)
class FxPValue:
    """Raw two's-complement integer plus its format; value = raw * 2**-F."""

    raw: int
    fmt: FxPFormat

    def __post_init__(self):
        raw, fmt = self.raw, self.fmt
        if type(raw) is not int:   # a plain int is already the stored form
            raw = integer(raw, "raw", error=RangeError)
            object.__setattr__(self, "raw", raw)
        if not fmt.raw_min <= raw <= fmt.raw_max:
            raise RangeError(f"raw {raw} outside [{fmt.raw_min}, {fmt.raw_max}]")

    @property
    def value(self) -> float:
        return self.raw * self.fmt.lsb


def encode(value: float, fmt: FxPFormat) -> FxPValue:
    """Round-to-nearest-even encode of a finite real (`errors.real`).
    Out-of-range input is a `RangeError`, never saturation."""
    value = real(value, "value to encode", RangeError)
    if value < fmt.min_value or value > fmt.max_value:
        raise RangeError(
            f"{value} outside representable range "
            f"[{fmt.min_value}, {fmt.max_value}] of {fmt}"
        )
    # Python round() is banker's rounding; the product is exact in float64
    # for any format up to 32 bits.
    return FxPValue(round(value * (1 << fmt.frac_bits)), fmt)


def decode(x: FxPValue) -> float:
    return x.raw * x.fmt.lsb


def trunc_shift(x: FxPValue, m: int) -> FxPValue:
    """Arithmetic right shift by m: floor semantics, dropped LSBs are lost.

    Matches a hardware shifter; per-shift truncation error lies in
    [0, 2**-F) of the true scaled value.
    """
    return _code(x.raw >> integer(m, "shift count", 0), x.fmt)


def mn_normalize(weights, fmt: FxPFormat = FXP8):
    """Maximum-normalize weights so every magnitude encodes strictly below 1.

    Returns (scale, normalized) with weights == scale * normalized. The scale
    carries one LSB of relative headroom: the largest normalized magnitude
    lands exactly on 1 - 2**-F, the top representable value of `fmt`. The
    weights are an array of finite reals (`errors.reals`).
    """
    w = reals(weights, "weights")
    max_abs = float(np.max(np.abs(w))) if w.size else 0.0
    if max_abs == 0.0:
        raise AllZeroError("cannot normalize an all-zero weight set")
    scale = max_abs / (1.0 - fmt.lsb)
    top = 1.0 - fmt.lsb
    # float division may overshoot the top code by one double ulp; pin it
    normalized = np.clip(w / scale, -top, top)
    return scale, normalized


@dataclass(frozen=True)
class PoTTerm:
    """One signed power-of-two component: value = sign * 2**-shift."""

    sign: int
    shift: int

    def __post_init__(self):
        sign = integer(self.sign, "sign")
        if sign not in (-1, 1):
            raise DomainError(f"sign must be +1 or -1, got {sign}")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "shift", integer(self.shift, "shift", 0))

    @property
    def value(self) -> Fraction:
        return Fraction(self.sign, 1 << self.shift)


@dataclass(frozen=True)
class PoTDecomposition:
    """MSD-first signed PoT expansion of a weight plus its exact residual."""

    terms: tuple[PoTTerm, ...]
    residual: Fraction
    iterations: int

    def approximation(self) -> Fraction:
        return sum((t.value for t in self.terms), Fraction(0))


def _decompose_raw(raw: int, frac_bits: int, t_max: int):
    """Greedy MSD extraction on the raw integer; exact by construction."""
    terms = []
    r = int(raw)
    for _ in range(t_max):
        if r == 0:
            break
        sign = 1 if r > 0 else -1
        # largest power of two <= |residual|: shift = F - floor(log2 |r|)
        m = frac_bits - (abs(r).bit_length() - 1)
        terms.append((sign, m))
        r -= sign * (1 << (frac_bits - m))
    return terms, r


# Bounded: FxP4 and FxP8 over every t need under 2k entries, but a 32-bit
# format has 2**31 codes.
_MEMO_SIZE = 1 << 16

# Memoized decompositions share their terms: at most 2 * 32 distinct ones.
_term = functools.cache(PoTTerm)

# One immutable value per (raw, fmt) for the products and shifts the oracles
# return; a raw outside the format raises, so nothing invalid is cached.
_code = functools.lru_cache(maxsize=_MEMO_SIZE)(FxPValue)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _decomposition(raw: int, frac_bits: int, t: int) -> PoTDecomposition:
    raw_terms, residual_raw = _decompose_raw(raw, frac_bits, t)
    terms = tuple(_term(s, m) for s, m in raw_terms)
    return PoTDecomposition(
        terms=terms,
        residual=Fraction(residual_raw, 1 << frac_bits),
        iterations=len(terms),
    )


def msd_decompose(w: FxPValue, t: int) -> PoTDecomposition:
    """Greedy most-significant-digit-first PoT decomposition of a weight.

    Each step peels the largest power of two not exceeding the current
    residual magnitude, so shifts strictly increase, the residual magnitude
    strictly decreases, and after k steps the residual is below 2**-k.
    Terminates early once the residual is exactly zero (at most F steps for
    any representable weight). The result is immutable and shared: one
    decomposition per (code, F, t) is kept in a bounded memo.
    """
    t = integer(t, "iteration count", 1)
    if abs(w.raw) >= (1 << w.fmt.frac_bits):
        raise DomainError(f"|{decode(w)}| >= 1; decomposition needs |w| < 1")
    return _decomposition(w.raw, w.fmt.frac_bits, t)


def potq_multiply(x: FxPValue, w: FxPValue, t: int) -> FxPValue:
    """Multiplier-free product: sum of truncated shifted copies of x.

    The weight is decomposed into at most t signed PoT terms; each term
    contributes an arithmetic right shift of x, truncated at the format LSB
    before accumulation. The result provably fits the operand format, so the
    final truncation back to N bits never wraps.
    """
    if x.fmt is not w.fmt and x.fmt != w.fmt:
        raise DomainError(f"operand formats differ: {x.fmt} vs {w.fmt}")
    dec = msd_decompose(w, t)
    acc = 0
    for term in dec.terms:
        acc += term.sign * (x.raw >> term.shift)
    return _code(acc, x.fmt)


def term_table(fmt: FxPFormat, t: int) -> np.ndarray:
    """Greedy MSD terms, at most t each, of every raw code of `fmt`: float64
    signs, (F+1) x 2**N, built once per (fmt, t) and read-only (shared).

    `table[m, raw - fmt.raw_min]` is the sign of the code's term with shift
    m, or 0: greedy MSD uses each shift at most once, so the code's value is
    sum_m sign_m 2**-m. Codes above 2**F in magnitude (formats with N > F+1)
    would need a negative shift; their columns are NaN.
    """
    return _term_table(fmt, _table_depth(fmt, t))


def _table_depth(fmt: FxPFormat, t) -> int:
    """The depth a table of `fmt` is cached at for iteration count t."""
    t = integer(t, "iteration count", 1)
    # greedy MSD uses each of the F+1 shifts at most once, so every larger t
    # gives the same table: a cache holds at most F+1 tables per format
    return min(t, fmt.frac_bits + 1)


@functools.cache
def _term_table(fmt: FxPFormat, t: int) -> np.ndarray:
    f = fmt.frac_bits
    table = np.zeros((f + 1, 1 << fmt.total_bits))
    for i, raw in enumerate(range(fmt.raw_min, fmt.raw_max + 1)):
        if abs(raw) > 1 << f:
            table[:, i] = np.nan
            continue
        for sign, m in _decompose_raw(raw, f, t)[0]:
            table[m, i] = sign
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class TermCodes:
    """Per-code siblings of `term_table(fmt, t)`, indexed like its columns
    (at raw - fmt.raw_min), read-only and shared:

    - `reach`: sum_m 2**(F-m) |sign_m|, the largest magnitude the code's
      terms take over the operand codes x, sum_m sign_m (x >> m);
    - `value`: sum_m sign_m 2**-m, the code's greedy PoT approximation;
    - `shifts`: bit m set when the code has a term with shift m.

    A NaN column (a code above 2**F in magnitude) has NaN reach and value
    and every shift bit set.
    """

    reach: np.ndarray
    value: np.ndarray
    shifts: np.ndarray


def term_codes(fmt: FxPFormat, t: int) -> TermCodes:
    """The per-code tables of `term_table(fmt, t)`, built from it once per
    (fmt, t), t clamped as `term_table` clamps it."""
    return _term_codes(fmt, _table_depth(fmt, t))


@functools.cache
def _term_codes(fmt: FxPFormat, t: int) -> TermCodes:
    table = _term_table(fmt, t)
    f = fmt.frac_bits
    # every sum is of dyadic terms with at most F+1 bits, so each is exact
    reach = np.zeros(table.shape[1])
    value = np.zeros(table.shape[1])
    shifts = np.zeros(table.shape[1], dtype=np.uint32)   # F + 1 <= 32 bits
    for m, sign in enumerate(table):
        reach += 2.0 ** (f - m) * np.abs(sign)
        value += sign * 2.0 ** -m
        shifts |= (sign != 0).astype(np.uint32) << m
    codes = TermCodes(reach, value, shifts)
    for a in vars(codes).values():
        a.flags.writeable = False
    return codes


def error_bound(x: FxPValue, t: int, frac_bits: int) -> float:
    """Worst-case product error: residual part |x| * 2**-t plus one LSB of
    truncation per accumulated term. t = 0 gives the degenerate |x|."""
    t = integer(t, "iteration count", 0)
    frac_bits = integer(frac_bits, "frac_bits")
    try:
        # |raw| * lsb is |decode(x)| exactly: the lsb is a power of two
        return abs(x.raw) * x.fmt.lsb * 2.0 ** -t + t * 2.0 ** -frac_bits
    except OverflowError:   # a t or frac_bits past float's range
        raise DomainError(f"no float bound for t = {t}, frac_bits = {frac_bits}") from None


def error_sweep(fmt: FxPFormat, t_values) -> list[tuple[int, float, float]]:
    """Exhaustive (x, w) product-error statistics per iteration count.

    Sweeps every operand pair of the format with |w| < 1 and returns rows
    (t, max_abs_error, mean_abs_error) against the exact real product. Products
    are sum_m outer(sign_m, x >> m) (exact), in blocks of at most 2**14 pairs.
    """
    f = fmt.frac_bits
    xs = np.arange(fmt.raw_min, fmt.raw_max + 1, dtype=np.int64)
    w_raws = xs[np.abs(xs) < (1 << f)]
    planes = (xs >> np.arange(f + 1)[:, None]).astype(np.float64)   # (F+1, x)
    step = max(1, (1 << 14) // xs.size)
    rows = []
    for t in t_values:
        table = term_table(fmt, t)
        max_err, row_sums = 0.0, []
        for w in (w_raws[lo:lo + step] for lo in range(0, w_raws.size, step)):
            prod = np.einsum("mw,mx->wx", table[:, w - fmt.raw_min], planes)
            err = np.abs(np.multiply.outer(w * 2.0 ** (-2 * f), xs) - prod * fmt.lsb)
            max_err = max(max_err, float(err.max()))
            row_sums.append(err.sum(axis=1))
        # per-weight sums added in weight order: a one-weight-at-a-time rounding
        err_sum = np.add.accumulate(np.concatenate(row_sums))[-1]
        rows.append((t, max_err, float(err_sum) / (w_raws.size * xs.size)))
    return rows
