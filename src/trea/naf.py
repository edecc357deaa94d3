"""Reconfigurable CORDIC-based activation unit: ReLU, Sigmoid, Tanh behind a
2-bit select, one shared 9-stage hyperbolic pipeline.

The datapath runs rotation-mode hyperbolic CORDIC at 16 internal fractional
bits over iteration indices 1..8 with the mandatory repeat at 4 (nine
rotations total). Tanh divides sinh by cosh, so the CORDIC gain, shared by
both, cancels in the ratio and the datapath has no gain-compensation stage;
sigmoid rides on the tanh half-argument identity, which keeps everything on
the one datapath. Inputs beyond the CORDIC convergence range are reduced by
repeated argument halving and rebuilt with the double-angle identity; inputs
past the saturation point of the output format are pinned at the largest
representable value below one.

The stage count is fixed at PIPELINE_STAGES, so the rotation schedule, the
atanh table and the convergence bound are constants built once at import; no
caller picks another depth.

The CORDIC does not run per call. Tanh and sigmoid both reduce to the 16-bit
internal tanh of one internal-scale argument, and `_tanh_internal_vec`, the
CORDIC, fills a lazily built table of those outputs one block of codes at a
time; both units read that one table at every format pair. A block past the
convergence range whose half block is already filled is one double-angle
step from it, the step the CORDIC's own range reduction takes. The CORDIC
stays the oracle the tests hold the table to.

Every function here is pure: the table only caches what the CORDIC returns,
and the pipeline itself is a timing model (piso_latency), not a stateful
object. The three units are array-valued (suffix ``_vec``) and each owns its
output rescale (round-half-even) and saturation below one. Their raws are an
array of integers that int64 holds (`errors.integers`) of any shape, a 0-d raw
giving a 0-d result (`_elementwise`), and each
fractional-bit count an integer in 1..31, as an `FxPFormat`'s is
(`_frac_bits`). `activate_raw_vec` is the one place the select is decoded,
and the scalar `apply` and `af_*` are one-element views of it, so they
cannot disagree with the batched path. `trea.net`'s layer boundary calls it once per prepared
layer, to fill that layer's table of boundary codes per accumulator code,
which inference reads; QAT's passes call it on their accumulators.

The WIDE (24-bit, 16 fractional) to FxP8 tanh the layer boundary computes is
not monotone: at raws +-19259 -> +-19260 and +-52737 -> +-52738 (|x| ~ 0.2939
and 0.8047) it drops by one code. Those are CORDIC sign-decision points
(atanh(1/2) - atanh(1/4) = 0.2939); this is how the modelled hardware
behaves, and the tests pin it. The sigmoid never decreases there. Monotonicity
over FxP8 inputs, which the acceptance suite checks, holds for both.
"""

from __future__ import annotations

import functools
import math
from enum import IntEnum

import numpy as np

from .errors import DomainError, InvalidSelect, integer, integers
from .fxp import FxPValue

__all__ = [
    "AfSelect",
    "INTERNAL_FRAC_BITS",
    "PIPELINE_STAGES",
    "saturation_threshold",
    "af_tanh",
    "af_sigmoid",
    "af_relu",
    "apply",
    "activate_raw_vec",
    "piso_latency",
    "tanh_raw_vec",
    "sigmoid_raw_vec",
    "relu_raw_vec",
]

INTERNAL_FRAC_BITS = 16
_ONE = 1 << INTERNAL_FRAC_BITS
PIPELINE_STAGES = 9


class AfSelect(IntEnum):
    """2-bit runtime activation select; code 3 is reserved."""

    RELU = 0
    SIGMOID = 1
    TANH = 2

    @classmethod
    def from_code(cls, code: int) -> "AfSelect":
        """The select for an integer code; any other type, a bool included,
        and the reserved code raise `InvalidSelect`."""
        code = integer(code, "activation select (an integer code)", error=InvalidSelect)
        if code not in (0, 1, 2):
            raise InvalidSelect(f"activation select code {code} is reserved")
        return cls(code)


def _iteration_schedule(n: int) -> tuple[int, ...]:
    # hyperbolic indices start at 1; indices 4, 13, 40, ... repeat once to
    # keep the angle set convergent
    out, i, rep = [], 1, 4
    while len(out) < n:
        out.append(i)
        if i == rep and len(out) < n:
            out.append(i)
            rep = rep * 3 + 1
        i += 1
    return tuple(out[:n])


_SCHEDULE = _iteration_schedule(PIPELINE_STAGES)
_ATANH = tuple(round(math.atanh(2.0 ** -i) * _ONE) for i in _SCHEDULE)
_ZMAX = sum(_ATANH)


def _rotate_vec(z):
    """Rotation-mode hyperbolic CORDIC over int64 arrays at internal scale."""
    x = np.full_like(z, _ONE)
    y = np.zeros_like(z)
    for i, step in zip(_SCHEDULE, _ATANH):
        d = np.where(z >= 0, 1, -1)     # rotation direction of this stage
        x, y, z = x + d * (y >> i), y + d * (x >> i), z - d * step
    return y, x


def _div_round_vec(num, den, out_f):
    # round-half-up on magnitudes; den strictly positive
    mag = (np.abs(num) << out_f) + (den >> 1)
    q = mag // den
    return np.where(num < 0, -q, q)


def _rescale_round_even_vec(raw, from_f, to_f):
    """int64 codes at `from_f` fractional bits as new codes at `to_f`, rounded
    half-even; no intermediate leaves int64, whatever the input."""
    if to_f >= from_f:
        return raw << (to_f - from_f)
    sh = from_f - to_f
    q = raw >> sh
    # up when the dropped bits r pass half, or equal it with q odd: for an
    # integer r, exactly when r + (q & 1) > half
    q += (raw & ((1 << sh) - 1)) + (q & 1) > 1 << (sh - 1)
    return q


def _frac_bits(value, what) -> int:
    """`value` as a fractional-bit count, an integer in 1..31 as any
    `FxPFormat`'s is; anything else raises `DomainError` naming `what`."""
    if not 1 <= integer(value, what) <= 31:
        raise DomainError(f"{what} must be in 1..31, got {value!r}")
    return int(value)


def _to_internal_vec(raw, frac_bits):
    """int64 codes `raw` at the internal scale; may be `raw` itself."""
    if frac_bits < INTERNAL_FRAC_BITS:
        return raw << (INTERNAL_FRAC_BITS - frac_bits)
    if frac_bits > INTERNAL_FRAC_BITS:
        return raw >> (frac_bits - INTERNAL_FRAC_BITS)
    return raw


def _tanh_internal_vec(z):
    """tanh at internal scale for any z; halving range reduction as needed."""
    sign = np.where(z < 0, -1, 1)
    a = np.abs(z)
    k = np.zeros_like(a)
    over = a > _ZMAX
    while over.any():
        a = np.where(over, a >> 1, a)
        k = k + over
        over = a > _ZMAX
    y, x = _rotate_vec(a)
    t = _div_round_vec(y, x, INTERNAL_FRAC_BITS)
    nz = a == 0
    t = np.where(nz, 0, t)
    for step in range(int(k.max()) if k.size else 0):
        t = np.where(k > step, _double_angle_vec(t), t)
    return sign * t


def _double_angle_vec(t):
    """D(t) = 2t / (1 + t*t) at internal scale: tanh(2z) from t = tanh(z)."""
    den = _ONE + ((t * t) >> INTERNAL_FRAC_BITS)
    return _div_round_vec(2 * t, den, INTERNAL_FRAC_BITS)


# The internal tanh is a pure function of z, so the units read it from one
# table of t(|z|) for |z| < 2**19, and `_tanh_internal_vec` is only the
# table's builder and the tests' oracle. Larger |z| read the last entry, which
# is exact: t(z) == _ONE for every z in [409344, 2**23) (checked
# exhaustively); past _ZMAX the range reduction halves, so t(z) = D(t(z >> 1))
# with D the double-angle step, and D(_ONE) == _ONE, so by induction
# t(z) == _ONE for every z >= 409344. Blocks of 2**12 codes are filled on
# first use, since a full fill costs more than a small workload's whole setup.
# The int32 table is 2 MiB, under the 4 MiB from which numpy asks for huge
# pages, so only the blocks written become resident.
_TABLE_BITS = 19
_BLOCK_BITS = 12
_TABLE = np.zeros(1 << _TABLE_BITS, dtype=np.int32)
_FILLED = np.zeros(1 << (_TABLE_BITS - _BLOCK_BITS), dtype=bool)


def _fill_blocks(blocks):
    """Fill every unfilled block among `blocks`, one block at a time and in
    ascending order: that is as fast as one CORDIC call over them all, and
    its temporaries stay small (a call over 37 blocks raised the peak RSS by
    12 MiB). A block past _ZMAX whose half block is filled takes one
    double-angle step per code from it instead of the CORDIC, which made a
    cold fill of all 128 blocks ~2.5x faster."""
    missing = ~_FILLED[blocks]
    if missing.any():
        for b in np.unique(blocks[missing]):
            lo, hi = int(b) << _BLOCK_BITS, int(b + 1) << _BLOCK_BITS
            z = np.arange(lo, hi)
            if lo > _ZMAX and _FILLED[b >> 1]:
                # every code here halves at least once, and z >> 1 takes the
                # same path one halving later, so t(z) = D(t(z >> 1)), read
                # from block b >> 1 (filled first: the blocks run in order)
                _TABLE[lo:hi] = _double_angle_vec(_TABLE[z >> 1].astype(np.int64))
            else:
                _TABLE[lo:hi] = _tanh_internal_vec(z)
            _FILLED[b] = True


def _tanh_lookup_vec(z):
    """`_tanh_internal_vec(z)` read from the table, as a new int64 array."""
    # |z| as unsigned, so that -2**63, which has no positive twin, saturates
    a = np.minimum(np.abs(z).view(np.uint64), len(_TABLE) - 1).view(np.int64)
    blocks = a >> _BLOCK_BITS
    if not _FILLED[blocks].all():
        _fill_blocks(blocks)
    t = _TABLE[a].astype(np.int64)
    np.negative(t, out=t, where=z < 0)
    return t


def saturation_threshold(frac_bits: int) -> float:
    """Smallest input whose true tanh rounds to the top code of an output
    format with `frac_bits` fractional bits (derived from the oracle, not
    hard-coded)."""
    return math.atanh(1.0 - 2.0 ** -(_frac_bits(frac_bits, "frac_bits") + 1))


def _elementwise(unit):
    """`unit` over raws of any shape, read here through `errors.integers`
    (the units take int64 arrays): a 0-d raw runs as its one-element array
    and comes back a 0-d int64 array, since numpy's shifts and reduces turn
    a 0-d array into a scalar, which `out=` refuses."""
    @functools.wraps(unit)
    def run(raw, in_frac_bits: int, out_frac_bits: int):
        raw = integers(raw, "raw")
        if raw.ndim:
            return unit(raw, in_frac_bits, out_frac_bits)
        return unit(raw.reshape(1), in_frac_bits, out_frac_bits).reshape(())
    return run


@_elementwise
def tanh_raw_vec(raw, in_frac_bits: int, out_frac_bits: int):
    """Elementwise fixed-point tanh on raw integers; odd-symmetric for inputs
    with at most 16 fractional bits. Finer inputs are floored to 16 bits
    (`_to_internal_vec`; sigmoid reads it at 17 bits on the forward path, so
    truncating toward zero would move its scores), so at 20 bits raws -1 and
    1 give -112 and 0."""
    z = _to_internal_vec(raw, _frac_bits(in_frac_bits, "in_frac_bits"))
    sat = round(saturation_threshold(out_frac_bits) * _ONE)   # checks out_frac_bits
    top = (1 << out_frac_bits) - 1
    # the output is odd, so the unit works on |z| (unsigned, so that -2**63,
    # which has no positive twin, saturates) and restores the sign last.
    # Codes at or past sat are pinned at top, so clamping them there reads no
    # table block beyond sat's; half-even rounding is odd too
    a = np.minimum(np.abs(z).view(np.uint64), sat).view(np.int64)
    out = _rescale_round_even_vec(_tanh_lookup_vec(a), INTERNAL_FRAC_BITS, out_frac_bits)
    np.minimum(out, top, out=out)
    out[a == sat] = top
    np.negative(out, out=out, where=z < 0)
    return out


@_elementwise
def sigmoid_raw_vec(raw, in_frac_bits: int, out_frac_bits: int):
    """Elementwise fixed-point sigmoid via (1 + tanh(x/2)) / 2; the halving
    is exact at the internal scale."""
    out_frac_bits = _frac_bits(out_frac_bits, "out_frac_bits")
    t = _tanh_lookup_vec(_to_internal_vec(raw, _frac_bits(in_frac_bits, "in_frac_bits") + 1))
    # 1 + tanh is the sigmoid at one extra fractional bit
    out = _rescale_round_even_vec(_ONE + t, INTERNAL_FRAC_BITS + 1, out_frac_bits)
    return np.clip(out, 0, (1 << out_frac_bits) - 1)


@_elementwise
def relu_raw_vec(raw, in_frac_bits: int, out_frac_bits: int):
    """Elementwise fixed-point ReLU, rounded half-even and saturated below one."""
    out_frac_bits = _frac_bits(out_frac_bits, "out_frac_bits")
    out = _rescale_round_even_vec(np.maximum(raw, 0),
                                  _frac_bits(in_frac_bits, "in_frac_bits"), out_frac_bits)
    return np.minimum(out, (1 << out_frac_bits) - 1)


def activate_raw_vec(sel: AfSelect | int, raw, in_frac_bits: int, out_frac_bits: int):
    """The 2-bit select over raw integers: the selected unit's output at
    `out_frac_bits`, elementwise. Reserved codes and selects that are not
    integers raise `InvalidSelect`."""
    sel = AfSelect.from_code(sel)
    if sel is AfSelect.RELU:
        return relu_raw_vec(raw, in_frac_bits, out_frac_bits)
    if sel is AfSelect.SIGMOID:
        return sigmoid_raw_vec(raw, in_frac_bits, out_frac_bits)
    return tanh_raw_vec(raw, in_frac_bits, out_frac_bits)


def apply(sel: AfSelect | int, x: FxPValue) -> FxPValue:
    """One value through `activate_raw_vec`, in and out at x's format."""
    f = x.fmt.frac_bits
    out = activate_raw_vec(sel, np.array([x.raw], dtype=np.int64), f, f)
    return FxPValue(int(out[0]), x.fmt)


def af_tanh(x: FxPValue) -> FxPValue:
    return apply(AfSelect.TANH, x)


def af_sigmoid(x: FxPValue) -> FxPValue:
    return apply(AfSelect.SIGMOID, x)


def af_relu(x: FxPValue) -> FxPValue:
    return apply(AfSelect.RELU, x)


def piso_latency(n_outputs: int) -> int:
    """Shared-unit latency: 9-cycle pipeline fill, then one output per cycle.
    Zero outputs cost nothing."""
    n_outputs = integer(n_outputs, "output count", 0)
    return PIPELINE_STAGES + n_outputs if n_outputs else 0
