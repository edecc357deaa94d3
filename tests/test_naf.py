import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from trea import naf, net
from trea.errors import DomainError, InvalidSelect
from trea.fxp import FXP8, FxPFormat, FxPValue, decode, encode
from trea.naf import (
    AfSelect,
    af_relu,
    af_sigmoid,
    af_tanh,
    apply,
    piso_latency,
    saturation_threshold,
)

WIDE = FxPFormat(24, 16)


class TestSelect:
    def test_codes(self):
        assert AfSelect.from_code(0) is AfSelect.RELU
        assert AfSelect.from_code(1) is AfSelect.SIGMOID
        assert AfSelect.from_code(2) is AfSelect.TANH

    def test_reserved(self):
        with pytest.raises(InvalidSelect):
            AfSelect.from_code(3)


class TestCordicCore:
    def test_schedule_repeats_four(self):
        assert naf._iteration_schedule(9) == (1, 2, 3, 4, 4, 5, 6, 7, 8)


class TestTable:
    """The lazily filled table of the internal tanh against the CORDIC that
    fills it."""

    ONE = 1 << naf.INTERNAL_FRAC_BITS

    def test_equals_cordic_within_two_to_the_twenty(self):
        z = np.arange(-(1 << 20), (1 << 20) + 1, dtype=np.int64)
        np.testing.assert_array_equal(naf._tanh_lookup_vec(z), naf._tanh_internal_vec(z))

    @pytest.mark.parametrize("mag", [409344, 1 << 19, 1 << 23, 1 << 40, (1 << 62) - 1])
    def test_saturated_codes_read_one(self, mag):
        z = np.array([mag, -mag], dtype=np.int64)
        want = [self.ONE, -self.ONE]
        np.testing.assert_array_equal(naf._tanh_internal_vec(z), want)
        np.testing.assert_array_equal(naf._tanh_lookup_vec(z), want)

    def test_double_angle_step_fixes_one(self):
        # D(t) = 2t / (1 + t*t), the step that rebuilds a halved argument
        assert naf._double_angle_vec(np.array([self.ONE], dtype=np.int64))[0] == self.ONE

    @pytest.mark.parametrize("in_f,out_f", [(16, 7), (16, 16), (7, 7), (20, 10), (8, 12)])
    def test_units_equal_the_cordic_units(self, monkeypatch, in_f, out_f):
        raw = np.arange(-(1 << 20), (1 << 20) + 1, dtype=np.int64)
        got = [naf.tanh_raw_vec(raw, in_f, out_f), naf.sigmoid_raw_vec(raw, in_f, out_f)]
        calls = []

        def cordic(z):
            calls.append(np.size(z))
            return naf._tanh_internal_vec(z)

        monkeypatch.setattr(naf, "_tanh_lookup_vec", cordic)
        np.testing.assert_array_equal(got[0], naf.tanh_raw_vec(raw, in_f, out_f))
        np.testing.assert_array_equal(got[1], naf.sigmoid_raw_vec(raw, in_f, out_f))
        # each unit read every code through the seam: a unit that read the
        # table directly would compare the table with itself
        assert calls == [raw.size, raw.size]
        # and builds its output from what the seam returns: a seam reading 0
        # leaves tanh 0 below sat and sigmoid one half
        monkeypatch.setattr(naf, "_tanh_lookup_vec", np.zeros_like)
        sat = round(saturation_threshold(out_f) * self.ONE)
        below = np.abs(naf._to_internal_vec(raw, in_f)) < sat
        assert not naf.tanh_raw_vec(raw, in_f, out_f)[below].any()
        assert (naf.sigmoid_raw_vec(raw, in_f, out_f) == 1 << (out_f - 1)).all()

    @pytest.mark.parametrize("in_f,out_f", [(16, 7), (16, 16), (7, 7), (20, 10), (8, 12)])
    def test_relu_equals_rint(self, in_f, out_f):
        # float64 holds every raw here and its scaled value exactly, and rint
        # rounds half-even
        raw = np.arange(-(1 << 20), (1 << 20) + 1, dtype=np.int64)
        want = np.minimum(np.rint(np.maximum(raw, 0) * 2.0 ** (out_f - in_f)),
                          (1 << out_f) - 1)
        np.testing.assert_array_equal(naf.relu_raw_vec(raw, in_f, out_f), want)

    @pytest.mark.parametrize("sh", range(1, 17))
    def test_rescale_rounds_half_even(self, sh):
        # every raw in +-2**12, and the int64 ends, where raw + half would wrap
        raw = np.concatenate([np.arange(-(1 << 12), (1 << 12) + 1),
                              np.array([-(1 << 63), (1 << 63) - 1])])
        got = naf._rescale_round_even_vec(raw, naf.INTERNAL_FRAC_BITS,
                                          naf.INTERNAL_FRAC_BITS - sh)
        assert got.tolist() == [round(Fraction(int(r), 1 << sh)) for r in raw]

    def test_fills_only_the_blocks_it_reads(self, monkeypatch):
        monkeypatch.setattr(naf, "_TABLE", np.zeros_like(naf._TABLE))
        monkeypatch.setattr(naf, "_FILLED", np.zeros_like(naf._FILLED))
        z = np.array([5, -4100, 1 << 40], dtype=np.int64)
        np.testing.assert_array_equal(naf._tanh_lookup_vec(z), naf._tanh_internal_vec(z))
        assert np.flatnonzero(naf._FILLED).tolist() == [0, 1, len(naf._FILLED) - 1]
        assert not naf._FILLED.all()
        naf._tanh_lookup_vec(np.arange(len(naf._TABLE)))
        assert naf._FILLED.all()

    def test_upper_blocks_step_from_their_half_blocks(self, monkeypatch):
        # a block past the CORDIC's range whose half block is filled is one
        # double-angle step from it; one whose half block is empty, and every
        # block within the range, runs the CORDIC
        monkeypatch.setattr(naf, "_TABLE", np.zeros_like(naf._TABLE))
        monkeypatch.setattr(naf, "_FILLED", np.zeros_like(naf._FILLED))
        cordic, blocks = naf._tanh_internal_vec, []

        def spy(z):
            blocks.append(int(z[0]) >> naf._BLOCK_BITS)
            return cordic(z)

        monkeypatch.setattr(naf, "_tanh_internal_vec", spy)
        naf._fill_blocks(np.array([100]))
        naf._fill_blocks(np.arange(len(naf._FILLED)))
        assert blocks == [100] + [b for b in range(len(naf._FILLED))
                                  if b << naf._BLOCK_BITS <= naf._ZMAX]
        assert naf._FILLED.all()
        np.testing.assert_array_equal(naf._TABLE, cordic(np.arange(len(naf._TABLE))))

    def test_boundary_tables_fill_no_block_past_saturation(self, monkeypatch):
        # the README model's boundary tables reach past the FxP8 saturation
        # code, whose outputs are pinned, so tanh reads no block beyond sat's
        monkeypatch.setattr(naf, "_TABLE", np.zeros_like(naf._TABLE))
        monkeypatch.setattr(naf, "_FILLED", np.zeros_like(naf._FILLED))
        data = net.synth_dataset(seed=42, n_train=240, n_test=96)
        model = net.train_reference("desk", data, epochs=15, lr=0.08, seed=7)
        sat = round(saturation_threshold(7) * self.ONE)
        reach = []
        for layer in model.layers:
            assert layer.activation is AfSelect.TANH
            q = net._prepare_layer(layer)
            reach.append(q.acc_bound * layer.precision.fmt.lsb * layer.mn_scale * self.ONE)
        assert max(reach) > sat
        assert np.flatnonzero(naf._FILLED).tolist() == list(range((sat >> naf._BLOCK_BITS) + 1))

    def test_small_and_never_shared(self):
        assert naf._TABLE.nbytes <= 2 << 20
        raw = np.arange(-300, 300, dtype=np.int64)
        before = naf._TABLE.copy()
        for out in (naf._tanh_lookup_vec(raw), naf.tanh_raw_vec(raw, 7, 16),
                    naf.sigmoid_raw_vec(raw, 7, 16)):
            assert not np.shares_memory(out, naf._TABLE)
            out[:] = 12345
        np.testing.assert_array_equal(naf._TABLE, before)


class TestTanh:
    def test_zero(self):
        assert af_tanh(FxPValue(0, FXP8)).raw == 0

    def test_half(self):
        got = decode(af_tanh(encode(0.5, FXP8)))
        assert abs(got - math.tanh(0.5)) < 2.0 ** -6

    def test_saturation(self):
        big = encode(8.0, WIDE)
        top = (1 << WIDE.frac_bits) - 1
        assert af_tanh(big).raw == top
        assert af_tanh(encode(-8.0, WIDE)).raw == -top

    def test_odd_symmetry_exhaustive(self):
        for raw in range(-127, 128):
            a = af_tanh(FxPValue(raw, FXP8)).raw
            b = af_tanh(FxPValue(-raw, FXP8)).raw
            assert a == -b

    @pytest.mark.parametrize("out_f", [7, 16])
    def test_odd_symmetry_at_sixteen_fractional_bits(self, out_f):
        # every raw in +-2**23, in chunks of 2**20
        for lo in range(0, (1 << 23) + 1, 1 << 20):
            raw = np.arange(lo, min(lo + (1 << 20), (1 << 23) + 1))
            np.testing.assert_array_equal(naf.tanh_raw_vec(-raw, 16, out_f),
                                          -naf.tanh_raw_vec(raw, 16, out_f))

    def test_finer_inputs_floor_to_sixteen_fractional_bits(self):
        # -1 floors to -1 internal LSB, 1 to 0: the docstring's exception
        np.testing.assert_array_equal(naf.tanh_raw_vec(np.array([-1, 1]), 20, 20),
                                      [-112, 0])

    def test_monotone_exhaustive(self):
        prev = None
        for raw in range(-128, 128):
            cur = af_tanh(FxPValue(raw, FXP8)).raw
            if prev is not None:
                assert cur >= prev
            prev = cur

    def test_wide_to_boundary_steps_down_at_four_codes(self):
        # the forward path's WIDE -> FxP8 tanh is not monotone: the CORDIC's
        # sign decisions make it drop one code at these four steps (|x| ~
        # 0.2939 and 0.8047); this records the hardware's behaviour, so that
        # no rewrite of the unit or the boundary table changes it silently
        raw = np.arange(-(1 << 20), 1 << 20)
        out = naf.activate_raw_vec(AfSelect.TANH, raw, 16, 7)
        down = np.flatnonzero(np.diff(out) < 0)
        assert raw[down].tolist() == [-52738, -19260, 19259, 52737]
        assert out[down].tolist() == [-85, -36, 37, 86]
        assert out[down + 1].tolist() == [-86, -37, 36, 85]


class TestSigmoid:
    def test_zero_exact(self):
        got = af_sigmoid(FxPValue(0, FXP8))
        assert got.raw == 64 and decode(got) == 0.5

    def test_one(self):
        got = decode(af_sigmoid(encode(1.0 - 2.0 ** -7, FXP8)))
        assert abs(got - 1.0 / (1.0 + math.exp(-(1.0 - 2.0 ** -7)))) < 2.0 ** -6

    def test_large_negative_underflows_to_zero(self):
        # boundary case: wide input, 8-bit output grid
        wide_raw = np.array([encode(-8.0, WIDE).raw], dtype=np.int64)
        assert naf.sigmoid_raw_vec(wide_raw, WIDE.frac_bits, 7)[0] == 0
        # same-format case on a coarse-grid wide-range format
        coarse = FxPFormat(12, 4)
        assert af_sigmoid(encode(-8.0, coarse)).raw == 0

    def test_complement_within_one_ulp(self):
        for raw in range(-128, 128):
            a = af_sigmoid(FxPValue(raw, FXP8)).raw
            b = af_sigmoid(FxPValue(-raw if raw > -128 else 127, FXP8)).raw
            if raw > -128:
                assert abs((a + b) - 128) <= 1

    def test_monotone_exhaustive(self):
        prev = None
        for raw in range(-128, 128):
            cur = af_sigmoid(FxPValue(raw, FXP8)).raw
            if prev is not None:
                assert cur >= prev
            prev = cur

    def test_wide_to_boundary_never_decreases(self):
        out = naf.activate_raw_vec(AfSelect.SIGMOID, np.arange(-(1 << 20), 1 << 20), 16, 7)
        assert (np.diff(out) >= 0).all()


class TestRelu:
    @pytest.mark.parametrize("value,want", [(-0.25, 0.0), (0.25, 0.25), (0.0, 0.0)])
    def test_examples(self, value, want):
        assert decode(af_relu(encode(value, FXP8))) == want

    def test_idempotent_exhaustive(self):
        for raw in range(-128, 128):
            once = af_relu(FxPValue(raw, FXP8))
            assert af_relu(once).raw == once.raw >= 0

    def test_raw_vec_rescales_round_half_even_and_saturates(self):
        # 16 -> 7 fractional bits drops 9: the range holds every tie
        # (odd multiples of 2**8) and runs past the top code 127
        raw = np.arange(-(1 << 12), 130 << 9, dtype=np.int64)
        want = np.clip(np.rint(np.maximum(raw, 0) * 2.0 ** -9), 0, 127)
        np.testing.assert_array_equal(naf.relu_raw_vec(raw, 16, 7), want)

    def test_raw_vec_upscales_exactly(self):
        raw = np.arange(-300, 300, dtype=np.int64)
        want = np.clip(np.maximum(raw, 0) << 4, 0, (1 << 11) - 1)
        np.testing.assert_array_equal(naf.relu_raw_vec(raw, 7, 11), want)


class TestApply:
    def test_dispatch_bit_equal_exhaustive(self):
        # the scalar views equal the batched select at the value's own
        # format: all of FxP8 and a sample of the wide format, past one
        direct = {0: af_relu, 1: af_sigmoid, 2: af_tanh}
        wide = np.random.default_rng(4).integers(WIDE.raw_min, WIDE.raw_max + 1, size=300)
        for fmt, raws in ((FXP8, np.arange(-128, 128)), (WIDE, wide)):
            f = fmt.frac_bits
            for code, fn in direct.items():
                want = naf.activate_raw_vec(code, raws, f, f)
                for raw, w in zip(raws, want):
                    x = FxPValue(int(raw), fmt)
                    assert apply(code, x).raw == fn(x).raw == w

    def test_relu_saturates_below_one(self):
        assert apply(AfSelect.RELU, FxPValue(3 << 16, WIDE)).raw == (1 << 16) - 1

    def test_examples(self):
        assert apply(0, encode(-1.0, FXP8)).raw == 0
        assert apply(2, FxPValue(0, FXP8)).raw == 0

    def test_reserved(self):
        with pytest.raises(InvalidSelect):
            apply(3, FxPValue(0, FXP8))
        with pytest.raises(InvalidSelect):
            naf.activate_raw_vec(3, np.zeros(2, dtype=np.int64), 7, 7)

    @pytest.mark.parametrize("sel", [1.5, 2.9, True, np.bool_(True), "1", None])
    def test_non_integer_select_rejected(self, sel):
        # int() truncated these: 1.5 and True ran sigmoid, 2.9 ran tanh
        with pytest.raises(InvalidSelect, match="integer code"):
            apply(sel, FxPValue(64, FXP8))
        with pytest.raises(InvalidSelect, match="integer code"):
            naf.activate_raw_vec(sel, np.zeros(2, dtype=np.int64), 7, 7)

    def test_numpy_integer_select_accepted(self):
        x = FxPValue(64, FXP8)
        assert apply(np.int64(2), x) == apply(AfSelect.TANH, x) == apply(2, x)


class TestPiso:
    @pytest.mark.parametrize("n,want", [(1, 10), (100, 109), (0, 0)])
    def test_latency(self, n, want):
        assert piso_latency(n) == want

    def test_negative(self):
        with pytest.raises(DomainError):
            piso_latency(-1)


class TestVectorScalarParity:
    def test_tanh_parity(self):
        rng = np.random.default_rng(5)
        raws = rng.integers(WIDE.raw_min, WIDE.raw_max + 1, size=500, dtype=np.int64)
        vec = naf.tanh_raw_vec(raws, WIDE.frac_bits, WIDE.frac_bits)
        for raw, got in zip(raws, vec):
            assert af_tanh(FxPValue(int(raw), WIDE)).raw == int(got)

    def test_sigmoid_parity(self):
        rng = np.random.default_rng(6)
        raws = rng.integers(WIDE.raw_min, WIDE.raw_max + 1, size=500, dtype=np.int64)
        vec = naf.sigmoid_raw_vec(raws, WIDE.frac_bits, WIDE.frac_bits)
        for raw, got in zip(raws, vec):
            assert af_sigmoid(FxPValue(int(raw), WIDE)).raw == int(got)


def test_saturation_threshold_is_oracle_derived():
    thr = saturation_threshold(7)
    assert math.tanh(thr) >= 1.0 - 2.0 ** -8
    assert math.tanh(thr - 1e-6) < 1.0 - 2.0 ** -8


# What every WIDE code (`net.WIDE_FMT`, 24.16) makes through each unit, into
# 16 fractional bits and into FxP8: each (raw, drop) where the output falls
# from raw to raw + 1, the output and the end of the run it holds at each
# end of the range, the max |error| against double-precision math (None for
# ReLU, which is checked code for code against rounding half-even), and the
# sha256 of the output codes as little-endian int32, in code order. Into
# FxP8, tanh falls one LSB at four CORDIC sign decisions and is +-127 from
# |raw| 167768 on, and sigmoid is monotone, 0 up to -364223 and 127 from
# 291040 on; into 16 bits both fall at eight codes, by up to 414 LSBs.
_CERTIFICATE = {
    (AfSelect.TANH, 16): (
        [(-210952, 12), (-105476, 133), (-52738, 249), (-19260, 414),
         (19259, 414), (52737, 249), (105475, 133), (210951, 12)],
        ((-65535, -372416), (65535, 372416)), 0.003957564804079106,
        "388c0a735c646405b6ef109a7c0269f81fe6b4e3579790dd8e25eba4d36e565a"),
    (AfSelect.TANH, 7): (
        [(-52738, 1), (-19260, 1), (19259, 1), (52737, 1)],
        ((-127, -167768), (127, 167768)), 0.0078125,
        "909467f6b3017fe418212a4bc15e18cf7bb0b19f0b79379c35fe4082be366630"),
    (AfSelect.SIGMOID, 16): (
        [(-421903, 6), (-210951, 67), (-105475, 124), (-38519, 208),
         (38519, 208), (105475, 124), (210951, 67), (421903, 6)],
        ((0, -744831), (65535, 712048)), 0.0019825548424170503,
        "c379916a87dfc5fac8902459813ebb7de2177caa4f35596f05cf8a80b7b60893"),
    (AfSelect.SIGMOID, 7): (
        [], ((0, -364223), (127, 291040)), 0.0078125,
        "bf5561491021ac25a0f3fbd3be4fee6c258a11cafe0f27cc156cdc7283d363da"),
    (AfSelect.RELU, 16): (
        [], ((0, 0), (65535, 65535)), None,
        "9331369e1c2c7b95c90f1b6805ff0db5534aae82940daf9d3af984795cc59427"),
    (AfSelect.RELU, 7): (
        [], ((0, 256), (127, 64769)), None,
        "bd617fe7ebed18fec6f658055aaf8e95dc3790b3a8954a4df1d70f85cbc787ad"),
}


@pytest.mark.parametrize("sel", list(AfSelect), ids=lambda s: s.name.lower())
def test_every_wide_code_through_each_unit(sel):
    # the certificate above, read over all 2**24 codes in chunks of 2**18
    wide, chunk, fmts = net.WIDE_FMT, 1 << 18, (16, 7)
    exact = {AfSelect.TANH: np.tanh, AfSelect.SIGMOID: lambda x: 1.0 / (1.0 + np.exp(-x))}
    sha = {f: hashlib.sha256() for f in fmts}
    err = dict.fromkeys(fmts, 0.0)
    drops = {f: [] for f in fmts}
    last = dict.fromkeys(fmts)                  # the previous chunk's last output
    off_low = dict.fromkeys(fmts)               # the first code whose output is not `low`
    off_high = dict.fromkeys(fmts)              # the last code whose output is not `high`
    for lo in range(wide.raw_min, wide.raw_max + 1, chunk):
        raw = np.arange(lo, lo + chunk, dtype=np.int64)
        ref = exact[sel](raw * wide.lsb) if sel in exact else None
        for f in fmts:
            _, ((low, _), (high, _)), _, _ = _CERTIFICATE[sel, f]
            out = naf.activate_raw_vec(sel, raw, wide.frac_bits, f)
            sha[f].update(out.astype("<i4").tobytes())
            if ref is None:   # ReLU: max(x, 0) rounded half-even, saturated below one
                want = np.clip(np.rint(np.maximum(raw, 0) * 2.0 ** (f - wide.frac_bits)), 0,
                               (1 << f) - 1)
                np.testing.assert_array_equal(out, want)
            else:
                err[f] = max(err[f], float(np.abs(out * 2.0 ** -f - ref).max()))
            if last[f] is not None and out[0] < last[f]:
                drops[f].append((lo - 1, int(last[f] - out[0])))
            fall = np.flatnonzero(out[1:] < out[:-1])
            drops[f] += zip((lo + fall).tolist(), (out[fall] - out[fall + 1]).tolist())
            last[f] = out[-1]
            if off_low[f] is None and (out != low).any():
                off_low[f] = lo + int(np.argmax(out != low))
            if (out != high).any():
                off_high[f] = lo + chunk - 1 - int(np.argmax(out[::-1] != high))
    for f in fmts:
        dips, ((_, low_end), (_, high_start)), max_err, digest = _CERTIFICATE[sel, f]
        assert drops[f] == dips
        assert (off_low[f] - 1, off_high[f] + 1) == (low_end, high_start)
        if max_err is None:
            assert err[f] == 0.0
        else:
            assert err[f] == pytest.approx(max_err, rel=0, abs=1e-12)
        assert sha[f].hexdigest() == digest
