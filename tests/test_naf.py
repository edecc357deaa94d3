import math

import numpy as np
import pytest

from trea import naf
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

    def test_monotone_exhaustive(self):
        prev = None
        for raw in range(-128, 128):
            cur = af_tanh(FxPValue(raw, FXP8)).raw
            if prev is not None:
                assert cur >= prev
            prev = cur


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
