import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trea.errors import AccumulatorOverflow, DomainError, LengthMismatch
from trea.fxp import (
    FXP4,
    FXP8,
    FxPFormat,
    FxPValue,
    decode,
    encode,
    error_bound,
    msd_decompose,
    potq_multiply,
)
from trea.mac import (
    Accumulator,
    MacMode,
    accumulator_width,
    conventional_accumulator_width,
    dot_product,
    mac_step,
)


class TestWidths:
    def test_reduced_goldens(self):
        assert accumulator_width(8, 4) == 10
        assert accumulator_width(4, 4) == 6
        assert accumulator_width(8, 1) == 8

    def test_conventional_goldens(self):
        assert conventional_accumulator_width(8, 9) == 20
        assert conventional_accumulator_width(4, 9) == 12
        assert conventional_accumulator_width(8, 1) == 16

    def test_domain(self):
        with pytest.raises(DomainError):
            accumulator_width(8, 0)
        with pytest.raises(DomainError):
            conventional_accumulator_width(1, 4)


class TestMacMode:
    def test_lanes(self):
        assert MacMode.FXP4_SIMD.lanes == 4
        assert MacMode.FXP8.lanes == 1

    def test_formats_and_depth(self):
        assert MacMode.FXP4_SIMD.fmt == FXP4
        assert MacMode.FXP8.fmt == FXP8
        assert MacMode.FXP4_SIMD.terms == 3
        assert MacMode.FXP8.terms == 5


class TestMacStep:
    def test_single_step(self):
        acc = Accumulator(0, 10, FXP8)
        term = msd_decompose(encode(0.5, FXP8), 1).terms[0]
        assert mac_step(encode(0.5, FXP8), term, acc).raw == 32

    def test_zero_shift_result(self):
        acc = Accumulator(17, 10, FXP8)
        term = msd_decompose(encode(2.0 ** -7, FXP8), 1).terms[0]
        # shifting 1 raw unit by 7 truncates to zero: accumulator unchanged
        assert mac_step(FxPValue(1, FXP8), term, acc).raw == 17

    def test_overflow_detected(self):
        acc = Accumulator(120, 8, FXP8)
        term = msd_decompose(encode(0.5, FXP8), 1).terms[0]
        with pytest.raises(AccumulatorOverflow):
            mac_step(FxPValue(127, FXP8), term, acc)

    def test_value_is_the_raw_at_the_operand_scale(self):
        assert Accumulator(-12, 10, FXP8).value == -12 * 2.0 ** -7

    def test_add_past_the_width_overflows(self):
        assert Accumulator(30, 6, FXP4).add(1).raw == 31
        for raw, delta in ((30, 2), (-30, -3), (0, 1 << 40)):
            with pytest.raises(AccumulatorOverflow):
                Accumulator(raw, 6, FXP4).add(delta)

    @given(st.integers(-128, 127), st.integers(-127, 127), st.integers(1, 7))
    def test_step_composition_matches_multiply(self, x_raw, w_raw, t):
        x, w = FxPValue(x_raw, FXP8), FxPValue(w_raw, FXP8)
        acc = Accumulator(0, 16, FXP8)
        for term in msd_decompose(w, t).terms:
            acc = mac_step(x, term, acc)
        assert acc.raw == potq_multiply(x, w, t).raw


def _vals(fmt, raws):
    return [FxPValue(r, fmt) for r in raws]


class TestDotProduct:
    def test_cycles_simd(self):
        xs = _vals(FXP4, [1, 2, 3, 4])
        ws = _vals(FXP4, [1, 2, 3, 4])
        _, cycles = dot_product(xs, ws, MacMode.FXP4_SIMD, FxPValue(0, FXP4))
        assert cycles == 1

    def test_cycles_simd_12(self):
        xs = _vals(FXP4, [1] * 12)
        ws = _vals(FXP4, [2] * 12)
        _, cycles = dot_product(xs, ws, MacMode.FXP4_SIMD, FxPValue(0, FXP4))
        assert cycles == 3

    def test_cycles_scalar_9(self):
        xs = _vals(FXP8, [10] * 9)
        ws = _vals(FXP8, [20] * 9)
        _, cycles = dot_product(xs, ws, MacMode.FXP8, FxPValue(0, FXP8))
        assert cycles == 9

    def test_cycle_law_all_counts(self):
        for mode in MacMode:
            for k in range(1, 26):
                xs = _vals(mode.fmt, [1] * k)
                ws = _vals(mode.fmt, [1] * k)
                _, cycles = dot_product(xs, ws, mode, FxPValue(0, mode.fmt))
                assert cycles == -(-k // mode.lanes)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dot_product(_vals(FXP8, [1]), _vals(FXP8, [1, 2]), MacMode.FXP8,
                        FxPValue(0, FXP8))
        with pytest.raises(LengthMismatch):
            dot_product([], [], MacMode.FXP8, FxPValue(0, FXP8))

    def test_format_enforced(self):
        with pytest.raises(DomainError):
            dot_product(_vals(FXP8, [1]), _vals(FXP8, [1]), MacMode.FXP4_SIMD,
                        FxPValue(0, FXP4))

    def test_an_equal_format_passes_and_a_different_one_is_rejected(self):
        twin = FxPFormat(8, 7)
        assert twin is not FXP8 and twin == FXP8
        xs, ws, bias = [100, -3, 127], [45, -77, 1], 5
        want, _ = dot_product(_vals(FXP8, xs), _vals(FXP8, ws), MacMode.FXP8, FxPValue(bias, FXP8))
        got, _ = dot_product(_vals(twin, xs), _vals(FXP8, ws), MacMode.FXP8, FxPValue(bias, twin))
        assert got == want
        for x, w in zip(xs, ws):
            assert (potq_multiply(FxPValue(x, twin), FxPValue(w, FXP8), 5)
                    == potq_multiply(FxPValue(x, FXP8), FxPValue(w, FXP8), 5))
        other = FxPFormat(8, 6)
        with pytest.raises(DomainError):
            potq_multiply(FxPValue(100, FXP8), FxPValue(45, other), 5)
        with pytest.raises(DomainError):
            dot_product(_vals(FXP8, xs), _vals(other, ws), MacMode.FXP8, FxPValue(bias, FXP8))
        with pytest.raises(DomainError):
            dot_product(_vals(FXP8, xs), _vals(FXP8, ws), MacMode.FXP8, FxPValue(bias, other))

    def test_lane_independence(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 13))
            xs = _vals(FXP4, rng.integers(-8, 8, size=k))
            ws = _vals(FXP4, rng.integers(-7, 8, size=k))
            bias = FxPValue(int(rng.integers(-8, 8)), FXP4)
            got, _ = dot_product(xs, ws, MacMode.FXP4_SIMD, bias)
            scalar = bias.raw + sum(
                potq_multiply(x, w, 3).raw for x, w in zip(xs, ws)
            )
            assert got.raw == scalar

    def test_result_format_widened(self):
        xs = _vals(FXP8, [127] * 4)
        ws = _vals(FXP8, [127] * 4)
        value, _ = dot_product(xs, ws, MacMode.FXP8, FxPValue(0, FXP8))
        assert value.fmt.total_bits == accumulator_width(8, 4)
        assert value.fmt.frac_bits == 7

    def test_error_property(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            mode = MacMode.FXP8 if rng.random() < 0.5 else MacMode.FXP4_SIMD
            fmt, t = mode.fmt, mode.terms
            k = int(rng.integers(1, 10))
            top = (1 << fmt.frac_bits) - 1
            xs = _vals(fmt, rng.integers(fmt.raw_min, fmt.raw_max + 1, size=k))
            ws = _vals(fmt, rng.integers(-top, top + 1, size=k))
            bias = FxPValue(int(rng.integers(fmt.raw_min, fmt.raw_max + 1)), fmt)
            got, _ = dot_product(xs, ws, mode, bias)
            exact = sum(decode(x) * decode(w) for x, w in zip(xs, ws)) + decode(bias)
            bound = sum(error_bound(x, t, fmt.frac_bits) for x in xs) + fmt.lsb
            assert abs(exact - decode(got)) <= bound + 1e-12

    def test_exhaustive_extremes_fit_fxp4_width(self):
        # every single product lies in [-7, 7]; any 4-term prefix therefore
        # stays inside the 6-bit accumulator: the claim holds exhaustively
        products = [
            potq_multiply(FxPValue(x, FXP4), FxPValue(w, FXP4), 3).raw
            for x in range(-8, 8)
            for w in range(-7, 8)
        ]
        assert 4 * max(products) <= 31 and 4 * min(products) >= -32

