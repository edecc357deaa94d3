import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trea import fxp
from trea.errors import AllZeroError, DomainError, RangeError
from trea.fxp import (
    FXP4,
    FXP8,
    FxPFormat,
    FxPValue,
    PoTDecomposition,
    PoTTerm,
    decode,
    encode,
    error_bound,
    error_sweep,
    mn_normalize,
    msd_decompose,
    potq_multiply,
    term_codes,
    term_table,
    trunc_shift,
)


class TestFormat:
    def test_presets(self):
        assert (FXP4.total_bits, FXP4.frac_bits) == (4, 3)
        assert (FXP8.total_bits, FXP8.frac_bits) == (8, 7)

    def test_range(self):
        assert FXP8.min_value == -1.0
        assert FXP8.max_value == 1.0 - 2.0 ** -7

    @pytest.mark.parametrize("n,f", [(1, 1), (33, 7), (8, 0), (8, 8), (4, 4)])
    def test_invalid(self, n, f):
        with pytest.raises(ValueError):
            FxPFormat(n, f)

    @pytest.mark.parametrize("n,f", [(8.0, 7), (8, 7.0), (True, 1), (8, True), ("8", 7),
                                     (np.float64(8.0), 7), (None, 7)],
                             ids=repr)
    def test_fields_must_be_integers(self, n, f):
        # a float or bool field would construct, then fail at `1 << f` or
        # hash equal to an integer layout such as FXP8
        with pytest.raises(DomainError, match="must be an integer"):
            FxPFormat(n, f)

    def test_numpy_integer_fields_become_int(self):
        fmt = FxPFormat(np.int64(8), np.uint8(7))
        assert type(fmt.total_bits) is int and type(fmt.frac_bits) is int
        assert fmt == FXP8 and hash(fmt) == hash(FXP8) and repr(fmt) == repr(FXP8)
        assert fmt.raw_min == -128

    def test_range_errors_are_domain_errors(self):
        for n, f in ((1, 1), (8, 8)):
            with pytest.raises(DomainError):
                FxPFormat(n, f)

    def test_raw_must_fit(self):
        with pytest.raises(RangeError):
            FxPValue(128, FXP8)
        with pytest.raises(RangeError):
            FxPValue(-129, FXP8)

    @pytest.mark.parametrize("raw", [3.7, 3.0, float("nan"), float("inf"),
                                     np.float64(3.0), "3", None],
                             ids=repr)
    def test_raw_must_be_integral(self, raw):
        with pytest.raises(RangeError):
            FxPValue(raw, FXP8)

    @pytest.mark.parametrize("raw", [np.int8(-5), np.int64(-5), np.uint8(5)], ids=repr)
    def test_numpy_integer_raw_becomes_int(self, raw):
        v = FxPValue(raw, FXP8)
        assert type(v.raw) is int and v.raw == int(raw)

    def test_constants_of_every_layout(self):
        for n in range(2, 33):
            for f in range(1, n):
                fmt = FxPFormat(n, f)
                assert fmt.raw_min == -(1 << (n - 1))
                assert fmt.raw_max == (1 << (n - 1)) - 1
                assert fmt.lsb == 2.0 ** -f
                assert fmt.raw_min is fmt.raw_min   # computed once
                fresh = FxPFormat(n, f)
                assert fmt == fresh and hash(fmt) == hash(fresh)
                assert repr(fmt) == repr(fresh) == f"FxPFormat(total_bits={n}, frac_bits={f})"


class TestEncodeDecode:
    def test_zero(self):
        assert encode(0.0, FXP8).raw == 0

    def test_half(self):
        assert encode(0.5, FXP8).raw == 64

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            encode(2.0, FXP8)
        with pytest.raises(RangeError):
            encode(float("nan"), FXP8)

    def test_decode_examples(self):
        assert decode(FxPValue(64, FXP8)) == 0.5
        assert decode(FxPValue(0, FXP4)) == 0.0
        assert decode(FxPValue(-128, FXP8)) == -1.0

    def test_round_half_even(self):
        # 0.5 ulp cases tie to even raw
        assert encode(0.5 * 2.0 ** -7 , FXP8).raw == 0
        assert encode(1.5 * 2.0 ** -7, FXP8).raw == 2

    @given(st.integers(-128, 127))
    def test_round_trip(self, raw):
        v = decode(FxPValue(raw, FXP8))
        assert encode(v, FXP8).raw == raw


class TestTruncShift:
    def test_examples(self):
        assert trunc_shift(FxPValue(64, FXP8), 1).raw == 32
        assert trunc_shift(FxPValue(-1, FXP8), 3).raw == -1
        assert trunc_shift(FxPValue(-37, FXP8), 0).raw == -37

    def test_negative_shift(self):
        with pytest.raises(DomainError):
            trunc_shift(FxPValue(1, FXP8), -1)

    def test_floor_semantics_exhaustive(self):
        for raw in range(-128, 128):
            for m in range(0, 9):
                got = trunc_shift(FxPValue(raw, FXP8), m).raw
                want = math.floor(raw * 2.0 ** -m)
                assert got == want


class TestMnNormalize:
    def test_basic(self):
        scale, normalized = mn_normalize([0.5, -1.0, 0.25])
        assert scale > 1.0
        assert np.all(np.abs(normalized) < 1.0)
        np.testing.assert_allclose(normalized * scale, [0.5, -1.0, 0.25])

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            mn_normalize([0.0, 0.0])

    def test_single_element_encodes(self):
        scale, normalized = mn_normalize([0.625], FXP8)
        assert scale > 0.625
        enc = encode(normalized[0], FXP8)
        assert abs(decode(enc)) < 1.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
    def test_every_weight_encodes_below_one(self, weights):
        if not any(w != 0.0 for w in weights):
            return
        _, normalized = mn_normalize(weights, FXP8)
        for w in normalized:
            assert abs(decode(encode(w, FXP8))) < 1.0


class TestMsdDecompose:
    def test_exact_expansion(self):
        d = msd_decompose(encode(0.625, FXP8), 2)
        assert [(t.sign, t.shift) for t in d.terms] == [(1, 1), (1, 3)]
        assert d.residual == 0
        assert d.iterations == 2

    def test_early_termination(self):
        d = msd_decompose(encode(0.5, FXP8), 5)
        assert [(t.sign, t.shift) for t in d.terms] == [(1, 1)]
        assert d.residual == 0
        assert d.iterations == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            msd_decompose(FxPValue(-128, FXP8), 3)
        with pytest.raises(DomainError):
            msd_decompose(FxPValue(1, FXP8), 0)

    @given(st.integers(-127, 127), st.integers(1, 7))
    def test_residual_bound(self, raw, t):
        d = msd_decompose(FxPValue(raw, FXP8), t)
        assert abs(d.residual) < Fraction(1, 1 << t)

    def test_reconstruction_exhaustive(self):
        for raw in range(-127, 128):
            w = FxPValue(raw, FXP8)
            for t in (1, 3, 7):
                d = msd_decompose(w, t)
                assert d.approximation() + d.residual == Fraction(raw, 128)

    def test_monotone_residual_and_increasing_shifts(self):
        for raw in range(-127, 128):
            if raw == 0:
                continue
            d = msd_decompose(FxPValue(raw, FXP8), 7)
            shifts = [t.shift for t in d.terms]
            assert shifts == sorted(shifts) and len(set(shifts)) == len(shifts)
            # replay the recursion and watch the magnitude fall
            residual = Fraction(raw, 128)
            for term in d.terms:
                nxt = residual - term.value
                assert abs(nxt) < abs(residual)
                residual = nxt

    @pytest.mark.parametrize("fmt", [FXP4, FXP8], ids=["FXP4", "FXP8"])
    def test_memo_matches_fresh_build(self, fmt):
        f = fmt.frac_bits
        for raw in range(1 - (1 << f), 1 << f):
            for t in range(1, f + 1):
                terms, residual = fxp._decompose_raw(raw, f, t)
                fresh = PoTDecomposition(tuple(PoTTerm(s, m) for s, m in terms),
                                         Fraction(residual, 1 << f), len(terms))
                got = msd_decompose(FxPValue(raw, fmt), t)
                assert got == fresh
                assert msd_decompose(FxPValue(raw, fmt), np.int64(t)) is got

    def test_errors_are_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(DomainError):
                msd_decompose(FxPValue(1, FXP8), 0)
            with pytest.raises(DomainError):
                msd_decompose(FxPValue(1, FXP8), 5.0)
            with pytest.raises(DomainError):
                msd_decompose(FxPValue(-128, FXP8), 3)

    def test_result_is_frozen(self):
        d = msd_decompose(FxPValue(-77, FXP8), 4)
        assert isinstance(d.terms, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.iterations = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.terms[0].sign = -d.terms[0].sign
        assert msd_decompose(FxPValue(-77, FXP8), 4) == d

    def test_memo_stays_bounded_on_a_wide_format(self):
        fmt, t = FxPFormat(32, 31), 2
        raws = [(1 << 31) - 1 - 3 * i for i in range(fxp._MEMO_SIZE + 100)]
        try:
            for raw in raws:
                got = msd_decompose(FxPValue(raw, fmt), t)
                terms, residual = fxp._decompose_raw(raw, 31, t)
                assert [(u.sign, u.shift) for u in got.terms] == terms
                assert got.residual == Fraction(residual, 1 << 31)
            assert fxp._decomposition.cache_info().currsize == fxp._MEMO_SIZE
            # the oldest codes were evicted and decode correctly again
            assert msd_decompose(FxPValue(raws[0], fmt), t).terms == (
                PoTTerm(1, 1), PoTTerm(1, 2))
        finally:
            fxp._decomposition.cache_clear()

    @pytest.mark.parametrize("fmt", [FXP4, FXP8])
    def test_exact_termination_exhaustive(self, fmt):
        f = fmt.frac_bits
        for raw in range(-(1 << f) + 1, 1 << f):
            d = msd_decompose(FxPValue(raw, fmt), f)
            assert d.residual == 0
            assert len(d.terms) <= f


class TestPotqMultiply:
    def test_worked_product(self):
        got = potq_multiply(encode(0.5, FXP8), encode(0.625, FXP8), 2)
        assert got.raw == 40
        assert decode(got) == 0.3125

    def test_zero_weight(self):
        assert potq_multiply(encode(0.75, FXP8), encode(0.0, FXP8), 5).raw == 0

    def test_format_mismatch(self):
        with pytest.raises(DomainError):
            potq_multiply(encode(0.5, FXP8), encode(0.5, FXP4), 2)

    def test_exhaustive_fxp4_bound(self):
        for w_raw in range(-7, 8):
            w = FxPValue(w_raw, FXP4)
            for x_raw in range(-8, 8):
                x = FxPValue(x_raw, FXP4)
                err = abs(decode(x) * decode(w) - decode(potq_multiply(x, w, 3)))
                assert err <= error_bound(x, 3, 3) + 1e-12

    @pytest.mark.parametrize("fmt", [FXP4, FXP8], ids=["FXP4", "FXP8"])
    def test_matches_local_shift_and_add(self, fmt):
        f = fmt.frac_bits
        xs = [FxPValue(r, fmt) for r in range(fmt.raw_min, fmt.raw_max + 1)]
        for w_raw in range(1 - (1 << f), 1 << f):
            w = FxPValue(w_raw, fmt)
            for t in range(1, f + 1):
                terms, _ = fxp._decompose_raw(w_raw, f, t)
                for x in xs:
                    want = sum(s * (x.raw >> m) for s, m in terms)
                    got = potq_multiply(x, w, t)
                    assert got == FxPValue(want, fmt) and type(got.raw) is int

    def test_result_fits_operand_format(self):
        # worst-magnitude operands never escape the 8-bit format
        for x_raw in (-128, 127):
            for w_raw in (-127, 127):
                potq_multiply(FxPValue(x_raw, FXP8), FxPValue(w_raw, FXP8), 7)

    def test_value_memo_stays_bounded_on_a_wide_format(self):
        fmt, half = FxPFormat(32, 31), FxPValue(1 << 30, FxPFormat(32, 31))
        raws = [(1 << 31) - 1 - 3 * i for i in range(fxp._MEMO_SIZE + 100)]
        try:
            for raw in raws:
                assert potq_multiply(FxPValue(raw, fmt), half, 1).raw == raw >> 1
            assert fxp._code.cache_info().currsize == fxp._MEMO_SIZE
            # the oldest products were evicted and come back right
            assert potq_multiply(FxPValue(raws[0], fmt), half, 1) == FxPValue(raws[0] >> 1, fmt)
        finally:
            fxp._code.cache_clear()

    def test_value_memo_caches_no_rejected_raw(self):
        size = fxp._code.cache_info().currsize
        for _ in range(2):
            with pytest.raises(RangeError):
                fxp._code(200, FXP8)
        assert fxp._code.cache_info().currsize == size

    def test_an_equal_format_hits_the_value_memo(self):
        # the format's hash is computed once, and equal formats hash alike
        fmt = FxPFormat(8, 7)
        assert fmt is not FXP8 and hash(fmt) == hash(FXP8) == hash((8, 7))
        value = fxp._code(45, FXP8)
        hits = fxp._code.cache_info().hits
        assert fxp._code(45, fmt) is value
        assert fxp._code.cache_info().hits == hits + 1


class TestErrorBound:
    def test_t_equals_f(self):
        x = FxPValue(127, FXP8)
        assert error_bound(x, 7, 7) == pytest.approx(decode(x) * 2 ** -7 + 7 * 2 ** -7)

    def test_t_zero_degenerate(self):
        x = FxPValue(-64, FXP8)
        assert error_bound(x, 0, 7) == abs(decode(x))

    @pytest.mark.parametrize("t", [-1, -7, np.int64(-2)], ids=repr)
    def test_negative_t_rejected(self, t):
        with pytest.raises(DomainError, match=">= 0"):
            error_bound(FxPValue(64, FXP8), t, 7)


ITERATION_USERS = {
    "msd_decompose": lambda t: msd_decompose(FxPValue(37, FXP8), t),
    "term_table": lambda t: term_table(FXP4, t),
    "term_codes": lambda t: term_codes(FXP4, t),
    "error_bound": lambda t: error_bound(FxPValue(37, FXP8), t, 7),
    "error_sweep": lambda t: error_sweep(FXP4, [t]),
}


@pytest.mark.parametrize("name", ITERATION_USERS)
@pytest.mark.parametrize("t", [5.0, 5.5, float("nan"), np.float64(3.0), True, "5", None],
                         ids=repr)
def test_iteration_count_must_be_an_integer(name, t):
    call = ITERATION_USERS[name]
    call(5), call(1)   # cached first: 5.0 and True hash onto these keys
    for _ in range(2):   # a rejected count is never cached
        with pytest.raises(DomainError):
            call(t)


@pytest.mark.parametrize("name", ITERATION_USERS)
def test_numpy_integer_iteration_count(name):
    call = ITERATION_USERS[name]
    got = call(np.int32(3))
    want = call(3)
    if isinstance(want, np.ndarray):
        assert got is want
    else:
        assert got == want


def test_error_sweep_rows():
    rows = error_sweep(FXP4, [1, 2, 3])
    assert [r[0] for r in rows] == [1, 2, 3]
    assert all(mx >= mn >= 0.0 for _, mx, mn in rows)
    with pytest.raises(DomainError):
        error_sweep(FXP4, [0])


def test_error_sweep_matches_exhaustive_oracle():
    # the max is the scalar oracle's, exactly; the means are pinned to the
    # floats of the per-weight summation order, also past the F+1 shifts
    one = 1 << FXP4.frac_bits
    xs = [FxPValue(r, FXP4) for r in range(FXP4.raw_min, FXP4.raw_max + 1)]
    ws = [FxPValue(r, FXP4) for r in range(1 - one, one)]
    rows = error_sweep(FXP4, [1, 2, 3, 4, 5, 40])
    for t, mx, _ in rows:
        want = max(abs(Fraction(x.raw * w.raw, one * one)
                       - Fraction(potq_multiply(x, w, t).raw, one))
                   for x in xs for w in ws)
        assert mx == want
    assert [mn for _, _, mn in rows] == [0.07994791666666666, 0.06640625,
                                         0.07083333333333333, 0.07083333333333333,
                                         0.07083333333333333, 0.07083333333333333]


TABLE_DEPTHS = [(fmt, t) for fmt in (FXP4, FXP8) for t in range(1, fmt.frac_bits + 1)]


@pytest.mark.parametrize("fmt, t", TABLE_DEPTHS,
                         ids=[f"FXP{fmt.total_bits}-t{t}" for fmt, t in TABLE_DEPTHS])
def test_term_table_matches_msd_decompose(fmt, t):
    table = term_table(fmt, t)
    assert table.shape == (fmt.frac_bits + 1, 1 << fmt.total_bits)
    assert table.dtype == np.float64
    for raw in range(fmt.raw_min + 1, fmt.raw_max + 1):
        by_shift = np.zeros(fmt.frac_bits + 1)
        for term in msd_decompose(FxPValue(raw, fmt), t).terms:
            assert by_shift[term.shift] == 0  # one term per shift
            by_shift[term.shift] = term.sign
        np.testing.assert_array_equal(table[:, raw - fmt.raw_min], by_shift)
    # -1.0 is outside msd_decompose's |w| < 1 domain: one term, shift 0
    assert list(table[:, 0]) == [-1] + [0] * fmt.frac_bits


@pytest.mark.parametrize("fmt", [FXP4, FXP8], ids=["FXP4", "FXP8"])
def test_term_table_is_cached_and_read_only(fmt):
    table = term_table(fmt, 3)
    assert term_table(fmt, 3) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0
    with pytest.raises(DomainError):
        term_table(fmt, 0)


@pytest.mark.parametrize("fmt", [FXP4, FXP8, FxPFormat(6, 4)], ids=["FXP4", "FXP8", "FXP6_4"])
def test_term_table_cache_holds_at_most_one_table_per_shift(fmt):
    # greedy MSD uses each of the F+1 shifts at most once, so depths past it
    # share one table, equal to the one built at that depth
    fxp._term_table.cache_clear()
    for t in range(1, 41):
        np.testing.assert_array_equal(term_table(fmt, t), fxp._term_table.__wrapped__(fmt, t))
    assert fxp._term_table.cache_info().currsize <= fmt.frac_bits + 1


def test_term_table_codes_beyond_one_have_no_terms():
    # in a format with integer bits, codes above 2**F would need a negative
    # shift; their columns are NaN, never a silently wrong expansion
    fmt = FxPFormat(6, 4)
    table = term_table(fmt, 4)
    raws = np.arange(fmt.raw_min, fmt.raw_max + 1)
    beyond = np.abs(raws) > 1 << fmt.frac_bits
    assert np.isnan(table[:, beyond]).all()
    assert not np.isnan(table[:, ~beyond]).any()


CODE_DEPTHS = TABLE_DEPTHS + [(FxPFormat(6, 4), t) for t in (1, 4, 9)]


@pytest.mark.parametrize("fmt, t", CODE_DEPTHS,
                         ids=[f"FXP{fmt.total_bits}_{fmt.frac_bits}-t{t}" for fmt, t in CODE_DEPTHS])
def test_term_codes_are_the_tables_per_code_sums(fmt, t):
    table, codes = term_table(fmt, t), term_codes(fmt, t)
    f = fmt.frac_bits
    for i, raw in enumerate(range(fmt.raw_min, fmt.raw_max + 1)):
        col = table[:, i]
        if np.isnan(col).any():   # a code past 2**F: no expansion, every bit set
            assert np.isnan(codes.reach[i]) and np.isnan(codes.value[i])
            assert codes.shifts[i] == (1 << (f + 1)) - 1
            continue
        terms = [(int(sign), m) for m, sign in enumerate(col) if sign]
        assert codes.reach[i] == sum(1 << (f - m) for _, m in terms)
        assert Fraction(codes.value[i]) == sum((Fraction(s, 1 << m) for s, m in terms),
                                               Fraction(0))
        assert codes.shifts[i] == sum(1 << m for _, m in terms)
        if abs(raw) < 1 << f:   # the greedy value is msd_decompose's approximation
            want = msd_decompose(FxPValue(raw, fmt), t).approximation()
            assert Fraction(codes.value[i]) == want


@pytest.mark.parametrize("fmt", [FXP4, FXP8], ids=["FXP4", "FXP8"])
def test_term_codes_are_cached_per_depth_and_read_only(fmt):
    codes = term_codes(fmt, 3)
    assert term_codes(fmt, 3) is codes
    # clamped as term_table is: every depth past F+1 shares one set
    assert term_codes(fmt, fmt.frac_bits + 1) is term_codes(fmt, 40)
    for a in (codes.reach, codes.value, codes.shifts):
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(DomainError):
        term_codes(fmt, 0)
