"""The batched shift-plane accumulate against the scalar DQ-MAC oracle.

`mac.Accumulator` + `mac.mac_step` add one truncated term at a time and check
the width after every add, in bias-then-operand-then-term order; that is the
hardware order the kernel must reproduce, including where it overflows.
"""

import numpy as np
import pytest

from conftest import random_topology
from trea import net
from trea.errors import AccumulatorOverflow, DomainError
from trea.fxp import FxPValue, msd_decompose
from trea.mac import Accumulator, MacMode, dot_product, mac_step


def _layer_operands(rng, layer, batch):
    """Random raw operands at the layer's format, shaped as the quantized
    pass feeds them: (B, P, K) patches for conv, (B, K) for dense."""
    fmt = layer.precision.fmt
    if layer.kind == "conv2d":
        c, kh, kw = layer.weights.shape[1:]
        img = rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(batch, c, kh + 2, kw + 1))
        cols, _, _ = net._im2col(img, kh, kw, layer.stride, layer.padding)
        return cols
    return rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(batch, layer.weights.shape[1]))


def _inflate_bias(rng, layer, acc_limit):
    """Move one output's bias out of the N-bit range, to within about
    sqrt(K) operands of the accumulator limit or just past it, so that the
    bias alone, a later add, or nothing overflows."""
    fmt = layer.precision.fmt
    one = 1 << fmt.frac_bits
    k = layer.retained_per_output()
    raw = np.rint(layer.bias / layer.mn_scale * one)
    o = int(rng.integers(layer.out_channels))
    gap = int(rng.integers(-one // 2, int(np.sqrt(k) * one / 2)))
    raw[o] = rng.choice([-1, 1]) * (acc_limit - gap)
    layer.bias = raw * layer.mn_scale / one


def _scalar_chain(xs, ws, bias_raw, mode, width):
    """One output through the scalar unit; returns (raw, None) or
    (None, (operand index, term index)) at the first failing add."""
    try:
        acc = Accumulator(bias_raw, width, mode.fmt)
    except AccumulatorOverflow:
        return None, (-1, 0)
    for j, (x, w) in enumerate(zip(xs, ws)):
        for t, term in enumerate(msd_decompose(w, mode.terms).terms):
            try:
                acc = mac_step(x, term, acc)
            except AccumulatorOverflow:
                return None, (j, t)
    return acc.raw, None


def _oracle(q, x):
    """Scalar accumulators (rows, out), or the (output, operand) the
    hardware stops at: the first output, in order, with a failing row, at
    the earliest failing add over its rows."""
    layer = q.layer
    mode, fmt = layer.precision, layer.precision.fmt
    width = q.acc_limit.bit_length()
    wmat = q.w_raw.reshape(layer.out_channels, -1)
    retained = (layer.mask.flags.reshape(layer.out_channels, -1)
                if layer.mask is not None else np.ones(wmat.shape, dtype=bool))
    rows = x.reshape(-1, x.shape[-1])
    want = np.zeros((len(rows), layer.out_channels), dtype=np.int64)
    for o in range(layer.out_channels):
        keep = np.flatnonzero(retained[o])
        ws = [FxPValue(int(wmat[o, j]), fmt) for j in keep]
        bias = int(q.bias_raw[o])
        first = None
        for r, row in enumerate(rows):
            xs = [FxPValue(int(row[j]), fmt) for j in keep]
            if fmt.raw_min <= bias <= fmt.raw_max:
                value, _ = dot_product(xs, ws, mode, FxPValue(bias, fmt))
                want[r, o] = value.raw
                continue
            raw, where = _scalar_chain(xs, ws, bias, mode, width)
            if where is None:
                want[r, o] = raw
            elif first is None or where < first:
                first = where
        if first is not None:
            return None, (o, "bias" if first[0] < 0 else int(keep[first[0]]))
    return want.reshape(x.shape[:-1] + (layer.out_channels,)), None


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("seed", range(24))
def test_accumulate_matches_scalar_oracle(seed, batch):
    rng = np.random.default_rng(1000 + seed)
    model, _ = random_topology(rng)
    for layer in model.layers:
        if seed % 3 == 0:
            _inflate_bias(rng, layer, net._prepare_layer(layer).acc_limit)
        q = net._prepare_layer(layer)
        x = _layer_operands(rng, layer, batch)
        want, where = _oracle(q, x)
        if where is None:
            got = net._accumulate(q, x)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        else:
            o, j = where
            with pytest.raises(AccumulatorOverflow, match=rf"\(output {o}, operand {j}\)"):
                net._accumulate(q, x)


def test_inflated_biases_reach_every_outcome():
    # the differential test above sees no overflow, an overflowing bias
    # preload and an overflow at a later add among its inflated cases
    outcomes = set()
    for seed in range(0, 24, 3):
        rng = np.random.default_rng(1000 + seed)
        model, _ = random_topology(rng)
        for layer in model.layers:
            _inflate_bias(rng, layer, net._prepare_layer(layer).acc_limit)
            q = net._prepare_layer(layer)
            _, where = _oracle(q, _layer_operands(rng, layer, 3))
            outcomes.add(where if where is None else where[1] == "bias")
    assert outcomes == {None, True, False}


@pytest.mark.parametrize("zero_weights", [False, True], ids=["weights", "zero_weights"])
@pytest.mark.parametrize("bias_code", [2.0 ** 40, -(2.0 ** 62.9), 2.0 ** 62.9, 1e30, -1e30])
def test_bias_far_outside_the_accumulator_overflows_at_the_preload(bias_code, zero_weights):
    # the preload fails first, whether or not any weight has a PoT term and
    # whether or not the bias code fits int64
    rng = np.random.default_rng(5)
    model, _ = random_topology(rng)
    layer = model.layers[-1]
    if zero_weights:
        layer.weights = np.zeros_like(layer.weights)
        layer.refresh_mn_scale()
    bias = layer.bias.copy()
    bias[1] = bias_code * layer.mn_scale / (1 << layer.precision.fmt.frac_bits)
    layer.bias = bias
    with np.errstate(invalid="ignore"):
        q = net._prepare_layer(layer)
    if zero_weights:
        assert not q.planes
    x = _layer_operands(rng, layer, 3)
    with pytest.raises(AccumulatorOverflow, match=r"\(output 1, operand bias\)"):
        net._accumulate(q, x)


@pytest.mark.parametrize("seed", range(8))
def test_batched_forward_rows_equal_single_calls(seed):
    rng = np.random.default_rng(2000 + seed)
    model, x = random_topology(rng)
    xs = np.stack([x] + [rng.uniform(-0.9, 0.9, size=x.shape) for _ in range(4)])
    batched = net.forward_quant(model, xs)
    for row, xi in zip(batched, xs):
        np.testing.assert_array_equal(row, net.forward_quant(model, xi))


@pytest.mark.parametrize("mode", list(MacMode))
def test_code_table_matches_msd_decompose(mode):
    fmt = mode.fmt
    signs, value = net._code_table(mode)
    assert signs.shape == (fmt.frac_bits + 1, 1 << fmt.total_bits)
    for raw in range(fmt.raw_min + 1, fmt.raw_max + 1):
        dec = msd_decompose(FxPValue(raw, fmt), mode.terms)
        by_shift = np.zeros(fmt.frac_bits + 1)
        for term in dec.terms:
            assert by_shift[term.shift] == 0  # one term per shift
            by_shift[term.shift] = term.sign
        np.testing.assert_array_equal(signs[:, raw - fmt.raw_min], by_shift)
        assert value[raw - fmt.raw_min] == dec.approximation()
    # -1.0 is outside msd_decompose's |w| < 1 domain: one term, shift 0
    assert list(signs[:, 0]) == [-1] + [0] * fmt.frac_bits
    assert value[0] == -1.0


@pytest.mark.parametrize("mode", list(MacMode))
def test_code_table_is_cached_and_read_only(mode):
    signs, value = net._code_table(mode)
    assert net._code_table(mode)[0] is signs
    with pytest.raises(ValueError):
        signs[0, 0] = 0
    with pytest.raises(ValueError):
        value[0] = 0.0


@pytest.mark.parametrize("field, poke", [
    ("weights", lambda w: w * 4.0),                      # mn_scale not refreshed
    ("weights", lambda w: np.full_like(w, np.nan)),
    ("bias", lambda b: np.full_like(b, np.inf)),
], ids=["weights_beyond_mn_scale", "nan_weights", "inf_bias"])
def test_prepare_layer_rejects_values_outside_the_code_table(field, poke):
    # such weights would index past the code table; such a bias would be an
    # int64 garbage preload
    rng = np.random.default_rng(3)
    model, _ = random_topology(rng)
    layer = model.layers[0]
    setattr(layer, field, poke(getattr(layer, field)))
    with pytest.raises(DomainError):
        net._prepare_layer(layer)
