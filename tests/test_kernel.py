"""The batched shift-plane accumulate against the scalar DQ-MAC oracle.

`mac.Accumulator` + `mac.mac_step` add one truncated term at a time and check
the width after every add, in bias-then-operand-then-term order; that is the
hardware order the kernel must reproduce, including where it overflows.
"""

import math

import numpy as np
import pytest

from conftest import paper_topology, random_topology, weight_codes
from trea import naf, net, sharp
from trea.errors import AccumulatorOverflow, DomainError, TreaError
from trea.fxp import FXP4, FXP8, FxPValue, msd_decompose, term_table
from trea.mac import Accumulator, MacMode, accumulator_width, dot_product, mac_step
from trea.naf import AfSelect


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
    """Move one output's bias out of the N-bit range, to within
    about sqrt(K) operands of the accumulator limit or just past it, so that
    the bias alone, a later add, or nothing overflows."""
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


def _oracle(layer, q, x):
    """Scalar accumulators (rows, out) of `layer`, prepared as `q`, or the
    (output, operand) the hardware stops at: the first output, in order,
    with a failing row, at the earliest failing add over its rows."""
    mode, fmt = layer.precision, layer.precision.fmt
    width = q.acc_limit.bit_length()
    wmat = weight_codes(layer)
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


def _per_plane_build(layer):
    """The layer build one shift plane at a time, straight from
    `fxp.term_table`: (planes, bias_raw, acc_limit, suspect, acc_bound) and
    QAT's effective weights, sum_m 2**-m C_m times mn_scale."""
    fmt = layer.precision.fmt
    f = fmt.frac_bits
    signs = term_table(fmt, layer.precision.terms)[:, weight_codes(layer) - fmt.raw_min]
    shifts = [m for m in range(f + 1) if signs[m].any()]
    reach = sum((2.0 ** (f - m) * np.abs(signs[m]).sum(axis=1) for m in shifts),
                np.zeros(layer.out_channels))
    dtype = np.float32 if reach.max() < 1 << 24 else np.float64
    planes = [(m, signs[m].astype(dtype)) for m in shifts]
    bias_raw = np.rint(layer.bias / layer.mn_scale * (1 << f)).astype(np.int64)
    k = layer.retained_per_output() + int(bias_raw.any())
    lim = 1 << (accumulator_width(fmt.total_bits, k) - 1)
    bound = np.abs(bias_raw.astype(np.float64)) + reach
    wmat = sum((signs[m] * 2.0 ** -m for m in shifts), np.zeros(signs.shape[1:]))
    return (planes, bias_raw, lim, np.flatnonzero(bound > lim - 1),
            math.ceil(min(float(bound.max()), lim)), wmat * layer.mn_scale)


def _build_case(seed, mode):
    """A `random_topology` model with every layer at `mode`, and QAT's caches
    of one pass over it; on every third seed each layer's bias is then
    inflated as in `_inflate_bias`, so some outputs are suspects, and the
    caches are None."""
    rng = np.random.default_rng(7000 + seed)
    model, x = random_topology(rng)
    for layer in model.layers:
        layer.precision = mode
        layer.refresh_mn_scale()
    _, _, caches = net._quant_pass(model, x, with_cache=True)
    if seed % 3:
        return model, caches
    for layer in model.layers:
        _inflate_bias(rng, layer, net._prepare_layer(layer).acc_limit)
    return model, None


@pytest.mark.parametrize("mode", list(MacMode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", range(24))
def test_layer_build_equals_a_per_plane_reference(seed, mode):
    # the build's gathers from `fxp.term_codes` against per-plane passes over
    # `term_table`, and QAT's effective weights against the planes' sum
    model, caches = _build_case(seed, mode)
    for i, layer in enumerate(model.layers):
        planes, bias_raw, lim, suspect, acc_bound, wmat = _per_plane_build(layer)
        q, _ = net._build_quant_layer(layer)
        assert [m for m, _ in q.planes] == [m for m, _ in planes]
        for (_, got), (_, want) in zip(q.planes, planes):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(q.bias_raw, bias_raw)
        np.testing.assert_array_equal(q.suspect, suspect)
        assert (q.acc_limit, q.acc_bound) == (lim, acc_bound)
        if caches is not None:
            np.testing.assert_array_equal(caches[i]["wmat"], wmat)


def test_layer_build_cases_include_suspects():
    # the differential test above meets outputs the screen cannot clear
    assert any(len(_per_plane_build(layer)[3])
               for seed in range(0, 24, 3) for mode in MacMode
               for layer in _build_case(seed, mode)[0].layers)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("seed", range(24))
def test_accumulate_matches_scalar_oracle(seed, batch):
    rng = np.random.default_rng(1000 + seed)
    model, _ = random_topology(rng)
    _assert_accumulate_is_the_oracle(rng, model, batch, inflate=seed % 3 == 0)


@pytest.mark.parametrize("seed", range(8))
def test_accumulate_matches_scalar_oracle_on_paper_shapes(seed):
    # 5x5, rectangular and 1x1 windows under SHARP masks, up to 4 input
    # channels, and dense layers up to 130 outputs wide
    rng = np.random.default_rng(9000 + seed)
    model, _ = paper_topology(rng)
    _assert_accumulate_is_the_oracle(rng, model, 1, inflate=seed % 3 == 0)


def _assert_accumulate_is_the_oracle(rng, model, batch, inflate):
    """Each layer's `_accumulate` of `batch` random operand rows gives the
    scalar oracle's accumulators, or overflows where it does; with
    `inflate`, one bias per layer is first moved near the limit."""
    for layer in model.layers:
        if inflate:
            _inflate_bias(rng, layer, net._prepare_layer(layer).acc_limit)
        q = net._prepare_layer(layer)
        x = _layer_operands(rng, layer, batch)
        want, where = _oracle(layer, q, x)
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
            _, where = _oracle(layer, q, _layer_operands(rng, layer, 3))
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


@pytest.mark.parametrize("terms", [3, 5])
@pytest.mark.parametrize("fmt", [FXP4, FXP8], ids=["fxp4", "fxp8"])
def test_an_operand_moves_the_accumulator_one_way(fmt, terms):
    # the premise of `net._check_overflow`, over every weight and operand
    # code: each term of w * x has the sign of w * x, and the terms add up to
    # less than 2**F in magnitude
    f = fmt.frac_bits
    ws = np.arange(fmt.raw_min + 1, fmt.raw_max + 1)     # |w| < 1 after mn normalization
    xs = np.arange(fmt.raw_min, fmt.raw_max + 1)
    signs = term_table(fmt, terms)[:, ws - fmt.raw_min]   # (F+1, W)
    adds = signs[:, :, None] * (xs >> np.arange(f + 1)[:, None])[:, None, :]
    assert (adds * np.sign(ws)[:, None] * np.sign(xs) >= 0).all()
    assert (np.abs(adds.sum(axis=0)) < 1 << f).all()


@pytest.mark.parametrize("seed", range(8))
def test_batched_forward_rows_equal_single_calls(seed):
    rng = np.random.default_rng(2000 + seed)
    model, x = random_topology(rng)
    xs = np.stack([x] + [rng.uniform(-0.9, 0.9, size=x.shape) for _ in range(4)])
    batched = net.forward_quant(model, xs)
    for row, xi in zip(batched, xs):
        np.testing.assert_array_equal(row, net.forward_quant(model, xi))


def _scalar_forward(model, xs):
    """Scores through the scalar chain: each layer's accumulators from
    `_oracle` (per-output `mac.dot_product`), encoded to the wide format,
    activated with the internal tanh computed by the CORDIC (the caller
    patches out the table), then folded into the next layer's input layout.
    Returns (scores, None), or (None, (output, operand)) where a layer's
    accumulator overflows."""
    act = net._sat_encode_raw(xs, net.BOUNDARY_FMT)
    for layer in model.layers:
        fmt = layer.precision.fmt
        rows, hw = net._layer_rows(layer, net._sat_encode_raw(act * net.BOUNDARY_FMT.lsb, fmt))
        acc, where = _oracle(layer, net._prepare_layer(layer), rows)
        if where is not None:
            return None, where
        wide = net._sat_encode_raw(acc * fmt.lsb * layer.mn_scale, net.WIDE_FMT)
        out = naf.activate_raw_vec(layer.activation, wide, net.WIDE_FMT.frac_bits,
                                   net.BOUNDARY_FMT.frac_bits)
        act = net._fold(out, layer, hw)
    return act * net.BOUNDARY_FMT.lsb, None


def _chain_case(seed):
    """A random model and a batch of two frames; from seed 8 on, one random
    layer's bias is inflated as in `_inflate_bias`."""
    rng = np.random.default_rng(4000 + seed)
    model, x = random_topology(rng)
    xs = np.stack([x, rng.uniform(-0.9, 0.9, size=x.shape)])
    if seed >= 8:
        layer = model.layers[int(rng.integers(len(model.layers)))]
        _inflate_bias(rng, layer, net._prepare_layer(layer).acc_limit)
    return model, xs


@pytest.mark.parametrize("seed", range(24))
def test_forward_quant_matches_scalar_chain(seed, monkeypatch):
    # ties the batched kernel and the activation table to the scalar MAC
    # unit and the CORDIC that builds the table, overflows included
    model, xs = _chain_case(seed)
    with monkeypatch.context() as patch:
        patch.setattr(naf, "_tanh_lookup_vec", naf._tanh_internal_vec)
        want, where = _scalar_forward(model, xs)
    if where is None:
        np.testing.assert_array_equal(net.forward_quant(model, xs), want)
    else:
        o, j = where
        with pytest.raises(AccumulatorOverflow, match=rf"\(output {o}, operand {j}\)"):
            net.forward_quant(model, xs)


def test_scalar_chain_reaches_every_outcome():
    # the inflated cases above see no overflow, an overflowing bias preload
    # and an overflow at a later add
    outcomes = set()
    for seed in range(8, 24):
        _, where = _scalar_forward(*_chain_case(seed))
        outcomes.add(where if where is None else where[1] == "bias")
    assert outcomes == {None, True, False}


def _extreme_rows(layer):
    """One operand row per output, every operand at the end of the format's
    range that drives that output's accumulator down."""
    fmt = layer.precision.fmt
    return np.where(weight_codes(layer) > 0, fmt.raw_min, fmt.raw_max)


@pytest.mark.parametrize("sel", list(AfSelect), ids=lambda s: s.name.lower())
@pytest.mark.parametrize("seed", range(24))
def test_boundary_table_equals_the_chain(seed, sel):
    # the prepared table against the chain over every code in [-R, R], read
    # as the forward pass reads it; R bounds every accumulator that passes
    # the check, and from seed 8 on an inflated bias stretches R to acc_limit
    model, xs = _chain_case(seed)
    for layer in model.layers:
        layer.activation = sel
        q = net._prepare_layer(layer)
        codes = np.arange(-q.acc_bound, q.acc_bound + 1)
        assert q.boundary.dtype == np.int8
        np.testing.assert_array_equal(q.boundary[codes + q.acc_bound],
                                      net._boundary_chain(layer, codes)[1])
        assert 0 <= q.acc_bound <= q.acc_limit
        try:
            acc = net._accumulate(q, _extreme_rows(layer))
        except AccumulatorOverflow:
            continue
        assert np.abs(acc).max() <= q.acc_bound
    # the table and the chain QAT runs give the same scores
    outcome = _outcome(model, xs)
    if isinstance(outcome, str):
        with pytest.raises(AccumulatorOverflow):
            net._quant_pass(model, xs, with_cache=True)
    else:
        np.testing.assert_array_equal(net._quant_pass(model, xs, with_cache=True)[1], outcome)


def test_inflated_biases_stretch_the_table_to_the_accumulator_limit():
    # the differential test above reads both ends of tables as wide as the
    # accumulator range, some of them filled in more than one chunk
    stretched, longest = 0, 0
    for seed in range(8, 24):
        model, _ = _chain_case(seed)
        for layer in model.layers:
            q = net._prepare_layer(layer)
            stretched += q.acc_bound == q.acc_limit
            longest = max(longest, len(q.boundary))
    assert stretched and longest > net._CHAIN_CHUNK


@pytest.mark.parametrize("seed", range(8))
def test_qat_effective_weights_match_scalar_decomposition(seed):
    # the weights QAT's backward pass sees are each weight's PoT
    # approximation times mn_scale, bit for bit
    rng = np.random.default_rng(3000 + seed)
    model, x = random_topology(rng)
    _, _, caches = net._quant_pass(model, x, with_cache=True)
    for layer, cache in zip(model.layers, caches):
        mode = layer.precision
        want = [[float(msd_decompose(FxPValue(int(c), mode.fmt), mode.terms).approximation())
                 * layer.mn_scale for c in row] for row in weight_codes(layer)]
        np.testing.assert_array_equal(cache["wmat"], want)


@pytest.mark.parametrize("field, poke", [
    ("weights", lambda w: w * 4.0),                      # mn_scale not refreshed
    ("weights", lambda w: np.full_like(w, np.nan)),
    ("bias", lambda b: np.full_like(b, np.inf)),
], ids=["weights_beyond_mn_scale", "nan_weights", "inf_bias"])
def test_prepare_layer_rejects_values_outside_the_code_table(field, poke):
    # such weights would index past the term table; such a bias would be an
    # int64 garbage preload
    rng = np.random.default_rng(3)
    model, _ = random_topology(rng)
    layer = model.layers[0]
    value = poke(getattr(layer, field))
    if np.isfinite(value).all():
        setattr(layer, field, value)
    else:
        # an assignment must be finite; `_backward` stores its sealed arrays
        # past that check, as this does
        with pytest.raises(DomainError):
            setattr(layer, field, value)
        vars(layer)[field] = net._seal(value)
    with pytest.raises(DomainError):
        net._prepare_layer(layer)


def _poke_weight(rng, layer):
    # one retained weight, to half the largest magnitude with its sign
    # flipped, so that its code changes
    w = layer.weights.copy()
    keep = np.arange(w.size) if layer.mask is None else np.flatnonzero(layer.mask.flags)
    i = np.unravel_index(rng.choice(keep), w.shape)
    w[i] = -np.copysign(0.5 * np.abs(layer.masked_weights()).max(), w[i])
    layer.weights = w


def _poke_bias(rng, layer):
    # one bias: inflated to the accumulator limit, or moved by a quarter of
    # the layer's range
    if rng.random() < 0.5:
        _inflate_bias(rng, layer, net._prepare_layer(layer).acc_limit)
    else:
        bias = layer.bias.copy()
        bias[rng.integers(layer.out_channels)] += 0.25 * layer.mn_scale
        layer.bias = bias


def _swap_mask(rng, layer):
    if layer.kind == "dense":
        layer.mask = net.SparsityMask(rng.random(layer.weights.shape) < 0.5,
                                      layer.weights.shape[1])
    elif layer.mask is None:
        layer.mask = sharp.prune_conv_weights(layer.weights)
    else:
        layer.mask = sharp.prune_conv_weights(rng.normal(size=layer.weights.shape))


_MUTATIONS = {
    "weight": _poke_weight,
    "bias": _poke_bias,
    "mn_scale": lambda rng, layer: setattr(layer, "mn_scale", layer.mn_scale * 2.0),
    # FXP4 keeps fewer codes, so an FXP8 layer's mn_scale no longer fits it
    "precision": lambda rng, layer: setattr(
        layer, "precision",
        MacMode.FXP8 if layer.precision is MacMode.FXP4_SIMD else MacMode.FXP4_SIMD),
    "mask": _swap_mask,
    "activation": lambda rng, layer: setattr(
        layer, "activation", AfSelect((layer.activation + int(rng.integers(1, 3))) % 3)),
}


def _outcome(model, xs):
    """The scores, or the type and message of the `TreaError` raised."""
    try:
        return net.forward_quant(model, xs)
    except TreaError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@pytest.mark.parametrize("seed", range(12))
def test_prepared_layers_follow_every_change_to_the_model(seed, mutation):
    # each descriptor keeps its prepared layer; after any change, a warm
    # model scores or fails exactly as a cold copy
    rng = np.random.default_rng(5000 + seed)
    model, x = random_topology(rng)
    xs = np.stack([x, rng.uniform(-0.9, 0.9, size=x.shape)])
    warm = net.forward_quant(model, xs)
    np.testing.assert_array_equal(net.forward_quant(model, xs), warm)
    _MUTATIONS[mutation](rng, model.layers[int(rng.integers(len(model.layers)))])
    got, want = _outcome(model, xs), _outcome(model.copy(), xs)
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


def test_prepared_layer_is_shared_and_read_only(wide_layers):
    model, x = random_topology(np.random.default_rng(6))
    net.forward_quant(model, x)
    shared = [net._requant_table(mode.fmt) for mode in MacMode]
    for layer in model.layers:
        q = net._prepare_layer(layer)
        assert net._prepare_layer(layer) is q
        shared += [c for _, c in q.planes] + [q.bias_raw, q.suspect, q.boundary]
    # planes in either dtype: the wide layers' tables would take seconds to
    # build, so they are read as the layer build leaves them
    for layer in wide_layers.values():
        shared += [c for _, c in net._build_quant_layer(layer)[0].planes]
    assert {a.dtype for a in shared} >= {np.dtype(np.float32), np.dtype(np.float64)}
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        with pytest.raises(ValueError):   # sealed: no view of a writable base
            a.setflags(write=True)


# A weight code of 127 has the greedy terms 2**-1 .. 2**-5 at FxP8's depth of
# 5, so its reach is 64 + 32 + 16 + 8 + 4 = 124 and a dense layer of such
# weights reaches 124 * K: below 2**24 up to K = 135300, past it from 135301.
_WIDE_K = {"under": 135300, "over": 135301}


@pytest.fixture(scope="module")
def wide_layers():
    layers = {}
    for name, k in _WIDE_K.items():
        layer = net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8, np.ones((2, k)),
                                    np.array([0.25, -0.5]))
        layer.refresh_mn_scale()
        layers[name] = layer
    return layers


@pytest.mark.parametrize("side, dtype", [("under", np.float32), ("over", np.float64)])
def test_plane_dtype_follows_the_reach_bound(wide_layers, side, dtype):
    # float32 holds every partial sum exactly only below 2**24; past it the
    # planes fall back to float64, and both equal an int64 reference on the
    # format's extreme operands
    layer = wide_layers[side]
    q, _ = net._build_quant_layer(layer)
    assert (weight_codes(layer) == 127).all()
    assert [m for m, _ in q.planes] == [1, 2, 3, 4, 5]
    assert {c.dtype for _, c in q.planes} == {np.dtype(dtype)}
    k, fmt = _WIDE_K[side], layer.precision.fmt
    reach = sum(2 ** (fmt.frac_bits - m) * np.abs(c).astype(np.int64).sum(axis=1)
                for m, c in q.planes)
    assert (reach == 124 * k).all()
    assert (reach.max() < 1 << 24) == (side == "under")
    rng = np.random.default_rng(9)
    ends = np.array([fmt.raw_min, fmt.raw_max], dtype=np.int8)
    x = np.stack([np.full(k, fmt.raw_min), np.full(k, fmt.raw_max),
                  np.resize(ends, k), rng.choice(ends, size=k)]).astype(np.int8)
    want = sum(((x.astype(np.int64) >> m) @ c.astype(np.int64).T for m, c in q.planes),
               q.bias_raw)
    # the all-min row drives every accumulator to -reach, plus its bias
    np.testing.assert_array_equal(want[0], q.bias_raw - reach)
    for operands in (x, x.astype(np.int64)):
        got = net._accumulate(q, operands)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("mode", list(MacMode), ids=lambda m: m.value)
def test_requant_table_equals_the_encode(mode):
    # every FxP8 boundary code, read at its uint8 view as the pass reads it,
    # against the saturating encode the pass ran per element before
    codes = np.arange(-128, 128).astype(np.int8)
    table = net._requant_table(mode.fmt)
    assert table.dtype == np.int8 and table.shape == (256,)
    want = net._sat_encode_raw(codes * net.BOUNDARY_FMT.lsb, mode.fmt)
    np.testing.assert_array_equal(np.take(table, codes.view(np.uint8)), want)


@pytest.mark.parametrize("seed", range(8))
def test_operands_reach_the_kernel_as_int8(seed, monkeypatch):
    # activations are int8 boundary codes between layers, on the inference
    # pass and on QAT's
    model, xs = _chain_case(seed)
    dtypes = []
    kernel = net._kernel   # the shift-plane body both passes run

    def spy(q, rows):
        dtypes.append(rows.dtype)
        return kernel(q, rows)

    monkeypatch.setattr(net, "_kernel", spy)
    net._quant_pass(model, xs)
    net._quant_pass(model, xs, with_cache=True)
    assert dtypes == [np.dtype(np.int8)] * (2 * len(model.layers))


@pytest.mark.parametrize("mode", list(MacMode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", range(4))
def test_an_overflow_in_the_last_chunk_stops_where_one_piece_does(seed, mode):
    # the inference pass checks every row, first output first, before its
    # chunked kernel runs: inflated biases that the last row drives out of
    # range at output 0, and the second row at output 2, raise what
    # `_accumulate` over all rows raises, output 0's overflow
    rng = np.random.default_rng(6000 + seed)
    k = int(rng.integers(200, 400))
    half = k // 2
    w = rng.normal(size=(3, k))
    w[0, :half] = 0.0    # outputs 0 and 2 read disjoint operands
    w[2, half:] = 0.0
    layer = net.LayerDescriptor("dense", AfSelect.TANH, mode, w, np.full(3, 0.01))
    layer.refresh_mn_scale()
    q = net._prepare_layer(layer)
    down = _extreme_rows(layer)
    drop = q.bias_raw - np.diag(net._accumulate(q, down))
    one = 1 << mode.fmt.frac_bits
    raw = np.rint(layer.bias / layer.mn_scale * one)
    raw[[0, 2]] = -(q.acc_limit - drop[[0, 2]] // 2)   # in range until those rows
    layer.bias = raw * layer.mn_scale / one
    q = net._prepare_layer(layer)
    rows = np.zeros((3 * (net._PIECE_OPERANDS // k) + 5, k), dtype=np.int8)
    rows[1, :half] = down[2, :half]
    rows[-1, half:] = down[0, half:]
    for kept, o in ((rows, 0), (rows[:-1], 2)):
        with pytest.raises(AccumulatorOverflow) as want:
            net._accumulate(q, kept)
        assert f"(output {o}, operand " in str(want.value) and "bias" not in str(want.value)
        with pytest.raises(AccumulatorOverflow) as got:
            net._boundary_rows(q, kept)
        assert str(got.value) == str(want.value)
    # without those rows every chunk passes and reads the table
    rows[1] = 0
    np.testing.assert_array_equal(net._boundary_rows(q, rows[:-1]),
                                  q.boundary[net._accumulate(q, rows[:-1]) + q.acc_bound])


def _accumulate_outcome(q, x):
    """The accumulators, or the message of the `AccumulatorOverflow` raised."""
    try:
        return net._accumulate(q, x)
    except AccumulatorOverflow as exc:
        return str(exc)


def test_int8_operands_overflow_where_int64_operands_do():
    # `_check_overflow` sums each operand's terms in int64 whatever the
    # operands' dtype, so int8 codes stop at the same (output, operand)
    messages = []
    for seed in range(0, 24, 3):
        rng = np.random.default_rng(1000 + seed)
        model, _ = random_topology(rng)
        for layer in model.layers:
            _inflate_bias(rng, layer, net._prepare_layer(layer).acc_limit)
            q = net._prepare_layer(layer)
            x = _layer_operands(rng, layer, 3)
            want = _accumulate_outcome(q, x)
            got = _accumulate_outcome(q, x.astype(np.int8))
            if isinstance(want, str):
                assert got == want
                messages.append(want)
            else:
                np.testing.assert_array_equal(got, want)
    assert any("operand bias" in m for m in messages)
    assert any("operand bias" not in m for m in messages)
