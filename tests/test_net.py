import dataclasses
import gc
import hashlib
import itertools
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import (PAPER_KERNELS, paper_topology, random_topology, rewrite_manifest,
                      weight_codes)
from trea import fxp, net, sched, sharp
from trea.errors import (DivergenceError, DomainError, FormatError, InvalidSelect,
                         ShapeMismatch, TreaError)
from trea.fxp import FXP8, error_bound, FxPValue
from trea.mac import MacMode
from trea.naf import AfSelect


def _dense_model(w, b, activation=AfSelect.TANH, precision=MacMode.FXP8):
    layer = net.LayerDescriptor("dense", activation, precision, w, b)
    layer.refresh_mn_scale()
    return net.NetworkDescriptor("t", (1, 1, w.shape[1]), [layer])


class TestDataset:
    def test_deterministic(self):
        a = net.synth_dataset(9, 20, 10)
        b = net.synth_dataset(9, 20, 10)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)

    def test_seed_changes_data(self):
        a = net.synth_dataset(9, 20, 10)
        b = net.synth_dataset(10, 20, 10)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_empty_test_split(self):
        d = net.synth_dataset(1, 8, 0)
        assert len(d.test_x) == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            net.synth_dataset(1, 4, 4, classes=1)
        with pytest.raises(DomainError):
            net.synth_dataset(1, 4, 4, image_size=4)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1),
        ("n_train", -5),
        ("n_test", -1),
        ("seed", "x"),
        ("seed", True),
        ("n_train", 10.0),
        ("n_test", None),
        ("classes", 3.0),
        ("image_size", 12.0),
    ])
    def test_argument_table_rejects(self, field, value):
        args = dict(seed=1, n_train=4, n_test=4, classes=3, image_size=8)
        args[field] = value
        with pytest.raises(DomainError, match=field):
            net.synth_dataset(**args)

    # sha256 of train_x, train_y, test_x, test_y (`tobytes()`, in that order)
    # as the per-frame synthesis made them
    @pytest.mark.parametrize("args, digest", [
        ((42, 240, 96, 3, 12), "0f4301474c9d60ba62195edeee9f0109b7fea89864a5bad345493397e5a95273"),
        ((1, 17, 5, 2, 8), "6d6ae2344406e3c381d48c9229bf4c5f478a6e0a9c7d7d5920c16f360d067d15"),
        ((7, 30, 11, 5, 16), "db537d67773d2a69037fee5bf98e4c4a2760bca7b159e355dfb45b25092d0c7d"),
        ((3, 0, 64, 3, 12), "7b7f0611a095dec29c99495d683508ffc787a8d271e445afa6ba65f6f15fc133"),
    ])
    def test_golden_bytes(self, args, digest):
        d = net.synth_dataset(*args)
        h = hashlib.sha256()
        for a in (d.train_x, d.train_y, d.test_x, d.test_y):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("extra", [-1, 0, 1, net._RENDER_CHUNK + 5])
    def test_chunked_render_is_the_per_frame_form(self, extra):
        # frame counts on both sides of the chunk size, against the per-frame
        # draws and render the chunked form replaces
        n = net._RENDER_CHUNK + extra
        for seed, classes, size in ((4, 3, 12), (8, 7, 9)):
            want = _per_frame_split(np.random.default_rng(seed), n, classes, size)
            got = net._synth_split(np.random.default_rng(seed), n, classes, size)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("field, args", [
        ("image_size", dict(image_size=257)),
        ("image_size", dict(image_size=100_000_000, n_train=1, n_test=0)),
        ("n_train \\+ n_test", dict(n_train=1_000_000_000_000)),
        ("n_train \\+ n_test", dict(n_train=np.int64(2**62), n_test=np.int64(2**62))),
        ("n_train \\+ n_test", dict(n_train=(1 << 24) // 144 - 7, n_test=8)),
    ], ids=["side-257", "side-1e8", "frames-1e12", "frames-int64-sum", "one-frame-over"])
    def test_size_cap_rejects_before_any_draw(self, monkeypatch, field, args):
        monkeypatch.setattr(np.random, "default_rng", None)   # nothing is drawn
        with pytest.raises(DomainError, match=field):
            net.synth_dataset(**{"seed": 1, "n_train": 4, "n_test": 4, **args})

    def test_size_cap_admits_its_bound(self):
        net.check_dataset_args(1, (1 << 24) // 144 - 7, 7)
        net.check_dataset_args(1, 0, 0, image_size=256)
        net.check_dataset_args(1, (1 << 24) // 256 ** 2, 0, image_size=256)


def _per_frame_split(rng, n, classes, size):
    """The per-frame synthesis: each frame's jitter and noise drawn through
    `uniform` and `normal`, then rendered on its own."""
    x = np.empty((n, 1, size, size), dtype=np.float64)
    y = np.empty(n, dtype=np.int64)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    center = (size - 1) / 2.0
    for i in range(n):
        k = i % classes
        theta = math.pi * k / classes
        ox, oy = rng.uniform(-1.5, 1.5, size=2)
        dist = np.abs(
            (xx - center - ox) * math.sin(theta) - (yy - center - oy) * math.cos(theta)
        )
        width = rng.uniform(0.9, 1.4)
        amp = rng.uniform(0.7, 0.95)
        img = amp * np.exp(-((dist / width) ** 2))
        img += rng.normal(0.0, 0.08, size=(size, size))
        x[i, 0] = np.clip(img, 0.0, 1.0 - 2.0 ** -7)
        y[i] = k
    if n:
        perm = rng.permutation(n)
        return x[perm], y[perm]
    return x, y


def _naive_conv(x, w, b, stride, padding):
    x = np.pad(x, ((0, 0), net._pads(x.shape[1], w.shape[2], stride, padding),
                   net._pads(x.shape[2], w.shape[3], stride, padding)))
    co, ci, kh, kw = w.shape
    ho = (x.shape[1] - kh) // stride + 1
    wo = (x.shape[2] - kw) // stride + 1
    out = np.zeros((co, ho, wo))
    for o in range(co):
        for i in range(ho):
            for j in range(wo):
                acc = b[o]
                for c in range(ci):
                    for a in range(kh):
                        for bb in range(kw):
                            acc += x[c, i * stride + a, j * stride + bb] * w[o, c, a, bb]
                out[o, i, j] = acc
    return out


def _naive_forward(model, x):
    act = x
    for layer in model.layers:
        if layer.kind == "conv2d":
            z = _naive_conv(act, layer.masked_weights(), layer.bias,
                            layer.stride, layer.padding)
        else:
            z = layer.masked_weights() @ act.ravel() + layer.bias
        if layer.activation is AfSelect.RELU:
            act = np.maximum(z, 0)
        elif layer.activation is AfSelect.SIGMOID:
            act = 1.0 / (1.0 + np.exp(-z))
        else:
            act = np.tanh(z)
    return act


def _im2col_windows(x, kh, kw, stride, padding):
    """The strided-window form of `net._im2col`, kept as its oracle."""
    x = np.pad(x, ((0, 0), (0, 0), net._pads(x.shape[2], kh, stride, padding),
                   net._pads(x.shape[3], kw, stride, padding)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    b, c, ho, wo = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * kh * kw), ho, wo


@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_im2col_gather_matches_the_window_form(dtype):
    rng = np.random.default_rng(71)
    for _ in range(150):
        kh, kw = (int(k) for k in rng.integers(1, 6, size=2))
        stride = int(rng.integers(1, 4))
        padding = str(rng.choice(["valid", "same"]))
        b, c = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(kh, 10)), int(rng.integers(kw, 10))
        x = rng.integers(-128, 128, size=(b, c, h, w)).astype(dtype)
        if dtype == np.float64:
            x += rng.random(x.shape)
        got, ho, wo = net._im2col(x, kh, kw, stride, padding)
        want, want_ho, want_wo = _im2col_windows(x, kh, kw, stride, padding)
        assert (ho, wo) == (want_ho, want_wo)
        assert got.dtype == want.dtype and got.shape == want.shape
        # C order, as the window form's copy: the float matmul's rounding
        # depends on the operand layout
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


def _col2im_loop(dcols, x_shape, kh, kw, stride, padding):
    """The per-patch slice-add form of `net._col2im`, kept as its oracle."""
    b, c, h, w = x_shape
    pt, pb = net._pads(h, kh, stride, padding)
    pl, pr = net._pads(w, kw, stride, padding)
    hp, wp = h + pt + pb, w + pl + pr
    dx = np.zeros((b, c, hp, wp))
    p = 0
    for i in range((hp - kh) // stride + 1):
        for j in range((wp - kw) // stride + 1):
            dx[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += (
                dcols[:, p].reshape(b, c, kh, kw)
            )
            p += 1
    return dx[:, :, pt:hp - pb or None, pl:wp - pr or None]


def _random_geometry(rng):
    """(kh, kw, stride, padding, h, w): kernels 1-5, strides 1-3 (stride >
    kernel leaves pixels no patch covers), inputs from kernel size up."""
    kh, kw = (int(k) for k in rng.integers(1, 6, size=2))
    stride = int(rng.integers(1, 4))
    padding = str(rng.choice(["valid", "same"]))
    return kh, kw, stride, padding, int(rng.integers(kh, 10)), int(rng.integers(kw, 10))


def _out_hw(h, w, kh, kw, stride, padding):
    """(ho, wo) of a kh x kw conv on an h x w input, by `net._layer_out_shape`."""
    layer = net.LayerDescriptor("conv2d", AfSelect.TANH, MacMode.FXP8, np.zeros((1, 1, kh, kw)),
                                np.zeros(1), stride=stride, padding=padding)
    return net._layer_out_shape(layer, (1, h, w))[1:]


def test_col2im_is_the_patch_loop_byte_for_byte():
    rng = np.random.default_rng(83)
    geometries = [_random_geometry(rng) for _ in range(300)]
    geometries += [(k, k, s, p, k, k) for k in (1, 3, 5) for s in (1, 2, 3)
                   for p in ("valid", "same")]       # kernel = input
    for kh, kw, stride, padding, h, w in geometries:
        b, c = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ho, wo = _out_hw(h, w, kh, kw, stride, padding)
        dcols = rng.normal(size=(b, ho * wo, c * kh * kw))
        dcols[rng.random(dcols.shape) < 0.2] = -0.0     # signed zeros must survive
        got = net._col2im(dcols, (b, c, h, w), kh, kw, stride, padding)
        want = _col2im_loop(dcols, (b, c, h, w), kh, kw, stride, padding)
        assert got.dtype == want.dtype and got.shape == want.shape == (b, c, h, w)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), (
            kh, kw, stride, padding, h, w)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_col2im_of_an_empty_batch_is_float64(padding):
    # np.bincount of an empty index gives int64 whatever its weights
    ho, wo = _out_hw(8, 9, 3, 3, 2, padding)
    got = net._col2im(np.zeros((0, ho * wo, 2 * 9)), (0, 2, 8, 9), 3, 3, 2, padding)
    assert got.dtype == np.float64 and got.shape == (0, 2, 8, 9)


def test_conv_out_hw_counts_the_patches_of_the_padded_input():
    # `_layer_out_shape`'s closed form against the patches of the input as
    # `_pads` pads it, along either axis for every size, kernel and stride up
    # to 19, 7 and 3 (where a "valid" kernel is larger than its input, it
    # raises), then on random 2-D geometries
    for n, k, stride, padding in itertools.product(range(1, 20), range(1, 8), range(1, 4),
                                                   ("valid", "same")):
        padded = n + sum(net._pads(n, k, stride, padding))
        for h, w, kh, kw, hp, wp in ((n, 1, k, 1, padded, 1), (1, n, 1, k, 1, padded)):
            if padded < k:
                with pytest.raises(ShapeMismatch, match="kernel larger"):
                    _out_hw(h, w, kh, kw, stride, padding)
                continue
            _, ho, wo = net._patch_index(1, hp, wp, kh, kw, stride)
            assert _out_hw(h, w, kh, kw, stride, padding) == (ho, wo)
    rng = np.random.default_rng(89)
    for _ in range(300):
        kh, kw, stride, padding, h, w = _random_geometry(rng)
        pt, pb = net._pads(h, kh, stride, padding)
        pl, pr = net._pads(w, kw, stride, padding)
        _, ho, wo = net._patch_index(1, h + pt + pb, w + pl + pr, kh, kw, stride)
        assert _out_hw(h, w, kh, kw, stride, padding) == (ho, wo)


def test_patch_index_is_read_only_and_shared():
    idx, _, _ = net._patch_index(2, 7, 6, 3, 2, 2)
    assert idx.dtype == np.intp and idx is net._patch_index(2, 7, 6, 3, 2, 2)[0]
    with pytest.raises(ValueError, match="read-only"):
        idx[0, 0] = 0


class TestForwardFloat:
    def test_zero_everything(self):
        model = _dense_model(np.zeros((3, 4)), np.zeros(3))
        scores = net.forward_float(model, np.zeros((1, 1, 4)))
        assert np.array_equal(scores, np.zeros(3))

    def test_identity_1x1_conv(self):
        layer = net.LayerDescriptor(
            "conv2d", AfSelect.RELU, MacMode.FXP8,
            np.ones((1, 1, 1, 1)), np.zeros(1),
        )
        layer.refresh_mn_scale()
        model = net.NetworkDescriptor("id", (1, 4, 4), [layer])
        x = np.abs(np.random.default_rng(0).normal(size=(1, 4, 4)))
        np.testing.assert_allclose(net.forward_float(model, x), x)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            model, x = random_topology(rng)
            got = net.forward_float(model, x)
            want = _naive_forward(model, x)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch(self):
        model = _dense_model(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ShapeMismatch):
            net.forward_float(model, np.zeros((1, 1, 5)))


class TestForwardQuant:
    def test_zero_input_bias_only_relu(self):
        w = np.zeros((3, 4))
        b = np.array([0.25, 0.5, -0.25])
        # all-zero weights break normalization; use a tiny retained weight
        w[0, 0] = 0.5
        model = _dense_model(w, b, activation=AfSelect.RELU)
        got = net.forward_quant(model, np.zeros((1, 1, 4)))
        want = net.forward_float(model, np.zeros((1, 1, 4)))
        np.testing.assert_allclose(got, want)

    def test_mask_opacity(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(4, 2, 3, 3)) * 0.4
        layer = net.LayerDescriptor("conv2d", AfSelect.TANH, MacMode.FXP4_SIMD,
                                    w, rng.normal(size=4) * 0.1)
        layer.mask = sharp.prune_conv_weights(w)
        layer.refresh_mn_scale()
        model = net.NetworkDescriptor("m", (2, 6, 6), [layer])
        x = rng.uniform(-0.9, 0.9, size=(2, 6, 6))
        base = net.forward_quant(model, x)
        poked = model.copy()
        poked.layers[0].weights = poked.layers[0].weights + (
            ~poked.layers[0].mask.flags
        ) * rng.normal(size=w.shape) * 100.0
        np.testing.assert_array_equal(net.forward_quant(poked, x), base)

    def test_per_layer_error_envelope(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            k = int(rng.integers(2, 16))
            out = int(rng.integers(1, 6))
            w = rng.normal(size=(out, k))
            b = rng.normal(size=out) * 0.2
            mode = MacMode.FXP8 if rng.random() < 0.5 else MacMode.FXP4_SIMD
            model = _dense_model(w, b, precision=mode)
            layer = model.layers[0]
            q = net._prepare_layer(layer)
            fmt = mode.fmt
            x_raw = rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(1, k))
            acc = net._accumulate(q, x_raw)
            quant_pre = acc.astype(np.float64) * fmt.lsb * layer.mn_scale
            # float path fed the decoded quantized operands
            x_dec = x_raw.astype(np.float64) * fmt.lsb
            w_dec = weight_codes(layer) * fmt.lsb * layer.mn_scale
            b_dec = q.bias_raw.astype(np.float64) * fmt.lsb * layer.mn_scale
            float_pre = x_dec @ w_dec.T + b_dec
            bound = sum(
                error_bound(FxPValue(int(r), fmt), mode.terms, fmt.frac_bits)
                for r in x_raw[0]
            ) * layer.mn_scale
            assert np.all(np.abs(quant_pre - float_pre) <= bound + 1e-9)

    def test_matches_scalar_mac_unit(self):
        # dual route: the vectorized network path reproduces the scalar
        # dot-product unit bit for bit
        from trea.mac import dot_product

        rng = np.random.default_rng(31)
        k, out = 6, 3
        w = rng.normal(size=(out, k)) * 0.5
        model = _dense_model(w, np.zeros(out), precision=MacMode.FXP8)
        layer = model.layers[0]
        q = net._prepare_layer(layer)
        x_raw = rng.integers(-128, 128, size=(1, k))
        acc = net._accumulate(q, x_raw)
        xs = [FxPValue(int(r), FXP8) for r in x_raw[0]]
        for o in range(out):
            ws = [FxPValue(int(r), FXP8) for r in weight_codes(layer)[o]]
            value, _ = dot_product(xs, ws, MacMode.FXP8, FxPValue(0, FXP8))
            assert value.raw == int(acc[0, o])

    def test_boundary_saturates(self):
        # pre-activations beyond the wide format clip instead of erroring
        w = np.full((1, 4), 100.0)
        model = _dense_model(w, np.zeros(1), activation=AfSelect.RELU)
        got = net.forward_quant(model, np.full((1, 1, 4), 0.9))
        assert got[0] == FXP8.max_value


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("forward", [
        net.forward_quant,
        net.forward_float,
        lambda model, x: sched.simulate(model, x, sched.ArrayConfig()),
    ], ids=["forward_quant", "forward_float", "simulate"])
    def test_rejected_as_domain_error(self, desk_model, desk_data, forward, bad):
        # once cast to int64, NaN became a garbage code and surfaced as a
        # misleading AccumulatorOverflow
        x = desk_data.test_x[0].copy()
        x[0, 3, 4] = bad
        with pytest.raises(DomainError, match="NaN or infinity"):
            forward(desk_model, x)


class TestEmptyBatch:
    @pytest.mark.parametrize("forward", [net.forward_quant, net.forward_float])
    def test_forward_gives_no_rows(self, desk_model, desk_data, forward):
        # conv -> dense -> dense: the dense layers flatten to their input width
        got = forward(desk_model, desk_data.test_x[:0])
        assert got.shape == (0, desk_data.classes)

    @pytest.mark.parametrize("evaluate", [net.evaluate_quant, net.evaluate_float])
    def test_evaluate_rejects_an_empty_set(self, desk_model, desk_data, evaluate):
        with pytest.raises(DomainError, match="empty"):
            evaluate(desk_model, desk_data.test_x[:0], desk_data.test_y[:0])


@pytest.mark.parametrize("evaluate, forward", [(net.evaluate_quant, net.forward_quant),
                                               (net.evaluate_float, net.forward_float)],
                         ids=["quant", "float"])
def test_evaluate_scores_one_frame_as_a_batch_of_one(desk_model, desk_data, evaluate,
                                                      forward):
    x, y = desk_data.test_x[0], desk_data.test_y[:1]
    want = float(forward(desk_model, x).argmax() == y[0])
    assert evaluate(desk_model, x, y) == want == evaluate(desk_model, x[None], y)
    with pytest.raises(ShapeMismatch, match="labels"):
        evaluate(desk_model, desk_data.test_x[:3], y)


def _paper_shaped(seed, frames=600):
    """A SHARP-pruned 5x5 conv, a dense layer wider than 100 and an output
    layer at mixed precisions, and `frames` frames: enough that the float
    pass runs the conv in many frame blocks and the integer kernel runs
    every layer's rows in more than one chunk."""
    rng = np.random.default_rng(seed)
    arch = [("conv2d", dict(out_channels=4, kernel=(5, 5), activation=AfSelect.TANH)),
            ("dense", dict(out_features=120, activation=AfSelect.SIGMOID)),
            ("dense", dict(out_features=3, activation=AfSelect.RELU))]
    model = net.build_network(arch, (1, 16, 16), seed=int(rng.integers(1 << 30)))
    conv = model.layers[0]
    conv.mask = sharp.prune_conv_weights(conv.weights)
    conv.weights = conv.weights * conv.mask.flags
    for layer, mode in zip(model.layers, (MacMode.FXP4_SIMD, MacMode.FXP8, MacMode.FXP4_SIMD)):
        layer.weights = layer.weights * 0.5
        layer.bias = rng.normal(0.0, 0.05, size=layer.bias.shape)
        layer.precision = mode
        layer.refresh_mn_scale()
    # conv patches (P x K) and each layer's operand rows (frames x P, K)
    pieces = [(frames, 144 * 25), (frames * 144, 25), (frames, 576), (frames, 120)]
    assert all(n > max(1, net._PIECE_OPERANDS // k) for n, k in pieces)
    return model, rng.uniform(-0.9, 0.9, size=(frames, 1, 16, 16))


def _one_piece_quant(model, x):
    """The inference pass with each layer's rows through `_accumulate` and
    the boundary table in one piece."""
    act = net._sat_encode_raw(x, net.BOUNDARY_FMT, np.int8)
    for layer in model.layers:
        q = net._prepare_layer(layer)
        x_raw = np.take(net._requant_table(layer.precision.fmt), act.view(np.uint8))
        cols, hw = net._layer_rows(layer, x_raw)
        act = net._fold(q.boundary[net._accumulate(q, cols) + q.acc_bound], layer, hw)
    return act * net.BOUNDARY_FMT.lsb


def _random_batch(seed):
    """Seeds 0-1: `_paper_shaped`. Seeds 2-23: a `random_topology` model and
    1 to 300 frames, enough for several conv blocks and kernel chunks on
    some seeds. Seeds from 24 on: the same of a `paper_topology` model."""
    if seed < 2:
        return _paper_shaped(seed)
    rng = np.random.default_rng(8000 + seed)
    model, x = (random_topology if seed < 24 else paper_topology)(rng)
    return model, rng.uniform(-0.9, 0.9, size=(int(rng.integers(1, 301)),) + x.shape)


class TestBoundedInference:
    """Both inference passes run in pieces and hold no training caches; the
    pieces move no bit."""

    @pytest.mark.parametrize("seed", range(32))
    def test_float_pass_is_the_training_pass(self, seed):
        model, xs = _random_batch(seed)
        want = net._float_pass(model, xs, with_cache=True)[1]
        got = net.forward_float(model, xs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        one = net.forward_float(model, xs[-1])
        assert one.tobytes() == net._float_pass(model, xs[-1:], with_cache=True)[1][0].tobytes()

    @pytest.mark.parametrize("seed", range(32))
    def test_chunked_quant_pass_is_the_one_piece_pass(self, seed):
        model, xs = _random_batch(seed)
        want = _one_piece_quant(model, xs)
        got = net.forward_quant(model, xs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(net.forward_quant(model, xs[0]), want[0])

    @pytest.mark.parametrize("sel", list(AfSelect), ids=lambda s: s.name.lower())
    def test_activation_in_place_is_the_expression(self, sel):
        # the in-place steps round as the textbook expressions do, which the
        # float pass computed before it wrote into the matmul's output
        z = np.random.default_rng(3).normal(0.0, 4.0, size=(64, 33))
        z[0, :6] = (0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300)
        want = {AfSelect.RELU: lambda: np.maximum(z, 0.0),
                AfSelect.SIGMOID: lambda: 1.0 / (1.0 + np.exp(-z)),
                AfSelect.TANH: lambda: np.tanh(z)}[sel]().tobytes()
        assert net._af_float(sel, z).tobytes() == want
        out = z.copy()
        assert net._af_float(sel, out, out=out) is out and out.tobytes() == want

    @pytest.mark.parametrize("forward, bound", [(net.forward_float, 2500),
                                                (net.forward_quant, 1500)],
                             ids=["float", "quant"])
    def test_memory_per_frame(self, desk_model, forward, bound):
        # tracemalloc's peak over one call, README model at the bench's mixed
        # precisions with SHARP masks; the per-frame slope drops the fixed part
        modes = (MacMode.FXP4_SIMD, MacMode.FXP8, MacMode.FXP4_SIMD)
        model = sharp.prune_model(sharp.apply_assignment(
            desk_model, sharp.PrecisionAssignment(modes, 0.0)))
        x = np.random.default_rng(5).uniform(0.0, 0.99, size=(4096, *model.input_shape))
        forward(model, x[:16])   # prepares the layers
        peaks = []
        for n in (1024, 4096):
            tracemalloc.start()
            try:
                forward(model, x[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 3072 <= bound


class TestTrainReference:
    def test_epochs_zero_is_seeded_init(self):
        data = net.synth_dataset(3, 16, 4)
        a = net.train_reference("desk", data, epochs=0, lr=0.1, seed=11)
        b = net.train_reference("desk", data, epochs=0, lr=0.1, seed=11)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_deterministic(self):
        data = net.synth_dataset(3, 32, 8)
        a = net.train_reference("desk", data, epochs=2, lr=0.05, seed=11)
        b = net.train_reference("desk", data, epochs=2, lr=0.05, seed=11)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_divergence_detected(self):
        # a non-finite loss must surface, never train silently
        data = net.synth_dataset(3, 32, 8)
        arch = [("dense", dict(out_features=8, activation=AfSelect.RELU)),
                ("dense", dict(out_features=3, activation=AfSelect.RELU))]
        with pytest.raises(DivergenceError):
            with np.errstate(all="ignore"):
                net.train_reference(arch, data, epochs=1, lr=1e300, seed=11)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_training_data_is_domain_error(self, bad):
        # the input is at fault, not the optimiser: no DivergenceError
        data = net.synth_dataset(3, 32, 8)
        data.train_x[5, 0, 2, 3] = bad
        with pytest.raises(DomainError, match="NaN or infinity"):
            net.train_reference("desk", data, epochs=1, lr=0.05, seed=11)

    def test_negative_epochs_rejected(self):
        data = net.synth_dataset(3, 8, 0)
        with pytest.raises(DomainError, match="epochs"):
            net.train_reference("desk", data, epochs=-1, lr=0.1, seed=1)

    def test_unknown_preset(self):
        data = net.synth_dataset(3, 8, 0)
        with pytest.raises(DomainError):
            net.train_reference("galaxy", data, epochs=0, lr=0.1, seed=1)


def _assert_round_trip(model, x, tmp_path):
    """save -> load -> save is byte-identical, every field comes back equal
    and of the same type, and the quantized scores are equal."""
    p1, p2 = tmp_path / "a.tmdl", tmp_path / "b.tmdl"
    net.save_model(model, p1)
    again = net.load_model(p1)
    net.save_model(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for f in ("name", "input_shape", "seed"):
        a, b = getattr(model, f), getattr(again, f)
        assert a == b and type(a) is type(b), f
    for a, b in zip(model.layers, again.layers, strict=True):
        for f in dataclasses.fields(a):
            u, v = getattr(a, f.name), getattr(b, f.name)
            if f.name == "mask" and u is not None:
                assert np.array_equal(u.flags, v.flags)
                u, v = u.retained_per_window, v.retained_per_window
            if isinstance(u, np.ndarray):
                assert np.array_equal(u, v) and u.dtype == v.dtype, f.name
            elif f.compare:
                assert u == v and type(u) is type(v), f.name
    np.testing.assert_array_equal(net.forward_quant(again, x), net.forward_quant(model, x))
    return again


class TestSerialization:
    def test_round_trip_identity(self, desk_model, desk_data, tmp_path):
        _assert_round_trip(sharp.prune_model(desk_model), desk_data.test_x[:8], tmp_path)
        # random topologies: between them, both paddings, strides 1 and 2,
        # masked and unmasked conv layers, both precisions and every select
        seen = set()
        for seed in range(16):
            model, x = random_topology(np.random.default_rng(seed))
            _assert_round_trip(model, x, tmp_path)
            for layer in model.layers:
                seen |= {layer.precision, ("select", layer.activation)}
                if layer.kind == "conv2d":
                    seen |= {("masked", layer.mask is not None), ("padding", layer.padding),
                             ("stride", layer.stride)}
        assert seen == {*MacMode, *(("select", s) for s in AfSelect),
                        *(("masked", m) for m in (True, False)),
                        *(("padding", p) for p in ("valid", "same")),
                        *(("stride", s) for s in (1, 2))}

    def test_paper_shaped_round_trip(self, tmp_path):
        # every kernel of `PAPER_KERNELS`, SHARP-pruned (12 of 25, 4 of 8,
        # 4 of 15, 1x1 left dense) or not, and dense layers wider than 100
        seen = set()
        for seed in range(48):
            model, x = paper_topology(np.random.default_rng(6200 + seed))
            _assert_round_trip(model, x, tmp_path)
            for layer in model.layers:
                if layer.kind == "conv2d":
                    seen.add((layer.weights.shape[2:], layer.mask is not None))
                else:
                    seen.add(layer.out_channels > 100)
        assert seen == {*((k, m) for k in PAPER_KERNELS for m in (True, False)), True, False}

    def test_numpy_scalar_seed_and_retained_count_round_trip(self, tmp_path):
        model = _conv_dense_model()
        layer = model.layers[0]
        model.seed = np.int64(7)
        layer.mask = net.SparsityMask(layer.mask.flags, np.int64(layer.mask.retained_per_window))
        assert type(model.seed) is type(layer.mask.retained_per_window) is int
        x = np.random.default_rng(5).uniform(-0.9, 0.9, (3, 1, 5, 5))
        again = _assert_round_trip(model, x, tmp_path)
        assert again.seed == 7 and again.layers[0].mask.retained_per_window == 4

    def test_prepared_layers_are_neither_saved_nor_copied(self, desk_model, desk_data,
                                                          tmp_path):
        warm = sharp.prune_model(desk_model)
        cold = warm.copy()
        net.forward_quant(warm, desk_data.test_x[:4])
        assert all(layer._prepared is not None for layer in warm.layers)
        assert all(layer._prepared is None for layer in warm.copy().layers)
        assert warm.layers[0].copy()._prepared is None
        assert "_prepared" not in repr(warm.layers[0])
        net.save_model(warm, tmp_path / "warm.tmdl")
        net.save_model(cold, tmp_path / "cold.tmdl")
        assert (tmp_path / "warm.tmdl").read_bytes() == (tmp_path / "cold.tmdl").read_bytes()

    def test_truncated(self, desk_model, tmp_path):
        p = tmp_path / "m.tmdl"
        net.save_model(desk_model, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            net.load_model(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.tmdl"
        p.write_bytes(b"NOTAMODEL")
        with pytest.raises(FormatError):
            net.load_model(p)

    def test_unknown_version_named(self, desk_model, tmp_path):
        p = tmp_path / "m.tmdl"
        net.save_model(desk_model, p)
        rewrite_manifest(p, lambda m: m.update(version=42))
        with pytest.raises(FormatError, match="42"):
            net.load_model(p)

    def test_saved_version_is_the_format_version(self, desk_model, tmp_path):
        # the version belongs to the file format, not the descriptor
        p, seen = tmp_path / "m.tmdl", []
        net.save_model(desk_model, p)
        rewrite_manifest(p, lambda m: seen.append(m["version"]))
        assert seen == [net.MODEL_VERSION]
        with pytest.raises(TypeError, match="version"):
            net.NetworkDescriptor("t", desk_model.input_shape, desk_model.layers,
                                  version=net.MODEL_VERSION)

    def test_missing_field_path_named(self, desk_model, tmp_path):
        p = tmp_path / "m.tmdl"
        net.save_model(desk_model, p)
        rewrite_manifest(p, lambda m: m["layers"][0].pop("mn_scale"))
        with pytest.raises(FormatError, match=r"layers\[0\].mn_scale"):
            net.load_model(p)

    @pytest.mark.parametrize("key, value", [
        ("weight_offset", 10**9),
        ("weight_offset", -8),
        ("bias_offset", 10**9),
        ("bias_offset", -8),
        ("mask_offset", 10**9),
        ("mask_offset", -8),
        ("weight_shape", "abc"),
        ("weight_shape", 5),
        ("precision", "fxp16"),
        ("retained_per_window", None),
        ("retained_per_window", 9),     # the 4:9 mask keeps 4 per window
        ("stride", "x"),
        ("stride", 1.5),
        ("layers", 5),
        ("input_shape", 5),
        ("input_shape", [1, "a", 3]),
        ("seed", "x"),
        ("name", 5),
        ("kind", 5),
        ("kind", "dense"),              # layer 0 is a conv layer
        ("padding", 5),
        ("stride", 0),
        ("input_shape", [1, 12]),
        ("activation", 1.5),
        ("activation", "2"),
        ("activation", True),
        ("version", True),
        ("version", 1.0),
        ("mn_scale", True),
        ("mn_scale", "1.0"),
        ("mn_scale", 1e400),            # JSON's 1e400 reads as inf
        pytest.param("mn_scale", 10**400, id="mn_scale-huge-int"),
        ("retained_per_window", 4.0),
        pytest.param("kind", ["conv2d"], id="kind-list"),
        pytest.param("padding", ["valid"], id="padding-list"),
        ("seed", 1.5),
        pytest.param("input_shape", [1, [12, 12], 12], id="input_shape-ragged"),
        ("weights", math.nan),          # a value in the blob, not the manifest
    ])
    def test_malformed_manifest_is_format_error(self, desk_model, tmp_path, key, value):
        p = tmp_path / "m.tmdl"
        net.save_model(sharp.prune_model(desk_model), p)   # layer 0 has a mask
        offsets = []

        def edit(manifest):
            top = key in ("layers", "input_shape", "seed", "name", "version")
            target = manifest if top else manifest["layers"][0]
            if key == "weights":
                offsets.append(target["weight_offset"])
            else:
                target[key] = value

        rewrite_manifest(p, edit)
        if offsets:
            data = bytearray(p.read_bytes())
            (mlen,) = struct.unpack_from("<I", data, 8)
            struct.pack_into("<d", data, 12 + mlen + offsets[0], value)
            p.write_bytes(data)
        with pytest.raises(FormatError, match=key):
            net.load_model(p)

    @pytest.mark.parametrize("payload", [
        b'{"name":"\xff"}',
        b"5",
        b"null",
        b"[" * 100000 + b"]" * 100000,
    ], ids=["not-utf8", "number", "null", "deeply-nested"])
    def test_manifest_that_is_no_json_object_is_format_error(self, tmp_path, payload):
        p = tmp_path / "m.tmdl"
        p.write_bytes(net.MODEL_MAGIC + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(FormatError, match="manifest"):
            net.load_model(p)

    def test_non_finite_mn_scale_rejected_on_load(self, desk_model, tmp_path):
        p = tmp_path / "m.tmdl"
        net.save_model(desk_model, p)
        rewrite_manifest(p, lambda m: m["layers"][0].update(mn_scale=float("nan")))
        # the descriptor's DomainError, reported as a malformed file
        with pytest.raises(FormatError, match=r"layers\[0\]: mn_scale must be a finite"):
            net.load_model(p)


def _masked_conv_layer():
    rng = np.random.default_rng(3)
    layer = net.LayerDescriptor("conv2d", AfSelect.TANH, MacMode.FXP8,
                                rng.normal(0.0, 0.3, (2, 1, 3, 3)), np.full(2, 0.1))
    layer.mask = sharp.prune_conv_weights(layer.weights)
    layer.weights = layer.weights * layer.mask.flags
    layer.refresh_mn_scale()
    return layer


_DENSE_24 = net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8, np.zeros((3, 24)),
                                np.zeros(3))


def _conv_dense_model():
    dense = net.LayerDescriptor("dense", AfSelect.SIGMOID, MacMode.FXP4_SIMD,
                                np.random.default_rng(4).normal(0.0, 0.2, (3, 18)),
                                np.zeros(3))
    dense.refresh_mn_scale()
    return net.NetworkDescriptor("t", (1, 5, 5), [_masked_conv_layer(), dense])


_SEALED = {"weights": lambda layer: layer.weights,
           "bias": lambda layer: layer.bias,
           "mask.flags": lambda layer: layer.mask.flags}


class TestSealedArrays:
    """A layer's weights, bias and mask flags change only by assignment; the
    prepared-layer memo is keyed on their identity."""

    @pytest.mark.parametrize("name", sorted(_SEALED))
    def test_in_place_writes_raise(self, name):
        a = _SEALED[name](_masked_conv_layer())
        before = a.copy()
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.logical_not(a, out=a)
        np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize("name", sorted(_SEALED))
    def test_cannot_be_set_writable_again(self, name):
        a = _SEALED[name](_masked_conv_layer())
        with pytest.raises(ValueError):
            a.setflags(write=True)
        assert not a.flags.writeable

    def test_training_steps_leave_sealed_arrays(self, desk_data):
        # `_backward` seals the fresh arrays it assigns
        model = sharp.prune_model(net.train_reference("desk", desk_data, 1, 0.08, seed=7))
        net.qat_finetune(model, desk_data, 1, 0.01, seed=1)
        for layer in model.layers:
            for a in (layer.weights, layer.bias):
                with pytest.raises(ValueError):
                    a.setflags(write=True)

    def test_assigned_caller_arrays_stay_writable_and_unchanged(self):
        w, b = np.full((2, 4), 0.25), np.zeros(2)
        layer = net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8, w, b)
        b2 = np.ones(2)
        layer.bias = b2
        w[0, 0] = b2[0] = 5.0
        assert (layer.weights == 0.25).all() and (layer.bias == 1.0).all()
        layer.weights = [[1, 0, 0, 0], [0, 0, 0, 1]]    # converted to float64
        assert layer.weights.dtype == np.float64

    def test_copy_shares_the_arrays_and_keeps_its_own_memo(self, desk_data):
        layer = _masked_conv_layer()
        model = net.NetworkDescriptor("m", (1, 5, 5), [layer])
        x = desk_data.test_x[:2, :, :5, :5]
        want = net.forward_quant(model, x)
        memo = layer._prepared
        twin = layer.copy()
        assert (twin.weights is layer.weights and twin.bias is layer.bias
                and twin.mask is layer.mask)
        twin.weights = twin.weights * -1.0
        twin.bias = twin.bias + 0.25
        net.forward_quant(net.NetworkDescriptor("m", (1, 5, 5), [twin]), x)
        assert twin._prepared is not None and layer._prepared is memo
        np.testing.assert_array_equal(net.forward_quant(model, x), want)
        assert layer._prepared is memo

    def test_memo_follows_identity_not_value(self):
        layer = _masked_conv_layer()
        q = net._prepare_layer(layer)
        layer.mn_scale = float(layer.mn_scale)          # an equal scalar
        assert net._prepare_layer(layer) is q
        layer.weights = layer.weights.copy()            # an equal, other array
        assert net._prepare_layer(layer) is not q


class TestDescriptors:
    def test_empty_layer_rejected_at_construction(self):
        with pytest.raises(ShapeMismatch):
            net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8,
                                np.zeros((0, 4)), np.zeros(0))

    def test_shape_chain_validated(self):
        layer = net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8,
                                    np.zeros((2, 5)), np.zeros(2))
        with pytest.raises(ShapeMismatch):
            net.NetworkDescriptor("bad", (1, 2, 2), [layer])

    def test_empty_network_rejected(self):
        with pytest.raises(ShapeMismatch):
            net.NetworkDescriptor("empty", (1, 4, 4), [])

    @pytest.mark.parametrize("field, bad", [
        ("weights", np.full((2, 5), np.nan)),
        ("bias", np.array([0.0, np.inf])),
        ("mn_scale", np.nan),
        ("mn_scale", np.inf),
    ])
    def test_non_finite_rejected_at_construction(self, field, bad):
        args = dict(weights=np.zeros((2, 5)), bias=np.zeros(2))
        args[field] = bad
        with pytest.raises(DomainError, match="finite"):
            net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8, **args)

    def test_conv_after_dense_rejected(self):
        dense = net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8,
                                    np.zeros((4, 16)), np.zeros(4))
        conv = net.LayerDescriptor("conv2d", AfSelect.TANH, MacMode.FXP8,
                                   np.zeros((1, 4, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            net.NetworkDescriptor("bad", (1, 4, 4), [dense, conv])

    @pytest.mark.parametrize("arch, match", [
        # the empty conv output left the dense layer no fan-in: ZeroDivisionError
        ([("conv2d", dict(out_channels=2, kernel=(5, 5), activation=AfSelect.TANH)),
          ("dense", dict(out_features=2, activation=AfSelect.TANH))], "kernel larger"),
        # the conv read a (features,) shape as (C, H, W): IndexError
        ([("dense", dict(out_features=4, activation=AfSelect.TANH)),
          ("conv2d", dict(out_channels=1, kernel=(1, 1), activation=AfSelect.TANH))],
         "conv2d after a dense"),
        # each arch spec below escaped as TypeError, KeyError or ValueError
        ([("conv2d", dict(out_channels=1, kernel=3, activation=AfSelect.TANH))],
         r"layer 0: kernel must be a \(k_h, k_w\) pair"),
        ([("dense", dict(activation=AfSelect.TANH))],
         "layer 0: dense params have no 'out_features'"),
        ([("dense", dict(out_features=2, activation=AfSelect.TANH)),
          ("dense", dict(out_features=2))], "layer 1: dense params have no 'activation'"),
        ([("conv2d", dict(out_channels=1, kernel=(3, 3)))], "conv2d params have no 'activation'"),
        ([("dense", dict(out_features=2, activation=AfSelect.TANH), "extra")],
         r"layer 0: arch entry .* is not a \(kind, params\) pair"),
        ([None], "is not a"),
        (None, "arch must be a list"),
        ([("dense", [("out_features", 2)])], "layer 0: dense params must be a mapping"),
    ], ids=["empty-conv-then-dense", "conv-after-dense", "kernel-not-a-pair",
            "dense-without-out_features", "dense-without-activation",
            "conv-without-activation", "entry-of-three", "entry-not-a-pair",
            "arch-not-a-list", "params-not-a-mapping"])
    def test_build_network_rejects_a_misfit_arch(self, arch, match):
        with pytest.raises(ShapeMismatch, match=match):
            net.build_network(arch, (1, 4, 4), seed=1)

    @pytest.mark.parametrize("flags, error", [
        ([[True], [True, False]], DomainError),
        ("abc", ShapeMismatch),
        (None, ShapeMismatch),
        (True, ShapeMismatch),
    ], ids=["ragged", "str", "None", "scalar"])
    def test_mask_flags_must_be_an_array(self, flags, error):
        with pytest.raises(error, match="flags must be"):
            net.SparsityMask(flags, 0)


    def test_conv_mask_keeps_retained_per_window_in_every_window(self):
        # `sched` charges retained_per_window operands per window while the
        # forward pass uses the flags, so the two must agree
        assert net.SparsityMask(np.ones((2, 1, 3, 3), dtype=bool), 9).total_retained == 18
        with pytest.raises(ShapeMismatch, match="retained_per_window = 4"):
            net.SparsityMask(np.ones((2, 1, 3, 3), dtype=bool), 4)
        holed = np.ones((2, 1, 3, 3), dtype=bool)
        holed[1, 0, 0, 0] = False
        with pytest.raises(ShapeMismatch, match="retained_per_window = 9"):
            net.SparsityMask(holed, 9)

    def test_prepared_layer_does_not_keep_its_descriptor_alive(self, desk_model, desk_data):
        # no layer -> prepared layer -> layer cycle: the layer dies with its
        # last reference, without the cyclic collector
        model = desk_model.copy()
        net.forward_quant(model, desk_data.test_x[:2])
        ref = weakref.ref(model.layers[0])
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("field, value, error", [
        ("weights", np.full((2, 4), 0.25), ShapeMismatch),
        ("weights", np.full(3, 0.25), ShapeMismatch),
        ("weights", np.full((2, 3), np.nan), DomainError),
        ("bias", np.zeros(3), ShapeMismatch),
        ("bias", np.array([0.0, np.inf]), DomainError),
    ], ids=["weights-wider", "weights-1d", "weights-nan", "bias-longer", "bias-inf"])
    def test_assignment_keeps_the_shape_and_stays_finite(self, field, value, error):
        w, b = np.full((2, 3), 0.25), np.array([0.1, -0.1])
        model = _dense_model(w, b)
        layer = model.layers[0]
        kept = getattr(layer, field)
        want = net.forward_float(model, np.ones((1, 1, 3)))
        with pytest.raises(error):
            setattr(layer, field, value)
        # the rejected value is not stored, and the layer still runs
        assert getattr(layer, field) is kept
        np.testing.assert_array_equal(net.forward_float(model, np.ones((1, 1, 3))), want)

    @pytest.mark.parametrize("scale, error", [
        (-1.0, ShapeMismatch), (0.0, ShapeMismatch), (math.nan, DomainError),
        (math.inf, DomainError),
    ], ids=["negative", "zero", "nan", "inf"])
    def test_mn_scale_assignment_runs_the_construction_checks(self, scale, error):
        model = _dense_model(np.full((2, 3), 0.25), np.array([0.1, -0.1]))
        layer = model.layers[0]
        kept, x = layer.mn_scale, np.full((1, 1, 3), 0.5)
        want = net.forward_float(model, x), net.forward_quant(model, x)
        with pytest.raises(error, match="mn_scale must be"):
            layer.mn_scale = scale
        assert layer.mn_scale == kept
        np.testing.assert_array_equal(net.forward_float(model, x), want[0])
        np.testing.assert_array_equal(net.forward_quant(model, x), want[1])

    def test_assignment_keeps_the_mask_shape(self):
        layer = _masked_conv_layer()
        with pytest.raises(ShapeMismatch, match="keep"):
            layer.weights = np.zeros((2, 1, 2, 2))

    @pytest.mark.parametrize("field, value, error", [
        ("kind", "conv9", ShapeMismatch),
        ("kind", "dense", ShapeMismatch),          # the layer's weights are 4-D
        ("activation", 3, InvalidSelect),           # the reserved select code
        ("activation", 7, InvalidSelect),
        ("precision", "fxp8", DomainError),
        ("weights", np.full((2, 1, 3, 3), np.nan), DomainError),
        ("bias", np.array([0.0, np.inf]), DomainError),
        ("mn_scale", -1.0, ShapeMismatch),
        ("mn_scale", True, DomainError),
        ("mask", net.SparsityMask(np.ones((2, 1, 2, 2), bool), 4), ShapeMismatch),
        ("mask", np.ones((2, 1, 3, 3), bool), DomainError),
        ("stride", 0, ShapeMismatch),
        ("stride", 1.5, DomainError),
        ("stride", True, DomainError),
        ("padding", "bogus", ShapeMismatch),
        ("mn_scale", "1.0", DomainError),
        ("mn_scale", 10**400, DomainError),        # past float's range
        ("kind", np.array(["dense", "x"]), ShapeMismatch),
        ("padding", np.array(["valid"]), ShapeMismatch),
        ("model.name", 5, DomainError),
        ("model.seed", 1.5, DomainError),
        ("model.seed", True, DomainError),
        ("model.layers", [], ShapeMismatch),
        ("model.layers", ["dense"], ShapeMismatch),
        ("model.layers", [_DENSE_24], ShapeMismatch),  # the input has 25 features
        ("model.input_shape", 5, ShapeMismatch),
        ("model.input_shape", (1, 2, 2), ShapeMismatch),  # smaller than the 3x3 kernel
        ("mask.retained_per_window", 4.0, DomainError),
        ("mask.retained_per_window", True, DomainError),
        ("mask.retained_per_window", -1, DomainError),
        ("weights", "abc", DomainError),
        ("bias", [[0.0], [0.0, 1.0]], DomainError),    # ragged
    ], ids=["kind-unknown", "kind-dense-on-conv", "activation-reserved", "activation-7",
            "precision-str", "weights-nan", "bias-inf", "mn_scale-negative", "mn_scale-bool",
            "mask-wrong-shape", "mask-bare-flags", "stride-0", "stride-float",
            "stride-bool", "padding-unknown", "mn_scale-str", "mn_scale-huge-int",
            "kind-array", "padding-array", "name-int", "seed-float", "seed-bool",
            "layers-empty", "layers-not-descriptors", "layers-chain", "input_shape-int",
            "input_shape-chain", "retained-float", "retained-bool", "retained-negative",
            "weights-str", "bias-ragged"])
    def test_every_field_rule_runs_at_construction_and_assignment(self, field, value,
                                                                   error):
        # the same check, so the same error, whether the value arrives by
        # construction or by assignment; a rejected value is not stored.
        # "model.f" is a network field, "mask.f" one of layer 0's mask and "f"
        # one of layer 0
        model = _conv_dense_model()
        owner, _, field = field.rpartition(".")
        target = {"": model.layers[0], "model": model, "mask": model.layers[0].mask}[owner]
        args = {f.name: getattr(target, f.name) for f in dataclasses.fields(target) if f.init}
        args[field] = value
        with pytest.raises(error) as built:
            type(target)(**args)
        x = np.random.default_rng(5).uniform(-0.9, 0.9, (3, 1, 5, 5))
        want = net.forward_float(model, x), net.forward_quant(model, x)
        kept = getattr(target, field)
        # a mask is frozen, so construction is the only way a count arrives
        frozen = owner == "mask"
        with pytest.raises(dataclasses.FrozenInstanceError if frozen else error) as assigned:
            setattr(target, field, value)
        assert built.type is error and issubclass(error, TreaError)
        assert frozen or assigned.type is error
        assert getattr(target, field) is kept
        np.testing.assert_array_equal(net.forward_float(model, x), want[0])
        np.testing.assert_array_equal(net.forward_quant(model, x), want[1])

    def test_input_shape_is_a_tuple_of_counts_at_every_assignment(self):
        model = _dense_model(np.full((2, 3), 0.25), np.array([0.1, -0.1]))
        x = np.full((1, 1, 3), 0.5)
        want = net.forward_quant(model, x)
        model.input_shape = [1, np.int64(1), 3]
        assert model.input_shape == (1, 1, 3) and type(model.input_shape[1]) is int
        np.testing.assert_array_equal(net.forward_quant(model, x), want)
        for bad in ([1, 3], [1, 1, 3.0], [1, True, 3], [0, 1, 3]):
            with pytest.raises(ShapeMismatch, match="input_shape"):
                net.NetworkDescriptor("t", bad, model.layers)
            with pytest.raises(ShapeMismatch, match="input_shape"):
                model.input_shape = bad
            assert model.input_shape == (1, 1, 3)

    def test_numpy_scalars_are_stored_as_python_numbers(self, tmp_path):
        # the manifest is JSON, which has no numpy scalars
        model = _conv_dense_model()
        model.layers[0].stride = np.int64(1)
        model.layers[0].mn_scale = np.float32(2.5)
        model.input_shape = np.array([1, 5, 5])
        net.save_model(model, tmp_path / "m.tmdl")
        again = net.load_model(tmp_path / "m.tmdl")
        assert (again.input_shape, again.layers[0].stride) == ((1, 5, 5), 1)
        assert again.layers[0].mn_scale == 2.5

    @pytest.mark.parametrize("seed", range(16))
    def test_refresh_mn_scale_is_mn_normalize_scale(self, seed):
        # refresh computes the scale alone; `fxp.mn_normalize` is its oracle
        model, _ = random_topology(np.random.default_rng(seed))
        for layer in model.layers:
            for mode in MacMode:
                layer.precision = mode
                layer.refresh_mn_scale()
                want, _ = fxp.mn_normalize(layer.masked_weights(), mode.fmt)
                assert layer.mn_scale.hex() == want.hex()
            layer.weights = np.zeros_like(layer.weights)
            for mode in MacMode:
                layer.precision = mode
                layer.refresh_mn_scale()
                assert layer.mn_scale == 1.0

    def test_mask_leaves_the_callers_array_writable(self):
        # the mask freezes its own copy, not the array it was built from
        flags = np.ones((1, 1, 3, 3), dtype=bool)
        mask = net.SparsityMask(flags, 9)
        flags[0, 0, 0, 0] = False
        assert mask.total_retained == 9 and not mask.flags.flags.writeable


def _two_conv_model():
    """(1, 5, 5) -> 3x3 valid conv -> (2, 3, 3) -> 3x3 valid conv -> (2, 1, 1)."""
    rng = np.random.default_rng(8)
    layers = [net.LayerDescriptor("conv2d", AfSelect.TANH, mode, rng.normal(0.0, 0.3, shape),
                                  np.zeros(2))
              for mode, shape in ((MacMode.FXP8, (2, 1, 3, 3)),
                                  (MacMode.FXP4_SIMD, (2, 2, 3, 3)))]
    for layer in layers:
        layer.refresh_mn_scale()
    return net.NetworkDescriptor("two", (1, 5, 5), layers)


def _conv(c_in):
    return net.LayerDescriptor("conv2d", AfSelect.TANH, MacMode.FXP8,
                               np.full((2, c_in, 3, 3), 0.1), np.zeros(2))


# edits in place that no rule sees, each breaking the shape chain
_BREAKS = {
    "dense-features": (_conv_dense_model, lambda m: setattr(m.layers[0], "stride", 2)),
    "conv-channels": (_two_conv_model, lambda m: m.layers.__setitem__(1, _conv(3))),
    "conv-kernel": (_two_conv_model, lambda m: setattr(m.layers[0], "stride", 2)),
    "conv-after-dense": (_conv_dense_model, lambda m: m.layers.append(_conv(1))),
}
_ENTRIES = {
    "forward_float": lambda m, x: net.forward_float(m, x),
    "forward_quant": lambda m, x: net.forward_quant(m, x),
    "simulate": lambda m, x: sched.simulate(m, x[0], sched.ArrayConfig()),
}


class TestBrokenChain:
    """A layer edited in place can break the model's shape chain; every pass
    then raises `ShapeMismatch`, not a numpy error, and nothing saves it."""

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("brk", sorted(_BREAKS))
    def test_every_entry_point_raises_shape_mismatch(self, brk, entry):
        build, edit = _BREAKS[brk]
        model = build()
        x = np.random.default_rng(5).uniform(-0.9, 0.9, (2, 1, 5, 5))
        _ENTRIES[entry](model, x)   # warm: the memos hold the unbroken layers
        edit(model)
        with pytest.raises(ShapeMismatch):
            _ENTRIES[entry](model, x)

    @pytest.mark.parametrize("brk", sorted(_BREAKS))
    def test_save_refuses_a_broken_chain(self, brk, tmp_path):
        build, edit = _BREAKS[brk]
        model = build()
        edit(model)
        with pytest.raises(ShapeMismatch, match="layer"):
            net.save_model(model, tmp_path / "m.tmdl")
        assert not (tmp_path / "m.tmdl").exists()


class TestBackward:
    def test_matches_central_differences(self):
        # conv -> conv -> dense reaches `_col2im` (only layers after the first
        # need it; here with stride 2 and the asymmetric "same" padding of an
        # 8x8 input) and the conv -> conv gradient unfold
        arch = [
            ("conv2d", dict(out_channels=3, kernel=(3, 3), stride=1, padding="valid",
                            activation=AfSelect.TANH)),
            ("conv2d", dict(out_channels=2, kernel=(3, 3), stride=2, padding="same",
                            activation=AfSelect.SIGMOID)),
            ("dense", dict(out_features=3, activation=AfSelect.TANH)),
        ]
        model = net.build_network(arch, (2, 10, 10), seed=3)
        x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 2, 10, 10))
        y = np.array([0, 1, 2, 1])

        def loss(m):
            logits, _, caches = net._float_pass(m, x, with_cache=True)
            return net._backward(m, caches, logits, y, 0.0)

        stepped = model.copy()
        logits, _, caches = net._float_pass(stepped, x, with_cache=True)
        net._backward(stepped, caches, logits, y, 1.0)   # w -= 1.0 * grad
        h = 1e-5
        for i, (layer, after) in enumerate(zip(model.layers, stepped.layers)):
            for attr in ("weights", "bias"):
                got = getattr(layer, attr) - getattr(after, attr)
                want = np.zeros_like(got)
                for idx in np.ndindex(got.shape):
                    for sign in (1, -1):
                        probe = model.copy()
                        moved = getattr(probe.layers[i], attr).copy()
                        moved[idx] += sign * h
                        setattr(probe.layers[i], attr, moved)
                        want[idx] += sign * loss(probe) / (2 * h)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9,
                                           err_msg=f"layer {i} {attr}")
