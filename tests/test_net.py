import numpy as np
import pytest

from conftest import random_topology
from trea import net, sched, sharp
from trea.errors import DivergenceError, DomainError, FormatError, ShapeMismatch
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


def _naive_conv(x, w, b, stride, padding):
    if padding == "same":
        pt, pb = net._same_pads(x.shape[1], w.shape[2], stride)
        pl, pr = net._same_pads(x.shape[2], w.shape[3], stride)
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr)))
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
            w_dec = q.w_raw.astype(np.float64) * fmt.lsb * layer.mn_scale
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
            ws = [FxPValue(int(r), FXP8) for r in q.w_raw[o]]
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
        # non-finite forward values must surface, never train silently
        data = net.synth_dataset(3, 32, 8)
        data.train_x[0, 0, 0, 0] = np.nan
        with pytest.raises(DivergenceError):
            with np.errstate(all="ignore"):
                net.train_reference("desk", data, epochs=1, lr=0.05, seed=11)

    def test_unknown_preset(self):
        data = net.synth_dataset(3, 8, 0)
        with pytest.raises(DomainError):
            net.train_reference("galaxy", data, epochs=0, lr=0.1, seed=1)


class TestSerialization:
    def test_round_trip_identity(self, desk_model, tmp_path):
        model = sharp.prune_model(desk_model)
        p1, p2 = tmp_path / "a.tmdl", tmp_path / "b.tmdl"
        net.save_model(model, p1)
        again = net.load_model(p1)
        net.save_model(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(model.layers, again.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.precision is b.precision
            assert a.mn_scale == b.mn_scale
            if a.mask is not None:
                assert np.array_equal(a.mask.flags, b.mask.flags)

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
        import json
        import struct

        p = tmp_path / "m.tmdl"
        net.save_model(desk_model, p)
        blob = p.read_bytes()
        mlen = struct.unpack_from("<I", blob, 8)[0]
        manifest = json.loads(blob[12:12 + mlen])
        manifest["version"] = 42
        payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        p.write_bytes(blob[:8] + struct.pack("<I", len(payload)) + payload
                      + blob[12 + mlen:])
        with pytest.raises(FormatError, match="42"):
            net.load_model(p)

    def test_missing_field_path_named(self, desk_model, tmp_path):
        import json
        import struct

        p = tmp_path / "m.tmdl"
        net.save_model(desk_model, p)
        blob = p.read_bytes()
        mlen = struct.unpack_from("<I", blob, 8)[0]
        manifest = json.loads(blob[12:12 + mlen])
        del manifest["layers"][0]["mn_scale"]
        payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        p.write_bytes(blob[:8] + struct.pack("<I", len(payload)) + payload
                      + blob[12 + mlen:])
        with pytest.raises(FormatError, match=r"layers\[0\].mn_scale"):
            net.load_model(p)


class TestBoundaryFormat:
    def test_fxp4_boundary_flag(self, desk_model, desk_data):
        from trea.fxp import FXP4

        x = desk_data.test_x[0]
        narrow = net.forward_quant(desk_model, x, boundary_fmt=FXP4)
        default = net.forward_quant(desk_model, x)
        assert narrow.shape == default.shape
        # coarser boundary quantization: all values on the 2^-3 grid
        assert np.allclose(narrow * 8, np.round(narrow * 8))


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

    def test_conv_after_dense_rejected(self):
        dense = net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8,
                                    np.zeros((4, 16)), np.zeros(4))
        conv = net.LayerDescriptor("conv2d", AfSelect.TANH, MacMode.FXP8,
                                   np.zeros((1, 4, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            net.NetworkDescriptor("bad", (1, 4, 4), [dense, conv])
