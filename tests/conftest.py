import json
import struct

import numpy as np
import pytest

from trea import net, sharp
from trea.mac import MacMode
from trea.naf import AfSelect


@pytest.fixture(scope="session")
def desk_data():
    return net.synth_dataset(seed=42, n_train=120, n_test=60)


@pytest.fixture(scope="session")
def desk_model(desk_data):
    return net.train_reference("desk", desk_data, epochs=12, lr=0.08, seed=7)


def random_topology(rng: np.random.Generator):
    """Small random conv/dense stack with random precisions and masks."""
    size = int(rng.integers(8, 11))
    in_ch = int(rng.integers(1, 3))
    arch = []
    n_conv = int(rng.integers(0, 3))
    for _ in range(n_conv):
        arch.append(("conv2d", dict(
            out_channels=int(rng.integers(1, 4)),
            kernel=(3, 3),
            stride=int(rng.integers(1, 3)),
            padding=str(rng.choice(["valid", "same"])),
            activation=AfSelect(int(rng.integers(0, 3))),
        )))
    for _ in range(int(rng.integers(1, 3))):
        arch.append(("dense", dict(
            out_features=int(rng.integers(2, 25)),
            activation=AfSelect(int(rng.integers(0, 3))),
        )))
    model = net.build_network(arch, (in_ch, size, size), seed=int(rng.integers(1 << 30)))
    for layer in model.layers:
        layer.weights = layer.weights * 0.5  # keep activations tame
        layer.bias = rng.normal(0.0, 0.05, size=layer.bias.shape)
        layer.precision = MacMode.FXP4_SIMD if rng.random() < 0.5 else MacMode.FXP8
        if layer.kind == "conv2d" and rng.random() < 0.5:
            layer.mask = sharp.prune_conv_weights(layer.weights)
            layer.weights = layer.weights * layer.mask.flags
        layer.refresh_mn_scale()
    x = rng.uniform(-0.9, 0.9, size=(in_ch, size, size))
    return model, x


def weight_codes(layer):
    """The layer's masked, mn-normalized weights as raw codes at its format,
    (out, K): the operands the scalar MAC oracle multiplies by."""
    one = 1 << layer.precision.fmt.frac_bits
    wn = layer.masked_weights() / layer.mn_scale
    return np.rint(wn * one).astype(np.int64).reshape(layer.out_channels, -1)


def rewrite_manifest(path, edit):
    """Apply `edit` to the JSON manifest of a saved model file in place,
    keeping the magic and the weight blob."""
    data = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", data, 8)
    manifest = json.loads(data[12:12 + mlen])
    edit(manifest)
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(data[:8] + struct.pack("<I", len(payload)) + payload
                     + data[12 + mlen:])
