"""Network description, serialization, reference and quantized forward paths,
training, and the seeded synthetic dataset.

The float path is the oracle: double precision conv/dense plus exact
activation functions. The quantized path is bit-accurate: activations and
weights live as raw integers, every multiply is the truncated shift-and-add
PoT product at the layer's precision, accumulators are width-checked, and
activations go through the CORDIC unit before being requantized at the layer
boundary. Boundary and model-input conversions saturate (hardware
requantization); `fxp.encode` stays strict. Non-finite input is rejected.

The quantized accumulate is one shift-plane kernel. Each weight's greedy PoT
terms, looked up in a per-mode table of all raw codes, are grouped by shift m
into a signed term matrix C_m, and a layer's accumulators are
bias + sum_m (x >> m) @ C_m.T: one exact float64 matmul per shift in use, with
the shift applied per operand and flooring as the hardware truncates.
Overflow keeps the hardware's per-add semantics: a cheap bound on every
prefix sum screens the outputs, and only those it cannot clear are replayed
term by term in hardware order.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import naf
from .errors import (
    AccumulatorOverflow,
    DivergenceError,
    DomainError,
    FormatError,
    ShapeMismatch,
)
from .fxp import FXP8, FxPFormat, _decompose_raw, mn_normalize
from .mac import MacMode, accumulator_width
from .naf import AfSelect
from .sharp import SparsityMask

__all__ = [
    "LayerDescriptor",
    "NetworkDescriptor",
    "Dataset",
    "synth_dataset",
    "build_network",
    "desk_arch",
    "train_reference",
    "forward_float",
    "forward_quant",
    "evaluate_float",
    "evaluate_quant",
    "qat_finetune",
    "save_model",
    "load_model",
    "WIDE_FMT",
    "BOUNDARY_FMT",
]

WIDE_FMT = FxPFormat(24, 16)   # activation-unit input format
BOUNDARY_FMT = FXP8            # inter-layer activation format
MODEL_MAGIC = b"TREAMDL\x00"
MODEL_VERSION = 1


# --------------------------------------------------------------------------
# descriptors


@dataclass
class LayerDescriptor:
    kind: str                      # "conv2d" | "dense"
    activation: AfSelect
    precision: MacMode
    weights: np.ndarray            # conv: (out, in, kh, kw); dense: (out, in)
    bias: np.ndarray               # (out,)
    mn_scale: float = 1.0
    mask: SparsityMask | None = None
    stride: int = 1
    padding: str = "valid"

    def __post_init__(self):
        if self.kind not in ("conv2d", "dense"):
            raise ShapeMismatch(f"unknown layer kind {self.kind!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        want = 4 if self.kind == "conv2d" else 2
        if self.weights.ndim != want:
            raise ShapeMismatch(
                f"{self.kind} weights must be {want}-D, got {self.weights.ndim}-D"
            )
        if self.weights.shape[0] < 1 or min(self.weights.shape) < 1:
            raise ShapeMismatch("layer has an empty weight dimension")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeMismatch("bias length must match output count")
        if self.padding not in ("valid", "same"):
            raise ShapeMismatch(f"unknown padding {self.padding!r}")
        if self.stride < 1:
            raise ShapeMismatch("stride must be >= 1")
        if self.mask is not None and self.mask.flags.shape != self.weights.shape:
            raise ShapeMismatch("mask shape must match weight shape")
        if self.mn_scale <= 0:
            raise ShapeMismatch("mn_scale must be positive")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    def masked_weights(self) -> np.ndarray:
        if self.mask is None:
            return self.weights
        return self.weights * self.mask.flags

    def retained_per_output(self) -> int:
        """Operands feeding one output neuron (after pruning)."""
        if self.kind == "dense":
            return self.weights.shape[1]
        in_ch = self.weights.shape[1]
        per_window = (
            self.mask.retained_per_window
            if self.mask is not None
            else self.weights.shape[2] * self.weights.shape[3]
        )
        return per_window * in_ch

    def window_operands(self) -> int:
        """Operands per kernel window (dense layers count the whole row)."""
        if self.kind == "dense":
            return self.weights.shape[1]
        if self.mask is not None:
            return self.mask.retained_per_window
        return self.weights.shape[2] * self.weights.shape[3]

    def refresh_mn_scale(self):
        w = self.masked_weights()
        if not np.any(w):
            self.mn_scale = 1.0
            return
        self.mn_scale, _ = mn_normalize(w, self.precision.fmt)

    def copy(self) -> "LayerDescriptor":
        return LayerDescriptor(
            kind=self.kind,
            activation=self.activation,
            precision=self.precision,
            weights=self.weights.copy(),
            bias=self.bias.copy(),
            mn_scale=self.mn_scale,
            mask=self.mask,
            stride=self.stride,
            padding=self.padding,
        )


@dataclass
class NetworkDescriptor:
    name: str
    input_shape: tuple[int, int, int]   # (channels, height, width)
    layers: list[LayerDescriptor]
    seed: int = 0
    version: int = MODEL_VERSION

    def __post_init__(self):
        self.input_shape = tuple(int(v) for v in self.input_shape)
        if len(self.input_shape) != 3:
            raise ShapeMismatch("input_shape must be (channels, height, width)")
        if not self.layers:
            raise ShapeMismatch("network needs at least one layer")
        self.layer_shapes()  # raises on incompatible chains

    def layer_shapes(self):
        """Output shape after each layer; conv shapes are (C, H, W), dense
        shapes are (features,)."""
        shapes = []
        cur = self.input_shape
        for idx, layer in enumerate(self.layers):
            if layer.kind == "conv2d":
                if len(cur) != 3:
                    raise ShapeMismatch(f"layer {idx}: conv2d after a dense layer")
                c, h, w = cur
                if layer.weights.shape[1] != c:
                    raise ShapeMismatch(
                        f"layer {idx}: expects {layer.weights.shape[1]} input "
                        f"channels, got {c}"
                    )
                kh, kw = layer.weights.shape[2:]
                ho, wo = _conv_out_hw(h, w, kh, kw, layer.stride, layer.padding)
                if ho < 1 or wo < 1:
                    raise ShapeMismatch(f"layer {idx}: kernel larger than input")
                cur = (layer.out_channels, ho, wo)
            else:
                feats = int(np.prod(cur))
                if layer.weights.shape[1] != feats:
                    raise ShapeMismatch(
                        f"layer {idx}: expects {layer.weights.shape[1]} features, "
                        f"got {feats}"
                    )
                cur = (layer.out_channels,)
            shapes.append(cur)
        return shapes

    def copy(self) -> "NetworkDescriptor":
        return NetworkDescriptor(
            name=self.name,
            input_shape=self.input_shape,
            layers=[l.copy() for l in self.layers],
            seed=self.seed,
            version=self.version,
        )


def _conv_out_hw(h, w, kh, kw, stride, padding):
    if padding == "valid":
        return (h - kh) // stride + 1, (w - kw) // stride + 1
    return -(-h // stride), -(-w // stride)


def _same_pads(size, k, stride):
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    return total // 2, total - total // 2


# --------------------------------------------------------------------------
# synthetic dataset


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    seed: int
    classes: int
    image_size: int


def synth_dataset(
    seed: int, n_train: int, n_test: int, classes: int = 3, image_size: int = 12
) -> Dataset:
    """Seeded class-conditional patterns: one oriented bar per class with
    jittered position, width, amplitude and additive noise. Bit-exactly
    reproducible from the seed."""
    if classes < 2:
        raise DomainError(f"need at least 2 classes, got {classes}")
    if image_size < 8:
        raise DomainError(f"image_size must be >= 8, got {image_size}")
    rng = np.random.default_rng(seed)
    tx, ty = _synth_split(rng, n_train, classes, image_size)
    sx, sy = _synth_split(rng, n_test, classes, image_size)
    return Dataset(tx, ty, sx, sy, seed, classes, image_size)


def _synth_split(rng, n, classes, size):
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


# --------------------------------------------------------------------------
# architecture presets and initialization


def desk_arch(classes: int):
    return [
        ("conv2d", dict(out_channels=8, kernel=(3, 3), stride=2, padding="valid",
                        activation=AfSelect.TANH)),
        ("dense", dict(out_features=48, activation=AfSelect.TANH)),
        ("dense", dict(out_features=classes, activation=AfSelect.TANH)),
    ]


def build_network(arch, input_shape, seed: int, name: str = "net") -> NetworkDescriptor:
    """Seeded random initialization of an architecture spec (list of
    (kind, params) pairs)."""
    rng = np.random.default_rng(seed)
    layers = []
    cur = tuple(input_shape)
    for kind, params in arch:
        if kind == "conv2d":
            c = cur[0]
            kh, kw = params["kernel"]
            oc = params["out_channels"]
            stride = params.get("stride", 1)
            padding = params.get("padding", "valid")
            fan_in = c * kh * kw
            w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(oc, c, kh, kw))
            layer = LayerDescriptor(
                kind, params["activation"], MacMode.FXP8, w, np.zeros(oc),
                stride=stride, padding=padding,
            )
            h, wd = cur[1], cur[2]
            ho, wo = _conv_out_hw(h, wd, kh, kw, stride, padding)
            cur = (oc, ho, wo)
        elif kind == "dense":
            feats = int(np.prod(cur))
            of = params["out_features"]
            w = rng.normal(0.0, 1.0 / math.sqrt(feats), size=(of, feats))
            layer = LayerDescriptor(kind, params["activation"], MacMode.FXP8,
                                    w, np.zeros(of))
            cur = (of,)
        else:
            raise ShapeMismatch(f"unknown layer kind {kind!r}")
        layers.append(layer)
    model = NetworkDescriptor(name=name, input_shape=tuple(input_shape),
                              layers=layers, seed=seed)
    for layer in model.layers:
        layer.refresh_mn_scale()
    return model


# --------------------------------------------------------------------------
# float reference path


def _im2col(x, kh, kw, stride, padding):
    """(B, C, H, W) -> (B, P, C*kh*kw) patch matrix, P in (y, x) row-major."""
    if padding == "same":
        pt, pb = _same_pads(x.shape[2], kh, stride)
        pl, pr = _same_pads(x.shape[3], kw, stride)
        x = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    b, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    cols = np.empty((b, ho * wo, c * kh * kw), dtype=x.dtype)
    p = 0
    for i in range(ho):
        for j in range(wo):
            patch = x[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            cols[:, p, :] = patch.reshape(b, -1)
            p += 1
    return cols, ho, wo


def _col2im(dcols, x_shape, kh, kw, stride, padding):
    """Scatter-add patch gradients back onto the (padded) input image."""
    b, c, h, w = x_shape
    if padding == "same":
        pt, pb = _same_pads(h, kh, stride)
        pl, pr = _same_pads(w, kw, stride)
    else:
        pt = pb = pl = pr = 0
    hp, wp = h + pt + pb, w + pl + pr
    dx = np.zeros((b, c, hp, wp), dtype=np.float64)
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    p = 0
    for i in range(ho):
        for j in range(wo):
            dx[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += (
                dcols[:, p].reshape(b, c, kh, kw)
            )
            p += 1
    return dx[:, :, pt:hp - pb or None, pl:wp - pr or None]


def _af_float(sel: AfSelect, z):
    if sel is AfSelect.RELU:
        return np.maximum(z, 0.0)
    if sel is AfSelect.SIGMOID:
        return 1.0 / (1.0 + np.exp(-z))
    return np.tanh(z)


def _af_deriv_from_output(sel: AfSelect, a):
    if sel is AfSelect.RELU:
        return (a > 0).astype(np.float64)
    if sel is AfSelect.SIGMOID:
        return a * (1.0 - a)
    return 1.0 - a * a


def _check_input(model, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.shape[1:] != model.input_shape:
        raise ShapeMismatch(
            f"input shape {x.shape[1:]} != model input {model.input_shape}"
        )
    if not np.isfinite(x).all():
        raise DomainError("input contains NaN or infinity")
    return x, single


def _float_pass(model: NetworkDescriptor, x):
    """Forward with per-layer caches for backprop. Returns (logits of last
    layer, scores, caches)."""
    caches = []
    act = x
    image_shape = None
    for idx, layer in enumerate(model.layers):
        last = idx == len(model.layers) - 1
        if layer.kind == "conv2d":
            cols, ho, wo = _im2col(act, *layer.weights.shape[2:], layer.stride,
                                   layer.padding)
            wmat = layer.masked_weights().reshape(layer.out_channels, -1)
            z = cols @ wmat.T + layer.bias          # (B, P, out)
            image_shape = act.shape
            a = _af_float(layer.activation, z)
            caches.append(dict(kind="conv2d", cols=cols, z=z, a=a, wmat=wmat,
                               image_shape=image_shape, ho=ho, wo=wo, layer=layer))
            act = a.transpose(0, 2, 1).reshape(act.shape[0], layer.out_channels, ho, wo)
        else:
            flat = act.reshape(act.shape[0], -1)
            wmat = layer.masked_weights()
            z = flat @ wmat.T + layer.bias
            a = _af_float(layer.activation, z)
            caches.append(dict(kind="dense", x=flat, z=z, a=a, wmat=wmat,
                               in_shape=act.shape, layer=layer))
            act = a
        if last:
            return z, act, caches
    raise AssertionError("unreachable")


def forward_float(model: NetworkDescriptor, x):
    """Double-precision reference forward pass; returns post-activation
    scores of the last layer (pre-softmax)."""
    xb, single = _check_input(model, x)
    _, scores, _ = _float_pass(model, xb)
    return scores[0] if single else scores


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _backward(model, caches, logits, labels, lr):
    """Shared SGD backward from cross-entropy on the last layer's
    pre-activation. Updates weights in place; masked positions get no
    gradient. Caches may hold either float or quantized forward values."""
    batch = logits.shape[0]
    probs = _softmax(logits)
    loss = float(-np.log(probs[np.arange(batch), labels] + 1e-300).mean())
    delta = probs.copy()
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        cache = caches[idx]
        if idx != len(model.layers) - 1:
            delta = delta * _af_deriv_from_output(layer.activation, cache["a"])
        if cache["kind"] == "dense":
            gw = delta.T @ cache["x"]
            gb = delta.sum(0)
            dprev = delta @ cache["wmat"]
        else:
            gw = np.einsum("bpo,bpk->ok", delta, cache["cols"]).reshape(
                layer.weights.shape
            )
            gb = delta.sum((0, 1))
            dprev = None
            if idx > 0:
                dcols = delta @ cache["wmat"]
                dprev = _col2im(dcols, cache["image_shape"],
                                *layer.weights.shape[2:], layer.stride, layer.padding)
        if layer.mask is not None:
            gw = gw * layer.mask.flags
        layer.weights -= lr * gw.reshape(layer.weights.shape)
        layer.bias -= lr * gb
        if layer.mask is not None:
            layer.weights *= layer.mask.flags  # pruned positions stay zero
        if idx == 0:
            break
        prev = model.layers[idx - 1]
        if prev.kind == "conv2d":
            # image-shaped gradient back to the (B, P, out) patch layout
            b = dprev.shape[0]
            delta = dprev.reshape(b, prev.out_channels, -1).transpose(0, 2, 1)
        else:
            delta = dprev
    return loss


def train_reference(arch, dataset: Dataset, epochs: int, lr: float, seed: int,
                    name: str = "reference", batch_size: int = 16) -> NetworkDescriptor:
    """Seeded float SGD with softmax cross-entropy on the last layer's
    pre-activations. epochs=0 returns the seeded initialization with
    normalization metadata only."""
    input_shape = dataset.train_x.shape[1:]
    if isinstance(arch, str):
        if arch != "desk":
            raise DomainError(f"unknown architecture preset {arch!r}")
        arch = desk_arch(dataset.classes)
    model = build_network(arch, input_shape, seed, name=name)
    rng = np.random.default_rng(seed)
    n = len(dataset.train_x)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            logits, _, caches = _float_pass(model, dataset.train_x[sel])
            loss = _backward(model, caches, logits, dataset.train_y[sel], lr)
            if not math.isfinite(loss):
                raise DivergenceError(f"loss became non-finite: {loss}")
    for layer in model.layers:
        layer.refresh_mn_scale()
    return model


# --------------------------------------------------------------------------
# bit-accurate quantized path


def _sat_encode_raw(values, fmt: FxPFormat):
    """Round-to-nearest-even then saturate into the format's raw range.
    Boundary requantization clips instead of erroring."""
    raw = np.rint(np.asarray(values, dtype=np.float64) * (1 << fmt.frac_bits))
    return np.clip(raw, fmt.raw_min, fmt.raw_max).astype(np.int64)


@functools.cache
def _code_table(mode: MacMode):
    """Greedy MSD terms of every raw code of the mode's format, built once.

    Returns (signs, value). `signs[m, raw - fmt.raw_min]` (F+1 rows, one
    column per code) is the sign of the code's term with shift m, 0 if it
    has none: greedy MSD uses each shift at most once, with shifts
    increasing, so one sign per shift is the whole decomposition. `value` is
    the sum of the terms. Both arrays are float64, to feed the matmuls, and
    read-only, because every caller shares them.
    """
    fmt = mode.fmt
    codes = range(fmt.raw_min, fmt.raw_max + 1)
    signs = np.zeros((fmt.frac_bits + 1, len(codes)))
    value = np.zeros(len(codes))
    for i, raw in enumerate(codes):
        terms, _ = _decompose_raw(raw, fmt.frac_bits, mode.terms)
        for s, m in terms:
            signs[m, i] = s
        value[i] = sum(s * 2.0 ** -m for s, m in terms)
    signs.flags.writeable = False
    value.flags.writeable = False
    return signs, value


@dataclass
class _QuantLayer:
    layer: LayerDescriptor
    w_raw: np.ndarray              # int, encoded normalized weights (masked)
    bias_raw: np.ndarray           # accumulator-scale preload per output
    acc_limit: int                 # overflow bound at the Eq-width
    w_eff: np.ndarray              # PoT-approximated weights * mn_scale
    planes: tuple                  # (m, C_m) per shift in use; C_m signed (out, K)
    reach: np.ndarray              # per output: sum of 2**(F-m) over all terms


def _prepare_layer(layer: LayerDescriptor) -> _QuantLayer:
    fmt = layer.precision.fmt
    f = fmt.frac_bits
    wm = layer.masked_weights()
    wn = wm / layer.mn_scale
    top = 1.0 - fmt.lsb
    if not (np.isfinite(wn).all() and np.isfinite(layer.bias / layer.mn_scale).all()):
        raise DomainError("weights, bias or mn_scale are not finite")
    if np.abs(wn).max() > top + 1e-12:
        raise DomainError("weights exceed mn normalization; refresh mn_scale")
    w_raw = np.rint(wn * (1 << f)).astype(np.int64)
    if layer.mask is not None:
        w_raw = w_raw * layer.mask.flags
    signs, value = _code_table(layer.precision)
    codes = (w_raw - fmt.raw_min).reshape(layer.out_channels, -1)
    approx = value[codes]
    present = np.zeros(signs.shape[1], dtype=bool)
    present[codes] = True
    shifts = np.flatnonzero(signs[:, present].any(axis=1))
    planes = tuple((int(m), signs[m][codes]) for m in shifts)
    reach = np.zeros(layer.out_channels, dtype=np.int64)
    for m, c in planes:
        reach += np.abs(c).sum(axis=1).astype(np.int64) << (f - m)
    bias_raw = np.rint(layer.bias / layer.mn_scale * (1 << f)).astype(np.int64)
    k = layer.retained_per_output()
    has_bias = bool(np.any(bias_raw))
    width = accumulator_width(fmt.total_bits, k + (1 if has_bias else 0))
    w_eff = (approx * layer.mn_scale).reshape(w_raw.shape)
    return _QuantLayer(layer, w_raw, bias_raw, 1 << (width - 1), w_eff, planes, reach)


def _accumulate(q: _QuantLayer, x_raw_mat):
    """Shift-and-add dot products for all outputs: x_raw_mat is (..., K)
    activations at the layer's format; returns int accumulators (..., out).

    Shift-plane form: grouping every weight's PoT terms by shift m gives the
    signed term matrices C_m, and the accumulator is
    bias + sum_m (x >> m) @ C_m.T. The shift is per operand with floor
    semantics, so each partial product is truncated before it is added, as
    the DQ-MAC does. The matmuls run in float64 and are exact: every entry of
    `x >> m` is an integer and every C_m entry is in {-1, 0, 1}, so every
    partial sum, in any summation order and across the at most T planes a
    weight touches, is an integer of magnitude at most T * K * max|x|; for
    N-bit operands that is T * K * 2**(N-1), far under 2**53. The bias is
    added in int64.

    The hardware checks the accumulator width after every add, so
    `AccumulatorOverflow` is raised exactly when some prefix of the
    bias-then-operand-then-term order leaves the range; see
    `_check_overflow`.
    """
    x = x_raw_mat.reshape(-1, x_raw_mat.shape[-1])
    _check_overflow(q, x)
    total = np.zeros((x.shape[0], q.layer.out_channels))
    for m, c in q.planes:
        total += (x >> m).astype(np.float64) @ c.T
    acc = total.astype(np.int64) + q.bias_raw
    return acc.reshape(x_raw_mat.shape[:-1] + (q.layer.out_channels,))


def _check_overflow(q: _QuantLayer, x):
    """Raise `AccumulatorOverflow` if any prefix sum of any output leaves
    [-acc_limit, acc_limit - 1] when the accumulator takes the bias, then each
    operand j in order, then its terms in MSD order.

    A cheap bound screens the outputs: with every |x| <= s * 2**F, each
    |x >> m| <= s * 2**(F-m), so every prefix of an output stays within
    |bias| + s * reach. The bound is taken in float64 so that a bias code
    near or past the int64 range still reads as huge; the integers it adds
    are exact well past any accumulator limit. Only the outputs it cannot
    clear are replayed, on every row, in the exact prefix order. For operands
    and a bias inside the N-bit range (s = 1) the screen never fails: each
    greedy term carries the weight's sign and the terms' shifted magnitudes
    sum to at most |w| < 1, so an operand adds less than 2**(N-1) = 2**F.
    """
    if not x.size:
        return
    lim = q.acc_limit
    f = q.layer.precision.fmt.frac_bits
    s = -(-max(int(x.max()), -int(x.min())) >> f)      # ceil(max |x| / 2**F)
    bound = np.abs(q.bias_raw.astype(np.float64)) + float(s) * q.reach
    suspect = np.flatnonzero(bound > lim - 1)
    if not suspect.size:
        return
    signs, _ = _code_table(q.layer.precision)
    raw_min = q.layer.precision.fmt.raw_min
    wmat = q.w_raw.reshape(q.layer.out_channels, -1)

    def check(a, o, j):
        if int(a.max()) > lim - 1 or int(a.min()) < -lim:
            raise AccumulatorOverflow(
                f"accumulator left [{-lim}, {lim - 1}] (output {o}, operand {j})"
            )

    for o in suspect:
        a = np.full(len(x), q.bias_raw[o], dtype=np.int64)
        check(a, o, "bias")
        for j in np.flatnonzero(wmat[o]):
            code = signs[:, wmat[o, j] - raw_min]
            for m in np.flatnonzero(code):
                a += int(code[m]) * (x[:, j] >> m)
                check(a, o, j)


def _boundary_raw(sel: AfSelect, pre_true, boundary_fmt: FxPFormat):
    """Quantize true-scale pre-activations into the wide AF input format, run
    the CORDIC unit, and emit boundary-format raw activations."""
    wide = _sat_encode_raw(pre_true, WIDE_FMT)
    fi, fo = WIDE_FMT.frac_bits, boundary_fmt.frac_bits
    if sel is AfSelect.RELU:
        act = naf.relu_raw_vec(wide)
        out = np.rint(act * 2.0 ** (fo - fi)).astype(np.int64)
        return np.clip(out, boundary_fmt.raw_min, boundary_fmt.raw_max)
    if sel is AfSelect.SIGMOID:
        return naf.sigmoid_raw_vec(wide, fi, fo)
    return naf.tanh_raw_vec(wide, fi, fo)


def _quant_pass(model: NetworkDescriptor, x, boundary_fmt: FxPFormat,
                with_cache: bool = False):
    xb, single = _check_input(model, x)
    act_raw = _sat_encode_raw(xb, boundary_fmt)       # model input is a boundary
    act_fmt = boundary_fmt
    image_dims = None
    caches = [] if with_cache else None
    scores = None
    for idx, layer in enumerate(model.layers):
        q = _prepare_layer(layer)
        fmt = layer.precision.fmt
        # layer-entry requantization into the mode's operand format
        if act_fmt.frac_bits == fmt.frac_bits:
            x_raw = act_raw
        else:
            x_raw = _sat_encode_raw(
                act_raw.astype(np.float64) * act_fmt.lsb, fmt
            )
        if layer.kind == "conv2d":
            cols, ho, wo = _im2col(x_raw, *layer.weights.shape[2:], layer.stride,
                                   layer.padding)
            acc = _accumulate(q, cols)
            pre_true = acc.astype(np.float64) * fmt.lsb * layer.mn_scale
            bound_raw = _boundary_raw(layer.activation, pre_true, boundary_fmt)
            if with_cache:
                caches.append(dict(
                    kind="conv2d", layer=layer,
                    cols=cols.astype(np.float64) * fmt.lsb,
                    z=pre_true,
                    a=bound_raw.astype(np.float64) * boundary_fmt.lsb,
                    wmat=q.w_eff.reshape(layer.out_channels, -1),
                    image_shape=x_raw.shape, ho=ho, wo=wo,
                ))
            act_raw = bound_raw.transpose(0, 2, 1).reshape(
                xb.shape[0], layer.out_channels, ho, wo
            )
        else:
            flat = x_raw.reshape(x_raw.shape[0], -1)
            acc = _accumulate(q, flat)
            pre_true = acc.astype(np.float64) * fmt.lsb * layer.mn_scale
            bound_raw = _boundary_raw(layer.activation, pre_true, boundary_fmt)
            if with_cache:
                caches.append(dict(
                    kind="dense", layer=layer,
                    x=flat.astype(np.float64) * fmt.lsb,
                    z=pre_true,
                    a=bound_raw.astype(np.float64) * boundary_fmt.lsb,
                    wmat=q.w_eff, in_shape=x_raw.shape,
                ))
            act_raw = bound_raw
        act_fmt = boundary_fmt
        if idx == len(model.layers) - 1:
            scores = act_raw.astype(np.float64) * boundary_fmt.lsb
            logits = pre_true
    if single:
        scores = scores[0]
    return logits, scores, caches


def forward_quant(model: NetworkDescriptor, x, boundary_fmt: FxPFormat = BOUNDARY_FMT):
    """Bit-accurate forward pass.

    Every multiply is the truncated shift-and-add product at the layer's
    precision, accumulation happens at the reduced width with bias preloaded,
    masked weights contribute nothing, outputs are rescaled by mn_scale and
    pushed through the CORDIC activation unit, then requantized at the layer
    boundary.
    """
    _, scores, _ = _quant_pass(model, x, boundary_fmt)
    return scores


def evaluate_float(model, x, y) -> float:
    scores = forward_float(model, x)
    return float((scores.argmax(axis=1) == y).mean())


def evaluate_quant(model, x, y, boundary_fmt: FxPFormat = BOUNDARY_FMT) -> float:
    scores = forward_quant(model, x, boundary_fmt)
    return float((scores.argmax(axis=1) == y).mean())


def qat_finetune(model: NetworkDescriptor, dataset: Dataset, epochs: int, lr: float,
                 seed: int, batch_size: int = 16,
                 boundary_fmt: FxPFormat = BOUNDARY_FMT):
    """Straight-through fine-tuning against the bit-accurate forward path.

    Forward values (activations, pre-activations) come from the quantized
    pass; the backward pass treats each layer as linear in its
    PoT-approximated effective weights. Updates touch retained float weights
    only; masks and precision assignments are untouched. mn scales refresh
    after every step so encoded weights stay in range.
    """
    rng = np.random.default_rng(seed)
    n = len(dataset.train_x)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            logits, _, caches = _quant_pass(
                model, dataset.train_x[sel], boundary_fmt, with_cache=True
            )
            loss = _backward(model, caches, logits, dataset.train_y[sel], lr)
            if not math.isfinite(loss):
                raise DivergenceError(f"loss became non-finite: {loss}")
            for layer in model.layers:
                layer.refresh_mn_scale()
    return model


# --------------------------------------------------------------------------
# serialization


def save_model(model: NetworkDescriptor, path):
    """Write manifest + little-endian binary blob. Deterministic byte layout:
    identical models serialize identically."""
    blob = bytearray()
    layer_entries = []
    for layer in model.layers:
        weight_off = len(blob)
        blob += layer.weights.astype("<f8").tobytes()
        bias_off = len(blob)
        blob += layer.bias.astype("<f8").tobytes()
        mask_off = None
        retained = None
        if layer.mask is not None:
            mask_off = len(blob)
            blob += np.packbits(layer.mask.flags.ravel()).tobytes()
            retained = layer.mask.retained_per_window
        layer_entries.append(dict(
            kind=layer.kind,
            activation=int(layer.activation),
            precision=layer.precision.value,
            mn_scale=layer.mn_scale,
            stride=layer.stride,
            padding=layer.padding,
            weight_shape=list(layer.weights.shape),
            weight_offset=weight_off,
            bias_offset=bias_off,
            mask_offset=mask_off,
            retained_per_window=retained,
        ))
    manifest = dict(
        name=model.name,
        version=model.version,
        seed=model.seed,
        input_shape=list(model.input_shape),
        layers=layer_entries,
    )
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        fh.write(bytes(blob))


def _manifest_field(entry, key, where):
    if key not in entry:
        raise FormatError(f"missing field {where}.{key}")
    return entry[key]


def load_model(path) -> NetworkDescriptor:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MODEL_MAGIC) + 4 or not data.startswith(MODEL_MAGIC):
        raise FormatError("not a model file (bad magic)")
    (mlen,) = struct.unpack_from("<I", data, len(MODEL_MAGIC))
    mstart = len(MODEL_MAGIC) + 4
    if len(data) < mstart + mlen:
        raise FormatError("truncated manifest")
    try:
        manifest = json.loads(data[mstart:mstart + mlen])
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    version = _manifest_field(manifest, "version", "manifest")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    blob = data[mstart + mlen:]
    layers = []
    for i, entry in enumerate(_manifest_field(manifest, "layers", "manifest")):
        where = f"layers[{i}]"
        shape = tuple(_manifest_field(entry, "weight_shape", where))
        wn = int(np.prod(shape))
        woff = _manifest_field(entry, "weight_offset", where)
        boff = _manifest_field(entry, "bias_offset", where)
        if boff + shape[0] * 8 > len(blob):
            raise FormatError(f"truncated blob reading {where}")
        weights = np.frombuffer(blob, dtype="<f8", count=wn, offset=woff).reshape(shape)
        bias = np.frombuffer(blob, dtype="<f8", count=shape[0], offset=boff)
        mask = None
        moff = entry.get("mask_offset")
        if moff is not None:
            nbytes = -(-wn // 8)
            if moff + nbytes > len(blob):
                raise FormatError(f"truncated blob reading {where}.mask")
            bits = np.unpackbits(
                np.frombuffer(blob, dtype=np.uint8, count=nbytes, offset=moff)
            )[:wn]
            mask = SparsityMask(bits.astype(bool).reshape(shape),
                                int(entry["retained_per_window"]))
        layers.append(LayerDescriptor(
            kind=_manifest_field(entry, "kind", where),
            activation=AfSelect.from_code(int(_manifest_field(entry, "activation", where))),
            precision=MacMode(_manifest_field(entry, "precision", where)),
            weights=weights.copy(),
            bias=bias.copy(),
            mn_scale=float(_manifest_field(entry, "mn_scale", where)),
            mask=mask,
            stride=int(entry.get("stride", 1)),
            padding=entry.get("padding", "valid"),
        ))
    return NetworkDescriptor(
        name=_manifest_field(manifest, "name", "manifest"),
        input_shape=tuple(_manifest_field(manifest, "input_shape", "manifest")),
        layers=layers,
        seed=int(manifest.get("seed", 0)),
        version=version,
    )
