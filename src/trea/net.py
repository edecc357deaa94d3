"""Network description, serialization, reference and quantized forward paths,
training, and the seeded synthetic dataset.

The float path is the oracle: double precision conv/dense plus exact
activation functions. The quantized path is bit-accurate: activations and
weights live as raw integers, every multiply is the truncated shift-and-add
PoT product at the layer's precision, accumulators are width-checked, and
the layer boundary is one chain, `_boundary_chain`: the accumulator rescaled
by mn_scale, saturated into WIDE_FMT, and put through
`naf.activate_raw_vec`, which decodes the layer's select and rescales to the
boundary's format. Boundary and model-input conversions saturate (hardware
requantization); `fxp.encode` stays strict. Non-finite input is rejected.

The datapath is fixed, not configured: inter-layer activations are
BOUNDARY_FMT (FxP8) codes, held as int8 from the model-input encode to the
last layer's scores, every activation runs through `naf`'s one 9-stage
pipeline, and both training loops walk one seeded order of minibatches of 16
(`_minibatches`), with `_backward` raising `DivergenceError` on a non-finite
loss. The float pass is a frame-major layer walk: `_layer_rows` lays a
layer's (B, ...) input out as operand rows (im2col patches for conv,
flattened rows for dense), one dot product per row and output channel gives
the pre-activations, and `_fold` lays the activations out as the next
layer's input. `_backward` walks the layers in reverse through the inverses:
`_unfold` undoes `_fold`, and `_col2im` undoes a conv layer's `_layer_rows`
through the same patch index. `_pads` is the one padding rule, and
`_layer_out_shape` the one shape rule: a layer's output shape for one
frame's input shape, or `ShapeMismatch` at a misfit, which the network's
shape chain (`_layer_shapes`), both passes and `build_network` read.

The quantized pass holds its int8 activations feature-major, (features,
frames), as the accelerator hands a layer's outputs to the next layer's
operand buffer without re-laying them out: the model input is encoded
straight into (C*H*W, B) (`_encode_input`), a conv layer gathers its (K, P*B)
operands along axis 0 through `_operand_index`, with a zero row for "same"
padding, and a layer's (out, N) codes are the next layer's input as they
stand (`_operands`). Its accumulate is one kernel, `_kernel`: a single
matmul of the layer's (out, S*K) sign matrix, its S shift planes side by
side, by the S shifted copies of the (K, N) operands, for one frame or a
chunk of a batch alike. It runs once `_check_overflow` has passed its
operands (in `_sums` on QAT's passes, in `_boundary_codes` on inference;
`_accumulate` and `_boundary_rows` are their (..., K)-row forms), and the
sign matrix, which `_build_quant_layer` gathers from `fxp.term_table` and
whose per-shift views are the planes, is the only encoding of a layer's
weights. QAT lays its caches out frame-major only for `_backward`
(`_frame_major`). Each
descriptor keeps its last prepared layer (`_prepare_layer`), keyed on the
identity of its sealed arrays and mask and on its scalars, so nothing needs
invalidating, with a table of the boundary chain over every accumulator code
the layer can reach; inference reads that table. QAT's passes, whose weights
and mn_scale change every step, build each layer afresh and run the chain on
their accumulators.

Inference holds no training caches and works in pieces of at most
_PIECE_OPERANDS operands wherever a piece cannot move a bit. The float pass
makes each layer's activations in its matmul's output, in place, with the
IEEE operations of the training pass in the same order, and runs conv
layers a block of frames at a time: a stacked (out, K) @ (B, K, P) matmul
writes each block as (B, out, P) into the next layer's input, one GEMM per
frame, so its bits do not depend on the block, and it rounds as the
training pass's (B, P, K) @ (K, out). A dense layer's (B, K) @ (K, out) is
one GEMM whose rounding depends on B (blocks of 1 frame changed 84,751 of
the 98,304 hidden pre-activations of 2048 frames on the README model), so
it stays one whole-batch matmul. The integer pass encodes the model input a
chunk of frames at a time, builds a layer's whole int8 operands and checks
them for overflow at once, then runs the kernel and the table read a chunk
of columns at a time; its sums are exact, so any chunking gives the same
codes.

Each descriptor field has one rule, in its class's `__setattr__` (a frozen
`SparsityMask` checks in `__post_init__`), which construction and every
assignment run alike; a rejected value raises a `TreaError` and is not
stored. A layer's weights, bias and mask flags are sealed read-only arrays
(`_sealed`), changed only by assignment. The rules are the model file's
schema, so every descriptor they admit saves and loads back equal.

The synthetic dataset is drawn frame by frame in the stream's order and
rendered a chunk of frames at a time (`_synth_split`); `check_dataset_args`
is its argument check and size cap, which `trea gen-data` runs alone.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import naf
from .errors import (
    AccumulatorOverflow,
    DivergenceError,
    DomainError,
    FormatError,
    ShapeMismatch,
    TreaError,
    integer,
    integers,
    real,
    reals,
)
from .fxp import FXP8, FxPFormat, term_codes, term_table
from .mac import MacMode, accumulator_width
from .naf import AfSelect

__all__ = [
    "SparsityMask",
    "LayerDescriptor",
    "NetworkDescriptor",
    "Dataset",
    "synth_dataset",
    "check_dataset_args",
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
_BATCH_SIZE = 16               # SGD minibatch of reference training and QAT
MODEL_MAGIC = b"TREAMDL\x00"
MODEL_VERSION = 1


# --------------------------------------------------------------------------
# descriptors


def _seal(a: np.ndarray) -> np.ndarray:
    """A read-only view of `a`, which must own its data and is made
    read-only too: numpy refuses to set a view writable while its base is
    not, so the view can never be edited in place."""
    a.setflags(write=False)
    return a.view()


def _sealed(value: np.ndarray) -> np.ndarray:
    """The array `value` sealed: kept if it already is a sealed array, so
    sealed arrays are shared, and otherwise copied, so the caller's array
    stays writable."""
    base = value.base
    if (isinstance(base, np.ndarray) and base.flags.owndata
            and not (value.flags.writeable or base.flags.writeable)):
        return value
    return _seal(np.array(value))


@dataclass(frozen=True)
class SparsityMask:
    """Sealed boolean retention flags, a bool array of one dimension or
    more, plus the exact per-window retained count, a Python int >= 0 (built
    by `trea.sharp`'s pruning and by `load_model`). A conv mask keeps exactly
    `retained_per_window` weights in every kernel window, the count the
    cycle accounting charges."""

    flags: np.ndarray
    retained_per_window: int

    def __post_init__(self):
        retained = integer(self.retained_per_window, "retained_per_window", 0)
        try:
            flags = np.asarray(self.flags)
        except ValueError as exc:   # a ragged list
            raise DomainError(f"flags must be an array of bools: {exc}") from None
        if flags.ndim == 0:
            raise ShapeMismatch(f"flags must be an array of one dimension or more, "
                                f"got {self.flags!r}")
        if flags.dtype != bool:   # a truthy 0.5, NaN or "False" is no kept weight
            raise DomainError(f"flags must be a bool array, got dtype {flags.dtype}")
        object.__setattr__(self, "flags", _sealed(flags))   # masks are frozen once built
        object.__setattr__(self, "retained_per_window", retained)
        if flags.ndim == 4 and np.any(flags.sum(axis=(2, 3)) != retained):
            raise ShapeMismatch(
                f"mask keeps other than retained_per_window = "
                f"{retained} weights in some kernel window"
            )

    @property
    def total_retained(self) -> int:
        return int(self.flags.sum())


def _check_ndim(kind, weights):
    want = 4 if kind == "conv2d" else 2
    if weights.ndim != want or min(weights.shape) < 1:
        raise ShapeMismatch(f"kind {kind!r} needs {want}-D weights with no empty "
                            f"dimension, got shape {weights.shape}")


@dataclass
class LayerDescriptor:
    """One layer. Each field's rule lives in `__setattr__`, which the
    dataclass `__init__` runs field by field, so construction and assignment
    check alike, and a rejected value raises a `TreaError` and is not stored.
    The rules are also the model file's schema (see `load_model`). `weights`
    and `bias` are sealed float64 arrays (`errors.reals`, then `_sealed`),
    changed only by assignment and shared by `copy()`; the weights keep
    their first shape."""

    kind: str                      # "conv2d" | "dense"
    activation: AfSelect
    precision: MacMode
    weights: np.ndarray            # conv: (out, in, kh, kw); dense: (out, in)
    bias: np.ndarray               # (out,)
    mn_scale: float = 1.0
    mask: SparsityMask | None = None
    stride: int = 1
    padding: str = "valid"
    # (scalars, weights, bias, mask, _QuantLayer) from the last
    # `_prepare_layer`, None before that; never copied or saved
    _prepared: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        held = vars(self)   # the fields set so far
        if name == "kind":
            if not (isinstance(value, str) and value in ("conv2d", "dense")):
                raise ShapeMismatch(f"unknown layer kind {value!r}")
            if "weights" in held:
                _check_ndim(value, held["weights"])
        elif name == "activation":
            value = AfSelect.from_code(value)
        elif name == "precision":
            if not isinstance(value, MacMode):
                raise DomainError(f"precision must be a MacMode, got {value!r}")
        elif name in ("weights", "bias"):
            value = _sealed(reals(value, name))
            if name == "weights" and "weights" not in held:
                _check_ndim(held["kind"], value)
            kept = held.get("weights", value).shape   # the weights' shape, once set
            kept = kept[:1] if name == "bias" else kept
            if value.shape != kept:
                raise ShapeMismatch(f"{name} must keep the layer's shape {kept}, "
                                    f"got {value.shape}")
        elif name == "mn_scale":   # O(1): QAT assigns the scale every step
            value = real(value, "mn_scale")
            if value <= 0:
                raise ShapeMismatch("mn_scale must be positive")
        elif name == "mask" and value is not None:
            if not isinstance(value, SparsityMask):
                raise DomainError(f"mask must be a SparsityMask, got {type(value).__name__}")
            if value.flags.shape != held["weights"].shape:
                raise ShapeMismatch("mask shape must match weight shape")
        elif name == "stride":
            value = integer(value, "stride")
            if value < 1:
                raise ShapeMismatch("stride must be >= 1")
        elif name == "padding" and not (isinstance(value, str) and value in ("valid", "same")):
            raise ShapeMismatch(f"unknown padding {value!r}")
        object.__setattr__(self, name, value)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    def masked_weights(self) -> np.ndarray:
        if self.mask is None:
            return self.weights
        return self.weights * self.mask.flags

    def retained_per_output(self) -> int:
        """Operands feeding one output neuron (after pruning): one window
        per input channel for conv, the whole row for dense."""
        if self.kind == "dense":
            return self.window_operands()
        return self.window_operands() * self.weights.shape[1]

    def window_operands(self) -> int:
        """Operands per kernel window (dense layers count the whole row)."""
        if self.kind == "dense":
            return self.weights.shape[1]
        if self.mask is not None:
            return self.mask.retained_per_window
        return self.weights.shape[2] * self.weights.shape[3]

    def refresh_mn_scale(self):
        """Set mn_scale to the scale `fxp.mn_normalize` gives the masked
        weights, max|w| / (1 - lsb), or to 1.0 when they are all zero. Only
        the scale is computed, not the normalized copy."""
        peak = float(np.abs(self.masked_weights()).max())
        self.mn_scale = peak / (1.0 - self.precision.fmt.lsb) if peak else 1.0

    def copy(self) -> "LayerDescriptor":
        return replace(self)


@dataclass
class NetworkDescriptor:
    """A model. As in `LayerDescriptor`, each field's rule lives in
    `__setattr__`: `name` is a str and `seed` an integer (`DomainError`);
    `input_shape` is three positive integers and `layers` a non-empty list of
    `LayerDescriptor` whose shape chain fits it (`ShapeMismatch`)."""

    name: str
    input_shape: tuple[int, int, int]   # (channels, height, width)
    layers: list[LayerDescriptor]
    seed: int = 0
    # (structure, schedule) from `trea.sched`'s last plan; never copied or saved
    _schedule: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        held = vars(self)   # the fields set so far
        if name == "name" and not isinstance(value, str):
            raise DomainError(f"name must be a str, got {value!r}")
        elif name == "seed":
            value = integer(value, "seed")
        elif name == "input_shape":
            value = _input_shape(value)
            if "layers" in held:
                _layer_shapes(value, held["layers"])
        elif name == "layers":
            if not (isinstance(value, list)
                    and all(isinstance(l, LayerDescriptor) for l in value)):
                raise ShapeMismatch("layers must be a list of LayerDescriptor")
            if not value:
                raise ShapeMismatch("network needs at least one layer")
            _layer_shapes(held["input_shape"], value)
        object.__setattr__(self, name, value)

    def layer_shapes(self):
        """Output shape after each layer; conv shapes are (C, H, W), dense
        shapes are (features,)."""
        return _layer_shapes(self.input_shape, self.layers)

    def copy(self) -> "NetworkDescriptor":
        return replace(self, layers=[l.copy() for l in self.layers])


def _input_shape(value) -> tuple:
    """`value` as an input shape, three counts >= 1 (`ShapeMismatch`)."""
    # `tolist`, not np.shape, which raises on a ragged list
    dims = value.tolist() if isinstance(value, np.ndarray) else value
    if not (isinstance(dims, (tuple, list)) and len(dims) == 3):
        raise ShapeMismatch(f"input_shape must be (channels, height, width), got {value!r}")
    return tuple(integer(v, "input_shape dimension", 1, ShapeMismatch) for v in dims)


def _layer_shapes(input_shape, layers):
    """Each layer's output shape from `input_shape` on; raises `ShapeMismatch` at a misfit."""
    shapes = []
    for idx, layer in enumerate(layers):
        input_shape = _layer_out_shape(layer, input_shape, f"layer {idx}: ")
        shapes.append(input_shape)
    return shapes


def _layer_out_shape(layer, in_shape, where=""):
    """One frame's output shape from one frame's input shape `in_shape`:
    (out,) for dense, (out, ho, wo) for conv. A misfit (conv after dense, a
    wrong channel or feature count, a kernel larger than a "valid" input)
    raises `ShapeMismatch`, its message prefixed by `where`. The window
    counts are `_pads`' in closed form: "same" pads to ceil(n / stride)."""
    shape = layer.weights.shape
    if layer.kind == "dense":
        if math.prod(in_shape) != shape[1]:
            raise ShapeMismatch(f"{where}dense layer expects {shape[1]} features, "
                                f"got {math.prod(in_shape)}")
        return shape[:1]
    if len(in_shape) != 3:
        raise ShapeMismatch(f"{where}conv2d after a dense layer")
    out, k, kh, kw = shape
    c, h, w = in_shape
    if c != k:
        raise ShapeMismatch(f"{where}conv2d layer expects {k} input channels, got {c}")
    s = layer.stride
    if layer.padding == "same":
        return out, -(-h // s), -(-w // s)
    ho, wo = (h - kh) // s + 1, (w - kw) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch(f"{where}conv2d kernel larger than input: {kh}x{kw} on {h}x{w}")
    return out, ho, wo


def _pads(size, k, stride, padding):
    """(before, after) zeros on one axis: none for "valid"; for "same", the
    fewest that fit ceil(size / stride) windows, the odd one after."""
    if padding == "valid":
        return 0, 0
    total = max((-(-size // stride) - 1) * stride + k - size, 0)
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


# The size cap: frames of at most _MAX_IMAGE_SIZE pixels a side, and at most
# _MAX_PIXELS pixels over both splits (128 MiB of float64, plus each split's
# permuted copy), so an absurd request is rejected before any allocation.
_MAX_IMAGE_SIZE = 256
_MAX_PIXELS = 1 << 24


def check_dataset_args(seed: int, n_train: int, n_test: int, classes: int = 3,
                       image_size: int = 12) -> None:
    """`synth_dataset`'s argument checks, which draw and allocate nothing:
    each argument an integer, seed, n_train and n_test >= 0, classes >= 2,
    8 <= image_size <= 256, and (n_train + n_test) * image_size**2 at most
    2**24 pixels. Raises `DomainError` naming the field."""
    # as Python ints, which cannot wrap as numpy integers can
    seed, n_train, n_test, classes, image_size = (
        integer(value, name, least) for name, value, least in (
            ("seed", seed, 0), ("n_train", n_train, 0), ("n_test", n_test, 0),
            ("classes", classes, 2), ("image_size", image_size, 8)))
    if image_size > _MAX_IMAGE_SIZE:
        raise DomainError(f"image_size must be <= {_MAX_IMAGE_SIZE}, got {image_size}")
    pixels = (n_train + n_test) * image_size ** 2
    if pixels > _MAX_PIXELS:
        raise DomainError(f"(n_train + n_test) * image_size**2 must be <= {_MAX_PIXELS} "
                          f"pixels, got {pixels}")


def synth_dataset(
    seed: int, n_train: int, n_test: int, classes: int = 3, image_size: int = 12
) -> Dataset:
    """Seeded class-conditional patterns: one oriented bar per class with
    jittered position, width, amplitude and additive noise. Bit-exactly
    reproducible from the seed. See `check_dataset_args` for the arguments
    and the size cap."""
    check_dataset_args(seed, n_train, n_test, classes, image_size)
    rng = np.random.default_rng(seed)
    tx, ty = _synth_split(rng, n_train, classes, image_size)
    sx, sy = _synth_split(rng, n_test, classes, image_size)
    return Dataset(tx, ty, sx, sy, seed, classes, image_size)


# Frames rendered per pass: the render's temporaries stay this many frames big.
_RENDER_CHUNK = 64

# (low, high) of each frame's uniform ox, oy, width and amplitude, in draw order
_JITTER_LOW, _JITTER_HIGH = np.array([(-1.5, 1.5), (-1.5, 1.5), (0.9, 1.4), (0.7, 0.95)]).T


def _synth_split(rng, n, classes, size):
    """n frames, frame i of class i % classes, then shuffled by one
    permutation. Per frame the stream holds four uniforms (ox, oy, width,
    amplitude), then size**2 normals. numpy's `uniform` and `normal` are
    low + (high - low) * U and 0.0 + 0.08 * Z, so drawing the raw variates
    frame by frame and mapping them in bulk is byte-identical to drawing
    each frame through them. The bars are rendered a chunk of frames at a
    time, in place over the noise, in the per-frame form's operation order."""
    x = np.empty((n, 1, size, size), dtype=np.float64)
    y = np.arange(n, dtype=np.int64) % classes
    u = np.empty((n, 4), dtype=np.float64)
    for i in range(n):
        rng.random(out=u[i])
        rng.standard_normal(out=x[i, 0])
    u *= _JITTER_HIGH - _JITTER_LOW
    u += _JITTER_LOW
    theta = [math.pi * k / classes for k in range(classes)]
    sin = np.array([math.sin(t) for t in theta])[y, None, None]
    cos = np.array([math.cos(t) for t in theta])[y, None, None]
    ox, oy, width, amp = u.T[:, :, None, None]
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    center = (size - 1) / 2.0
    gx, gy = xx - center, yy - center
    for lo in range(0, n, _RENDER_CHUNK):
        c = slice(lo, lo + _RENDER_CHUNK)
        dist = gx - ox[c]
        dist *= sin[c]
        across = gy - oy[c]
        across *= cos[c]
        dist -= across
        np.abs(dist, out=dist)
        dist /= width[c]
        bar = np.square(dist, out=dist)
        np.negative(bar, out=bar)
        np.exp(bar, out=bar)
        bar *= amp[c]
        # normal's 0.0 + 0.08 * Z differs from 0.08 * Z only at -0.0, which
        # adding the bar (>= +0.0) maps to +0.0 anyway
        noise = x[c, 0]
        noise *= 0.08
        noise += bar
    np.clip(x, 0.0, 1.0 - 2.0 ** -7, out=x)
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


# the keys each kind of arch entry must give; stride and padding default
_SPEC_KEYS = {"conv2d": ("out_channels", "kernel", "activation"),
              "dense": ("out_features", "activation")}


def _arch_entry(idx, entry):
    """Entry `idx` of an arch spec as (kind, params), or `ShapeMismatch`
    naming the entry or the key at fault."""
    try:
        kind, params = entry
    except (TypeError, ValueError):
        raise ShapeMismatch(f"layer {idx}: arch entry {entry!r} is not a "
                            f"(kind, params) pair") from None
    if not (isinstance(kind, str) and kind in _SPEC_KEYS):
        raise ShapeMismatch(f"layer {idx}: unknown layer kind {kind!r}")
    if not isinstance(params, Mapping):
        raise ShapeMismatch(f"layer {idx}: {kind} params must be a mapping, got {params!r}")
    for key in _SPEC_KEYS[kind]:
        if key not in params:
            raise ShapeMismatch(f"layer {idx}: {kind} params have no {key!r}")
    return kind, params


def build_network(arch, input_shape, seed: int, name: str = "net") -> NetworkDescriptor:
    """Seeded random initialization of an architecture spec (list of
    (kind, params) pairs). Each layer's input shape is the previous one's
    output from `_layer_out_shape`, so an arch that misfits its input raises
    `ShapeMismatch` at the first layer that does. An arch that is not a
    sequence, an entry that is not a pair, params that are not a mapping or
    lack a key (`_SPEC_KEYS`), and a kernel that is not a (k_h, k_w) pair
    raise `ShapeMismatch`. Its counts (out_channels, each kernel size,
    out_features) are integers >= 1, and a layer's weights must fit one
    array (`ShapeMismatch`)."""
    rng = np.random.default_rng(integer(seed, "seed", 0))
    layers = []
    shape = input_shape = _input_shape(input_shape)
    try:
        entries = list(arch)
    except TypeError:
        raise ShapeMismatch(f"arch must be a list of (kind, params) pairs, got {arch!r}") from None
    for idx, entry in enumerate(entries):
        kind, params = _arch_entry(idx, entry)
        if kind == "conv2d":
            try:
                kh, kw = params["kernel"]
            except (TypeError, ValueError):
                raise ShapeMismatch(f"layer {idx}: kernel must be a (k_h, k_w) pair, "
                                    f"got {params['kernel']!r}") from None
            wshape = (integer(params["out_channels"], "out_channels", 1, ShapeMismatch),
                      shape[0], *(integer(k, "kernel size", 1, ShapeMismatch) for k in (kh, kw)))
        else:
            wshape = (integer(params["out_features"], "out_features", 1, ShapeMismatch),
                      math.prod(shape))
        if math.prod(wshape) > np.iinfo(np.intp).max // 8:   # float64 bytes numpy can count
            raise ShapeMismatch(f"layer {idx} has more weights than one array holds")
        w = rng.normal(0.0, 1.0 / math.sqrt(math.prod(wshape[1:])), size=wshape)
        layer = LayerDescriptor(kind, params["activation"], MacMode.FXP8, w, np.zeros(wshape[0]),
                                stride=params.get("stride", 1),
                                padding=params.get("padding", "valid"))
        shape = _layer_out_shape(layer, shape, f"layer {idx}: ")
        layers.append(layer)
    model = NetworkDescriptor(name=name, input_shape=input_shape,
                              layers=layers, seed=seed)
    for layer in model.layers:
        layer.refresh_mn_scale()
    return model


# --------------------------------------------------------------------------
# float reference path


@functools.lru_cache(maxsize=64)
def _patch_index(c, h, w, kh, kw, stride):
    """The read-only (P, C*kh*kw) intp index of every patch's elements in a
    flattened (C, H, W) image, P in (y, x) row-major, and (ho, wo)."""
    flat = np.arange(c * h * w, dtype=np.intp).reshape(c, h, w)
    win = sliding_window_view(flat, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    ho, wo = win.shape[1:3]
    idx = win.transpose(1, 2, 0, 3, 4).reshape(ho * wo, c * kh * kw)
    idx.setflags(write=False)
    return idx, ho, wo


def _im2col(x, kh, kw, stride, padding):
    """(B, C, H, W) -> (B, P, C*kh*kw) patch matrix, P in (y, x) row-major:
    one gather through the precomputed `_patch_index` of the (padded) shape."""
    if padding == "same":
        x = np.pad(x, ((0, 0), (0, 0), _pads(x.shape[2], kh, stride, padding),
                       _pads(x.shape[3], kw, stride, padding)))
    b, c, h, w = x.shape
    idx, ho, wo = _patch_index(c, h, w, kh, kw, stride)
    # an explicit row size: reshape(0, -1) cannot infer it for an empty batch.
    # `take` returns C order; x[:, idx] puts the batch axis innermost, which
    # moves the float matmul's rounding
    return x.reshape(b, c * h * w).take(idx, axis=1), ho, wo


def _col2im(dcols, x_shape, kh, kw, stride, padding):
    """The transpose of `_im2col`: (B, P, C*kh*kw) patch gradients summed
    onto the (B, C, H, W) input through the same `_patch_index`, then cropped
    by the pads. `np.bincount` adds each pixel's terms to 0.0 in patch order."""
    b, c, h, w = x_shape
    (pt, pb), (pl, pr) = _pads(h, kh, stride, padding), _pads(w, kw, stride, padding)
    hp, wp = h + pt + pb, w + pl + pr
    idx, _, _ = _patch_index(c, hp, wp, kh, kw, stride)
    n = c * hp * wp
    # float64 also for an empty batch, whose bincount numpy gives as int64
    dx = np.bincount((idx + n * np.arange(b)[:, None, None]).ravel(),
                     dcols.ravel(), minlength=b * n).astype(np.float64, copy=False)
    return dx.reshape(b, c, hp, wp)[:, :, pt:pt + h, pl:pl + w]


def _layer_rows(layer: LayerDescriptor, act):
    """The layer's operand rows and the output grid they fold back onto:
    (B, P, C*kh*kw) patches and (ho, wo) for conv, (B, K) flattened rows and
    None for dense. Every row is one dot product per output channel. An input
    the layer does not fit, as after an edit in place, raises `ShapeMismatch`."""
    out_shape = _layer_out_shape(layer, act.shape[1:])
    if layer.kind == "dense":
        return act.reshape(len(act), layer.weights.shape[1]), None
    kh, kw = layer.weights.shape[2:]
    return _im2col(act, kh, kw, layer.stride, layer.padding)[0], out_shape[1:]


def _fold(out, layer: LayerDescriptor, hw):
    """Per-row outputs into the next layer's input layout: (B, P, out) conv
    outputs become (B, out, ho, wo) images; dense outputs stay (B, out)."""
    if hw is None:
        return out
    return out.transpose(0, 2, 1).reshape(out.shape[0], layer.out_channels, *hw)


def _unfold(d, z_shape):
    """Inverse of `_fold`: a gradient in the next layer's input layout back
    to the (B, P, out) or (B, out) rows of pre-activations `z_shape`."""
    return d.reshape(z_shape[0], z_shape[-1], -1).transpose(0, 2, 1).reshape(z_shape)


def _af_float(sel: AfSelect, z, out=None):
    """The activation of `z`, written to `out` if given (which may be `z`).
    Sigmoid is 1 / (1 + exp(-z)) as four element-wise steps on one array,
    so both passes round every element alike."""
    if sel is AfSelect.RELU:
        return np.maximum(z, 0.0, out=out)
    if sel is AfSelect.SIGMOID:
        e = np.negative(z, out=out)
        np.exp(e, out=e)
        e += 1.0
        return np.divide(1.0, e, out=e)
    return np.tanh(z, out=out)


def _af_deriv_from_output(sel: AfSelect, a):
    if sel is AfSelect.RELU:
        return (a > 0).astype(np.float64)
    if sel is AfSelect.SIGMOID:
        return a * (1.0 - a)
    return 1.0 - a * a


def _check_input(model, x):
    x = reals(x, "input")
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.shape[1:] != model.input_shape:
        raise ShapeMismatch(
            f"input shape {x.shape[1:]} != model input {model.input_shape}"
        )
    return x, single


def _labels(y, frames, classes):
    """`y` as int64 labels (`errors.integers`), one per frame
    (`ShapeMismatch`) and each a class index in [0, classes) (`DomainError`)."""
    y = integers(y, "labels").ravel()
    if len(y) != frames:
        raise ShapeMismatch(f"{len(y)} labels for {frames} frames")
    # as uint64 a negative label is past every class count, so the largest
    # checks both ends
    if np.maximum.reduce(y.view(np.uint64), initial=0) >= classes:
        raise DomainError(f"labels must be class indices in [0, {classes})")
    return y


def _float_pass(model: NetworkDescriptor, x, with_cache: bool = False):
    """(last layer's pre-activations, scores, caches for backprop). Without
    `with_cache` the pre-activations and caches are None, and the pass keeps
    no layer's rows past its matmul and runs in pieces (see the module
    docstring)."""
    if not with_cache:
        act = x
        for layer in model.layers:
            wmat = layer.masked_weights().reshape(layer.out_channels, -1)
            if layer.kind == "dense":
                act = _float_rows(layer, _layer_rows(layer, act)[0], wmat.T)
            else:
                act = _float_conv(layer, act, wmat)
        return None, act, None
    caches = []
    act = x
    for layer in model.layers:
        cols, hw = _layer_rows(layer, act)
        wmat = layer.masked_weights().reshape(layer.out_channels, -1)
        z = cols @ wmat.T + layer.bias
        a = _af_float(layer.activation, z)
        caches.append(dict(cols=cols, a=a, wmat=wmat, in_shape=act.shape))
        act = _fold(a, layer, hw)
    return z, act, caches


def _float_rows(layer: LayerDescriptor, rows, wmat_t):
    """The layer's activations of operand rows, made in the matmul's output:
    the IEEE operations of `_af_float(sel, rows @ wmat_t + bias)`, in order."""
    z = rows @ wmat_t
    z += layer.bias
    return _af_float(layer.activation, z, out=z)


def _float_conv(layer: LayerDescriptor, act, wmat):
    """The conv layer's folded activations of `act`, a block of frames at a
    time: the patches of at most _PIECE_OPERANDS operands (one frame if it
    has more) live at once, and each block's (b, out, P) matmul writes
    straight into the next layer's input, where the bias and the activation
    then run in place. A stacked matmul is one GEMM per frame, so the bits
    do not depend on the block, and W @ cols.T rounds as the training pass's
    cols @ W.T (`test_conv_orientation_rounds_as_the_training_pass`)."""
    _, ho, wo = _layer_out_shape(layer, act.shape[1:])
    kh, kw = layer.weights.shape[2:]
    step = max(1, _PIECE_OPERANDS // (ho * wo * wmat.shape[1]))
    out = np.empty((len(act), layer.out_channels, ho, wo))
    bias = layer.bias[:, None]
    for lo in range(0, len(act), step):
        cols, _, _ = _im2col(act[lo:lo + step], kh, kw, layer.stride, layer.padding)
        block = out[lo:lo + step].reshape(len(cols), layer.out_channels, ho * wo)
        np.matmul(wmat, cols.transpose(0, 2, 1), out=block)
        block += bias
        _af_float(layer.activation, block, out=block)
    return out


def forward_float(model: NetworkDescriptor, x):
    """Double-precision reference forward pass; returns post-activation
    scores of the last layer (pre-softmax). A conv layer's matmul writes
    each block of frames straight into the layer's float64 outputs, so the
    pass holds those and the next layer's, 2.0 KB a frame on the README
    model (tracemalloc), plus one block of conv patches (about 1 MB); see
    the module docstring."""
    xb, single = _check_input(model, x)
    _, scores, _ = _float_pass(model, xb)
    return scores[0] if single else scores


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _minibatches(dataset: Dataset, epochs: int, lr: float, seed: int):
    """The seeded SGD order of both training loops: (inputs, labels)
    minibatches of _BATCH_SIZE over one permutation per epoch."""
    epochs = integer(epochs, "epochs", 0)
    if real(lr, "learning rate") < 0:
        raise DomainError(f"learning rate must be finite and >= 0, got {lr}")
    rng = np.random.default_rng(seed)
    n = len(dataset.train_x)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, _BATCH_SIZE):
            sel = order[start:start + _BATCH_SIZE]
            yield dataset.train_x[sel], dataset.train_y[sel]


def _backward(model, caches, logits, labels, lr):
    """Shared SGD backward from cross-entropy on the last layer's
    pre-activation. Assigns each layer fresh weights and bias, sealed without
    a copy; masked positions get no gradient and stay zero. Caches may hold
    either float or quantized forward values.
    Returns the loss, raising `DivergenceError` after the update if it is
    not finite."""
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
        gb = delta.sum(tuple(range(delta.ndim - 1)))
        drows = delta @ cache["wmat"] if idx > 0 else None
        if layer.kind == "dense":
            gw = delta.T @ cache["cols"]
        else:
            gw = np.einsum("bpo,bpk->ok", delta, cache["cols"])
            if drows is not None:
                drows = _col2im(drows, cache["in_shape"], *layer.weights.shape[2:],
                                layer.stride, layer.padding)
        gw = gw.reshape(layer.weights.shape)
        if layer.mask is not None:
            gw = gw * layer.mask.flags
        w = lr * gw      # fresh: the new weights overwrite it, with no second array
        np.subtract(layer.weights, w, out=w)
        if layer.mask is not None:
            w *= layer.mask.flags  # pruned positions stay zero
        # sealed here, so the assignment hook's check is skipped: on the desk
        # model it cost ~5% of a backward pass
        vars(layer).update(weights=_seal(w), bias=_seal(layer.bias - lr * gb))
        if drows is not None:
            delta = _unfold(drows, caches[idx - 1]["a"].shape)
    if not math.isfinite(loss):
        raise DivergenceError(f"loss became non-finite: {loss}")
    return loss


def train_reference(arch, dataset: Dataset, epochs: int, lr: float, seed: int,
                    name: str = "reference") -> NetworkDescriptor:
    """Seeded float SGD with softmax cross-entropy on the last layer's
    pre-activations. epochs=0 returns the seeded initialization with
    normalization metadata only."""
    xs = reals(dataset.train_x, "input")
    if isinstance(arch, str):
        if arch != "desk":
            raise DomainError(f"unknown architecture preset {arch!r}")
        arch = desk_arch(dataset.classes)
    model = build_network(arch, xs.shape[1:], seed, name=name)
    xs, _ = _check_input(model, xs)
    ys = _labels(dataset.train_y, len(xs), model.layers[-1].out_channels)
    for x, y in _minibatches(replace(dataset, train_x=xs, train_y=ys), epochs, lr, seed):
        logits, _, caches = _float_pass(model, x, with_cache=True)
        _backward(model, caches, logits, y, lr)
    for layer in model.layers:
        layer.refresh_mn_scale()
    return model


# --------------------------------------------------------------------------
# bit-accurate quantized path


def _sat_encode_raw(values, fmt: FxPFormat, dtype=np.int64):
    """Round-to-nearest-even then saturate into the format's raw range, as
    `dtype` codes. Boundary requantization clips instead of erroring;
    maximum then minimum clip as `np.clip` does, without its Python frames."""
    raw = values * (1 << fmt.frac_bits)
    # in place: fresh temporaries cost page faults on large batches
    np.rint(raw, out=raw)
    np.maximum(raw, fmt.raw_min, out=raw)
    np.minimum(raw, fmt.raw_max, out=raw)
    return raw.astype(dtype)


# float32 holds every integer of magnitude below 2**24 exactly
_F32_EXACT = 1 << 24


@functools.cache
def _requant_table(fmt: FxPFormat) -> np.ndarray:
    """The layer-entry requantization of every boundary code into operand
    format `fmt`, read-only int8: the code c at index c & 0xFF, so the pass
    reads it at the codes' uint8 view. `_sat_encode_raw` is its oracle."""
    codes = np.arange(256, dtype=np.uint8).view(np.int8)
    return _seal(_sat_encode_raw(codes * BOUNDARY_FMT.lsb, fmt, np.int8))


# Each boundary code's float64 value at index c & 0xFF, as `_requant_table`
# is read: the scores are one read of it, exact since code * lsb is.
_DECODE = _seal(np.arange(256, dtype=np.uint8).view(np.int8) * BOUNDARY_FMT.lsb)


@dataclass
class _QuantLayer:
    """A layer's weights and bias in the form the kernel reads. Shared by
    every pass over the same layer state, so its arrays are read-only."""

    out_channels: int
    bias_raw: np.ndarray           # accumulator-scale preload per output
    acc_limit: int                 # overflow bound at the Eq-width
    shifts: np.ndarray             # the S shifts in use, ascending, int8 (S, 1, 1)
    signs: np.ndarray              # (out, S*K): output o's C_m rows, shift by shift
    planes: tuple                  # (m, C_m) per shift in use: (out, K) views of signs
    suspect: np.ndarray            # outputs whose prefix sums the screen cannot clear
    acc_bound: int                 # R: no accumulator that passes the check leaves [-R, R]
    boundary: np.ndarray | None = None  # int8 boundary code of acc at acc + R (prepared only)
    preload: np.ndarray | None = None   # (out, 1) int64 bias + R, the table index (prepared only)


def _prepare_layer(layer: LayerDescriptor) -> _QuantLayer:
    """The layer's `_QuantLayer` with its boundary table, rebuilt only when
    the layer holds other weights, bias or mask objects than it was last
    built from, or scalars that compare unequal. Sealed arrays and frozen
    masks change only by assignment, so identity is their state; the memo
    holds the objects, not their ids, so an id cannot be reused."""
    scalars = (layer.kind, layer.activation, layer.precision, layer.mn_scale)
    memo = layer._prepared
    if (memo is not None and memo[0] == scalars and memo[1] is layer.weights
            and memo[2] is layer.bias and memo[3] is layer.mask):
        return memo[4]
    q, _ = _build_quant_layer(layer)
    q.boundary = _boundary_table(layer, q.acc_bound)
    q.preload = _seal(q.bias_raw[:, None] + q.acc_bound)
    layer._prepared = (scalars, layer.weights, layer.bias, layer.mask, q)
    return q


def _build_quant_layer(layer: LayerDescriptor):
    """The layer's `_QuantLayer` and its weight codes as (out, K) column
    indices into `fxp.term_codes`' tables, from which QAT reads its
    effective weights. Every per-code number is one gather from those
    tables, and sign rows only for the shifts some weight uses."""
    fmt = layer.precision.fmt
    f = fmt.frac_bits
    wn = layer.masked_weights() / layer.mn_scale
    bias_n = layer.bias / layer.mn_scale
    # maximum propagates NaN, so a non-finite weight leaves `peak` non-finite;
    # the ufuncs' own reduces, as QAT builds every layer on every step
    peak = float(np.maximum.reduce(np.abs(wn), axis=None))
    if not (math.isfinite(peak) and np.logical_and.reduce(np.isfinite(bias_n))):
        raise DomainError("weights, bias or mn_scale are not finite")
    if peak > 1.0 - fmt.lsb + 1e-12:
        raise DomainError("weights exceed mn normalization; refresh mn_scale")
    wn *= 1 << f                   # exact: a power of two
    np.rint(wn, out=wn)
    wn -= fmt.raw_min
    codes = wn.astype(np.intp).reshape(layer.out_channels, -1)
    tables = term_codes(fmt, layer.precision.terms)
    used = int(np.bitwise_or.reduce(tables.shifts.take(codes), axis=None))
    shifts = [m for m in range(f + 1) if used >> m & 1]
    reach = tables.reach.take(codes).sum(axis=1)
    # (out, S, K): each output's sign rows side by side, one row of the
    # kernel's matrix. The gather runs in int8 (a MacMode format has no NaN
    # column), so its (S, out, K) temporary is a quarter of the signs' size,
    # and skips the bounds check ("clip"), since the takes above made it.
    dtype = np.float64 if reach.max() >= _F32_EXACT else np.float32   # see `_accumulate`
    signs = term_table(fmt, layer.precision.terms)[shifts].astype(np.int8)
    signs = signs.take(codes, axis=1, mode="clip")
    signs = _seal(signs.transpose(1, 0, 2).astype(dtype, order="C"))
    planes = tuple((m, signs[:, i]) for i, m in enumerate(shifts))
    bias_raw = np.rint(bias_n * (1 << f)).astype(np.int64)
    k = layer.retained_per_output()
    has_bias = bool(np.any(bias_raw))
    width = accumulator_width(fmt.total_bits, k + (1 if has_bias else 0))
    lim = 1 << (width - 1)
    # operands are codes of the format, so |x >> m| <= 2**(F-m) and no prefix
    # sum leaves |bias| + reach; in float64 a bias code near or past the int64
    # range still reads as huge
    bound = np.abs(bias_raw.astype(np.float64)) + reach
    # `flatnonzero` views a writable array, so `_sealed` copies it
    suspect = _sealed(np.flatnonzero(bound > lim - 1))
    # the screen clears the others, and `_check_overflow` holds the suspects
    # inside the limit
    acc_bound = math.ceil(min(float(bound.max()), lim))
    q = _QuantLayer(layer.out_channels, _seal(bias_raw), lim,
                    _seal(np.reshape(shifts, (-1, 1, 1)).astype(np.int8)),
                    signs.reshape(layer.out_channels, -1), planes, suspect, acc_bound)
    return q, codes


def _accumulate(q: _QuantLayer, x_raw_mat):
    """Shift-and-add dot products for all outputs: x_raw_mat is (..., K)
    codes of the layer's format, one dot product per row; returns int64
    accumulators (..., out). `_sums` over the rows' transpose: the pass
    itself holds its operands feature-major.

    Shift-plane form: grouping every weight's PoT terms by shift m gives the
    signed term matrices C_m, and the accumulator is
    bias + sum_m C_m @ (x >> m). The shift is per operand with floor
    semantics, so each partial product is truncated before it is added, as
    the DQ-MAC does. `_kernel` runs all S shifts in use as one matmul, as the
    DQ-MAC runs a window's terms in one pass: the (out, S*K) sign matrix
    (each output's C_m rows side by side) times the (S*K, N) stack of the
    shifted operands. It runs in floating point and is exact: every entry of
    `x >> m` is an integer of magnitude at most 2**(F-m) and every C_m entry
    is in {-1, 0, 1}, so every partial sum of the S*K products, in whatever
    order and blocking BLAS takes, is an integer no larger in magnitude than
    the output's reach, sum_m 2**(F-m) |C_m[o]|. `_build_quant_layer` stores
    the signs in float32, which holds every integer below 2**24, when every
    output's reach is below that, and in float64, which holds them up to
    2**53, otherwise; the sums run in the signs' dtype. The bias is added in
    int64.

    The hardware checks the accumulator width after every add, so
    `AccumulatorOverflow` is raised exactly when some prefix of the
    bias-then-operand-then-term order leaves the range; see
    `_check_overflow`.
    """
    acc = _sums(q, x_raw_mat.reshape(-1, x_raw_mat.shape[-1]).T)
    return acc.T.copy().reshape(x_raw_mat.shape[:-1] + (q.out_channels,))


def _sums(q: _QuantLayer, x):
    """The (out, N) int64 accumulators of the (K, N) operands `x`, one dot
    product per column, once `_check_overflow` has passed them."""
    _check_overflow(q, x)
    return _kernel(q, x, q.bias_raw[:, None])


def _kernel(q: _QuantLayer, x, preload):
    """`_accumulate`'s shift-plane sums of the (K, N) operands `x` plus the
    (out, 1) int64 column `preload`, as (out, N) int64, unchecked: the caller
    has run `_check_overflow` over them. One matmul of the sign matrix and
    the (S, K, N) shifted operands, whatever N and S are (an empty batch, or
    no shift in use, is a matmul with nothing to sum)."""
    shifted = (x >> q.shifts).astype(q.signs.dtype)
    # signs on the left: OpenBLAS took about twice as long over QAT's 16
    # columns of the README model's hidden layer as (N, S*K) @ (S*K, out)
    total = q.signs @ shifted.reshape(q.signs.shape[1], x.shape[1])
    acc = total.astype(np.int64)
    acc += preload
    return acc


def _boundary_codes(q: _QuantLayer, x):
    """The prepared layer's int8 boundary codes (out, N) of the (K, N)
    operands `x`: the kernel with the table index `q.preload` as its
    preload, then the table read. The overflow check runs once over every
    column, so it stops at the same (output, operand); the kernel and the
    table then run on chunks of at most _PIECE_OPERANDS operands (one column
    if it has more), and columns that fit in one chunk run as one."""
    _check_overflow(q, x)
    step = max(1, _PIECE_OPERANDS // len(x))
    if x.shape[1] <= step:
        return q.boundary.take(_kernel(q, x, q.preload))
    out = np.empty((q.out_channels, x.shape[1]), dtype=np.int8)
    for lo in range(0, x.shape[1], step):
        out[:, lo:lo + step] = q.boundary.take(_kernel(q, x[:, lo:lo + step], q.preload))
    return out


def _boundary_rows(q: _QuantLayer, x_raw_mat):
    """`_boundary_codes` of operand rows x_raw_mat (..., K), as (..., out)
    codes: `_accumulate`, then the table read."""
    codes = _boundary_codes(q, x_raw_mat.reshape(-1, x_raw_mat.shape[-1]).T)
    return codes.T.copy().reshape(x_raw_mat.shape[:-1] + (q.out_channels,))


def _check_overflow(q: _QuantLayer, x):
    """Raise `AccumulatorOverflow` if any prefix sum of any output leaves
    [-acc_limit, acc_limit - 1] when the accumulator takes the bias, then each
    operand j in order, then its terms in MSD order. x holds codes of the
    layer's format, (K, N): operand j of every dot product in row j.

    Only the outputs `_prepare_layer` could not clear are checked, first
    output first. Greedy PoT terms all carry their weight's sign and every
    `x >> m` carries x's sign, so the prefix sums within one operand move one
    way: some prefix leaves the range exactly when a sum at an operand
    boundary, bias + sum_{i <= j} p_i with p_i = sum_m C_m[o, i] (x_i >> m),
    does. The first row j where any column leaves it is the add the
    hardware stops at.
    """
    if not (len(q.suspect) and x.size):   # the screen cleared every output
        return
    lim = q.acc_limit
    for o in q.suspect:
        where = "bias"
        if -lim <= q.bias_raw[o] <= lim - 1:
            p = sum(((x >> m) * c[o, :, None].astype(np.int64) for m, c in q.planes),
                    np.zeros(x.shape, dtype=np.int64))
            out = np.cumsum(p, axis=0) + q.bias_raw[o]
            rows = np.flatnonzero(((out > lim - 1) | (out < -lim)).any(axis=1))
            if not rows.size:
                continue
            where = int(rows[0])
        raise AccumulatorOverflow(
            f"accumulator left [{-lim}, {lim - 1}] (output {o}, operand {where})"
        )


def _boundary_chain(layer: LayerDescriptor, acc):
    """The layer boundary of accumulator codes `acc`: the float
    pre-activations acc * lsb * mn_scale, and the boundary codes the
    activation unit makes of them once saturated into WIDE_FMT. It fills each
    prepared layer's boundary table and runs directly on QAT's passes."""
    pre = acc.astype(np.float64)
    pre *= layer.precision.fmt.lsb
    pre *= layer.mn_scale
    codes = naf.activate_raw_vec(layer.activation, _sat_encode_raw(pre, WIDE_FMT),
                                 WIDE_FMT.frac_bits, BOUNDARY_FMT.frac_bits)
    return pre, codes


# The table is filled a chunk of codes at a time, so the chain's temporaries
# stay small: for a 65536-input dense layer (2.85M codes) one call over all of
# them raised the peak RSS by 204 MiB and took ~0.4 s, while chunks of 2**14
# codes stayed under the layer build's own peak and took ~0.1 s.
_CHAIN_CHUNK = 1 << 14

# Operands (rows x K) of one piece of an inference pass: a block of conv
# patches on the float pass, a chunk of rows through the integer kernel. A
# float conv block is this divided by P x K, 291 frames on the README model.
_PIECE_OPERANDS = 1 << 16


def _boundary_table(layer: LayerDescriptor, r: int):
    """The read-only int8 boundary codes of accumulators -r..r, the code of
    acc at index acc + r."""
    table = np.empty(2 * r + 1, dtype=np.int8)
    for lo in range(0, len(table), _CHAIN_CHUNK):
        codes = np.arange(lo, min(lo + _CHAIN_CHUNK, len(table))) - r
        table[lo:lo + len(codes)] = _boundary_chain(layer, codes)[1]
    return _seal(table)


@functools.lru_cache(maxsize=64)
def _operand_index(c, h, w, kh, kw, stride, padding):
    """A conv layer's operands in its feature-major (C*H*W, B) input: the
    read-only (K, P) intp index of operand k of patch p, in `_im2col`'s
    (column, row) order, and whether it reads a zero row at index C*H*W,
    where a "same" layer's padded positions point."""
    (pt, pb), (pl, pr) = _pads(h, kh, stride, padding), _pads(w, kw, stride, padding)
    hp, wp = h + pt + pb, w + pl + pr
    flat = np.full((c, hp, wp), c * h * w, dtype=np.intp)
    flat[:, pt:pt + h, pl:pl + w] = np.arange(c * h * w).reshape(c, h, w)
    idx = flat.reshape(-1).take(_patch_index(c, hp, wp, kh, kw, stride)[0].T)
    idx.setflags(write=False)
    return idx, (hp, wp) != (h, w)


def _operands(layer: LayerDescriptor, act, in_shape):
    """The layer's (K, N) operands of a feature-major (C*H*W, B) input of
    (C, H, W) frames, or (K, B) features for dense, one dot product per
    column: a conv layer's N = P*B columns run patch-major, so its (out, N)
    outputs are the next layer's (out*P, B) input as they stand."""
    if layer.kind == "dense":
        return act
    idx, padded = _operand_index(*in_shape, *layer.weights.shape[2:], layer.stride,
                                 layer.padding)
    if padded:
        act = np.concatenate((act, np.zeros((1, act.shape[1]), dtype=act.dtype)))
    return act.take(idx, axis=0).reshape(len(idx), idx.shape[1] * act.shape[1])


def _encode_input(xb, fmt: FxPFormat):
    """The (B, C, H, W) model input as feature-major (C*H*W, B) int8 codes at
    operand format `fmt`: saturated into BOUNDARY_FMT (the model input is a
    boundary) and requantized into `fmt`, a chunk of frames at a time, so
    the float64 and intp temporaries stay one chunk big."""
    rows = xb.reshape(len(xb), math.prod(xb.shape[1:]))
    out = np.empty(rows.shape[::-1], dtype=np.int8)
    step = max(1, _PIECE_OPERANDS // rows.shape[1])
    for lo in range(0, len(rows), step):
        out[:, lo:lo + step] = _requant(
            _sat_encode_raw(rows[lo:lo + step], BOUNDARY_FMT, np.int8), fmt).T
    return out


def _requant(codes, fmt: FxPFormat):
    """Boundary codes as codes of operand format `fmt`: the layer-entry
    requantization, a read of `_requant_table` unless the formats agree."""
    if BOUNDARY_FMT.frac_bits == fmt.frac_bits:
        return codes
    return _requant_table(fmt).take(codes.view(np.uint8))


def _frame_major(a, lead, scale=None):
    """A feature-major (n, P*B) or (n, B) array of the pass in `_backward`'s
    layout, `lead` + (n,) with `lead` (B, P) or (B,): a C-contiguous float64
    copy, times `scale` if given. einsum's and BLAS's summation orders follow
    memory layout, so `_backward`'s updates keep their bits only on caches
    in this layout."""
    out = a.reshape(len(a), *lead[::-1]).T.astype(np.float64, order="C")
    if scale is not None:
        out *= scale
    return out


def _quant_pass(model: NetworkDescriptor, x, with_cache: bool = False):
    """(last layer's pre-activations, scores, caches); the pre-activations and
    caches are None unless `with_cache`. Activations are int8 codes held
    feature-major between layers, (features, frames): a layer's K operands
    by its N dot products, and the (out, N) codes it makes are the next
    layer's input (see `_operands`)."""
    xb, single = _check_input(model, x)
    frames, shape = len(xb), model.input_shape
    act = _encode_input(xb, model.layers[0].precision.fmt)
    pre_true = None
    caches = [] if with_cache else None
    for i, layer in enumerate(model.layers):
        # QAT changes every layer between passes and reads no boundary
        # table: a memo would only hold the last step's planes while the next
        # are built, which costs page faults
        if with_cache:
            q, codes = _build_quant_layer(layer)
        else:
            q = _prepare_layer(layer)
        fmt = layer.precision.fmt
        if i:   # the model input's requantization ran in its encode
            act = _requant(act, fmt)
        out_shape = _layer_out_shape(layer, shape)
        ops = _operands(layer, act, shape)
        if with_cache:
            # `_backward`'s rows: (B, P) patches for conv, (B,) for dense
            lead = (frames,) if layer.kind == "dense" else (frames, math.prod(out_shape[1:]))
            pre, bound = _boundary_chain(layer, _sums(q, ops))
            # the PoT-approximated weights: each code's greedy value, exact
            approx = term_codes(fmt, layer.precision.terms).value.take(codes)
            caches.append(dict(
                cols=_frame_major(ops, lead, fmt.lsb),
                a=_frame_major(bound, lead, BOUNDARY_FMT.lsb),
                wmat=approx * layer.mn_scale,
                in_shape=(frames, *shape),
            ))
            pre_true = _frame_major(pre, lead)
            bound = bound.astype(np.int8)
        else:
            bound = _boundary_codes(q, ops)
        act, shape = bound.reshape(math.prod(out_shape), frames), out_shape
    scores = _DECODE.take(act.T.view(np.uint8)).reshape(frames, *shape)
    if single:
        scores = scores[0]
    return pre_true, scores, caches


def forward_quant(model: NetworkDescriptor, x):
    """Bit-accurate forward pass.

    Every multiply is the truncated shift-and-add product at the layer's
    precision, accumulation happens at the reduced width with bias preloaded,
    masked weights contribute nothing, outputs are rescaled by mn_scale and
    pushed through the CORDIC activation unit, then requantized at the layer
    boundary; that boundary is read from each prepared layer's table.

    It holds each layer's int8 operands and codes, feature-major; the model
    input's float64 encode, the kernel's shifted float operands and its
    int64 accumulators live one chunk at a time. About 0.4 KB a frame on the
    bench's mixed README model (tracemalloc), most of it the conv layer's
    operands and codes.
    """
    _, scores, _ = _quant_pass(model, x)
    return scores


def _accuracy(scores, y) -> float:
    scores = scores.reshape(-1, scores.shape[-1])   # one (C, H, W) frame is a batch of one
    y = _labels(y, len(scores), scores.shape[-1])
    if not len(scores):
        raise DomainError("accuracy of an empty test set is undefined")
    return float((scores.argmax(axis=1) == y).mean())


def evaluate_float(model, x, y) -> float:
    return _accuracy(forward_float(model, x), y)


def evaluate_quant(model, x, y) -> float:
    return _accuracy(forward_quant(model, x), y)


def qat_finetune(model: NetworkDescriptor, dataset: Dataset, epochs: int, lr: float,
                 seed: int):
    """Straight-through fine-tuning against the bit-accurate forward path.

    Forward values (activations, pre-activations) come from the quantized
    pass; the backward pass treats each layer as linear in its
    PoT-approximated effective weights. Updates touch retained float weights
    only; masks and precision assignments are untouched. mn scales refresh
    after every step so encoded weights stay in range.
    """
    xs, _ = _check_input(model, dataset.train_x)
    ys = _labels(dataset.train_y, len(xs), model.layers[-1].out_channels)
    for x, y in _minibatches(replace(dataset, train_x=xs, train_y=ys), epochs, lr, seed):
        logits, _, caches = _quant_pass(model, x, with_cache=True)
        _backward(model, caches, logits, y, lr)
        for layer in model.layers:
            layer.refresh_mn_scale()
    return model


# --------------------------------------------------------------------------
# serialization


def save_model(model: NetworkDescriptor, path):
    """Write manifest + little-endian binary blob. Deterministic byte layout:
    identical models serialize identically. A shape chain that an edit in
    place broke raises `ShapeMismatch` instead of writing an unloadable file."""
    model.layer_shapes()
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
        version=MODEL_VERSION,
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


def _manifest_field(entry, key, where, convert=None):
    """`entry[key]`, passed through `convert` if given. A missing field or a
    value `convert` rejects is a `FormatError` naming the field."""
    if key not in entry:
        raise FormatError(f"missing field {where}.{key}")
    if convert is None:
        return entry[key]
    try:
        return convert(entry[key])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad field {where}.{key} = {entry[key]!r}: {exc}") from exc


def _blob_array(blob, entry, key, where, dtype, count):
    """`count` items of `dtype` read from the blob at the entry's offset."""
    off = _manifest_field(entry, key, where)   # a JSON integer: no bool, float or str
    if type(off) is not int or off < 0 or off + count * np.dtype(dtype).itemsize > len(blob):
        raise FormatError(f"{where}.{key} = {off!r} is no offset into the {len(blob)}-byte blob")
    return np.frombuffer(blob, dtype=dtype, count=count, offset=off)


def _build(cls, where, **fields):
    """`cls(**fields)`; a `TreaError` from the descriptor's rules (which name
    the field at fault) is a malformed file, raised as a `FormatError`."""
    try:
        return cls(**fields)
    except TreaError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_model(path) -> NetworkDescriptor:
    """The model in a file `save_model` wrote. Only the container (magic,
    length, a JSON object, version, layer list, weight shapes, blob offsets)
    is checked here and only `precision` converted; every other value goes to
    the descriptors as read, and a rule's `TreaError` is a `FormatError`."""
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
    except (ValueError, RecursionError) as exc:   # bad JSON or UTF-8, or too deep
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("manifest is not a JSON object")
    version = _manifest_field(manifest, "version", "manifest")
    if type(version) is not int or version != MODEL_VERSION:   # True == 1.0 == 1
        raise FormatError(f"unsupported model version {version}")
    blob = data[mstart + mlen:]
    entries = _manifest_field(manifest, "layers", "manifest")
    if not isinstance(entries, list):
        raise FormatError("manifest.layers is not a list")
    layers = []
    for i, entry in enumerate(entries):
        where = f"layers[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} is not an object")
        shape = _manifest_field(entry, "weight_shape", where)
        if not (isinstance(shape, list) and shape
                and all(type(d) is int and d >= 1 for d in shape)):
            raise FormatError(f"{where}.weight_shape = {shape!r} is no list of counts")
        wn = math.prod(shape)
        weights = _blob_array(blob, entry, "weight_offset", where, "<f8", wn).reshape(shape)
        bias = _blob_array(blob, entry, "bias_offset", where, "<f8", shape[0])
        mask = None
        if entry.get("mask_offset") is not None:
            retained = _manifest_field(entry, "retained_per_window", where)
            bits = np.unpackbits(
                _blob_array(blob, entry, "mask_offset", where, np.uint8, -(-wn // 8))
            )[:wn]
            mask = _build(SparsityMask, where, flags=bits.astype(bool).reshape(shape),
                          retained_per_window=retained)
        layers.append(_build(
            LayerDescriptor, where,
            kind=_manifest_field(entry, "kind", where),
            activation=_manifest_field(entry, "activation", where),
            precision=_manifest_field(entry, "precision", where, MacMode),
            weights=weights,
            bias=bias,
            mn_scale=_manifest_field(entry, "mn_scale", where),
            mask=mask,
            stride=entry.get("stride", 1),
            padding=entry.get("padding", "valid"),
        ))
    return _build(
        NetworkDescriptor, "manifest",
        name=_manifest_field(manifest, "name", "manifest"),
        input_shape=_manifest_field(manifest, "input_shape", "manifest"),
        layers=layers,
        seed=manifest.get("seed", 0),
    )
