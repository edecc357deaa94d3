"""Structured hardware-aware reductive pruning.

Retention counts are derived from the kernel window size so that every
surviving window fills the four SIMD lanes exactly; masks are magnitude
based, deterministic, and frozen before fine-tuning. Layer precision is
assigned greedily, reverting any layer whose 4-bit accuracy drop exceeds the
budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import net as _net
from .errors import DomainError, KernelTooSmall, ShapeMismatch, integer, real
from .mac import MacMode, kernel_cycles
from .net import SparsityMask

__all__ = [
    "SparsityMask",
    "PrecisionAssignment",
    "retained_count",
    "prune_kernel",
    "prune_conv_weights",
    "prune_model",
    "assign_precision",
    "apply_assignment",
    "fine_tune",
    "kernel_cycles",
]


@dataclass(frozen=True)
class PrecisionAssignment:
    """One MAC mode per layer plus the accuracy budget that produced it."""

    modes: tuple[MacMode, ...]
    epsilon: float

    def __post_init__(self):
        try:
            modes = tuple(self.modes)
        except TypeError:
            raise DomainError(f"modes must be a sequence, got {self.modes!r}") from None
        for mode in modes:
            if not isinstance(mode, MacMode):
                raise DomainError(f"each mode must be a MacMode, got {mode!r}")
        # +-inf is a budget every drop fits or none does; no drop exceeds NaN,
        # so NaN would send every layer to 4 bits
        eps = self.epsilon
        eps = (float(eps) if isinstance(eps, float) and math.isinf(eps)
               else real(eps, "accuracy budget epsilon"))
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "epsilon", eps)


def retained_count(k_h: int, k_w: int) -> int:
    """Weights kept per kernel window: 4 * floor(N/8), always a multiple of
    the SIMD width. Windows below 8 positions would retain nothing."""
    n = integer(k_h, "k_h", 1) * integer(k_w, "k_w", 1)
    if n < 8:
        raise KernelTooSmall(f"{k_h}x{k_w} window has {n} < 8 positions")
    return 4 * (n // 8)


def _float_array(value, name):
    """`value` as a float64 array; what numpy cannot convert (a str, a
    ragged list) raises `DomainError` naming `name`."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be an array of numbers: {exc}") from exc


def _top_flags(windows: np.ndarray, r: int) -> np.ndarray:
    """Flags of the r largest |w| in each row of the 2-D `windows`: one
    stable sort per row, so ties go to the lowest index."""
    order = np.argsort(-np.abs(windows), axis=1, kind="stable")
    flags = np.zeros(windows.shape, dtype=bool)
    np.put_along_axis(flags, order[:, :r], True, axis=1)
    return flags


def prune_kernel(window, r: int) -> SparsityMask:
    """Magnitude mask over one kernel window: flags the r largest |w|,
    breaking ties toward the lowest linear index."""
    w = _float_array(window, "window")
    r = integer(r, "retained count", 0)
    if r > w.size:
        raise DomainError(f"cannot retain {r} of {w.size} weights")
    return SparsityMask(_top_flags(w.reshape(1, -1), r).reshape(w.shape), r)


def prune_conv_weights(weights: np.ndarray) -> SparsityMask:
    """Per-window mask for a (out, in, k_h, k_w) tensor, every window ranked
    at once; other shapes raise `ShapeMismatch`. Windows smaller than the
    retention rule allows (e.g. 1x1) are left dense."""
    w = _float_array(weights, "weights")
    if w.ndim != 4:
        raise ShapeMismatch(f"conv weights must be (out, in, k_h, k_w), got shape {w.shape}")
    k_h, k_w = w.shape[2:]
    if k_h * k_w < 8:
        return SparsityMask(np.ones(w.shape, dtype=bool), k_h * k_w)
    r = retained_count(k_h, k_w)
    return SparsityMask(_top_flags(w.reshape(-1, k_h * k_w), r).reshape(w.shape), r)


def _attach_mask(layer, mask: SparsityMask):
    """Set the layer's mask, zero its pruned weights and refresh its mn_scale."""
    layer.mask = mask
    layer.weights = layer.weights * mask.flags
    layer.refresh_mn_scale()


def prune_model(model):
    """Attach SHARP masks to every conv layer and zero the pruned weights."""
    pruned = model.copy()
    for layer in pruned.layers:
        if layer.kind == "conv2d":
            _attach_mask(layer, prune_conv_weights(layer.weights))
    return pruned


def assign_precision(model, evaluate, epsilon: float) -> PrecisionAssignment:
    """Greedy front-to-back 4-bit assignment.

    Each layer is tried at 4-bit against the running mixed assignment; if the
    absolute accuracy drop exceeds epsilon the layer reverts to 8-bit. Layers
    are visited exactly once, so the result is deterministic for a
    deterministic evaluate function.
    """
    assignment = PrecisionAssignment((MacMode.FXP8,) * len(model.layers), epsilon)
    modes, epsilon = assignment.modes, assignment.epsilon
    acc_running = evaluate(apply_assignment(model, assignment))
    for i in range(len(modes)):
        trial = modes[:i] + (MacMode.FXP4_SIMD,) + modes[i + 1:]
        acc_trial = evaluate(apply_assignment(model, PrecisionAssignment(trial, epsilon)))
        if acc_running - acc_trial > epsilon:
            continue  # revert: keep 8-bit
        modes, acc_running = trial, acc_trial
    return PrecisionAssignment(modes, epsilon)


def apply_assignment(model, assignment: PrecisionAssignment):
    out = model.copy()
    if len(assignment.modes) != len(out.layers):
        raise DomainError(
            f"{len(assignment.modes)} modes for {len(out.layers)} layers"
        )
    for layer, mode in zip(out.layers, assignment.modes):
        layer.precision = mode
        layer.refresh_mn_scale()
    return out


def fine_tune(model, masks, assignment, dataset, epochs: int, lr: float, seed: int = 0):
    """Quantization-aware fine-tuning with straight-through gradients.

    The forward pass is the bit-accurate quantized path at the assigned
    per-layer precision; gradients flow straight through the quantizers and
    update only retained weights, so the mask and the assignment survive
    unchanged. epochs=0 returns the prepared model untouched.
    """
    work = apply_assignment(model, assignment)
    if len(masks) != len(work.layers):
        raise DomainError(f"{len(masks)} masks for {len(work.layers)} layers")
    for layer, mask in zip(work.layers, masks):
        if mask is not None:
            _attach_mask(layer, mask)
    return _net.qat_finetune(work, dataset, epochs=epochs, lr=lr, seed=seed)

