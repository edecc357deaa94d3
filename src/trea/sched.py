"""Cycle-accurate time-multiplexed execution on a 1D MAC array with one
shared activation unit.

Output neurons are tiled onto the array (one unit per output); tiles run
sequentially with tile completion chaining, and the layer's activations
stream through the shared CORDIC unit once per layer. Scheduling never
touches numerics: simulate() scores are the forward_quant scores.

The schedule is a function of the model's structure alone (input shape,
array size, and each layer's kind, weight shape, stride, padding, precision
and retained count per window), so it is computed once per structure: the
model keeps its last tile plans, validated trace and cycle counts, reused
while that structure compares equal, and every function here reads them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum

from . import net as _net
from .errors import DomainError, integer, real
from .mac import kernel_cycles
from .naf import piso_latency

__all__ = [
    "ArrayConfig",
    "EventKind",
    "TraceEvent",
    "CycleTrace",
    "TileSchedule",
    "plan_layer",
    "plan_network",
    "simulate",
    "cpfi_analytic",
    "mac_cycles_total",
]


@dataclass(frozen=True)
class ArrayConfig:
    mac_units: int = 100
    f_clk: float = 100e6

    def __post_init__(self):
        object.__setattr__(self, "mac_units", integer(self.mac_units, "mac_units", 1))
        object.__setattr__(self, "f_clk", real(self.f_clk, "f_clk"))
        if self.f_clk <= 0:
            raise DomainError("f_clk must be finite and positive")


class EventKind(Enum):
    COMPUTE_DONE = "ComputeDone"
    LAYER_DONE = "LayerDone"
    DNN_DONE = "DnnDone"


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    kind: EventKind
    layer: int
    tile: int


@dataclass(frozen=True)
class CycleTrace:
    events: tuple[TraceEvent, ...]

    @property
    def cpfi(self) -> int:
        return self.dnn_done.cycle

    # Found once per trace, as `fxp.FxPFormat`'s constants: a frozen
    # dataclass without slots lets cached_property fill the instance dict.
    # An exception is not cached, so a malformed trace raises on every read.
    @functools.cached_property
    def dnn_done(self) -> TraceEvent:
        done = [e for e in self.events if e.kind is EventKind.DNN_DONE]
        if len(done) != 1:
            raise DomainError(f"trace has {len(done)} DnnDone events")
        return done[0]

    def validate(self):
        done = self.dnn_done
        if done.cycle != max(e.cycle for e in self.events):
            raise DomainError("DnnDone is not stamped at the maximum cycle")
        layer_done = [e for e in self.events if e.kind is EventKind.LAYER_DONE]
        stamps = [e.cycle for e in sorted(layer_done, key=lambda e: e.layer)]
        if stamps != sorted(stamps):
            raise DomainError("LayerDone stamps decrease in layer order")

    def to_text(self) -> str:
        lines = [f"{e.cycle} {e.kind.value} {e.layer} {e.tile}" for e in self.events]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "cpfi": self.cpfi,
                "events": [
                    {"cycle": e.cycle, "kind": e.kind.value,
                     "layer": e.layer, "tile": e.tile}
                    for e in self.events
                ],
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class TileSchedule:
    layer_index: int
    tile_sizes: tuple[int, ...]       # outputs mapped to the array per tile
    mac_cycles_per_tile: int          # all tile outputs run in parallel
    n_outputs: int


def _per_output_mac_cycles(layer) -> int:
    cycles = kernel_cycles(layer.window_operands(), layer.precision)
    if layer.kind == "conv2d":
        cycles *= layer.weights.shape[1]   # one window pass per input channel
    return cycles


# The most tiles one layer's plan may hold: each is an entry of the plan and
# an event of the trace.
_MAX_TILES = 1 << 24


def plan_layer(layer, cfg: ArrayConfig, n_outputs: int,
               layer_index: int = 0) -> TileSchedule:
    """Partition a layer's outputs into tiles of at most mac_units.

    Each unit computes one output's dot product; bias preload is free, so a
    tile costs the per-output MAC cycles. The output count is an integer >= 1
    that fills at most _MAX_TILES tiles (`DomainError`).
    """
    n_outputs = integer(n_outputs, "output count")
    if n_outputs < 1:
        raise DomainError(f"layer {layer_index} has no outputs")
    full, rest = divmod(n_outputs, cfg.mac_units)
    if full + (rest > 0) > _MAX_TILES:
        raise DomainError(f"layer {layer_index} needs more than {_MAX_TILES} tiles")
    return TileSchedule(
        layer_index=layer_index,
        tile_sizes=(cfg.mac_units,) * full + ((rest,) if rest else ()),
        mac_cycles_per_tile=_per_output_mac_cycles(layer),
        n_outputs=n_outputs,
    )


@dataclass(frozen=True)
class _Timing:
    """A model's schedule: its tile plans, validated trace and MAC cycles."""

    plans: tuple[TileSchedule, ...]
    trace: CycleTrace
    mac_cycles: int


def _structure(model, cfg: ArrayConfig) -> tuple:
    """Everything the tile plans read from the model and the array."""
    return (model.input_shape, cfg.mac_units, tuple(
        (layer.kind, layer.weights.shape, layer.stride, layer.padding, layer.precision,
         None if layer.mask is None else layer.mask.retained_per_window)
        for layer in model.layers))


def _network_timing(model, cfg: ArrayConfig) -> _Timing:
    """The model's schedule, rebuilt only when its structure differs from
    the one it was last built from. Events and cycles are pure arithmetic
    over the tile plans."""
    key = _structure(model, cfg)
    memo = model._schedule
    if memo is not None and memo[0] == key:
        return memo[1]
    plans = tuple(plan_layer(layer, cfg, math.prod(int(d) for d in shape), idx)
                  for idx, (layer, shape) in enumerate(zip(model.layers, model.layer_shapes())))
    events = []
    cycle = 0
    for plan in plans:
        for tile in range(len(plan.tile_sizes)):
            cycle += plan.mac_cycles_per_tile
            events.append(TraceEvent(cycle, EventKind.COMPUTE_DONE,
                                     plan.layer_index, tile))
        cycle += piso_latency(plan.n_outputs)
        events.append(TraceEvent(cycle, EventKind.LAYER_DONE, plan.layer_index,
                                 len(plan.tile_sizes) - 1))
    events.append(TraceEvent(cycle, EventKind.DNN_DONE, len(model.layers) - 1,
                             len(plans[-1].tile_sizes) - 1))
    trace = CycleTrace(tuple(events))
    trace.validate()
    mac = sum(plan.mac_cycles_per_tile * len(plan.tile_sizes) for plan in plans)
    timing = _Timing(plans, trace, mac)
    model._schedule = (key, timing)
    return timing


def plan_network(model, cfg: ArrayConfig) -> list[TileSchedule]:
    return list(_network_timing(model, cfg).plans)


def simulate(model, x, cfg: ArrayConfig):
    """Run one input through the array model: bit-identical scores from the
    quantized forward path plus the completion-event trace."""
    scores = _net.forward_quant(model, x)
    return scores, _network_timing(model, cfg).trace


def cpfi_analytic(model, cfg: ArrayConfig) -> int:
    """Closed-form cycles per frame; equals the simulated trace's stamp."""
    return _network_timing(model, cfg).trace.cpfi


def mac_cycles_total(model, cfg: ArrayConfig) -> int:
    """MAC-phase cycle component only (no activation-unit latency)."""
    return _network_timing(model, cfg).mac_cycles
