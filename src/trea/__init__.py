"""Bit-accurate model of a multiplier-free dual-precision edge accelerator:
PoT shift-and-add MAC arithmetic, SIMD-aligned structured pruning, CORDIC
activation functions, and a cycle-accurate time-multiplexed scheduler."""

from . import fxp, mac, metrics, naf, net, sched, sharp
from .errors import TreaError

__all__ = ["cli", "fxp", "mac", "metrics", "naf", "net", "sched", "sharp", "TreaError"]
__version__ = "0.1.0"
