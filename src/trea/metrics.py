"""Efficiency metrics computed from traces and user-supplied platform
numbers, plus comparison report rendering.

Resource utilization and average power come from implementation tools
outside this model; they enter as plain inputs and power-derived figures are
labeled as externally sourced in rendered reports.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import DomainError, integer, real

__all__ = [
    "PlatformNumbers",
    "MetricReport",
    "nfpci",
    "sfil",
    "ecpi",
    "build_report",
    "emit_report",
    "DEVICE_PROFILES",
    "load_device_profile",
]

# Editable defaults: total LUT-6 / flip-flop cells per named device.
DEVICE_PROFILES = {
    "vc707": {"lut_total": 303600, "ff_total": 607200},
    "small-eval": {"lut_total": 50000, "ff_total": 100000},
}


@dataclass(frozen=True)
class PlatformNumbers:
    luts_used: int
    luts_total: int
    ffs_used: int
    ffs_total: int
    p_avg_watts: float
    f_clk_hz: float

    def __post_init__(self):
        for name, rule in (("luts_used", integer), ("luts_total", integer), ("ffs_used", integer),
                           ("ffs_total", integer), ("p_avg_watts", real), ("f_clk_hz", real)):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if not 0 <= self.luts_used <= self.luts_total:
            raise DomainError("LUT usage outside [0, total]")
        if not 0 <= self.ffs_used <= self.ffs_total:
            raise DomainError("FF usage outside [0, total]")
        if self.p_avg_watts < 0:
            raise DomainError("average power must be finite and nonnegative")
        if self.f_clk_hz <= 0:
            raise DomainError("clock frequency must be finite and positive")


def nfpci(p: PlatformNumbers) -> float:
    """Fabric placement complexity: LUT and FF utilization product x 1000."""
    if p.luts_total <= 0 or p.ffs_total <= 0:
        raise DomainError("device totals must be positive")
    return (p.luts_used / p.luts_total) * (p.ffs_used / p.ffs_total) * 1000.0


def sfil(cpfi: int, f_clk_hz: float) -> float:
    """Single-frame latency in seconds: cycles over clock."""
    f_clk_hz = real(f_clk_hz, "clock frequency")
    if f_clk_hz <= 0:
        raise DomainError("clock frequency must be finite and positive")
    return real(integer(cpfi, "cpfi", 0), "cpfi") / f_clk_hz


def ecpi(p_avg_watts: float, sfil_seconds: float) -> float:
    """Energy per frame in joules (rendered as microjoules in reports)."""
    p_avg_watts, sfil_seconds = real(p_avg_watts, "average power"), real(sfil_seconds, "latency")
    if p_avg_watts < 0 or sfil_seconds < 0:
        raise DomainError("power and latency must be finite and nonnegative")
    return p_avg_watts * sfil_seconds


@dataclass(frozen=True)
class MetricReport:
    workload: str
    config: str
    nfpci: float
    cpfi: int
    sfil_seconds: float
    ecpi_joules: float


def build_report(workload: str, config: str, cpfi: int,
                 platform: PlatformNumbers) -> MetricReport:
    latency = sfil(cpfi, platform.f_clk_hz)
    return MetricReport(
        workload=workload,
        config=config,
        nfpci=nfpci(platform),
        cpfi=cpfi,
        sfil_seconds=latency,
        ecpi_joules=ecpi(platform.p_avg_watts, latency),
    )


_COLUMNS = ("workload", "config", "nFPCI", "CPFI", "SFIL_us", "ECPI_uJ", "latency_gain")


def emit_report(reports: list[MetricReport], fmt: str = "text") -> str:
    """Comparison table across configurations; the gain column is the first
    row's SFIL over each row's SFIL. Power-derived columns (ECPI) are
    externally sourced. Deterministic field order. CSV rows are the `csv`
    module's, quoted only where a field holds a comma, a quote or a line
    break (a workload name is any str a model file gives), one "\n" each."""
    if fmt not in ("text", "csv"):
        raise DomainError(f"unknown report format {fmt!r}")
    rows = []
    base = reports[0].sfil_seconds if reports else None
    for r in reports:
        gain = base / r.sfil_seconds if r.sfil_seconds > 0 else float("inf")
        rows.append((
            r.workload, r.config, f"{r.nfpci:.3f}", str(r.cpfi),
            f"{r.sfil_seconds * 1e6:.3f}", f"{r.ecpi_joules * 1e6:.3f}",
            f"{gain:.3f}",
        ))
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        # the column names need no quoting, and the writer costs ~1 us a row
        return ",".join(_COLUMNS) + "\n" + out.getvalue()
    widths = [
        max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
        for i, c in enumerate(_COLUMNS)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(_COLUMNS, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
              for row in rows]
    lines.append("(ECPI uses externally supplied average power)")
    return "\n".join(lines) + "\n"


def load_device_profile(name_or_path: str) -> tuple[int, int]:
    """Resolve a named profile or read a JSON file with lut_total/ff_total."""
    if name_or_path in DEVICE_PROFILES:
        prof = DEVICE_PROFILES[name_or_path]
        return prof["lut_total"], prof["ff_total"]
    with open(name_or_path) as fh:
        try:
            prof = json.load(fh)
        except RecursionError as exc:
            raise DomainError(f"device profile {name_or_path} is nested too deeply") from exc
    if not isinstance(prof, dict):
        raise DomainError(f"device profile {name_or_path} is not a JSON object")
    for key in ("lut_total", "ff_total"):
        if type(prof.get(key)) is not int or prof[key] <= 0:
            raise DomainError(f"device profile field {key} must be a positive "
                              f"integer, got {prof.get(key)!r}")
    return prof["lut_total"], prof["ff_total"]
