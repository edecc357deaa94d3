"""Machine-speed probe: report measured intervals at a nominal machine speed.

On a shared host the speed available to one process drifts by up to 2x
within a minute as other tenants' load changes, and its CPU time drifts
with its wall-clock, so raw medians of one run differ from the next by more
than any useful regression bound. The probe runs a fixed reference kernel
(small int64 numpy shifts and adds, then a Python integer loop: the mix of
the quantized forward path) every PERIOD_S seconds from a SIGALRM handler
and records how long it took. An interval is then reported as

    (wall-clock - probe time inside it) * NOMINAL_S / median(kernel time near it)

that is, as the time it would have taken on a machine that runs the kernel
in ``NOMINAL_S``. The raw wall-clock is kept alongside.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.005   # kernel duration that defines nominal speed
PERIOD_S = 0.25     # time between samples
MARGIN_S = 1.0      # samples this close to an interval also count for it

_X = np.arange(256, dtype=np.int64).reshape(2, 128)


def kernel() -> int:
    acc = np.zeros(2, dtype=np.int64)
    for _ in range(2):
        for j in range(128):
            for m in (1, 2, 3):
                acc += _X[:, j] >> m
            if int(acc.max()) > 1 << 40:
                break
    s = 0
    for i in range(40000):
        s += i & 3
    return int(acc[0]) + s


class SpeedProbe:
    """Samples the kernel's duration every PERIOD_S seconds while active (a
    context manager)."""

    def __init__(self):
        self.times: list[float] = []       # start of each sample
        self.durations: list[float] = []   # kernel time of each sample
        self.spent = 0.0                   # total time inside samples

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def interval(self, begin, end) -> tuple[float, float]:
        """(raw seconds, nominal seconds) between two `mark` results. The
        speed is the median kernel time of the samples taken from MARGIN_S
        before the interval to MARGIN_S after it, so call this once the
        later samples exist; with none in range, the nearest sample."""
        (t0, s0), (t1, s1) = begin, end
        raw = (t1 - t0) - (s1 - s0)
        lo = bisect.bisect_left(self.times, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.times, t1 + MARGIN_S)
        near = self.durations[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            near = self.durations[i:i + 1]
        return raw, raw * NOMINAL_S / statistics.median(near)

    def summary(self) -> dict:
        ms = [1e3 * d for d in self.durations]
        return {"samples": len(ms), "kernel_median_ms": statistics.median(ms),
                "kernel_min_ms": min(ms), "kernel_max_ms": max(ms), "nominal_ms": 1e3 * NOMINAL_S}
