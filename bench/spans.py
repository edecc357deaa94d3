"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program. `Tracer.wrap` replaces a public
module attribute (for example ``trea.naf.tanh_raw_vec``) with a wrapper that
opens a span around every call, and `Tracer.span` marks the benchmark's own
phases (``setup``, ``op`` and the CLI stages). Each span has a
name, a start, an end, its parent span and an optional work count; the run id
is the tracer's. Spans stay in flat arrays until `write` saves them.

Wrapping works because the library looks its functions up through the module
at call time (``net.forward_quant``, ``naf.tanh_raw_vec``); a name imported
with ``from x import f`` elsewhere would not see the wrapper.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Agg:
    """Totals of all spans of one name inside one scope."""

    calls: int = 0
    s: float = 0.0        # busy time: sum of span durations
    self_s: float = 0.0   # busy time minus the time child spans cover
    work: float = 0.0     # sum of the spans' work counts


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._patched = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int):
        self.end[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._intern(name))
        try:
            yield i
        finally:
            self._close(i)

    def wrap(self, module, attr: str, work=None):
        """Record a span named ``<module>.<attr>`` around every call of
        ``module.attr``. ``work(args, kwargs, result)`` gives the call's
        work count (frames, elements, bytes)."""
        fn = getattr(module, attr)
        nid = self._intern(f"{module.__name__.rpartition('.')[2]}.{attr}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if work is not None:
                self.work[i] = work(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap_all(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def arrays(self):
        """Copies of the span columns: name_id, parent, start, end, work."""
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64),
                np.array(self.work, dtype=np.float64))

    def write(self, path):
        """Save every span as columns of an .npz file: ``names`` is the name
        table, ``name_id``/``parent``/``start``/``end``/``work`` hold one row
        per span (parent -1 for a root), ``run_id`` identifies the run."""
        name_id, parent, start, end, work = self.arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name_id=name_id, parent=parent, start=start, end=end, work=work)


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval. Siblings recorded by one
    thread never overlap, so the covered part is the sum of the clipped child
    durations."""
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    covered = np.zeros(len(start))
    child = np.nonzero(parent >= 0)[0]
    if len(child):
        p = parent[child]
        lo = np.maximum(start[child], start[p])
        hi = np.minimum(end[child], end[p])
        covered = np.bincount(p, weights=np.maximum(hi - lo, 0.0), minlength=len(start))
    return (end - start) - covered


def root_of(parent) -> np.ndarray:
    """Index of each span's root span (a root is its own root)."""
    parent = np.asarray(parent)
    up = np.where(parent < 0, np.arange(len(parent)), parent)
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            return up
        up = nxt


def summarize(names, name_id, parent, start, end, work, scope: str):
    """Aggregate the spans below the roots named ``scope``.

    Returns ``(by_name, pairs, roots)``: an `Agg` per span name (the scope
    roots included), call counts per ``(parent name, child name)`` pair, and
    the number of scope roots."""
    name_id = np.asarray(name_id)
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    work = np.asarray(work, dtype=np.float64)
    by_name: dict[str, Agg] = {}
    pairs: dict[tuple[str, str], int] = {}
    if scope not in names:
        return by_name, pairs, 0
    sid = names.index(scope)
    roots = root_of(parent)
    inside = np.nonzero(name_id[roots] == sid)[0]
    own = self_times(parent, start, end)
    dur = end - start
    n = len(names)
    ids = name_id[inside]
    calls = np.bincount(ids, minlength=n)
    tot = np.bincount(ids, weights=dur[inside], minlength=n)
    selfs = np.bincount(ids, weights=own[inside], minlength=n)
    wk = np.bincount(ids, weights=work[inside], minlength=n)
    for k in np.nonzero(calls)[0]:
        by_name[names[k]] = Agg(int(calls[k]), float(tot[k]), float(selfs[k]), float(wk[k]))
    kids = inside[parent[inside] >= 0]
    keys, counts = np.unique(name_id[parent[kids]].astype(np.int64) * n + name_id[kids],
                             return_counts=True)
    for key, c in zip(keys, counts):
        pairs[(names[key // n], names[key % n])] = int(c)
    n_roots = int(np.count_nonzero((parent < 0) & (name_id == sid)))
    return by_name, pairs, n_roots
