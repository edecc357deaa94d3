"""Run one workload: time its set-up, run its operations for the measurement
window, check every result, and turn the numbers into the benchmark's
metrics.

With ``trace=False`` the run reports the end-to-end metrics, measured with
no tracing and at nominal machine speed (see `speed`). With ``trace=True``
the run sets up once with tracing on, alternates traced and untraced
operations, and reports the per-layer metrics. Per-layer times and counts
are per operation of the workload (per frame, chain, evaluate pass or
oracle pass); the ``setup.*`` ones are per set-up.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads
from speed import MARGIN_S, SpeedProbe
from trea import cli, fxp, mac, metrics, naf, net, sched, sharp

# (module, attribute, work count) for every call the traced run records
TRACED = [
    (cli, "run_verification", None),
    (net, "synth_dataset", None),
    (net, "train_reference", None),
    (net, "forward_float", None),
    (net, "forward_quant", lambda a, k, r: 1 if np.ndim(a[1]) == 3 else len(a[1])),
    (net, "evaluate_float", None),
    (net, "evaluate_quant", None),
    (net, "qat_finetune", None),
    (net, "save_model", lambda a, k, r: os.path.getsize(a[1])),
    (net, "load_model", None),
    (sharp, "assign_precision", None),
    (sharp, "apply_assignment", None),
    (sharp, "prune_model", None),
    (sharp, "fine_tune", None),
    (naf, "tanh_raw_vec", lambda a, k, r: np.size(a[0])),
    (naf, "sigmoid_raw_vec", lambda a, k, r: np.size(a[0])),
    (naf, "relu_raw_vec", lambda a, k, r: np.size(a[0])),
    (naf, "apply", None),
    (sched, "simulate", None),
    (sched, "plan_network", None),
    (sched, "cpfi_analytic", None),
    (sched, "mac_cycles_total", None),
    (metrics, "build_report", None),
    (metrics, "emit_report", None),
    (fxp, "potq_multiply", None),
    (fxp, "error_sweep", None),
    (mac, "dot_product", None),
]
CORDIC = ("naf.tanh_raw_vec", "naf.sigmoid_raw_vec", "naf.relu_raw_vec")
LAYERS = 3   # the desk architecture's layer count
EXACT = ("cpfi_cycles", "mac_cycles", "quant_accuracy")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MiB"}

# per-layer metric -> (scope, span name, field); scope "op" is per operation
SPAN_METRICS = {
    "net.forward_quant.self_s": ("op", "net.forward_quant", "self_s"),
    "net.forward_quant.calls": ("op", "net.forward_quant", "calls"),
    "net.forward_quant.frames": ("op", "net.forward_quant", "work"),
    "net.qat_finetune.self_s": ("op", "net.qat_finetune", "self_s"),
    "sharp.fine_tune.self_s": ("op", "sharp.fine_tune", "self_s"),
    "sharp.assign_precision.self_s": ("op", "sharp.assign_precision", "self_s"),
    "sharp.prune_model.s": ("op", "sharp.prune_model", "s"),
    "net.train_reference.s": ("op", "net.train_reference", "s"),
    "net.synth_dataset.s": ("op", "net.synth_dataset", "s"),
    "net.forward_float.s": ("op", "net.forward_float", "s"),
    "setup.net.train_reference.s": ("setup", "net.train_reference", "s"),
    "setup.net.synth_dataset.s": ("setup", "net.synth_dataset", "s"),
    "net.save_model.s": ("op", "net.save_model", "s"),
    "net.load_model.s": ("op", "net.load_model", "s"),
    "net.model_bytes": ("op", "net.save_model", "work"),
    "sched.simulate.self_s": ("op", "sched.simulate", "self_s"),
    "sched.plan_network.s": ("op", "sched.plan_network", "s"),
    "fxp.potq_multiply.s": ("op", "fxp.potq_multiply", "s"),
    "fxp.potq_multiply.calls": ("op", "fxp.potq_multiply", "calls"),
    "fxp.error_sweep.s": ("op", "fxp.error_sweep", "s"),
    "mac.dot_product.s": ("op", "mac.dot_product", "s"),
    "mac.dot_product.calls": ("op", "mac.dot_product", "calls"),
    "naf.apply.s": ("op", "naf.apply", "s"),
    **{f"cli.{stage}.s": ("op", f"cli.{stage}", "s") for stage in workloads.STAGES},
}


PER_LAYER_UNITS = {
    **{name: "s" if field_ in ("s", "self_s") else "count"
       for name, (_, _, field_) in SPAN_METRICS.items()},
    "net.model_bytes": "bytes",
    "sharp.assign_precision.evaluations": "count",
    "naf.cordic.s": "s",
    "naf.cordic.elements": "count",
    "metrics.report.s": "s",
    **{f"sched.layer{i}.{what}": unit for i in range(LAYERS) for what, unit in (
        ("mac_cycles", "cycles"), ("piso_cycles", "cycles"), ("tiles", "count"),
        ("array_util", "fraction"))},
    "cpfi_cycles": "cycles",
    "mac_cycles": "cycles",
    "quant_accuracy": "fraction",
    "failed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


@dataclass
class Window:
    """Operations of one measurement window: for each, its outcome, its raw
    latency, whether it ran traced and, after `settle`, its latency at
    nominal machine speed. Modelled figures that cannot be read after the
    window count as one more failed outcome."""

    marks: list[tuple] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def settle(self, probe: SpeedProbe):
        self.latencies = [probe.interval(b, e)[1] for b, e in self.marks]

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def good(self, values, traced=None) -> list[float]:
        """``values`` (one per operation) of the operations that passed their
        checks, or of all of them when none did; with ``traced`` given, of
        the traced or the untraced operations only."""
        rows = [(v, ok) for v, ok, t in zip(values, self.ok, self.traced)
                if traced is None or t == traced]
        return [v for v, ok in rows if ok] or [v for v, _ in rows]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    meta: dict
    problems: list[str]

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def _guarded(problems, what, fn, *args):
    """Call fn; an exception (a library error such as AccumulatorOverflow, or
    a failed trace validation) becomes a recorded problem instead of ending
    the run."""
    try:
        return fn(*args), True
    except Exception as exc:  # noqa: BLE001 - the run goes on and counts it
        problems.append(f"{what}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return None, False


def _no_span(name):
    return contextlib.nullcontext()


def run_window(wl, seconds: float, min_ops: int = 1, probe: SpeedProbe | None = None,
               tracer: spans.Tracer | None = None) -> Window:
    """Run operations closed-loop, one client, until the next one is expected
    to end after ``seconds``; check each result outside the timed part.

    With a tracer, every second operation runs traced: the library functions
    are wrapped for it, and it is a span ``op`` with the calls below it.
    Traced and untraced operations alternate, so machine-speed drift does
    not bias their comparison."""
    mark = probe.mark if probe else lambda: (time.perf_counter(), 0.0)
    window = Window()
    deadline = time.perf_counter() + seconds
    while (window.attempted < min_ops or
           time.perf_counter() + statistics.median(window.raw or [0.0]) <= deadline):
        traced = tracer is not None and window.attempted % 2 == 1
        span = tracer.span if traced else _no_span
        if traced:
            _install(tracer)
        problems = []
        with span("op"):
            begin = mark()
            out, ok = _guarded(problems, "op", wl.op, span)
            end = mark()
        if traced:
            tracer.unwrap_all()
        if ok:
            found, ok = _guarded(problems, "check", wl.check, out)
            problems += found or []
        window.marks.append((begin, end))
        window.raw.append((end[0] - begin[0]) - (end[1] - begin[1]))
        window.traced.append(traced)
        window.ok.append(ok and not problems)
        window.problems += problems
    return window


def _git_revision(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def latency_summary(lat) -> dict:
    """Median and, with at least 10 samples beyond it, p90; with the sample
    count behind them."""
    ms = [1e3 * v for v in lat]
    out = {"samples": len(ms)}
    if ms:
        out["p50_ms"] = statistics.median(ms)
    if len(ms) >= 100:
        out["p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.README_SIZES,
                 out_dir: Path | None = None) -> Result:
    cls = workloads.WORKLOADS[name]
    out_dir = Path(out_dir) if out_dir else Path.cwd() / ".bench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_revision": _git_revision(Path.cwd()),
        "sizes": sizes.__dict__, "frames_per_op": None,
    }
    run = _traced_run if trace else _plain_run
    values, units, windows = run(cls, seed, seconds, sizes, out_dir, meta)
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    problems = [p for w in windows for p in w.problems]
    if trace:
        values["failed_frac"] = failed / attempted
    result = Result(correct=failed == 0, attempted=attempted, failed=failed,
                    metrics={k: (values[k], units[k]) for k in units}, meta=meta,
                    problems=problems)
    path = out_dir / f"{name}-trace{int(trace)}.json"
    path.write_text(json.dumps({**result.line(), "meta": meta, "problems": problems},
                               indent=1, sort_keys=True) + "\n")
    return result


def _finish(wl, window, meta):
    """Modelled figures of the workload, recorded after its window."""
    exact, _ = _guarded(window.problems, "exact figures", wl.exact)
    if exact is None:
        window.ok.append(False)   # the figures are part of the result
    meta.update(frames_per_op=wl.frames_per_op, exact=exact or {})
    if getattr(wl, "digest", None):
        meta["final_model_digest"] = wl.digest
    return exact or {}


def _plain_run(cls, seed, seconds, sizes, out_dir, meta):
    setups, wl, spent = [], None, 0.0
    with SpeedProbe() as probe:
        while len(setups) < max(1, sizes.setups) or (spent < sizes.setup_min_s and len(setups) < 100):
            if wl is not None:
                wl.close()
            begin = probe.mark()
            wl = cls(seed, sizes, out_dir)
            setups.append((begin, probe.mark()))
            spent += setups[-1][1][0] - begin[0]
        try:
            window = run_window(wl, seconds, wl.min_ops, probe=probe)
            _finish(wl, window, meta)
        finally:
            wl.close()
        time.sleep(MARGIN_S)   # the samples after the last operation
    window.settle(probe)
    setups = [probe.interval(b, e) for b, e in setups]
    lat = window.good(window.latencies)
    meta.update(latency=latency_summary(lat), raw_latency=latency_summary(window.good(window.raw)),
                setups=len(setups), raw_setup_s=statistics.median(r for r, _ in setups),
                speed=probe.summary())
    values = {
        "setup_s": statistics.median(n for _, n in setups),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, END_TO_END_UNITS, [window]


def _install(tracer):
    for module, attr, work in TRACED:
        tracer.wrap(module, attr, work)


def _traced_run(cls, seed, seconds, sizes, out_dir, meta):
    tracer = spans.Tracer(run_id=f"{cls.name}-seed{seed}")
    _install(tracer)
    try:
        with tracer.span("setup"):
            wl = cls(seed, sizes, out_dir)
    finally:
        tracer.unwrap_all()
    try:
        window = run_window(wl, seconds, max(2, wl.min_ops), tracer=tracer)
        exact = _finish(wl, window, meta)
    finally:
        wl.close()
    tracer.write(out_dir / f"{cls.name}-spans.npz")
    cols = tracer.arrays()
    scopes = {s: spans.summarize(tracer.names, *cols, scope=s) for s in ("op", "setup")}
    pairs = scopes["op"][1]
    per = {"op": max(scopes["op"][2], 1), "setup": 1}

    def get(scope, name, field_):
        agg = scopes[scope][0].get(name)
        return getattr(agg, field_) / per[scope] if agg else 0.0

    values = {k: get(*spec) for k, spec in SPAN_METRICS.items()}
    values["sharp.assign_precision.evaluations"] = (
        pairs.get(("sharp.assign_precision", "net.evaluate_quant"), 0) / per["op"])
    values["naf.cordic.s"] = sum(get("op", n, "s") for n in CORDIC)
    values["naf.cordic.elements"] = sum(get("op", n, "work") for n in CORDIC)
    values["metrics.report.s"] = get("op", "metrics.build_report", "s") + get("op", "metrics.emit_report", "s")
    values.update({k: 0.0 for k in PER_LAYER_UNITS if k.startswith("sched.layer") or k in EXACT})
    values.update({k: v for k, v in exact.items() if k in PER_LAYER_UNITS})
    plain_lat, traced_lat = window.good(window.raw, traced=False), window.good(window.raw, traced=True)
    values["trace.overhead_frac"] = statistics.median(traced_lat) / statistics.median(plain_lat) - 1.0
    root = scopes["op"][0].get("op", spans.Agg())
    values["trace.unattributed_frac"] = root.self_s / root.s if root.s else 0.0
    meta.update(untraced_latency=latency_summary(plain_lat), traced_latency=latency_summary(traced_lat),
                spans=len(tracer.start),
                self_time_accounting=sum(a.self_s for a in scopes["op"][0].values()) / root.s
                if root.s else None)
    return values, PER_LAYER_UNITS, [window]
