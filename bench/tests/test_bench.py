"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from trea import net  # noqa: E402
from trea.errors import AccumulatorOverflow  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, trace, tmp_path):
    return harness.run_workload(name, seed=3, seconds=0, trace=trace,
                                sizes=workloads.TINY_SIZES, out_dir=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_named_metric(name, trace, tmp_path):
    result = _run(name, trace, tmp_path)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: unit for k, (_, unit) in result.metrics.items()}
    assert result.correct and result.failed == 0 and result.attempted >= 1, result.problems
    line = json.loads(json.dumps(result.line()))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (tmp_path / f"{name}-trace{int(trace)}.json").is_file()
    if trace:
        assert result.metrics["failed_frac"][0] == 0
        assert result.meta["self_time_accounting"] == pytest.approx(1.0)
        assert (tmp_path / f"{name}-spans.npz").is_file()
    else:
        assert all(v > 0 for v, _ in result.metrics.values())


def test_exact_figures_match_the_library(tmp_path):
    result = _run("frame-stream", False, tmp_path)
    exact = result.meta["exact"]
    wl = workloads.FrameStream(3, workloads.TINY_SIZES, tmp_path)
    assert exact["cpfi_cycles"] == workloads.sched.cpfi_analytic(wl.model, workloads.ARRAY) == 492
    assert exact["mac_cycles"] == workloads.sched.mac_cycles_total(wl.model, workloads.ARRAY)


def test_self_time_on_a_hand_built_span_tree():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9] > b1 [4.5,6], b2 [7,8]
    names = ["root", "a", "a1", "b", "b1", "b2"]
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 4.5, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 8.0]
    own = spans.self_times(parent, start, end)
    # b1 starts before its parent: only [5, 6] of it counts against b
    assert own.tolist() == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 1.0])
    by_name, pairs, roots = spans.summarize(names, range(6), parent, start, end,
                                            [0.0] * 6, scope="root")
    assert roots == 1
    assert by_name["b"].s == 4.0 and by_name["b"].self_s == 2.0
    assert pairs == {("root", "a"): 1, ("a", "a1"): 1, ("root", "b"): 1,
                     ("b", "b1"): 1, ("b", "b2"): 1}


def test_tracer_records_nested_calls_and_restores_the_module():
    mod = types.ModuleType("pkg.mod")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2

    ticks = iter(range(100))
    tracer = spans.Tracer("t", clock=lambda: float(next(ticks)))
    original = mod.inner
    tracer.wrap(mod, "inner", work=lambda a, k, r: a[0])
    tracer.wrap(mod, "outer")
    with tracer.span("op"):
        assert mod.outer(4) == 10
    tracer.unwrap_all()
    assert mod.inner is original
    assert [tracer.names[i] for i in tracer.name_id] == ["op", "mod.outer", "mod.inner"]
    assert list(tracer.parent) == [-1, 0, 1]
    assert list(tracer.work) == [0.0, 0.0, 4.0]
    by_name, _, _ = spans.summarize(tracer.names, *tracer.arrays(), scope="op")
    assert sum(a.self_s for a in by_name.values()) == by_name["op"].s


def test_flipped_score_lsb_is_caught_and_counted(monkeypatch, tmp_path):
    real = net.forward_quant

    def flipped(model, x, *args, **kwargs):
        scores = real(model, x, *args, **kwargs)
        if np.ndim(x) == 3:   # corrupt the batch-1 path only
            raw = np.rint(scores / net.BOUNDARY_FMT.lsb).astype(np.int64)
            raw[0] ^= 1
            scores = raw * net.BOUNDARY_FMT.lsb
        return scores

    monkeypatch.setattr(net, "forward_quant", flipped)
    result = _run("frame-stream", False, tmp_path)
    assert not result.correct
    assert result.failed == result.attempted >= 1
    assert any("differ from the batched" in p for p in result.problems)


def test_library_error_is_a_failed_operation_not_a_crash(monkeypatch, tmp_path):
    real, calls = net.forward_quant, []

    def overflowing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:    # the first call is the set-up's warm-up frame
            raise AccumulatorOverflow("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(net, "forward_quant", overflowing)
    result = _run("frame-stream", False, tmp_path)
    assert not result.correct and result.failed >= 1
    assert any("AccumulatorOverflow" in p for p in result.problems)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "frame-stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
