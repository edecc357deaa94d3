"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times, warm-up included), runs one unit operation per
`op` call (the thing ``op_p50_ms`` times), and checks each result in `check`,
which returns a list of problems (empty when the result is correct). `exact`
returns the modelled-hardware figures, which repeat bit for bit.

The library only ever receives the generated inputs; the seed is the
benchmark's argument.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trea import cli, fxp, mac, metrics, naf, net, sched, sharp
from trea.fxp import FXP4, FXP8, FxPValue
from trea.mac import MacMode
from trea.naf import AfSelect

# conv 4-bit SIMD, hidden dense 8-bit, output dense 4-bit: every frame uses
# both DQ-MAC modes
MIXED_MODES = (MacMode.FXP4_SIMD, MacMode.FXP8, MacMode.FXP4_SIMD)
ARRAY = sched.ArrayConfig()
PLATFORM = metrics.PlatformNumbers(
    luts_used=30000, luts_total=metrics.DEVICE_PROFILES["vc707"]["lut_total"],
    ffs_used=20000, ffs_total=metrics.DEVICE_PROFILES["vc707"]["ff_total"],
    p_avg_watts=1.6, f_clk_hz=ARRAY.f_clk,
)
REF_ACC_FLOOR = 0.90     # acceptance-gate floors, checked and never changed
MAX_ACC_DROP = 0.03
NAF_TOL_FXP8 = 2.0 ** -6  # frozen 8-bit activation bound of the acceptance gate
ORACLE_T = 5             # iteration count of the exhaustive 8-bit product sweep
EXACT_AF = {AfSelect.TANH: math.tanh, AfSelect.SIGMOID: lambda v: 1.0 / (1.0 + math.exp(-v))}


@dataclass(frozen=True)
class Sizes:
    n_train: int = 240
    n_test: int = 96
    train_epochs: int = 15
    qat_epochs: int = 5
    epsilon: float = 0.01
    frame_pool: int = 128      # distinct frames the frame stream cycles through
    min_frames: int = 100      # frames per run at least, so 10 lie beyond the p90
    eval_frames: int = 2048    # frames per evaluate call in batch-eval
    dot_products: int = 200    # random dot products per MAC mode per oracle pass
    setups: int = 5            # least set-ups per run; setup_s is their median
    setup_min_s: float = 1.0   # ... and more, up to 100, until they took this long


README_SIZES = Sizes()
TINY_SIZES = Sizes(n_train=120, n_test=48, train_epochs=12, qat_epochs=1,
                   frame_pool=4, min_frames=1, eval_frames=64, dot_products=10, setups=1,
                   setup_min_s=0.0)


def layer_cycles(model) -> dict[str, float]:
    """Per-layer modelled figures from the scheduler's tile plans."""
    out = {}
    for plan in sched.plan_network(model, ARRAY):
        i = plan.layer_index
        out[f"sched.layer{i}.mac_cycles"] = plan.mac_cycles_per_tile * len(plan.tile_sizes)
        out[f"sched.layer{i}.piso_cycles"] = naf.piso_latency(plan.n_outputs)
        out[f"sched.layer{i}.tiles"] = len(plan.tile_sizes)
        out[f"sched.layer{i}.array_util"] = float(np.mean(plan.tile_sizes)) / ARRAY.mac_units
    return out


def model_figures(model) -> dict[str, float]:
    """CPFI, MAC-phase cycles and the per-layer figures of a model."""
    return {
        "cpfi_cycles": sched.cpfi_analytic(model, ARRAY),
        "mac_cycles": sched.mac_cycles_total(model, ARRAY),
        **layer_cycles(model),
    }


def cycle_problems(figures) -> list[str]:
    """Per-layer MAC + activation cycles must add up to the CPFI."""
    total = sum(v for k, v in figures.items()
                if k.endswith(".mac_cycles") or k.endswith(".piso_cycles"))
    if total != figures["cpfi_cycles"]:
        return [f"per-layer cycles sum to {total}, CPFI is {figures['cpfi_cycles']}"]
    return []


def mixed_model(sizes: Sizes):
    """The fixed model of frame-stream and batch-eval: the README reference
    model (data seed 42, training seed 7) with the mixed precision assignment
    and SHARP masks. Its work per frame does not depend on the run's seed."""
    data = net.synth_dataset(seed=42, n_train=sizes.n_train, n_test=0)
    model = net.train_reference("desk", data, epochs=sizes.train_epochs, lr=0.08, seed=7)
    model = sharp.apply_assignment(model, sharp.PrecisionAssignment(MIXED_MODES, 0.0))
    return sharp.prune_model(model)


def frames(seed: int, n: int):
    """n generated test frames and their labels; the seed's own data."""
    data = net.synth_dataset(seed=seed, n_train=0, n_test=n)
    return data.test_x, data.test_y


def _accuracy(scores, labels) -> float:
    return float((np.asarray(scores).argmax(axis=1) == labels).mean())


class Workload:
    name: str
    min_ops = 1          # operations a run makes even when its window is over
    frames_per_op = 0    # model input frames per operation, for the metadata

    def exact(self) -> dict:
        return {}

    def close(self):
        pass


class FrameStream(Workload):
    """Closed loop, one client, batch 1: sched.simulate per frame plus the
    report a `trea simulate` user gets."""

    name = "frame-stream"
    frames_per_op = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.model = mixed_model(sizes)
        self.pool, self.labels = frames(seed, sizes.frame_pool)
        self.min_ops = sizes.min_frames
        self.figures = model_figures(self.model)
        self.cpfi, self.mac = self.figures["cpfi_cycles"], self.figures["mac_cycles"]
        self.next = 0
        self.reference = None
        sched.simulate(self.model, self.pool[0], ARRAY)  # warm-up frame

    def op(self, span):
        i = self.next % len(self.pool)
        self.next += 1
        scores, trace = sched.simulate(self.model, self.pool[i], ARRAY)
        report = metrics.build_report(self.model.name, f"mac_units={ARRAY.mac_units}",
                                      trace.cpfi, PLATFORM)
        text = metrics.emit_report([report], fmt="csv")
        mac_total = sched.mac_cycles_total(self.model, ARRAY)
        return i, scores, trace, report, text, mac_total

    def _reference(self):
        if self.reference is None:
            self.reference = net.forward_quant(self.model, self.pool)
        return self.reference

    def check(self, out) -> list[str]:
        i, scores, trace, report, text, mac_total = out
        problems = []
        if not np.array_equal(scores, self._reference()[i]):
            problems.append(f"frame {i}: batch-1 scores differ from the batched forward_quant row")
        if trace.cpfi != self.cpfi:
            problems.append(f"frame {i}: trace CPFI {trace.cpfi} != cpfi_analytic {self.cpfi}")
        trace.validate()
        if report.cpfi != trace.cpfi or f",{trace.cpfi}," not in text:
            problems.append(f"frame {i}: report CPFI does not match the trace")
        if mac_total != self.mac:
            problems.append(f"frame {i}: MAC cycles {mac_total} != {self.mac}")
        return problems + cycle_problems(self.figures)

    def exact(self):
        return {**self.figures, "quant_accuracy": _accuracy(self._reference(), self.labels)}


class BatchEval(Workload):
    """net.evaluate_quant and net.evaluate_float over a large generated test
    set on the mixed model."""

    name = "batch-eval"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.model = mixed_model(sizes)
        self.x, self.y = frames(seed, sizes.eval_frames)
        self.frames_per_op = len(self.x)
        self.figures = model_figures(self.model)
        self.first = None
        net.evaluate_quant(self.model, self.x[:16], self.y[:16])  # warm-up
        net.evaluate_float(self.model, self.x[:16], self.y[:16])

    def op(self, span):
        return (net.evaluate_quant(self.model, self.x, self.y),
                net.evaluate_float(self.model, self.x, self.y))

    def check(self, out) -> list[str]:
        if self.first is None:
            self.first = out
        if out != self.first:
            return [f"accuracies {out} differ from the first pass {self.first}"]
        return cycle_problems(self.figures)

    def exact(self):
        return {**self.figures, "quant_accuracy": self.first[0]}


STAGES = ("gen-data", "train", "quantize", "prune", "finetune", "simulate")
DESK_DATA_SEED, DESK_TRAIN_SEED = 42, 7   # the README's
_SIM_LINE = re.compile(r"CPFI=(\d+) MAC-cycles=(\d+)")


class DeskPipeline(Workload):
    """The README pipeline in-process through trea.cli.main, with the model
    files written and read in a scratch directory.

    The dataset and training seeds are the README's (42 and 7); the run's
    seed is the fine-tuning seed. The greedy precision assignment, and with
    it the chain's work, follows the data: over dataset seeds 1-10 the chain
    time varied by +-10%, more than the benchmark's bound."""

    name = "desk-pipeline"
    min_ops = 2   # the repeat check compares chains within a run

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="desk-", dir=workdir))
        self.data = net.synth_dataset(seed=DESK_DATA_SEED, n_train=sizes.n_train,
                                      n_test=sizes.n_test)
        self.frames_per_op = sizes.n_test
        self.figures = None
        self.digest = None

    def _argv(self, stage):
        p, s = (lambda f: str(self.dir / f)), self.sizes
        return {
            "gen-data": ["--seed", str(DESK_DATA_SEED), "--n-train", str(s.n_train),
                         "--n-test", str(s.n_test), "--out", p("data.json")],
            "train": ["--data", p("data.json"), "--out", p("ref.tmdl"),
                      "--epochs", str(s.train_epochs), "--seed", str(DESK_TRAIN_SEED)],
            "quantize": ["--model", p("ref.tmdl"), "--data", p("data.json"),
                         "--epsilon", str(s.epsilon), "--out", p("q.tmdl")],
            "prune": ["--model", p("q.tmdl"), "--out", p("p.tmdl")],
            "finetune": ["--model", p("p.tmdl"), "--data", p("data.json"),
                         "--epochs", str(s.qat_epochs), "--seed", str(self.seed),
                         "--out", p("ft.tmdl")],
            "simulate": ["--model", p("ft.tmdl"), "--data", p("data.json"),
                         "--trace-out", p("trace.json"), "--report-out", p("report.csv"),
                         "--power-watts", "1.6", "--luts-used", "30000",
                         "--ffs-used", "20000"],
        }[stage]

    def op(self, span):
        codes, stdout = {}, {}
        for stage in STAGES:
            buf = io.StringIO()
            with span(f"cli.{stage}"), contextlib.redirect_stdout(buf):
                codes[stage] = cli.main([stage, *self._argv(stage)])
            stdout[stage] = buf.getvalue()
        return codes, stdout

    def check(self, out) -> list[str]:
        codes, stdout = out
        failed = [f"{s} exited {c}" for s, c in codes.items() if c != 0]
        if failed:
            return failed
        problems = []
        d = self.data
        ref_acc = net.evaluate_float(net.load_model(self.dir / "ref.tmdl"), d.test_x, d.test_y)
        final = net.load_model(self.dir / "ft.tmdl")
        scores = net.forward_quant(final, d.test_x)
        acc = _accuracy(scores, d.test_y)
        if ref_acc < REF_ACC_FLOOR:
            problems.append(f"reference accuracy {ref_acc:.4f} < {REF_ACC_FLOOR}")
        if ref_acc - acc > MAX_ACC_DROP + 1e-12:
            problems.append(f"accuracy drop {ref_acc - acc:.4f} > {MAX_ACC_DROP}")
        digest = hashlib.sha256((self.dir / "ft.tmdl").read_bytes() + scores.tobytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("final model bytes or scores differ from the run's first chain")
        figures = {**model_figures(final), "quant_accuracy": acc}
        problems += cycle_problems(figures)
        sim = _SIM_LINE.search(stdout["simulate"])
        if not sim or (int(sim[1]), int(sim[2])) != (figures["cpfi_cycles"], figures["mac_cycles"]):
            problems.append(f"simulate printed {sim and sim[0]!r}, library says "
                            f"CPFI={figures['cpfi_cycles']} MAC-cycles={figures['mac_cycles']}")
        trace = json.loads((self.dir / "trace.json").read_text())
        events = tuple(sched.TraceEvent(e["cycle"], sched.EventKind(e["kind"]), e["layer"], e["tile"])
                       for e in trace["events"])
        cycle_trace = sched.CycleTrace(events)
        cycle_trace.validate()
        if trace["cpfi"] != figures["cpfi_cycles"] or cycle_trace.cpfi != trace["cpfi"]:
            problems.append(f"trace file CPFI {trace['cpfi']} != cpfi_analytic {figures['cpfi_cycles']}")
        self.figures = figures
        return problems

    def exact(self):
        return self.figures

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class ScalarOracle(Workload):
    """One pass of the scalar APIs that serve as the test oracles: the
    exhaustive 8-bit product sweep against its error bound, error_sweep at
    both precisions, seeded random dot products in both MAC modes, naf.apply
    over every 8-bit input for all three selects, and the CLI's
    verification gate."""

    name = "scalar-oracle"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.xs8 = [FxPValue(r, FXP8) for r in range(FXP8.raw_min, FXP8.raw_max + 1)]
        self.ws8 = [FxPValue(r, FXP8) for r in range(-FXP8.raw_max, FXP8.raw_max + 1)]
        rng = np.random.default_rng(seed)
        self.dots = []
        for mode in MacMode:
            fmt, one = mode.fmt, 1 << mode.fmt.frac_bits
            for _ in range(sizes.dot_products):
                k = int(rng.choice([4, 9, 12, 25]))
                xs = [FxPValue(int(v), fmt) for v in rng.integers(fmt.raw_min, fmt.raw_max + 1, k)]
                ws = [FxPValue(int(v), fmt) for v in rng.integers(1 - one, one, k)]
                bias = FxPValue(int(rng.integers(fmt.raw_min, fmt.raw_max + 1)), fmt)
                self.dots.append((mode, xs, ws, bias))

    def op(self, span):
        bad = dict.fromkeys(("product_bound", "sweep_bound", "dot_oracle", "dot_cycles",
                             "dot_bound", "naf", "verification"), 0)
        f8 = FXP8.frac_bits
        for w in self.ws8:
            for x in self.xs8:
                got = fxp.potq_multiply(x, w, ORACLE_T).value
                if abs(x.value * w.value - got) > fxp.error_bound(x, ORACLE_T, f8) + 1e-12:
                    bad["product_bound"] += 1
        for fmt, t_max in ((FXP8, FXP8.frac_bits), (FXP4, FXP4.frac_bits)):
            rows = fxp.error_sweep(fmt, range(1, t_max + 1))
            maxes = [mx for _, mx, _ in rows]
            bad["sweep_bound"] += sum(mx > 2.0 ** -t + t * fmt.lsb + 1e-12 for t, mx, _ in rows)
            bad["sweep_bound"] += sum(a < b for a, b in zip(maxes, maxes[1:]))
        for mode, xs, ws, bias in self.dots:
            acc, cycles = mac.dot_product(xs, ws, mode, bias)
            want = bias.raw + sum(fxp.potq_multiply(x, w, mode.terms).raw for x, w in zip(xs, ws))
            bad["dot_oracle"] += acc.raw != want
            bad["dot_cycles"] += cycles != -(-len(xs) // mode.lanes)
            exact = bias.value + sum(x.value * w.value for x, w in zip(xs, ws))
            bound = sum(fxp.error_bound(x, mode.terms, mode.fmt.frac_bits) for x in xs)
            bad["dot_bound"] += abs(exact - acc.raw * mode.fmt.lsb) > bound + 1e-12
        for sel in AfSelect:
            outs = [naf.apply(sel, x).raw for x in self.xs8]
            if sel is AfSelect.RELU:
                bad["naf"] += sum(o != max(0, x.raw) for o, x in zip(outs, self.xs8))
                continue
            bad["naf"] += sum(a > b for a, b in zip(outs, outs[1:]))
            fn = EXACT_AF[sel]
            bad["naf"] += sum(abs(o * FXP8.lsb - fn(x.value)) >= NAF_TOL_FXP8
                              for o, x in zip(outs, self.xs8))
        ok, _ = cli.run_verification()
        bad["verification"] += not ok
        return bad

    def check(self, out) -> list[str]:
        return [f"{k}: {v} violations" for k, v in out.items() if v]


WORKLOADS = {w.name: w for w in (DeskPipeline, FrameStream, BatchEval, ScalarOracle)}
