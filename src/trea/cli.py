"""Command-line front end: dataset generation, reference training, precision
assignment, pruning, fine-tuning, simulation, error sweeps, and the
self-verification gate.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error,
malformed file or rejected parameter. All stochastic behavior is driven by
explicit seeds, so every stage is reproducible byte-for-byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import fxp, metrics, net, sched, sharp
from .errors import TreaError
from .fxp import FXP4, FXP8
from .mac import MacMode, accumulator_width, conventional_accumulator_width

_PRECISIONS = {"fxp4": FXP4, "fxp8": FXP8}


@functools.cache   # built once per process: each parse starts from its defaults
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trea", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("gen-data", help="write a dataset descriptor (data is regenerated from the seed)")
    d.add_argument("--seed", type=int, required=True)
    d.add_argument("--classes", type=int, default=3)
    d.add_argument("--image-size", type=int, default=12)
    d.add_argument("--n-train", type=int, default=240)
    d.add_argument("--n-test", type=int, default=96)
    d.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train the float reference model")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, default=15)
    t.add_argument("--lr", type=float, default=0.08)
    t.add_argument("--seed", type=int, required=True)

    q = sub.add_parser("quantize", help="greedy per-layer 4/8-bit assignment")
    q.add_argument("--model", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--epsilon", type=float, default=0.01)
    q.add_argument("--out", required=True)

    r = sub.add_parser("prune", help="attach SIMD-aligned magnitude masks")
    r.add_argument("--model", required=True)
    r.add_argument("--out", required=True)

    f = sub.add_parser("finetune", help="quantization-aware fine-tuning, mask frozen")
    f.add_argument("--model", required=True)
    f.add_argument("--data", required=True)
    f.add_argument("--epochs", type=int, default=5)
    f.add_argument("--lr", type=float, default=0.05)
    f.add_argument("--seed", type=int, required=True)
    f.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="cycle-accurate run of one input frame")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--sample-index", type=int, default=0)
    s.add_argument("--mac-units", type=int, default=100)
    s.add_argument("--clock-hz", type=float, default=100e6,
                   help="clock that turns cycles into SFIL and ECPI; cycle counts "
                        "do not depend on it")
    s.add_argument("--device-profile", default="vc707")
    s.add_argument("--luts-used", type=int, default=0)
    s.add_argument("--ffs-used", type=int, default=0)
    s.add_argument("--power-watts", type=float, default=0.0)
    s.add_argument("--trace-out")
    s.add_argument("--report-out")

    w = sub.add_parser("sweep", help="product-error table across iteration counts")
    w.add_argument("--precision", choices=sorted(_PRECISIONS), required=True)
    w.add_argument("--iterations", type=int, default=None,
                   help="largest iteration count (default: fractional bits)")
    w.add_argument("--out")

    sub.add_parser("check", help="self-contained verification gate")
    return p


def _load_data(path) -> net.Dataset:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except RecursionError as exc:
            raise TreaError(f"dataset descriptor {path} is nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise TreaError(f"dataset descriptor {path} is not a JSON object")
    try:
        return net.synth_dataset(
            seed=cfg["seed"], n_train=cfg["n_train"], n_test=cfg["n_test"],
            classes=cfg["classes"], image_size=cfg["image_size"],
        )
    except KeyError as exc:
        raise TreaError(f"dataset descriptor missing field {exc}") from exc


def _cmd_gen_data(args) -> int:
    cfg = dict(seed=args.seed, classes=args.classes, image_size=args.image_size,
               n_train=args.n_train, n_test=args.n_test)
    net.check_dataset_args(**cfg)  # validate parameters before writing
    with open(args.out, "w") as fh:
        json.dump(cfg, fh, sort_keys=True)
        fh.write("\n")
    print(f"dataset descriptor written to {args.out}")
    return 0


def _cmd_train(args) -> int:
    data = _load_data(args.data)
    model = net.train_reference("desk", data, epochs=args.epochs, lr=args.lr,
                                seed=args.seed)
    acc = net.evaluate_float(model, data.test_x, data.test_y)
    net.save_model(model, args.out)
    print(f"reference model {args.out}: float test accuracy {acc:.4f}")
    return 0


def _cmd_quantize(args) -> int:
    data = _load_data(args.data)
    model = net.load_model(args.model)

    def evaluate(m):
        return net.evaluate_quant(m, data.test_x, data.test_y)

    assignment = sharp.assign_precision(model, evaluate, args.epsilon)
    model = sharp.apply_assignment(model, assignment)
    net.save_model(model, args.out)
    acc = evaluate(model)
    modes = [m.value for m in assignment.modes]
    print(f"assignment {modes} quant test accuracy {acc:.4f}")
    return 0


def _cmd_prune(args) -> int:
    model = net.load_model(args.model)
    model = sharp.prune_model(model)
    net.save_model(model, args.out)
    kept = [
        f"layer{i}:{l.mask.retained_per_window}/{l.weights.shape[2] * l.weights.shape[3]}"
        for i, l in enumerate(model.layers) if l.mask is not None
    ]
    print("pruned " + (", ".join(kept) if kept else "nothing (no conv layers)"))
    return 0


def _cmd_finetune(args) -> int:
    data = _load_data(args.data)
    model = net.load_model(args.model)
    assignment = sharp.PrecisionAssignment(
        tuple(l.precision for l in model.layers), epsilon=0.0
    )
    masks = [l.mask for l in model.layers]
    model = sharp.fine_tune(model, masks, assignment, data,
                            epochs=args.epochs, lr=args.lr, seed=args.seed)
    acc = net.evaluate_quant(model, data.test_x, data.test_y)
    net.save_model(model, args.out)
    print(f"fine-tuned model {args.out}: quant test accuracy {acc:.4f}")
    return 0


def _cmd_simulate(args) -> int:
    data = _load_data(args.data)
    model = net.load_model(args.model)
    pool_x = data.test_x if len(data.test_x) else data.train_x
    if not 0 <= args.sample_index < len(pool_x):
        raise TreaError(f"sample index {args.sample_index} out of range")
    cfg = sched.ArrayConfig(mac_units=args.mac_units)
    scores, trace = sched.simulate(model, pool_x[args.sample_index], cfg)
    lut_total, ff_total = metrics.load_device_profile(args.device_profile)
    platform = metrics.PlatformNumbers(
        luts_used=args.luts_used, luts_total=lut_total,
        ffs_used=args.ffs_used, ffs_total=ff_total,
        p_avg_watts=args.power_watts, f_clk_hz=args.clock_hz,
    )
    report = metrics.build_report(model.name, f"mac_units={args.mac_units}",
                                  trace.cpfi, platform)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace.to_json() + "\n" if args.trace_out.endswith(".json")
                     else trace.to_text())
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(metrics.emit_report([report], fmt="csv"))
    mac_total = sched.mac_cycles_total(model, cfg)
    print(f"CPFI={trace.cpfi} MAC-cycles={mac_total} "
          f"SFIL={report.sfil_seconds * 1e6:.3f}us "
          f"scores={np.array2string(scores, precision=4)}")
    return 0


def _cmd_sweep(args) -> int:
    fmt = _PRECISIONS[args.precision]
    t_max = args.iterations if args.iterations is not None else fmt.frac_bits
    if t_max < 1:
        print("--iterations must be >= 1", file=sys.stderr)
        return 2
    rows = fxp.error_sweep(fmt, range(1, t_max + 1))
    lines = ["T  max_error      mean_error"]
    lines += [f"{t:<2d} {mx:.10f} {mn:.10f}" for t, mx, mn in rows]
    table = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return 0


def run_verification(multiply=None) -> tuple[bool, list[str]]:
    """Self-contained gate: accumulator-width goldens, kernel-cycle goldens,
    and the exhaustive 4-bit product error bound. The multiply under test is
    injectable so corruption is observable."""
    multiply = multiply or fxp.potq_multiply
    msgs = []
    ok = True

    def expect(name, got, want):
        nonlocal ok
        if got != want:
            ok = False
            msgs.append(f"FAIL {name}: got {got}, want {want}")
        else:
            msgs.append(f"ok   {name} = {want}")

    expect("accumulator_width(8,4)", accumulator_width(8, 4), 10)
    expect("accumulator_width(4,4)", accumulator_width(4, 4), 6)
    expect("conventional_accumulator_width(8,9)", conventional_accumulator_width(8, 9), 20)
    expect("conventional_accumulator_width(4,9)", conventional_accumulator_width(4, 9), 12)
    for (k, mode), want in {
        (9, MacMode.FXP8): 9, (25, MacMode.FXP8): 25,
        (9, MacMode.FXP4_SIMD): 3, (25, MacMode.FXP4_SIMD): 7,
        (4, MacMode.FXP8): 4, (12, MacMode.FXP8): 12,
        (4, MacMode.FXP4_SIMD): 1, (12, MacMode.FXP4_SIMD): 3,
    }.items():
        expect(f"kernel_cycles({k}, {mode.value})", sharp.kernel_cycles(k, mode), want)

    t = 3
    violations = []
    for w_raw in range(-7, 8):
        w = fxp.FxPValue(w_raw, FXP4)
        for x_raw in range(-8, 8):
            x = fxp.FxPValue(x_raw, FXP4)
            got = multiply(x, w, t).value
            exact = x.value * w.value
            bound = fxp.error_bound(x, t, FXP4.frac_bits)
            if abs(exact - got) > bound + 1e-12:
                violations.append((x_raw, w_raw, got, exact, bound))
    if violations:
        ok = False
        msgs.append(f"FAIL 4-bit exhaustive bound: {len(violations)} violations, "
                    f"first (x_raw, w_raw, got, exact, bound) = {violations[0]}")
    else:
        msgs.append("ok   4-bit exhaustive product error bound (240 pairs)")
    return ok, msgs


def _cmd_check(_args) -> int:
    ok, msgs = run_verification()
    for m in msgs:
        print(m)
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


_DISPATCH = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "quantize": _cmd_quantize,
    "prune": _cmd_prune,
    "finetune": _cmd_finetune,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (TreaError, OSError, json.JSONDecodeError, UnicodeDecodeError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
