"""Benchmark entry point: one run of one workload, from the root of a
checkout of the repository.

    python3 bench/run.py --workload frame-stream --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's ``src``. The run prints every
metric by name with its unit, then its metadata, and as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). It also writes ``.bench_out/<workload>-trace<k>.json`` and,
when traced, the spans in ``.bench_out/<workload>-spans.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-pipeline", "frame-stream", "batch-eval", "scalar-oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "trea" / "__init__.py").is_file():
        print(f"error: no trea sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one process; BLAS threads capped at the cores this process may use
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(src))
    import trea
    if Path(trea.__file__).resolve().parent != (src / "trea").resolve():
        print(f"error: imported trea from {trea.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    os.chdir(ROOT)
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  out_dir=ROOT / ".bench_out")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    for line in result.problems[:20]:
        print(f"problem: {line}")
    print("meta " + json.dumps(result.meta, sort_keys=True))
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
