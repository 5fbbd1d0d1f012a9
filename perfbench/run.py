"""Run one curvlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chart4_o3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; curvlab is imported from its ``src``.  The
second-to-last line of standard output is a JSON object with the run's
environment and side information (tail percentile, failed ratio, set-up
times); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones and writes every span to ``.bench_traces/``.  Exit status: 0 when a
result was printed, 2 when no run was possible (bad arguments, no curvlab
source under the checkout, a failing set-up trial).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def main(argv=None) -> int:
    for var in THREAD_VARS:          # before numpy is first imported
        os.environ[var] = "1"
    if not (ROOT / "src" / "curvlab" / "__init__.py").is_file():
        print(f"no curvlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        out = harness.run(ROOT, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except (ImportError, harness.SetupError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        trace_dir = ROOT / ".bench_traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(
            {"meta": out["meta"], "spans": out["spans"],
             "trials": [{k: r[k] for k in ("trial", "traced", "seconds",
                                           "passed", "layers")}
                        for r in out["records"]]}))
    print(json.dumps(out["meta"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
