"""Benchmark entry point for the relviews pipeline.

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 10 --trace 0

Run from the repository root. It imports `relviews` from `src/` next to this
directory, caps BLAS at one thread, runs the workload and prints a summary
followed by one JSON line: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` the
run is an untraced round, a traced round and another untraced round, and
the metrics are the per-layer ones of the traced round. The full record,
with the machine, the config, the output checks and, when traced, every
span, is written to `.bench_out/<workload>-seed<seed>-trace<0|1>.json`.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "relviews" / "__init__.py").is_file():
        print(f"error: no relviews sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench.workloads import OUT_DIR, WORKLOADS, run
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    for err in result["errors"]:
        print(f"failed op: {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['context']['why']}")
    print("machine " + json.dumps(result["context"]["machine"]))
    print("samples " + json.dumps(result["samples"]))
    print("checks " + json.dumps(result["checks"]))
    for row in result["explanations"]:
        print("explain " + json.dumps(row))
    for name, m in result["end_to_end"].items():
        print(f"e2e {name} {m['value']:.6g} {m['unit']}")
    for name, m in result["timings"].items():
        print(f"timing {name} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print("overhead " + json.dumps(result["tracing_overhead"]))
        print("step " + json.dumps(result["step_accounting"]))
        print("absent " + json.dumps(result["absent_probes"]))
        print("not_measured " + json.dumps(result["not_measured"]))
        for name, m in result["metrics"].items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
