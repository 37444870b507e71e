"""ejof benchmark: closed-loop workloads with end-to-end and per-layer metrics.

One workload, as the benchmark contract runs it (last stdout line is JSON):

    python3 bench/run.py --workload verify-pool --seed 1 --seconds 20 --trace 0

Every workload, one child process each, then a summary table:

    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
program is imported from ``src/`` next to this directory; without it the run
exits 2 and prints no result. See bench/README.md for the metric names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# One BLAS thread: on this benchmark's sizes a second thread does not speed
# up dense-ladder and makes verify-pool ops slower and more variable.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900


def parse_args(argv, workloads: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, default=None,
                        help="one workload (default: all, one child process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args, units: dict[str, str]) -> int:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import harness

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 src=SRC, workdir=workdir, units=units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = harness.environment(args.workload, args.seed, args.seconds, bool(args.trace),
                              THREAD_VARS)
    print("\n".join(harness.report_lines(result, env)), flush=True)
    return 0


def run_all(args, workloads: list[str]) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "failed_frac", result["failed"] / result["attempted"], "frac"))
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:<13} {name:<40} {value:>14.6g} {unit}")
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, workloads)
    if not (SRC / "ejof" / "__init__.py").is_file():
        print(f"error: the ejof sources are missing ({SRC / 'ejof'} not found)", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not args.workload:
        return run_all(args, workloads)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return run_one(args, units)


if __name__ == "__main__":
    sys.exit(main())
