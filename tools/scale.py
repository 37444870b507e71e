"""Scale ladder: build time, general-route time and peak RSS of large draws, on two trees.

    python tools/scale.py PARENT_SRC CHANGE_SRC [--out BENCH.json]

Each tree is a directory that holds the `ejof` package (for example `src`).
For each D in 20, 40 and 64, `random_structured_instance(4, D - 4, 5, 3)` is
drawn three times per tree, each in a fresh interpreter with that tree first
on PYTHONPATH and one BLAS thread, and the child reports:

* `draw_build_s`: the draw, which builds and checks the generator;
* `general_s`: `Study(lind, pert).general`, the general route including the
  first use of the corner factor;
* `peak_rss_mb`: the child's peak resident set (`ru_maxrss`), import included.

The two trees alternate, parent first on even repeats and change first on odd ones,
and every run is written to the JSON file with the per-(tree, D) medians.
The script records measurements and claims nothing; it is not a workload of
the benchmark in `bench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

DRAW = (4, 5, 3)  # d, jumps, seed: random_structured_instance(d, D - d, jumps, seed)
SIZES = (20, 40, 64)
REPEATS = 3
LABELS = ("parent", "change")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
METRICS = ("draw_build_s", "general_s", "peak_rss_mb")
TIMEOUT_S = 900
CHILD = """
import json, resource, sys, time
from ejof.effective import Study, random_structured_instance
d, jumps, seed, dim = map(int, sys.argv[1:])
t0 = time.perf_counter()
lind, pert = random_structured_instance(d, dim - d, jumps, seed)
t1 = time.perf_counter()
Study(lind, pert).general
t2 = time.perf_counter()
print(json.dumps({"draw_build_s": t1 - t0, "general_s": t2 - t1,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_child(src: Path, dim: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, DRAW), str(dim)], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"D={dim} on {src} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, default=None, help="JSON file (default: stdout only)")
    args = parser.parse_args(argv)
    trees = list(zip(LABELS, (args.parent, args.change)))
    runs = []
    for repeat in range(REPEATS):
        for dim in SIZES:
            for label, src in trees if repeat % 2 == 0 else trees[::-1]:
                runs.append({"tree": label, "D": dim, "repeat": repeat, **run_child(src, dim)})
                print(json.dumps(runs[-1]), flush=True)
    medians = [
        {"tree": label, "D": dim, **{
            m: statistics.median(r[m] for r in runs if r["tree"] == label and r["D"] == dim)
            for m in METRICS}}
        for dim in SIZES for label in LABELS
    ]
    for row in medians:
        print(f"D={row['D']:<4} {row['tree']:<8} draw+build {row['draw_build_s']:8.3f} s"
              f"   general {row['general_s']:8.3f} s   peak RSS {row['peak_rss_mb']:7.1f} MB")
    result = {
        "draw": f"random_structured_instance({DRAW[0]}, D - {DRAW[0]}, {DRAW[1]}, {DRAW[2]})",
        "metrics": {"draw_build_s": "s", "general_s": "s", "peak_rss_mb": "MB"},
        "host": host(),
        "medians": medians,
        "runs": runs,
    }
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
