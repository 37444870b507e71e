"""Scale ladder: build, route, identity and command times and peak RSS of large draws, on two trees.

    python tools/scale.py PARENT_SRC CHANGE_SRC [--out BENCH.json]

Each tree is a directory that holds the `ejof` package (for example `src`).
Each rung is a draw `random_structured_instance(d, n, jumps, seed)`, D = d + n:
(4, n, 5, 3) for n in 16, 36, 60 and 124, and (4, 252, 16, 3), where a 5-jump
draw fails the gap check. Each rung is drawn three times per tree. Each run is
three fresh interpreters with that tree first on PYTHONPATH, one BLAS thread
and an address space capped at MEMORY_LIMIT_GB. The first reports:

* `draw_build_s`: the draw, which builds and checks the generator;
* `general_s`: `Study(lind, pert).general`, the general route including the
  first use of the corner factor;
* `closed_s`: then `Study.closed_block`, the closed route and its GKSL
  assembly;
* `identities_s`: then `Study.identities`, on the closed route's pieces;
* `peak_rss_mb`: the child's peak resident set (`ru_maxrss`), import included,
  read before the L^D stage;
* `drazin_s`: then `lind.drazin`, the dense (D^2, D^2) L^D, only for
  D <= DRAZIN_MAX_DIM (it holds D^4 complex entries: 268 MB at D = 64,
  4.3 GB at D = 128), and `not_run` above;
* `<stage>_minflt` for each stage above: the minor page faults
  (`ru_minflt`) the stage took, `not_run` where the stage was not run.

The other two write the draw as a problem file and run `ejof effective` and
`ejof verify` on it, reporting `effective_s` and `verify_s` (the command
alone) and `effective_peak_rss_mb` and `verify_peak_rss_mb` (the whole child).

The two trees alternate, parent first on even repeats and change first on odd ones,
and every run is written to the JSON file with the per-(tree, rung) medians. A
child whose allocation fails under the cap records `not_run` with the
MemoryError's text instead of numbers, and the tree's later children on that
rung are not started. The script records measurements and claims nothing; it is
not a workload of the benchmark in `bench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# (d, n, jumps, seed): random_structured_instance(d, n, jumps, seed), D = d + n.
RUNGS = ((4, 16, 5, 3), (4, 36, 5, 3), (4, 60, 5, 3), (4, 124, 5, 3), (4, 252, 16, 3))
REPEATS = 3
LABELS = ("parent", "change")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("draw_build", "general", "closed", "identities", "drazin")
METRICS = (*(f"{stage}_s" for stage in STAGES), *(f"{stage}_minflt" for stage in STAGES),
           "peak_rss_mb", "effective_s", "effective_peak_rss_mb", "verify_s", "verify_peak_rss_mb")
UNITS = {m: "MB" if m.endswith("_mb") else "faults" if m.endswith("_minflt") else "s"
         for m in METRICS}
# Largest D whose dense L^D the route child reads.
DRAZIN_MAX_DIM = 64
TIMEOUT_S = 900
# Address-space cap of each child: a tree that needs more is recorded as not run.
MEMORY_LIMIT_GB = 2
LIMIT = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT_GB << 30}, {MEMORY_LIMIT_GB << 30}))
"""
ROUTE_CHILD = LIMIT + f"""
import json, resource, sys, time
from ejof.effective import Study, random_structured_instance
d, n, jumps, seed = map(int, sys.argv[1:])
out = {{}}

def stage(name, run):
    faults, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    result = run()
    out[name + "_s"] = time.perf_counter() - t0
    out[name + "_minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return result

try:
    lind, pert = stage("draw_build", lambda: random_structured_instance(d, n, jumps, seed))
    study = Study(lind, pert)
    stage("general", lambda: study.general)
    stage("closed", lambda: study.closed_block)
    stage("identities", lambda: study.identities)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if d + n <= {DRAZIN_MAX_DIM}:
        stage("drazin", lambda: lind.drazin)
    else:
        out["drazin_s"] = out["drazin_minflt"] = "not_run"
except MemoryError as err:
    out = {{"not_run": str(err)}}
print(json.dumps(out))
"""
COMMAND_CHILD = LIMIT + """
import contextlib, io, json, resource, sys, time
from ejof import cli
from ejof.effective import random_structured_instance
command, (d, n, jumps, seed) = sys.argv[1], map(int, sys.argv[2:])
lind, pert = random_structured_instance(d, n, jumps, seed)
with open("problem.json", "w") as fh:
    json.dump({"version": 1, "hilbert_dim": d + n, "dfs": list(range(d)),
               "hamiltonian": cli.matrix_json(lind.h), "jumps": [cli.matrix_json(f) for f in lind.jumps],
               "perturbation": {"v": cli.matrix_json(pert.v),
                                "f": [cli.matrix_json(f) for f in pert.fs]}}, fh)
t0 = time.perf_counter()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "problem.json", "--out", "report.json"])
except MemoryError as err:
    print(json.dumps({"not_run": str(err)}))
    sys.exit()
t1 = time.perf_counter()
if code != 0:
    sys.exit(f"ejof {command} exited {code}")
print(json.dumps({f"{command}_s": t1 - t0, f"{command}_peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_child(src: Path, code: str, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **dict.fromkeys(THREAD_VARS, "1"))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, cwd=work,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args} on {src} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_tree(src: Path, rung: tuple) -> dict:
    """One run of every child on one tree on one rung."""
    out = run_child(src, ROUTE_CHILD, *rung)
    for command in ("effective", "verify"):
        if "not_run" not in out:
            out.update(run_child(src, COMMAND_CHILD, command, *rung))
    return out


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
        for rung in RUNGS:
            for label, src in trees if repeat % 2 == 0 else trees[::-1]:
                runs.append({"tree": label, "draw": list(rung), "D": rung[0] + rung[1],
                             "repeat": repeat, **run_tree(src, rung)})
                print(json.dumps(runs[-1]), flush=True)

    def median_row(label, rung):
        head = {"tree": label, "draw": list(rung), "D": rung[0] + rung[1]}
        rows = [r for r in runs if r["tree"] == label and r["draw"] == list(rung)]
        refused = [r["not_run"] for r in rows if "not_run" in r]
        if refused:
            return {**head, "not_run": refused[0]}
        return {**head, **{m: rows[0][m] if rows[0][m] == "not_run"
                           else statistics.median(r[m] for r in rows) for m in METRICS}}

    medians = [median_row(label, rung) for rung in RUNGS for label in LABELS]
    for row in medians:
        head = f"D={row['D']:<4} J={row['draw'][2]:<3} {row['tree']:<8}"
        if "not_run" in row:
            print(f"{head} not run: {row['not_run']}")
            continue
        stages = "   ".join(
            f"{stage} " + ("not run" if row[f"{stage}_s"] == "not_run" else
                           f"{row[f'{stage}_s']:7.3f} s {row[f'{stage}_minflt']:8.0f} faults")
            for stage in STAGES)
        print(f"{head} {stages}   peak RSS {row['peak_rss_mb']:7.1f} MB"
              f"   effective {row['effective_s']:7.3f} s {row['effective_peak_rss_mb']:7.1f} MB"
              f"   verify {row['verify_s']:7.3f} s {row['verify_peak_rss_mb']:7.1f} MB")
    result = {
        "draw": "random_structured_instance(d, n, jumps, seed), listed per rung as [d, n, jumps, seed]",
        "memory_limit_gb": MEMORY_LIMIT_GB,
        "drazin_max_dim": DRAZIN_MAX_DIM,
        "metrics": UNITS,
        "host": host(),
        "medians": medians,
        "runs": runs,
    }
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
