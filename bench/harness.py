"""Closed-loop measurement of one workload, and its report.

One caller sends the next op only when the previous one has returned. Input
generation and output checks sit outside the timed region. Imported by
``run.py`` after it has pinned the BLAS threads and put ``src`` on the path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer
from workloads import Outcome, make_workload

# Fresh interpreter starts per run for setup_s; their median is reported.
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 120
SETUP_SCRIPT = (
    "import sys; sys.path.insert(0, sys.argv[1]); from ejof.cli import main; "
    "sys.exit(main(['scenario', 'three-level']))"
)


@dataclass
class Tally:
    """Ops of one phase: op times, failures and known-defect ops."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    unexpected: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.times += other.times
        self.attempted += other.attempted
        self.failed += other.failed
        self.known_defects += other.known_defects
        self.unexpected += other.unexpected


def run_ops(work, first: int, budget_s: float, *, whole_cycles: bool = False,
            tracer: Tracer | None = None) -> tuple[Tally, int]:
    """Run ops from index ``first`` until ``budget_s`` seconds of op time have passed.

    Runs at least one op, or with whole_cycles at least one cycle, and then
    ends on a cycle boundary, so traced counts per op repeat exactly. Returns
    the tally and the next op index.
    """
    tally = Tally()
    i = first
    busy = 0.0
    while i == first or busy < budget_s or (whole_cycles and (i - first) % work.cycle):
        inp = work.make_input(i)
        with tracer.op() if tracer else nullcontext():
            start = time.perf_counter()
            try:
                out, error = work.run(inp), None
            except Exception:  # an op that raises is a failed op; keep measuring
                out, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        if error is None:
            try:
                outcome = work.check(inp, out)
            except Exception:  # output too malformed to check fails its check
                error = traceback.format_exc(limit=3)
        if error is not None:
            outcome = Outcome(False, detail=error)
        tally.times.append(elapsed)
        tally.attempted += 1
        if outcome.known_defect:
            tally.known_defects += 1
        if not outcome.ok:
            tally.failed += 1
            tally.unexpected.append(f"{work.name} op {i}: {outcome.detail}")
        busy += elapsed
        i += 1
    return tally, i


def measure_setup(src: Path, starts: int) -> tuple[list[float], list[str]]:
    """Wall time of fresh interpreters that import ejof.cli and run scenario three-level."""
    times, errors = [], []
    for _ in range(starts):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(src)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or "routes_agree: pass" not in proc.stdout:
            errors.append(f"setup start exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return times, errors


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolating linearly between order statistics.

    The inclusive method keeps a short run's figure (dense-ladder has about
    20 ops) off its single largest value.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, *, src: Path,
            workdir: Path, units: dict[str, str], tiny: bool = False,
            setup_starts: int = SETUP_STARTS) -> dict:
    """Run one workload and return its result: the contract keys plus an info record.

    units maps each metric name to its unit, as in BENCHMARK.json.
    """
    work = make_workload(workload, seed, workdir, tiny=tiny)
    total = Tally()
    warm, i = run_ops(work, 0, 0.0, whole_cycles=True)
    total.add(warm)
    if not trace:
        setup_times, setup_errors = measure_setup(src, setup_starts)
        total.unexpected += setup_errors
        timed, i = run_ops(work, i, seconds, whole_cycles=True)
        total.add(timed)
        times = timed.times
        # Whole cycles only, so every run times each op kind equally often.
        metrics = {
            "ops_per_s": len(times) / sum(times),
            "op_s_p50": statistics.median(times),
            "op_s_p90": percentile(times, 90),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = dict.fromkeys(metrics, len(times))
        samples["setup_s"] = len(setup_times)
        samples["peak_rss_mb"] = 1
    else:
        # Untraced and traced cycles alternate, so drift in machine speed
        # falls on both sides of trace.overhead_frac alike.
        plain, traced, tracer = Tally(), Tally(), Tracer()
        while min(sum(plain.times), sum(traced.times)) < seconds / 2:
            cycle, i = run_ops(work, i, 0.0, whole_cycles=True)
            plain.add(cycle)
            with tracer.installed():
                cycle, i = run_ops(work, i, 0.0, whole_cycles=True, tracer=tracer)
            traced.add(cycle)
        total.add(plain)
        total.add(traced)
        memory = Tracer(track_memory=True)
        with memory.installed():
            traced_memory, i = run_ops(work, i, 0.0, whole_cycles=True, tracer=memory)
        total.add(traced_memory)
        metrics = tracer.metrics()
        metrics.update(memory.peak_metrics())
        metrics["trace.overhead_frac"] = (
            (sum(traced.times) / len(traced.times)) / (sum(plain.times) / len(plain.times)) - 1.0
        )
        metrics["cli.known_defect_frac"] = traced.known_defects / traced.attempted
        samples = dict.fromkeys(metrics, len(traced.times))
        samples.update(dict.fromkeys(memory.peak_metrics(), len(traced_memory.times)))
        samples["trace.overhead_frac"] = len(plain.times) + len(traced.times)

    return {
        "correct": not total.unexpected,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
        "info": {
            "samples": samples,
            "failed_frac": total.failed / total.attempted,
            "known_defect_frac": total.known_defects / total.attempted,
            "known_defect_ops": total.known_defects,
            "unexpected_failures": total.unexpected[:20],
            "ops": {"warm_up": warm.attempted, "measured": total.attempted - warm.attempted},
        },
    }


def environment(workload: str, seed: int, seconds: float, trace: bool,
                thread_vars: tuple[str, ...]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {var: os.environ.get(var) for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def report_lines(result: dict, env: dict) -> list[str]:
    """Human-readable metric lines, then the contract JSON as the last line."""
    name = env["workload"]
    info = result["info"]
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    for metric, m in result["metrics"].items():
        lines.append(f"{name} {metric} = {m['value']:.6g} {m['unit']} "
                     f"(n={info['samples'][metric]})")
    lines.append(f"{name} failed_frac = {info['failed_frac']:.6g} (n={result['attempted']})")
    lines.append(f"{name} known_defect_frac = {info['known_defect_frac']:.6g} "
                 f"(n={result['attempted']}, ops {info['known_defect_ops']})")
    lines.append(f"{name} ops {json.dumps(info['ops'])}")
    lines += [f"unexpected failure: {line}" for line in info["unexpected_failures"]]
    contract = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    lines.append(json.dumps(contract))
    return lines
