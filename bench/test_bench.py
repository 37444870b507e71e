"""Self-test of the benchmark: every workload at a tiny size, the output
contract of run.py, and its refusal to run without the program.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@pytest.fixture(scope="module")
def workdir():
    path = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(workload: str, trace: bool, workdir: Path, seed: int = 5) -> dict:
    return harness.measure(workload, seed, 0.2, trace, src=ROOT / "src", workdir=workdir,
                           units=UNITS, tiny=True, setup_starts=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, workdir):
    result = tiny(workload, trace, workdir)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    assert result["correct"], result["info"]["unexpected_failures"]
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_op_fails_and_only_paper_cli_shows_the_known_defect(workload, workdir):
    result = tiny(workload, False, workdir)
    info = result["info"]
    assert result["failed"] == 0
    assert info["failed_frac"] == 0.0
    if workload == "paper-cli":
        # Two verify ops in every 15-op cycle, while the defect stands.
        assert info["known_defect_ops"] * 15 == result["attempted"] * 2
    else:
        assert info["known_defect_ops"] == 0


def test_known_defect_frac_is_a_traced_metric(workdir):
    metrics = tiny("paper-cli", True, workdir)["metrics"]
    assert metrics["cli.known_defect_frac"]["value"] == pytest.approx(2 / 15)


def test_linalg_counts_repeat_exactly_across_seeds(workdir):
    first, second = (tiny("verify-pool", True, workdir, seed=s)["metrics"] for s in (1, 2))
    counted = [name for name in first if name.startswith("linalg.") or name.endswith(".calls")]
    assert counted
    for name in counted + ["lindblad.decompositions_per_generator"]:
        assert first[name]["value"] == second[name]["value"], name


def test_run_prints_the_contract_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "paper-cli", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == CONTRACT_KEYS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "env {" in proc.stdout


def test_run_refuses_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
