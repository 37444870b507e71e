"""The three benchmark workloads.

Each workload draws its inputs from the workload seed in ``make_input``, outside
the timed region, and hands the program only matrices, problem files or argv.
``run`` is the timed operation and makes program calls only. ``check`` then
compares the outputs against the acceptance tolerances, untimed.

Program functions are always called through their module (``lindblad.x``,
``cli.main``), never through names bound at import, so that the tracer's
rebinding of module attributes sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ejof import cli, effective, lindblad, qec
from ejof.operators import DfsProjector

# Acceptance tolerances, as in tests/test_acceptance.py.
EQUIVALENCE_TOL = 1e-9
IDENTITY_TOL = 1e-11
CORNER_TOL = 1e-10
PROJECTION_TOL = 1e-8
MIN_SLOPE = 0.7
MAX_DRIFT_SPREAD = 1.5
# Long-time factor for the exp(t L) projection oracle, as in the acceptance suite.
LIMIT_FACTOR = 40.0
# Redraw thresholds of random_structured_instance: |kappa| and decay-rate floors.
MIN_KAPPA = 1e-2
MIN_RATE = 5e-2

SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Outcome:
    """Result of checking one op.

    known_defect marks an op that shows a documented program defect and nothing
    else. Such an op is ok: it is counted apart from the failures, so that the
    failure count stays 0 while the defect stays visible in its own figure.
    """

    ok: bool
    known_defect: bool = False
    detail: str = ""


def _outcome(reasons: list[str]) -> Outcome:
    return Outcome(ok=not reasons, detail="; ".join(reasons))


class VerifyPool:
    """Acceptance-pool instances: d=2, n cycling 2..6, 1-3 jumps, every tenth K defective."""

    name = "verify-pool"
    # lcm of the n (5), jump-count (3) and defective-K (10) periods.
    cycle = 30

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, i: int):
        lind, pert = effective.random_structured_instance(
            2, 2 + i % 5, 1 + i % 3, SEED_STRIDE * self.seed + i, defective_k=i % 10 == 0
        )
        return lind.h, lind.jumps, lind.dfs, pert

    def run(self, inp):
        h, jumps, dfs, pert = inp
        lind = lindblad.structured_lindbladian(h, jumps, dfs)
        eq = effective.verify_equivalence(lind, pert)
        ids = effective.identity_suite(lind, pert)
        corner = effective.corner_sensitivity(lind, pert)
        t = LIMIT_FACTOR / lindblad.min_decay_rate(lind.superop)
        projections = (
            lind.asymptotic_projection,
            lindblad.asymptotic_projection_analytic(lind),
            lindblad.asymptotic_projection_limit(lind.superop, t=t),
        )
        return eq, ids, corner, projections

    def check(self, inp, out) -> Outcome:
        eq, ids, corner, (p_drazin, p_analytic, p_limit) = out
        triple = max(np.linalg.norm(p_drazin - p_analytic), np.linalg.norm(p_drazin - p_limit),
                     np.linalg.norm(p_analytic - p_limit))
        worst_id = max(ids.as_dict().values())
        worst_corner = max(corner.as_dict().values())
        reasons = []
        if not eq.residual <= EQUIVALENCE_TOL:
            reasons.append(f"route residual {eq.residual:.3e}")
        if not worst_id <= IDENTITY_TOL:
            reasons.append(f"identity residual {worst_id:.3e}")
        if not worst_corner <= CORNER_TOL:
            reasons.append(f"corner delta {worst_corner:.3e}")
        if not triple <= PROJECTION_TOL:
            reasons.append(f"P_inf triple disagreement {triple:.3e}")
        return _outcome(reasons)


class DenseLadder:
    """Large structured instances drawn as normal-form blocks (d=4, n=16, D=20, D^2=400)."""

    name = "dense-ladder"
    cycle = 1

    def __init__(self, seed: int, d: int = 4, n: int = 16, n_jumps: int = 5):
        # n_jumps * d >= n, so sum F^dag F has full rank on the decaying block.
        self.seed, self.d, self.n, self.n_jumps = seed, d, n, n_jumps
        self.dfs = DfsProjector.from_indices(d + n, range(d))

    def make_input(self, i: int):
        d, n = self.d, self.n
        dim = d + n
        rng = np.random.default_rng((self.seed, i))

        def cnormal(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        while True:
            jumps = []
            for _ in range(self.n_jumps):
                f = np.zeros((dim, dim), dtype=complex)
                f[:d, d:] = cnormal(d, n)
                jumps.append(f)
            a = cnormal(n, n)
            h = np.zeros((dim, dim), dtype=complex)
            h[d:, d:] = (a + a.conj().T) / 2
            # The nonzero spectrum of L is set by the eigenvalues kappa of
            # K_qq: the slowest decay rate is min(-Im kappa). Checking it on
            # the n x n block skips every dense decomposition of L.
            k_qq = h[d:, d:] - 0.5j * sum(f.conj().T @ f for f in jumps)[d:, d:]
            kappa = np.linalg.eigvals(k_qq)
            if np.min(np.abs(kappa)) >= MIN_KAPPA and np.min(-kappa.imag) >= MIN_RATE:
                break
        v = cnormal(dim, dim)
        pert = effective.Perturbation(
            v=(v + v.conj().T) / 2, fs=tuple(cnormal(dim, dim) for _ in jumps)
        )
        return h, jumps, pert

    def run(self, inp):
        h, jumps, pert = inp
        lind = lindblad.structured_lindbladian(h, jumps, self.dfs)
        # Drazin and P_inf as their own stages; both are cached on lind and
        # reused by the general route.
        _ = lind.drazin, lind.asymptotic_projection
        general = effective.effective_lindbladian_general(lind, pert)
        closed = effective.effective_to_superop(effective.effective_lindbladian_closed(lind, pert))
        ids = effective.identity_suite(lind, pert)
        return general, closed, ids

    def check(self, inp, out) -> Outcome:
        general, closed, ids = out
        scale = max(np.linalg.norm(general), effective.RESIDUAL_FLOOR)
        residual = np.linalg.norm(general - closed) / scale
        worst_id = max(ids.as_dict().values())
        reasons = []
        if not residual <= EQUIVALENCE_TOL:
            reasons.append(f"route residual {residual:.3e}")
        if not worst_id <= IDENTITY_TOL:
            reasons.append(f"identity residual {worst_id:.3e}")
        return _outcome(reasons)


@dataclass(frozen=True)
class CliOp:
    argv: list[str]
    out: Path
    expect: Callable[[dict], bool]
    known_defect: str = ""


def _all_verdicts(report: dict) -> bool:
    return all(v is True for v in report["verdicts"].values())


def _drift_spread(report: dict) -> float:
    consts = [row["constant"] for row in report["drift_constants"]]
    return max(consts) / min(consts)


# At the seed, `ejof verify` exits 1 on the X- and Z-miscalibrated repetition-code
# files: L_eff is about 1e-15, and its route residual and corner deltas are
# divided by the 1e-14 floor, so round-off reads about 1e-5. `effective` on the
# same files passes. These ops stay and expect exit 0; a run that shows this
# defect and nothing else is counted as a known defect, not a failure.
VERIFY_FLOOR_DEFECT = "verify divides a round-off residual by the 1e-14 floor"
# Largest floor-divided round-off taken as the defect; a real route
# disagreement on a nonzero generator reads far above it.
FLOOR_DEFECT_CEILING = 1e-3


def _is_verify_floor_defect(rc: int, report: dict) -> bool:
    """True if verify fails only on floor-divided round-off: the known defect."""
    if rc != cli.EXIT_VERIFICATION or report["all_passed"]:
        return False
    return all(row["identity_residual"] <= IDENTITY_TOL
               and row["equivalence_residual"] <= FLOOR_DEFECT_CEILING
               and row["corner_delta"] <= FLOOR_DEFECT_CEILING
               for row in report["rows"])


class PaperCli:
    """In-process `ejof.cli.main(argv)` over a fixed cycle of the paper's systems."""

    name = "paper-cli"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rep_x = self._rep_problem("rep_x.json", "X", 0.01)
        rep_z = self._rep_problem("rep_z.json", "Z", 0.01)
        rep_evolve = self._rep_problem("rep_evolve.json", "Z", 1.0, with_states=True)
        three_level = workdir / "three_level.json"
        three_level.write_text(json.dumps({
            "version": 1,
            "scenario": {"name": "three-level", "delta": 2.0, "Gamma": 2.0, "gamma": 1.0},
        }))
        grid = ["--epsilons", "0.04,0.02,0.01", "--taus", "0.5,1,2,5"]
        s = ["--seed", str(seed)]
        specs = [
            (["scenario", "three-level", "--delta", "1"], _all_verdicts, ""),
            (["scenario", "three-level", "--delta", "0"], _all_verdicts, ""),
            (["scenario", "cancellation", *s], _all_verdicts, ""),
            (["scenario", "coherent-cancel", *s], _all_verdicts, ""),
            (["scenario", "universal", *s], _all_verdicts, ""),
            (["qec", "repetition", "--miscal", "X"], lambda r: r["verdicts"]["protected"], ""),
            (["qec", "repetition", "--miscal", "Y"],
             lambda r: not r["verdicts"]["protected"] and not r["verdicts"]["hypotheses_met"], ""),
            (["qec", "repetition", "--miscal", "Z"], lambda r: r["verdicts"]["protected"], ""),
            (["qec", "repetition", "--obstruction", *s], _all_verdicts, ""),
            (["effective", str(rep_x)], _all_verdicts, ""),
            (["effective", str(rep_z)], _all_verdicts, ""),
            (["verify", str(rep_x)], lambda r: r["all_passed"], VERIFY_FLOOR_DEFECT),
            (["verify", str(rep_z)], lambda r: r["all_passed"], VERIFY_FLOOR_DEFECT),
            (["evolve", str(three_level), *grid],
             lambda r: r["fit"]["monotone"] and r["fit"]["slope"] >= MIN_SLOPE, ""),
            (["evolve", str(rep_evolve), *grid],
             lambda r: _drift_spread(r) <= MAX_DRIFT_SPREAD, ""),
        ]
        self.ops = []
        for k, (argv, expect, defect) in enumerate(specs):
            out = workdir / f"report-{k}.json"
            self.ops.append(CliOp([*argv, "--out", str(out)], out, expect, defect))
        self.cycle = len(self.ops)
        self.first_reports: dict[int, bytes] = {}

    def _rep_problem(self, name: str, kind: str, eps: float, with_states: bool = False) -> Path:
        _, lind = qec.repetition_code_recovery()
        pert = qec.pauli_miscalibration(kind, eps)
        problem = {
            "version": 1,
            "hilbert_dim": 8,
            "dfs": [0, 7],
            "jumps": [cli.matrix_json(f) for f in lind.jumps],
            "perturbation": {
                "v": cli.matrix_json(pert.v),
                "f": [cli.matrix_json(f) for f in pert.fs],
            },
        }
        if with_states:
            zero = np.zeros((8, 8))
            zero[0, 0] = 1.0
            plus = np.zeros((8, 8))
            plus[0, 0] = plus[0, 7] = plus[7, 0] = plus[7, 7] = 0.5
            problem["initial_states"] = [cli.matrix_json(zero), cli.matrix_json(plus)]
        path = self.workdir / name
        path.write_text(json.dumps(problem))
        return path

    def make_input(self, i: int) -> int:
        k = i % self.cycle
        self.ops[k].out.unlink(missing_ok=True)
        return k

    def run(self, k: int) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(self.ops[k].argv)

    def check(self, k: int, rc: int) -> Outcome:
        op = self.ops[k]
        if not op.out.is_file():
            return Outcome(False, detail=f"exit {rc}, no report written")
        data = op.out.read_bytes()
        first = self.first_reports.setdefault(k, data)
        report = json.loads(data)
        if data != first:
            return Outcome(False, detail="report differs from the first run of this argv")
        if op.known_defect and _is_verify_floor_defect(rc, report):
            return Outcome(True, known_defect=True, detail=op.known_defect)
        reasons = []
        if rc != cli.EXIT_OK:
            reasons.append(f"exit {rc}")
        if not op.expect(report):
            reasons.append("report verdicts not as expected")
        return _outcome(reasons)


def make_workload(name: str, seed: int, workdir: Path, tiny: bool = False):
    """Build a workload by name. tiny shrinks dense-ladder for the self-test."""
    if name == "verify-pool":
        return VerifyPool(seed)
    if name == "dense-ladder":
        return DenseLadder(seed, d=2, n=4, n_jumps=3) if tiny else DenseLadder(seed)
    if name == "paper-cli":
        return PaperCli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
