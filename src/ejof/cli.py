"""Command-line interface: problem files in, deterministic reports out.

Subcommands:
  effective  compute the DFS generator by both routes for a problem file
  verify     dual-route equivalence and identity checks, single or batched
  scenario   named pipelines (three-level, cancellation, coherent-cancel,
             universal)
  qec        repetition-code miscalibration robustness
  evolve     full-vs-effective dynamics sweep with convergence fit

Problem files and reports are JSON. Complex numbers serialize as [re, im]
pairs and matrices as row-major nested lists of such pairs. Reports are
deterministic for a given (input, seed, flags): keys are sorted, floats are
rendered as shortest round-trip decimals, and no timestamps or timings are
written to the file (wall-clock time goes to standard output instead).

Exit codes: 0 success, 1 verification failed, 2 invalid input, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .dynamics import SweepConfig, convergence_order, drift_constants, evolve_and_compare
from .effective import (
    Perturbation,
    corner_sensitivity,
    dfs_block,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    effective_to_superop,
    identity_suite,
    random_structured_instance,
    verify_equivalence,
)
from .lindblad import (
    NonSemisimpleZeroError,
    SingularBlockError,
    StructureError,
    assemble_lindbladian,
    structured_lindbladian,
)
from .operators import DfsProjector, as_operator, dagger, frob, four_corners
from .qec import (
    hamiltonian_obstruction_demo,
    pauli_miscalibration,
    repetition_code_recovery,
    robustness_check,
)
from .scenarios import (
    ThreeLevelParams,
    cancellation_check,
    coherent_cancellation_drive,
    pauli_lowering_targets,
    random_orthogonal_family,
    three_level_system,
    universal_dissipation,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

PROBLEM_VERSION = 1
SCENARIO_NAMES = ("three-level", "cancellation", "coherent-cancel", "universal")


class ProblemFormatError(ValueError):
    """Invalid problem file or parameters; the message carries the key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# ---------------------------------------------------------------------------
# JSON <-> numpy plumbing


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(path, f"expected a number, got {type(value).__name__}")
    return _finite(float(value), path)


def _finite(x: float, path: str) -> float:
    # json.loads accepts NaN and Infinity; no computation here survives them.
    if not math.isfinite(x):
        raise ProblemFormatError(path, f"expected a finite number, got {x}")
    return x


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(path, f"expected an integer, got {type(value).__name__}")
    return int(value)


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_finite(float(value), path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))
    raise ProblemFormatError(path, "expected an [re, im] pair or a real number")


def parse_matrix(value, path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ProblemFormatError(path, "expected a nonempty list of matrix rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ProblemFormatError(f"{path}[{i}]", "expected a nonempty matrix row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProblemFormatError(f"{path}[{i}]", f"row length {len(row)} != {width}")
        rows.append([_as_complex(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    mat = np.array(rows, dtype=complex)
    if shape is not None and mat.shape != shape:
        raise ProblemFormatError(path, f"expected shape {shape}, got {mat.shape}")
    return mat


def matrix_json(a: np.ndarray) -> list:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def complex_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def params_digest(command: str, params: dict) -> str:
    text = canonical_json({"command": command, "params": params})
    return hashlib.sha256(text.encode()).hexdigest()


def write_report(report: dict, out: str | None) -> None:
    text = canonical_json(report)
    if out:
        Path(out).write_text(text)
        print(f"report written to {out}")


# ---------------------------------------------------------------------------
# Problem files


def _parse_dfs(value, dim: int) -> DfsProjector:
    if isinstance(value, list) and value and all(
        isinstance(i, int) and not isinstance(i, bool) for i in value
    ):
        indices = value
        if len(set(indices)) != len(indices):
            raise ProblemFormatError("dfs", "duplicate basis indices")
        if any(i < 0 or i >= dim for i in indices):
            raise ProblemFormatError("dfs", f"basis index out of range for dimension {dim}")
        return DfsProjector.from_indices(dim, indices)
    try:
        p = parse_matrix(value, "dfs", shape=(dim, dim))
        return DfsProjector(p=p)
    except ProblemFormatError:
        raise
    except ValueError as err:
        raise ProblemFormatError("dfs", str(err)) from err


class ParsedProblem:
    """A problem file after parsing: either an explicit system or a scenario."""

    def __init__(self, *, digest, scenario=None, dim=None, dfs=None, hamiltonian=None,
                 jumps=None, pert=None, tol=None, seed=None, initial_states=None):
        self.digest = digest
        self.scenario = scenario
        self.dim = dim
        self.dfs = dfs
        self.hamiltonian = hamiltonian
        self.jumps = jumps
        self.pert = pert
        self.tol = tol
        self.seed = seed
        self.initial_states = initial_states


def load_problem(path: str) -> ParsedProblem:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ProblemFormatError(str(path), str(err)) from err
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ProblemFormatError(
            str(path), f"line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(data, dict):
        raise ProblemFormatError(str(path), "top level must be an object")
    known = {
        "version", "hilbert_dim", "dfs", "hamiltonian", "jumps",
        "perturbation", "scenario", "tol", "seed", "initial_states",
    }
    for key in data:
        if key not in known:
            raise ProblemFormatError(key, "unknown key")
    if data.get("version", PROBLEM_VERSION) != PROBLEM_VERSION:
        raise ProblemFormatError("version", f"unsupported version {data['version']!r}")

    tol = _as_number(data["tol"], "tol") if "tol" in data else None
    seed = _as_int(data["seed"], "seed") if "seed" in data else None

    has_system = "jumps" in data
    has_scenario = "scenario" in data
    if has_system == has_scenario:
        raise ProblemFormatError(
            "", "exactly one of an explicit system ('jumps' with 'hilbert_dim' and 'dfs') "
            "or a named 'scenario' must be present"
        )

    if has_scenario:
        scen = data["scenario"]
        if not isinstance(scen, dict) or "name" not in scen:
            raise ProblemFormatError("scenario", "expected an object with a 'name' key")
        name = scen["name"]
        if name not in SCENARIO_NAMES:
            raise ProblemFormatError(
                "scenario.name", f"unknown scenario {name!r}; valid names: {', '.join(SCENARIO_NAMES)}"
            )
        params = {k: v for k, v in scen.items() if k != "name"}
        for bad in ("hilbert_dim", "dfs", "hamiltonian", "perturbation", "initial_states"):
            if bad in data:
                raise ProblemFormatError(bad, "not allowed alongside a named scenario")
        return ParsedProblem(digest=digest, scenario=(name, params), tol=tol, seed=seed)

    if "hilbert_dim" not in data:
        raise ProblemFormatError("hilbert_dim", "required for an explicit system")
    dim = _as_int(data["hilbert_dim"], "hilbert_dim")
    if dim < 2:
        raise ProblemFormatError("hilbert_dim", f"must be at least 2, got {dim}")
    if "dfs" not in data:
        raise ProblemFormatError("dfs", "required for an explicit system")
    dfs = _parse_dfs(data["dfs"], dim)

    if not isinstance(data["jumps"], list) or not data["jumps"]:
        raise ProblemFormatError("jumps", "expected a nonempty list of matrices")
    jumps = tuple(
        parse_matrix(m, f"jumps[{i}]", shape=(dim, dim)) for i, m in enumerate(data["jumps"])
    )

    hamiltonian = (
        parse_matrix(data["hamiltonian"], "hamiltonian", shape=(dim, dim))
        if "hamiltonian" in data else np.zeros((dim, dim), dtype=complex)
    )

    pert = Perturbation.zero(dim, len(jumps))
    if "perturbation" in data:
        block = data["perturbation"]
        if not isinstance(block, dict):
            raise ProblemFormatError("perturbation", "expected an object")
        for key in block:
            if key not in ("v", "f"):
                raise ProblemFormatError(f"perturbation.{key}", "unknown key (use 'v' and 'f')")
        v = (
            parse_matrix(block["v"], "perturbation.v", shape=(dim, dim))
            if "v" in block else np.zeros((dim, dim), dtype=complex)
        )
        fs = []
        if "f" in block:
            if not isinstance(block["f"], list):
                raise ProblemFormatError("perturbation.f", "expected a list of matrices")
            if len(block["f"]) > len(jumps):
                raise ProblemFormatError(
                    "perturbation.f",
                    f"{len(block['f'])} deformations for {len(jumps)} jumps; append zero "
                    "matrices to 'jumps' to open new channels",
                )
            fs = [
                parse_matrix(m, f"perturbation.f[{i}]", shape=(dim, dim))
                for i, m in enumerate(block["f"])
            ]
        while len(fs) < len(jumps):
            fs.append(np.zeros((dim, dim), dtype=complex))
        try:
            pert = Perturbation(v=v, fs=tuple(fs))
        except ValueError as err:
            raise ProblemFormatError("perturbation", str(err)) from err

    initial_states = None
    if "initial_states" in data:
        if not isinstance(data["initial_states"], list) or not data["initial_states"]:
            raise ProblemFormatError("initial_states", "expected a nonempty list of matrices")
        initial_states = tuple(
            parse_matrix(m, f"initial_states[{i}]", shape=(dim, dim))
            for i, m in enumerate(data["initial_states"])
        )

    return ParsedProblem(
        digest=digest, dim=dim, dfs=dfs, hamiltonian=hamiltonian, jumps=jumps,
        pert=pert, tol=tol, seed=seed, initial_states=initial_states,
    )


def default_states(dfs: DfsProjector) -> tuple[np.ndarray, ...]:
    """Deterministic DFS-supported initial states for sweeps.

    The maximally mixed DFS state, the first DFS basis projector, and (when
    the DFS is at least two-dimensional) the balanced superposition of the
    first two DFS basis vectors.
    """
    states = [dfs.p.astype(complex) / dfs.d]
    b0 = dfs.basis[:, 0]
    states.append(np.outer(b0, b0.conj()))
    if dfs.d >= 2:
        plus = (b0 + dfs.basis[:, 1]) / np.sqrt(2.0)
        states.append(np.outer(plus, plus.conj()))
    return tuple(states)


def _route_agreement(general: np.ndarray, closed: np.ndarray, pert: Perturbation) -> float:
    """Route disagreement relative to the second-order problem scale.

    Normalizing by max(norms, pert_norm^2) keeps the number meaningful when
    the effective generator itself vanishes (a cancellation), where a plain
    relative residual would divide round-off by the floor.
    """
    scale = max(frob(general), frob(closed), pert.norm() ** 2, 1e-300)
    return frob(general - closed) / scale


# ---------------------------------------------------------------------------
# Scenario pipelines (shared by problem files and the scenario subcommand)


class ScenarioBundle:
    def __init__(self, *, name, lind, pert, details, verdicts, initial_states):
        self.name = name
        self.lind = lind
        self.pert = pert
        self.details = details
        self.verdicts = verdicts
        self.initial_states = initial_states

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


_PARAM_SPECS = {
    "three-level": {"delta": (float, 1.0), "Gamma": (float, 2.0), "gamma": (float, 0.04)},
    "cancellation": {"dfs_dim": (int, 2), "blocks": (list, None), "pert_scale": (float, 1.0)},
    "coherent-cancel": {
        "dfs_dim": (int, 2), "blocks": (list, None), "pert_scale": (float, 1.0),
        "keep_induced_hamiltonian": (bool, False),
    },
    "universal": {
        "targets": (str, "pauli"), "scale": (float, 0.5),
        "decaying_dim": (int, 3), "n_jumps": (int, 3),
    },
}


def _scenario_params(name: str, params: dict) -> dict:
    spec = _PARAM_SPECS[name]
    for key in params:
        if key not in spec:
            raise ProblemFormatError(
                f"scenario.{key}", f"unknown parameter for {name!r}; valid: {', '.join(sorted(spec))}"
            )
    out = {}
    for key, (kind, default) in spec.items():
        if key not in params or params[key] is None:
            out[key] = default
            continue
        value = params[key]
        path = f"scenario.{key}"
        if kind is float:
            out[key] = _as_number(value, path)
        elif kind is int:
            out[key] = _as_int(value, path)
        elif kind is bool:
            if not isinstance(value, bool):
                raise ProblemFormatError(path, "expected true or false")
            out[key] = value
        elif kind is list:
            if not isinstance(value, list) or not all(
                isinstance(b, int) and not isinstance(b, bool) for b in value
            ):
                raise ProblemFormatError(path, "expected a list of integers")
            out[key] = list(value)
        else:
            out[key] = str(value)
    return out


def _random_dfs_hermitian(dfs: DfsProjector, rng, scale: float = 1.0) -> np.ndarray:
    d = dfs.d
    block = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    block = scale * (block + dagger(block)) / 2
    return dfs.basis @ block @ dagger(dfs.basis)


def _random_decaying_hermitian(dfs: DfsProjector, rng, scale: float = 1.0) -> np.ndarray:
    n = dfs.n_decay
    block = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    block = scale * (block + dagger(block)) / 2
    return dfs.basis_c @ block @ dagger(dfs.basis_c)


def build_scenario(name: str, raw_params: dict, seed: int, tol: float) -> ScenarioBundle:
    params = _scenario_params(name, raw_params)
    if name == "three-level":
        return _scenario_three_level(params, tol)
    if name == "cancellation":
        return _scenario_cancellation(params, seed, tol)
    if name == "coherent-cancel":
        return _scenario_coherent_cancel(params, seed, tol)
    return _scenario_universal(params, seed, tol)


def _scenario_three_level(params: dict, tol: float) -> ScenarioBundle:
    tl = ThreeLevelParams(delta=params["delta"], Gamma=params["Gamma"], gamma=params["gamma"])
    lind, pert = three_level_system(tl)
    eff = effective_lindbladian_closed(lind, pert)
    general = effective_lindbladian_general(lind, pert)
    scaled_residual = _route_agreement(general, effective_to_superop(eff), pert)
    basis = lind.dfs.basis
    f_block = dagger(basis) @ eff.jumps_eff[0] @ basis
    h_block = dagger(basis) @ eff.h_eff @ basis
    f_eff_norm = frob(eff.jumps_eff[0])
    dark = tl.delta == 0.0
    details = {
        "params": {"delta": tl.delta, "Gamma": tl.Gamma, "gamma": tl.gamma},
        "f_eff": matrix_json(f_block),
        "f_eff_entry": complex_json(f_block[0, 1]),
        "f_eff_norm": float(f_eff_norm),
        "h_eff": matrix_json(h_block),
        "equivalence_residual": float(scaled_residual),
        "dark_state_case": dark,
    }
    verdicts = {"routes_agree": bool(scaled_residual <= tol)}
    if dark:
        verdicts["effective_jump_vanishes"] = bool(f_eff_norm <= 1e-12)
    return ScenarioBundle(
        name="three-level", lind=lind, pert=pert, details=details,
        verdicts=verdicts, initial_states=default_states(lind.dfs),
    )


def _scenario_cancellation(params: dict, seed: int, tol: float) -> ScenarioBundle:
    d = params["dfs_dim"]
    blocks = params["blocks"] if params["blocks"] is not None else [d, d]
    jumps, dfs = random_orthogonal_family(d, blocks, seed)
    rng = np.random.default_rng((seed, 1))
    dim = dfs.dim
    fs = []
    for _ in jumps:
        f = params["pert_scale"] * (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )
        fs.append(f - dfs.q @ f @ dfs.p)
    rep = cancellation_check(jumps, fs, dfs, tol=tol)
    lind = structured_lindbladian(np.zeros((dim, dim), dtype=complex), jumps, dfs)
    details = {
        "dfs_dim": d,
        "blocks": list(blocks),
        "surjectivity_residuals": [float(r) for r in rep.surjectivity],
        "orthogonality_residual": float(rep.orthogonality),
        "detectable_corner_norms": [float(r) for r in rep.f_ll_norms],
        "effective_jump_norms": [float(r) for r in rep.f_eff_norms],
        "l_eff_norm": float(rep.l_eff_norm),
        "perturbation_norm": float(rep.pert_norm),
    }
    verdicts = {"conditions_met": rep.conditions_met, "cancelled": rep.cancelled}
    return ScenarioBundle(
        name="cancellation", lind=lind,
        pert=Perturbation(v=np.zeros((dim, dim), dtype=complex), fs=tuple(fs)),
        details=details, verdicts=verdicts, initial_states=default_states(dfs),
    )


def _scenario_coherent_cancel(params: dict, seed: int, tol: float) -> ScenarioBundle:
    d = params["dfs_dim"]
    blocks = params["blocks"] if params["blocks"] is not None else [d, d]
    jumps, dfs = random_orthogonal_family(d, blocks, seed)
    rng = np.random.default_rng((seed, 2))
    dim = dfs.dim
    h = _random_decaying_hermitian(dfs, rng)
    lind = structured_lindbladian(h, jumps, dfs)
    fs = []
    for _ in jumps:
        f = params["pert_scale"] * (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )
        fs.append(f - dfs.q @ f @ dfs.p)
    pert = coherent_cancellation_drive(
        lind, fs, cancel_induced_hamiltonian=not params["keep_induced_hamiltonian"]
    )
    eff = effective_lindbladian_closed(lind, pert)
    l_eff = effective_lindbladian_general(lind, pert)
    scale = max(pert.norm() ** 2, 1e-300)
    f_eff_norm = float(max((frob(f) for f in eff.jumps_eff), default=0.0))
    jumps_vanish = f_eff_norm <= tol * scale
    details = {
        "dfs_dim": d,
        "blocks": list(blocks),
        "counter_term_applied": not params["keep_induced_hamiltonian"],
        "effective_jump_norms": [float(frob(f)) for f in eff.jumps_eff],
        "h_eff_norm": float(frob(eff.h_eff)),
        "l_eff_norm": float(frob(l_eff)),
        "perturbation_norm": float(pert.norm()),
    }
    verdicts = {"effective_jumps_vanish": bool(jumps_vanish)}
    if not params["keep_induced_hamiltonian"]:
        verdicts["generator_vanishes"] = bool(frob(l_eff) <= tol * scale)
    return ScenarioBundle(
        name="coherent-cancel", lind=lind, pert=pert, details=details,
        verdicts=verdicts, initial_states=default_states(dfs),
    )


def _scenario_universal(params: dict, seed: int, tol: float) -> ScenarioBundle:
    if params["targets"] != "pauli":
        raise ProblemFormatError("scenario.targets", "only 'pauli' targets are available")
    n_jumps = params["n_jumps"]
    if n_jumps < 3:
        raise ProblemFormatError("scenario.n_jumps", "pauli targets need at least 3 jumps")
    lind, _ = random_structured_instance(2, params["decaying_dim"], n_jumps, seed)
    dfs = lind.dfs
    rng = np.random.default_rng((seed, 3))
    target_h = _random_dfs_hermitian(dfs, rng, scale=params["scale"])
    targets = pauli_lowering_targets(params["scale"], dfs.dim)
    pert = universal_dissipation(lind, target_h, targets)
    achieved = dfs_block(effective_lindbladian_general(lind, pert), dfs)
    basis = dfs.basis
    target_block = assemble_lindbladian(
        dagger(basis) @ target_h @ basis,
        [dagger(basis) @ t @ basis for t in targets],
    )
    residual = frob(achieved - target_block) / max(frob(target_block), 1e-300)
    details = {
        "targets": "pauli",
        "scale": params["scale"],
        "n_jumps": n_jumps,
        "decaying_dim": params["decaying_dim"],
        "target_generator_norm": float(frob(target_block)),
        "achieved_generator_norm": float(frob(achieved)),
        "match_residual": float(residual),
    }
    verdicts = {"target_matched": bool(residual <= tol)}
    return ScenarioBundle(
        name="universal", lind=lind, pert=pert, details=details,
        verdicts=verdicts, initial_states=default_states(dfs),
    )


# ---------------------------------------------------------------------------
# Subcommands


def _resolve(cli_value, file_value, default):
    if cli_value is not None:
        return cli_value
    if file_value is not None:
        return file_value
    return default


def _materialize(parsed: ParsedProblem, seed: int, tol: float, *, validate: bool):
    """Turn a parsed problem into (lind, pert, scenario bundle or None)."""
    if parsed.scenario is not None:
        name, raw_params = parsed.scenario
        bundle = build_scenario(name, raw_params, seed, tol)
        return bundle.lind, bundle.pert, bundle
    lind = structured_lindbladian(
        parsed.hamiltonian, parsed.jumps, parsed.dfs, validate=validate
    )
    return lind, parsed.pert, None


def cmd_effective(args) -> int:
    start = time.perf_counter()
    parsed = load_problem(args.problem)
    tol = _resolve(args.tol, parsed.tol, 1e-9)
    seed = _resolve(args.seed, parsed.seed, 0)
    report: dict = {"command": "effective", "input_digest": parsed.digest, "tol": tol}

    bundle = None
    if parsed.scenario is not None:
        lind, pert, bundle = _materialize(parsed, seed, tol, validate=True)
        report["scenario"] = {"name": bundle.name, **bundle.details}
    else:
        lind, pert, _ = _materialize(parsed, seed, tol, validate=False)

    rep = lind.report
    gap = float(rep.spectral_gap)
    report["structure"] = {
        "passed": rep.passed,
        "failures": rep.failures(),
        "zero_multiplicity": int(rep.zero_multiplicity),
        "expected_multiplicity": int(rep.expected_multiplicity),
        "spectral_gap": gap if np.isfinite(gap) else None,
    }
    if not rep.passed and not args.force:
        for line in rep.failures():
            print(f"structure check failed: {line}", file=sys.stderr)
        print("use --force to compute the general route anyway", file=sys.stderr)
        return EXIT_INPUT

    dfs = lind.dfs
    basis = dfs.basis
    general = effective_lindbladian_general(lind, pert)
    report["l_eff_general"] = matrix_json(dfs_block(general, dfs))
    verdicts = {"structure_ok": rep.passed}

    if rep.passed:
        eff = effective_lindbladian_closed(lind, pert)
        closed = effective_to_superop(eff)
        scaled_residual = _route_agreement(general, closed, pert)
        ids = identity_suite(lind, pert)
        report["l_eff_closed"] = matrix_json(dfs_block(closed, dfs))
        report["h_eff"] = matrix_json(dagger(basis) @ eff.h_eff @ basis)
        report["f_eff"] = [matrix_json(dagger(basis) @ f @ basis) for f in eff.jumps_eff]
        report["e_eff_superop"] = matrix_json(dfs_block(eff.cp_superop, dfs))
        report["e_eff_trace_part"] = matrix_json(
            dagger(basis) @ eff.cp_adjoint_identity @ basis
        )
        report["equivalence"] = {
            "residual": float(frob(general - closed) / max(frob(general), 1e-14)),
            "scaled_residual": float(scaled_residual),
            "general_norm": float(frob(general)),
            "closed_norm": float(frob(closed)),
        }
        report["identity_residuals"] = ids.as_dict()
        verdicts["routes_agree"] = bool(scaled_residual <= tol)
        verdicts["identities_hold"] = ids.passed
    else:
        report["l_eff_closed"] = None
        verdicts["routes_agree"] = None

    if bundle is not None:
        verdicts.update(bundle.verdicts)
    report["verdicts"] = verdicts
    write_report(report, args.out)
    failed = [
        k for k, v in verdicts.items()
        if v is False and not (k == "structure_ok" and args.force)
    ]
    for key in sorted(verdicts):
        print(f"{key}: {_verdict_word(verdicts[key])}")
    print(f"done in {time.perf_counter() - start:.3f} s")
    return EXIT_VERIFICATION if failed else EXIT_OK


def _verdict_word(value) -> str:
    if value is None:
        return "skipped"
    return "pass" if value else "FAIL"


def cmd_verify(args) -> int:
    start = time.perf_counter()
    if (args.random is None) == (args.problem is None):
        print("error: provide a problem file or --random D N TRIALS SEED", file=sys.stderr)
        return EXIT_INPUT

    rows = []
    if args.random is not None:
        d, n, trials, seed = args.random
        if d < 1 or n < 1 or trials < 0:
            print("error: --random needs D >= 1, N >= 1, TRIALS >= 0", file=sys.stderr)
            return EXIT_INPUT
        tol = args.tol if args.tol is not None else 1e-9
        digest = params_digest("verify", {"random": [d, n, trials, seed], "tol": tol})
        for i in range(trials):
            defective = n == 2 and i % 10 == 9
            lind, pert = random_structured_instance(
                d, n, 1 + i % 3, seed + i, defective_k=defective
            )
            rows.append(_verify_row(lind, pert, tol, index=i, defective=defective))
    else:
        parsed = load_problem(args.problem)
        tol = _resolve(args.tol, parsed.tol, 1e-9)
        seed = _resolve(args.seed, parsed.seed, 0)
        digest = parsed.digest
        lind, pert, _ = _materialize(parsed, seed, tol, validate=True)
        rows.append(_verify_row(lind, pert, tol, index=0, defective=False))

    all_passed = all(r["passed"] for r in rows)
    report = {
        "command": "verify",
        "input_digest": digest,
        "tol": tol,
        "trials": len(rows),
        "rows": rows,
        "worst": {
            "equivalence_residual": max((r["equivalence_residual"] for r in rows), default=0.0),
            "identity_residual": max((r["identity_residual"] for r in rows), default=0.0),
            "corner_delta": max((r["corner_delta"] for r in rows), default=0.0),
        },
        "all_passed": all_passed,
    }
    write_report(report, args.out)
    print(f"trials: {len(rows)}")
    for key, value in report["worst"].items():
        print(f"worst {key.replace('_', ' ')}: {value:.3e}")
    print(f"all passed: {all_passed}")
    print(f"done in {time.perf_counter() - start:.3f} s")
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def _verify_row(lind, pert, tol: float, *, index: int, defective: bool) -> dict:
    eq = verify_equivalence(lind, pert, tol=tol)
    ids = identity_suite(lind, pert)
    corner = corner_sensitivity(lind, pert)
    return {
        "index": index,
        "defective_k": defective,
        "equivalence_residual": eq.residual,
        "identity_residual": max(ids.as_dict().values()),
        "corner_delta": max(corner.as_dict().values()),
        "passed": bool(eq.passed and ids.passed and corner.passed),
    }


def cmd_scenario(args) -> int:
    start = time.perf_counter()
    if args.name not in SCENARIO_NAMES:
        print(
            f"error: unknown scenario {args.name!r}; valid names: {', '.join(SCENARIO_NAMES)}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    tol = args.tol if args.tol is not None else 1e-9
    seed = args.seed if args.seed is not None else 0
    params = {
        key: getattr(args, attr)
        for key, attr in (
            ("delta", "delta"), ("Gamma", "Gamma"), ("gamma", "gamma"),
            ("dfs_dim", "dfs_dim"), ("blocks", "blocks"), ("pert_scale", "pert_scale"),
            ("keep_induced_hamiltonian", "keep_induced_hamiltonian"),
            ("targets", "targets"), ("scale", "scale"),
            ("decaying_dim", "decaying_dim"), ("n_jumps", "n_jumps"),
        )
        if getattr(args, attr, None) is not None
    }
    bundle = build_scenario(args.name, params, seed, tol)
    digest = params_digest("scenario", {"name": args.name, "params": params,
                                        "seed": seed, "tol": tol})
    report = {
        "command": "scenario",
        "input_digest": digest,
        "name": bundle.name,
        "seed": seed,
        "tol": tol,
        "details": bundle.details,
        "verdicts": bundle.verdicts,
    }
    write_report(report, args.out)
    for key in sorted(bundle.verdicts):
        print(f"{key}: {_verdict_word(bundle.verdicts[key])}")
    print(f"done in {time.perf_counter() - start:.3f} s")
    return EXIT_OK if bundle.passed else EXIT_VERIFICATION


def cmd_qec(args) -> int:
    start = time.perf_counter()
    if args.code != "repetition":
        print(f"error: unknown code {args.code!r}; valid codes: repetition", file=sys.stderr)
        return EXIT_INPUT
    tol = args.tol if args.tol is not None else 1e-10

    if args.obstruction:
        seed = args.seed if args.seed is not None else 7
        table = hamiltonian_obstruction_demo(
            eps=args.eps, hamiltonian_scale=args.hamiltonian_scale, seed=seed
        )
        digest = params_digest("qec", {
            "code": "repetition", "obstruction": True, "eps": args.eps,
            "hamiltonian_scale": args.hamiltonian_scale, "seed": seed, "tol": tol,
        })
        floor = tol * args.eps ** 2
        cells = []
        expected_zero_ok = True
        for c in table.cells:
            zero_expected = not (c.hamiltonian_on and c.detectable_on)
            if zero_expected and c.l_eff_norm > floor:
                expected_zero_ok = False
            cells.append({
                "hamiltonian_on": c.hamiltonian_on,
                "detectable_on": c.detectable_on,
                "drive_applied": c.drive_applied,
                "l_eff_norm": c.l_eff_norm,
                "zero_expected": zero_expected,
            })
        nonzero = table.cell(True, True).l_eff_norm
        verdicts = {
            "zero_cells_vanish": expected_zero_ok,
            "obstruction_cell_nonzero": bool(nonzero > floor),
        }
        report = {
            "command": "qec",
            "input_digest": digest,
            "code": "repetition",
            "obstruction": {"eps": args.eps, "hamiltonian_scale": args.hamiltonian_scale,
                            "cells": cells},
            "tol": tol,
            "verdicts": verdicts,
        }
        write_report(report, args.out)
        for key in sorted(verdicts):
            print(f"{key}: {_verdict_word(verdicts[key])}")
        print(f"done in {time.perf_counter() - start:.3f} s")
        return EXIT_OK if all(verdicts.values()) else EXIT_VERIFICATION

    if args.miscal is None:
        print("error: --miscal X|Y|Z is required (or use --obstruction)", file=sys.stderr)
        return EXIT_INPUT
    rec, _ = repetition_code_recovery()
    pert = pauli_miscalibration(args.miscal, args.eps)
    rep = robustness_check(rec, pert, tol=tol)
    digest = params_digest("qec", {"code": "repetition", "miscal": args.miscal,
                                   "eps": args.eps, "tol": tol})
    report = {
        "command": "qec",
        "input_digest": digest,
        "code": "repetition",
        "miscalibration": args.miscal,
        "eps": args.eps,
        "tol": tol,
        "recovery_conditions": {
            "passed": rep.conditions.passed,
            "failures": rep.conditions.failures(),
        },
        "correctability": {
            "constant": complex_json(rep.correctability.constant),
            "residual": rep.correctability.residual,
            "passed": rep.correctability.passed,
        },
        "classification": [m.as_dict() for m in rep.miscalibrations],
        "h_eff_norm": rep.h_eff_norm,
        "f_eff_norms": list(rep.f_eff_norms),
        "cp_part_norm": rep.cp_part_norm,
        "l_eff_norm": rep.l_eff_norm,
        "l_eff_norm_general": rep.l_eff_norm_general,
        "perturbation_norm": rep.pert_norm,
        "verdicts": {
            "hypotheses_met": rep.hypotheses_met,
            "protected": rep.protected,
        },
    }
    write_report(report, args.out)
    print(f"hypotheses met: {rep.hypotheses_met}")
    print(f"protected: {rep.protected} (l_eff norm {rep.l_eff_norm_general:.3e})")
    if rep.hypotheses_met and not rep.protected:
        verdict = "FAIL"
    elif rep.protected:
        verdict = "robust"
    else:
        verdict = "not robust (hypotheses not met)"
    print(f"verdict: {verdict}")
    print(f"done in {time.perf_counter() - start:.3f} s")
    return EXIT_VERIFICATION if rep.hypotheses_met and not rep.protected else EXIT_OK


def cmd_evolve(args) -> int:
    start = time.perf_counter()
    parsed = load_problem(args.problem)
    tol = _resolve(args.tol, parsed.tol, 1e-9)
    seed = _resolve(args.seed, parsed.seed, 0)
    lind, pert, bundle = _materialize(parsed, seed, tol, validate=True)

    states = parsed.initial_states
    if states is None:
        states = bundle.initial_states if bundle is not None else default_states(lind.dfs)
    config = SweepConfig(
        epsilons=tuple(args.epsilons),
        taus=tuple(args.taus),
        initial_states=states,
        mode=args.mode,
    )
    table = evolve_and_compare(lind, pert, config)
    drift = drift_constants(table)
    report = {
        "command": "evolve",
        "input_digest": parsed.digest,
        "mode": config.mode,
        "epsilons": list(config.epsilons),
        "taus": list(config.taus),
        "n_states": len(config.initial_states),
        "rows": table.rows(),
        "drift_constants": [
            {"epsilon": eps, "constant": c} for eps, c in sorted(drift.items(), reverse=True)
        ],
    }
    if len(config.epsilons) >= 2:
        fit = convergence_order(table)
        report["fit"] = {
            "slope": fit.slope,
            "per_tau": [{"tau": t, "slope": s} for t, s in sorted(fit.per_tau.items())],
            "monotone": fit.monotone,
            "max_distances": [
                {"epsilon": e, "distance": dist}
                for e, dist in sorted(fit.max_distances.items(), reverse=True)
            ],
            "floor": fit.floor,
        }
        print(f"fitted slope: {fit.slope:.4f} (monotone: {fit.monotone})")
    else:
        report["fit"] = None
    write_report(report, args.out)
    if args.plot_data:
        out_dir = Path(args.plot_data)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["epsilon,tau,state_index,trace_distance"]
        lines += [
            f"{c.epsilon!r},{c.tau!r},{c.state_index},{c.distance!r}" for c in table.cells
        ]
        csv_path = out_dir / "sweep.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        print(f"plot data written to {csv_path}")
    worst = max((c.distance for c in table.cells), default=0.0)
    print(f"cells: {len(table.cells)}, worst trace distance: {worst:.3e}")
    print(f"done in {time.perf_counter() - start:.3f} s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {err}") from err


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {err}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ejof",
        description="Effective DFS generators for perturbed Lindblad dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--tol", type=float, default=None, help="verdict tolerance")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized pieces")

    p_eff = sub.add_parser("effective", help="compute the DFS generator by both routes")
    p_eff.add_argument("problem", help="problem file (JSON)")
    p_eff.add_argument("--force", action="store_true",
                       help="compute the general route even if structure checks fail")
    common(p_eff)
    p_eff.set_defaults(func=cmd_effective)

    p_ver = sub.add_parser("verify", help="dual-route equivalence and identity checks")
    p_ver.add_argument("problem", nargs="?", default=None, help="problem file (JSON)")
    p_ver.add_argument("--random", nargs=4, type=int, metavar=("D", "N", "TRIALS", "SEED"),
                       default=None, help="random batch: DFS dim, decaying dim, trials, seed")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sc = sub.add_parser("scenario", help="run a named scenario pipeline")
    p_sc.add_argument("name", help=f"one of: {', '.join(SCENARIO_NAMES)}")
    p_sc.add_argument("--delta", type=float, default=None, help="three-level: DFS level splitting")
    p_sc.add_argument("--Gamma", type=float, default=None, help="three-level: decay rate")
    p_sc.add_argument("--gamma", type=float, default=None, help="three-level: perturbing rate")
    p_sc.add_argument("--dfs-dim", dest="dfs_dim", type=int, default=None,
                      help="cancellation scenarios: DFS dimension")
    p_sc.add_argument("--blocks", type=_int_list, default=None,
                      help="cancellation scenarios: comma-separated decaying block sizes")
    p_sc.add_argument("--pert-scale", dest="pert_scale", type=float, default=None,
                      help="cancellation scenarios: deformation scale")
    p_sc.add_argument("--keep-induced-hamiltonian", dest="keep_induced_hamiltonian",
                      action="store_const", const=True, default=None,
                      help="coherent-cancel: skip the induced-shift counter-term")
    p_sc.add_argument("--targets", default=None, help="universal: target family (pauli)")
    p_sc.add_argument("--scale", type=float, default=None, help="universal: target scale")
    p_sc.add_argument("--decaying-dim", dest="decaying_dim", type=int, default=None,
                      help="universal: decaying dimension")
    p_sc.add_argument("--n-jumps", dest="n_jumps", type=int, default=None,
                      help="universal: number of unperturbed jumps")
    common(p_sc)
    p_sc.set_defaults(func=cmd_scenario)

    p_qec = sub.add_parser("qec", help="continuous-recovery robustness checks")
    p_qec.add_argument("code", help="error-correcting code (repetition)")
    p_qec.add_argument("--miscal", choices=("X", "Y", "Z"), default=None,
                       help="Pauli type of the per-qubit miscalibration")
    p_qec.add_argument("--eps", type=float, default=0.01, help="miscalibration strength")
    p_qec.add_argument("--obstruction", action="store_true",
                       help="emit the Hamiltonian obstruction table instead")
    p_qec.add_argument("--hamiltonian-scale", dest="hamiltonian_scale", type=float,
                       default=0.3, help="decaying-block Hamiltonian scale (obstruction)")
    common(p_qec)
    p_qec.set_defaults(func=cmd_qec)

    p_ev = sub.add_parser("evolve", help="full-vs-effective dynamics sweep")
    p_ev.add_argument("problem", help="problem file (JSON)")
    p_ev.add_argument("--epsilons", type=_float_list, default=[0.04, 0.02, 0.01],
                      help="comma-separated perturbation strengths")
    p_ev.add_argument("--taus", type=_float_list, default=[0.5, 1.0, 2.0, 5.0],
                      help="comma-separated rescaled times")
    p_ev.add_argument("--mode", choices=("first-order", "second-order"),
                      default="second-order", help="rescaled clock for the sweep")
    p_ev.add_argument("--plot-data", dest="plot_data", default=None,
                      help="directory for flat CSV series")
    common(p_ev)
    p_ev.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except StructureError as err:
        print(f"error: invalid structure: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (SingularBlockError, NonSemisimpleZeroError) as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
