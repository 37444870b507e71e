"""Command-line interface: problem files in, deterministic reports out.

Subcommands:
  effective  compute the DFS generator by both routes for a problem file
  verify     dual-route equivalence and identity checks, single or batched
  scenario   named pipelines (three-level, cancellation, coherent-cancel,
             universal)
  qec        repetition-code miscalibration robustness
  evolve     full-vs-effective dynamics sweep with convergence fit

One runner (_run) reads every subcommand's input and writes its result: the
problem file is parsed once, and tol and seed resolve as flag, then file,
then the command's entry in DEFAULTS.

Problem files and reports are JSON. Complex numbers serialize as [re, im]
pairs and matrices as row-major nested lists of such pairs. Reports are
deterministic for a given (input, seed, flags): keys are sorted, floats are
rendered as shortest round-trip decimals, and no timestamps or timings are
written to the file (wall-clock time goes to standard output instead).

Exit codes: 0 success, 1 verification failed, 2 invalid input, 3 numerical
failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (
    SweepConfig,
    convergence_order,
    drift_constants,
    evolve_and_compare,
)
from .effective import Perturbation, Study, random_structured_instance
from .lindblad import StructureError, structured_lindbladian
from .operators import DfsProjector, dagger, projector_frame
from .qec import (
    OBSTRUCTION_HAMILTONIAN_SCALE,
    OBSTRUCTION_SEED,
    hamiltonian_obstruction_demo,
    pauli_miscalibration,
    repetition_code_recovery,
    robustness_check,
)
from .scenarios import PARAM_SPECS, ScenarioBundle, build_scenario

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

PROBLEM_VERSION = 1
# Largest input magnitude whose square is a finite float; the numerics square
# every entry (norms, K = H - (i/2) sum F† F), so a larger one overflows.
MAX_MAGNITUDE = math.sqrt(sys.float_info.max)
# `qec --eps` range. L_eff is of order eps^2 and its norm squares its entries,
# so eps^4 must stay a normal float: |eps| within [tiny^(1/4), max^(1/4)]
# (about 1.2e-77 and 1.2e77), narrowed by QEC_EPS_MARGIN at each end for the
# code's own constants in L_eff.
QEC_EPS_MARGIN = 100.0
QEC_EPS_RANGE = (QEC_EPS_MARGIN * sys.float_info.min ** 0.25,
                 sys.float_info.max ** 0.25 / QEC_EPS_MARGIN)


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
    if abs(x) > MAX_MAGNITUDE:
        raise ProblemFormatError(path, f"magnitude {abs(x):.3g} exceeds {MAX_MAGNITUDE:.3g}, "
                                       "whose square overflows")
    return x


def _tolerance(value, path: str) -> float:
    """A verdict tolerance: a positive number (at or below zero every verdict would fail)."""
    tol = _as_number(value, path)
    if tol <= 0:
        raise ProblemFormatError(path, f"must be positive, got {tol!r}")
    return tol


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
    """A matrix given as rows of real numbers or [re, im] pairs (mixed freely).

    A well-formed matrix is read in one array conversion; the entries are
    walked one by one only when a check fails, so that the error names the
    key path of the first bad entry.
    """
    mat = _matrix_array(value)
    if mat is None:
        mat = _parse_matrix_entries(value, path)
    if shape is not None and mat.shape != shape:
        raise ProblemFormatError(path, f"expected shape {shape}, got {mat.shape}")
    return mat


def _matrix_array(value) -> np.ndarray | None:
    """The complex matrix of rows all of numbers or all of pairs, or None when a check fails.

    The checks are those of :func:`_as_complex`: numbers only (no bools),
    finite, and at most MAX_MAGNITUDE.
    """
    if not isinstance(value, list) or not value:
        return None
    obj = np.array(value, dtype=object)
    pairs = obj.ndim == 3 and obj.shape[2] == 2
    if (obj.ndim != 2 and not pairs) or 0 in obj.shape:
        return None
    if not set(map(type, obj.flat)) <= {int, float}:
        return None
    try:
        arr = obj.astype(float)
    except OverflowError:
        return None
    if not np.all(np.abs(arr) <= MAX_MAGNITUDE):  # False for NaN and infinities too
        return None
    return arr.view(complex)[..., 0] if pairs else arr.astype(complex)


def _parse_matrix_entries(value, path: str) -> np.ndarray:
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
    return np.array(rows, dtype=complex)


def matrix_json(a: np.ndarray) -> list:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _encode(obj):
    """json.dumps hook: arrays as matrices, complex numbers as [re, im], numpy scalars as values."""
    if isinstance(obj, np.ndarray):
        return matrix_json(obj)
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# A nonempty list of flat records (nonempty dicts of JSON scalars under string
# keys) one level into a report: the C encoder lays it out in one pass with the
# separators of its depth, as json.dumps with indent=2 would.
_RECORD_VALUES = frozenset((str, float, int, bool, type(None)))
_RECORD_SEPARATORS = (",\n      ", ": ")


def _records_json(value) -> str | None:
    """The indent=2 text of `value` as a top-level report entry, if it is a list of flat records.

    None for any other value, and for a non-finite number, so that the
    indenting encoder handles it and raises its own error.
    """
    if not (type(value) is list and value and all(type(r) is dict and r for r in value)):
        return None
    if ({type(k) for r in value for k in r} != {str}
            or not {type(v) for r in value for v in r.values()} <= _RECORD_VALUES):
        return None
    try:
        text = json.dumps(value, sort_keys=True, separators=_RECORD_SEPARATORS, allow_nan=False)
    except ValueError:
        return None
    # No string holds a raw newline, so "},\n      {" is a boundary between records.
    records = text[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    return "[\n    {\n      " + records + "\n    }\n  ]"


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) with _encode, and a newline.

    Each top-level list of flat records (the `evolve` rows) is encoded by
    :func:`_records_json` and spliced into the text of the rest, byte for byte
    what the indenting encoder would write.
    """
    fast = {}
    if type(obj) is dict:
        fast = {k: text for k, v in obj.items() if type(k) is str
                and (text := _records_json(v)) is not None}
        obj = {**obj, **dict.fromkeys(fast, [])}
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_encode)
    for key, records in fast.items():
        # Only a top-level entry starts a line with two spaces and a quote.
        slot = f"\n  {json.dumps(key)}: "
        text = text.replace(slot + "[]", slot + records, 1)
    return text + "\n"


def params_digest(command: str, params: dict) -> str:
    text = canonical_json({"command": command, "params": params})
    return hashlib.sha256(text.encode()).hexdigest()


def write_report(report: dict, out: str | None) -> None:
    """Write the report to out, if given; an unwritable path is an input error."""
    text = canonical_json(report)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as err:
            raise ProblemFormatError("--out", f"cannot write {out}: {err.strerror or err}") from err
        print(f"report written to {out}")


# ---------------------------------------------------------------------------
# Problem files


def _parse_dfs(value, dim: int) -> tuple[DfsProjector, np.ndarray | None]:
    """The DFS, and for a projector matrix P its frame U (:func:`projector_frame`).

    The problem is read in the frame of U, where the DFS is the first rank(P)
    basis states.
    """
    if isinstance(value, list) and value and all(
        isinstance(i, int) and not isinstance(i, bool) for i in value
    ):
        indices = value
        if len(set(indices)) != len(indices):
            raise ProblemFormatError("dfs", "duplicate basis indices")
        if any(i < 0 or i >= dim for i in indices):
            raise ProblemFormatError("dfs", f"basis index out of range for dimension {dim}")
        d, u = len(indices), None
    else:
        p = parse_matrix(value, "dfs", shape=(dim, dim))
        try:
            u, d = projector_frame(p)
        except ValueError as err:
            raise ProblemFormatError("dfs", str(err)) from err
        indices = range(d)
    if d >= dim:
        raise ProblemFormatError("dfs", "must be a proper subspace (nonempty decaying block)")
    return DfsProjector.from_indices(dim, indices), u


@dataclass
class ParsedProblem:
    """A problem file after parsing: either an explicit system or a scenario."""

    digest: str
    scenario: tuple[str, dict] | None = None
    dfs: DfsProjector | None = None
    hamiltonian: np.ndarray | None = None
    jumps: np.ndarray | None = None  # (J, D, D), the generator's jump stack as it is
    pert: Perturbation | None = None
    tol: float | None = None
    seed: int | None = None
    initial_states: tuple[np.ndarray, ...] | None = None


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

    tol = _tolerance(data["tol"], "tol") if "tol" in data else None
    seed = _as_int(data["seed"], "seed") if "seed" in data else None
    if seed is not None and seed < 0:  # numpy draws only from a nonnegative seed
        raise ProblemFormatError("seed", f"must be nonnegative, got {seed}")

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
        if name not in PARAM_SPECS:
            raise ProblemFormatError(
                "scenario.name", f"unknown scenario {name!r}; valid names: {', '.join(PARAM_SPECS)}"
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
    dfs, frame = _parse_dfs(data["dfs"], dim)

    if not isinstance(data["jumps"], list) or not data["jumps"]:
        raise ProblemFormatError("jumps", "expected a nonempty list of matrices")
    # Each matrix is parsed into its row of one stack, which the generator keeps.
    jumps = np.empty((len(data["jumps"]), dim, dim), dtype=complex)
    for i, m in enumerate(data["jumps"]):
        jumps[i] = parse_matrix(m, f"jumps[{i}]", shape=(dim, dim))

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
        fs = np.zeros(jumps.shape, dtype=complex)
        if "f" in block:
            if not isinstance(block["f"], list):
                raise ProblemFormatError("perturbation.f", "expected a list of matrices")
            if len(block["f"]) > len(jumps):
                raise ProblemFormatError(
                    "perturbation.f",
                    f"{len(block['f'])} deformations for {len(jumps)} jumps; append zero "
                    "matrices to 'jumps' to open new channels",
                )
            for i, m in enumerate(block["f"]):
                fs[i] = parse_matrix(m, f"perturbation.f[{i}]", shape=(dim, dim))
        try:
            pert = Perturbation(v=v, fs=fs)
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

    if frame is not None:
        def turn(a):
            return dagger(frame) @ a @ frame

        hamiltonian = turn(hamiltonian)
        jumps = turn(jumps)
        pert = Perturbation(v=turn(pert.v), fs=turn(pert.fs))
        if initial_states is not None:
            initial_states = tuple(turn(rho) for rho in initial_states)

    return ParsedProblem(
        digest=digest, dfs=dfs, hamiltonian=hamiltonian, jumps=jumps,
        pert=pert, tol=tol, seed=seed, initial_states=initial_states,
    )


def default_states(dfs: DfsProjector) -> tuple[np.ndarray, ...]:
    """Deterministic DFS-supported initial states for sweeps.

    The maximally mixed DFS state, the first DFS basis projector, and (when
    the DFS is at least two-dimensional) the balanced superposition of the
    first two DFS basis vectors.
    """
    mixed = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    mixed[dfs.indices, dfs.indices] = 1.0 / dfs.d
    units = np.eye(dfs.dim, dtype=complex)[dfs.indices]  # the DFS basis vectors, as rows
    states = [mixed, np.outer(units[0], units[0].conj())]
    if dfs.d >= 2:
        plus = (units[0] + units[1]) / np.sqrt(2.0)
        states.append(np.outer(plus, plus.conj()))
    return tuple(states)


# ---------------------------------------------------------------------------
# Scenario parameters (the pipelines and their spec live in ejof.scenarios)

# Every scenario parameter once, in first-declared order; each key is also the
# `ejof scenario --key` flag (with '_' as '-'), see build_parser.
_SCENARIO_FLAGS = {key: spec for specs in PARAM_SPECS.values() for key, spec in specs.items()}


def _scenario_params(name: str, params: dict) -> dict:
    """Type-check a scenario's parameters; absent and None ones take their default."""
    spec = PARAM_SPECS[name]
    for key in params:
        if key not in spec:
            raise ProblemFormatError(
                f"scenario.{key}", f"unknown parameter for {name!r}; valid: {', '.join(sorted(spec))}"
            )
    out = {}
    for key, (kind, _, _) in spec.items():
        value = params.get(key)
        if value is None:
            continue
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


# ---------------------------------------------------------------------------
# Subcommands
#
# Each cmd_* takes the Inputs that _run resolved and returns its report body,
# verdicts and lines as an Outcome; _run stamps the command and input digest,
# writes the report, prints, times the command and picks the exit code. Input
# errors raise ProblemFormatError, which main maps to exit code 2.

# Each command's tol and seed where neither the flag nor the problem file sets
# them; qec reads the seed only with --obstruction.
DEFAULTS = {**dict.fromkeys(("effective", "verify", "scenario", "evolve"), (1e-9, 0)),
            "qec": (1e-10, OBSTRUCTION_SEED)}


@dataclass(frozen=True)
class Inputs:
    """A command's input as _run resolved it: tol and seed, and the problem file and its study."""

    tol: float
    seed: int
    problem: ParsedProblem | None
    study: Study | None
    bundle: ScenarioBundle | None  # when the problem file names a scenario


@dataclass
class Outcome:
    report: dict  # the body; _run adds "command" and "input_digest"
    verdicts: dict = field(default_factory=dict)  # printed as sorted "key: pass/FAIL/skipped"
    lines: list[str] = field(default_factory=list)  # printed after the verdicts
    failed: bool | None = None  # None: failed iff a verdict is False
    params: dict | None = None  # the digested parameters of a run without a problem file


def _verdict_word(value) -> str:
    if value is None:
        return "skipped"
    return "pass" if value else "FAIL"


def _reads_seed(args, problem: ParsedProblem | None) -> bool:
    """Whether the run draws from --seed: a random scenario or the QEC obstruction table.

    The three-level system and explicit problem files are fixed.
    """
    if args.command == "qec":
        return args.obstruction
    if args.command == "scenario":
        return args.name != "three-level"
    if problem is None:  # verify --random carries its own seed; without input, verify says so
        return getattr(args, "random", None) is None
    return problem.scenario is not None and problem.scenario[0] != "three-level"


def _inputs(args) -> Inputs:
    """Check --tol, parse the problem file once, resolve tol and seed, build the file's study."""
    if args.tol is not None:
        _tolerance(args.tol, "--tol")
    path = getattr(args, "problem", None)
    # verify reads no file beside --random; cmd_verify refuses a run given both.
    reads_file = path is not None and getattr(args, "random", None) is None
    problem = load_problem(path) if reads_file else None
    if args.seed is not None and not _reads_seed(args, problem):
        raise ProblemFormatError("--seed", "this run draws nothing at random, so it reads no "
                                 "seed (random scenarios and qec --obstruction do)")
    # Each of tol and seed: the flag, else the problem file, else the command's default.
    in_file = (problem.tol, problem.seed) if problem else (None, None)
    tol, seed = (next(v for v in values if v is not None)
                 for values in zip((args.tol, args.seed), in_file, DEFAULTS[args.command]))
    study = bundle = None
    if problem is not None and problem.scenario is not None:
        name, params = problem.scenario
        bundle = build_scenario(name, _scenario_params(name, params), seed, tol)
        study = bundle.study
    elif problem is not None:
        # effective reports a failed structure check itself, and --force waives part of it.
        lind = structured_lindbladian(problem.hamiltonian, problem.jumps, problem.dfs,
                                      validate=args.command != "effective")
        study = Study(lind, problem.pert)
    return Inputs(tol, seed, problem, study, bundle)


def _run(args) -> int:
    start = time.perf_counter()
    inputs = _inputs(args)
    outcome = args.func(args, inputs)
    if isinstance(outcome, int):  # declined before computing; the reason went to stderr
        return outcome
    problem = inputs.problem
    digest = problem.digest if problem else params_digest(args.command, outcome.params)
    write_report({"command": args.command, "input_digest": digest, **outcome.report}, args.out)
    for key in sorted(outcome.verdicts):
        print(f"{key}: {_verdict_word(outcome.verdicts[key])}")
    for line in outcome.lines:
        print(line)
    print(f"done in {time.perf_counter() - start:.3f} s")
    failed = outcome.failed
    if failed is None:
        failed = any(v is False for v in outcome.verdicts.values())
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_effective(args, inputs: Inputs) -> Outcome | int:
    study, bundle = inputs.study, inputs.bundle
    report: dict = {"tol": inputs.tol}
    if bundle is not None:
        report["scenario"] = {"name": inputs.problem.scenario[0], **bundle.details}

    rep = study.lind.report
    gap = rep.spectral_gap
    report["structure"] = {
        "passed": rep.passed,
        "failures": rep.failures(),
        "zero_multiplicity": rep.zero_multiplicity,
        "expected_multiplicity": int(rep.expected_multiplicity),
        "spectral_gap": gap if gap is not None and np.isfinite(gap) else None,
    }
    # --force waives the block and multiplicity checks, never steadiness or a
    # Hermitian H: the general route needs a DFS that a Lindbladian keeps fixed.
    waivable = rep.dfs_steady <= rep.tol and rep.h_hermitian <= rep.tol
    if not rep.passed and not (args.force and waivable):
        for line in rep.failures():
            print(f"structure check failed: {line}", file=sys.stderr)
        if waivable:
            print("use --force to compute the general route anyway", file=sys.stderr)
        return EXIT_INPUT

    report["l_eff_general"] = study.general
    verdicts = {"structure_ok": rep.passed}

    if rep.passed:
        eff, eq, ids = study.closed, study.equivalence, study.identities
        report["l_eff_closed"] = study.closed_block
        report["h_eff"] = eff.h_eff
        report["f_eff"] = list(eff.jumps_eff)
        report["e_eff_superop"] = eff.cp_superop
        report["e_eff_trace_part"] = eff.cp_adjoint_identity
        report["equivalence"] = {
            "residual": eq.residual,
            "scaled_residual": study.scaled_residual,
            "general_norm": eq.general_norm,
            "closed_norm": eq.closed_norm,
        }
        report["identity_residuals"] = ids.as_dict()
        verdicts["routes_agree"] = bool(study.scaled_residual <= inputs.tol)
        verdicts["identities_hold"] = ids.passed
    else:
        report["l_eff_closed"] = None
        verdicts["routes_agree"] = None

    if bundle is not None:
        verdicts.update(bundle.verdicts)
    report["verdicts"] = verdicts
    # A failed block or multiplicity check gets here only under --force, which waives it.
    failed = any(v is False for k, v in verdicts.items() if k != "structure_ok")
    return Outcome(report, verdicts, failed=failed)


def cmd_verify(args, inputs: Inputs) -> Outcome:
    if (args.random is None) == (args.problem is None):
        raise ProblemFormatError("", "provide a problem file or --random D N TRIALS SEED")

    tol, rows, params = inputs.tol, [], None
    if args.random is not None:
        d, n, trials, seed = args.random
        if d < 1 or n < 1 or trials < 1:
            raise ProblemFormatError("", "--random needs D >= 1, N >= 1, TRIALS >= 1")
        params = {"random": [d, n, trials, seed], "tol": tol}
        for i in range(trials):
            defective = n == 2 and i % 10 == 9
            study = Study(*random_structured_instance(d, n, 1 + i % 3, seed + i,
                                                      defective_k=defective))
            rows.append(_verify_row(study, tol, index=i, defective=defective))
    else:
        rows.append(_verify_row(inputs.study, tol, index=0, defective=False))

    all_passed = all(r["passed"] for r in rows)
    report = {
        "tol": tol,
        "trials": len(rows),
        "rows": rows,
        "worst": {key: max((r[key] for r in rows), default=0.0)
                  for key in ("equivalence_residual", "identity_residual", "corner_delta")},
        "all_passed": all_passed,
    }
    lines = [f"trials: {len(rows)}"]
    lines += [f"worst {key.replace('_', ' ')}: {value:.3e}"
              for key, value in report["worst"].items()]
    lines.append(f"all passed: {all_passed}")
    return Outcome(report, lines=lines, failed=not all_passed, params=params)


def _verify_row(study: Study, tol: float, *, index: int, defective: bool) -> dict:
    eq, ids, corner = study.equivalence, study.identities, study.corners
    return {
        "index": index,
        "defective_k": defective,
        "equivalence_residual": eq.residual,
        "identity_residual": max(ids.as_dict().values()),
        "corner_delta": max(corner.as_dict().values()),
        "passed": bool(eq.residual <= tol and ids.passed and corner.passed),
    }


def cmd_scenario(args, inputs: Inputs) -> Outcome:
    if args.name not in PARAM_SPECS:
        raise ProblemFormatError(
            "", f"unknown scenario {args.name!r}; valid names: {', '.join(PARAM_SPECS)}"
        )
    tol, seed = inputs.tol, inputs.seed
    params = {key: getattr(args, key) for key in _SCENARIO_FLAGS
              if getattr(args, key) is not None}
    bundle = build_scenario(args.name, _scenario_params(args.name, params), seed, tol)
    report = {
        "name": args.name,
        "seed": seed,
        "tol": tol,
        "details": bundle.details,
        "verdicts": bundle.verdicts,
    }
    return Outcome(report, bundle.verdicts,
                   params={"name": args.name, "params": params, "seed": seed, "tol": tol})


def cmd_qec(args, inputs: Inputs) -> Outcome:
    if args.code != "repetition":
        raise ProblemFormatError("", f"unknown code {args.code!r}; valid codes: repetition")
    if args.eps == 0:
        raise ProblemFormatError("--eps", "must be nonzero: a zero miscalibration has no "
                                 "effect to protect against or to obstruct")
    low, high = QEC_EPS_RANGE
    if not low <= abs(args.eps) <= high:
        raise ProblemFormatError("--eps", f"magnitude {abs(args.eps):.3g} is outside "
                                 f"[{low:.3g}, {high:.3g}]: L_eff is of order eps^2, and its "
                                 "norm would underflow or overflow")
    tol = inputs.tol

    if args.obstruction:
        if args.miscal is not None:
            raise ProblemFormatError("--miscal", "the obstruction table draws its own X and Z "
                                     "miscalibrations, so it reads no --miscal")
        scale = (args.hamiltonian_scale if args.hamiltonian_scale is not None
                 else OBSTRUCTION_HAMILTONIAN_SCALE)
        table = hamiltonian_obstruction_demo(eps=args.eps, hamiltonian_scale=scale,
                                             seed=inputs.seed)
        params = {"code": "repetition", "obstruction": True, "eps": args.eps,
                  "hamiltonian_scale": scale, "seed": inputs.seed, "tol": tol}
        floor = tol * args.eps ** 2
        cells = [{
            "hamiltonian_on": c.hamiltonian_on,
            "detectable_on": c.detectable_on,
            "drive_applied": c.drive_applied,
            "l_eff_norm": c.l_eff_norm,
            "zero_expected": not (c.hamiltonian_on and c.detectable_on),
        } for c in table.cells]
        nonzero = table.cell(True, True).l_eff_norm
        verdicts = {
            "zero_cells_vanish": not any(c["zero_expected"] and c["l_eff_norm"] > floor
                                         for c in cells),
            "obstruction_cell_nonzero": bool(nonzero > floor),
        }
        report = {
            "code": "repetition",
            "obstruction": {"eps": args.eps, "hamiltonian_scale": scale, "cells": cells},
            "tol": tol,
            "verdicts": verdicts,
        }
        return Outcome(report, verdicts, params=params)

    if args.miscal is None:
        raise ProblemFormatError("", "--miscal X|Y|Z is required (or use --obstruction)")
    if args.hamiltonian_scale is not None:
        raise ProblemFormatError("--hamiltonian-scale", "only the obstruction table has a "
                                 "decaying-block Hamiltonian; use it with --obstruction")
    rec, lind = repetition_code_recovery()
    rep = robustness_check(rec, Study(lind, pauli_miscalibration(args.miscal, args.eps)), tol=tol)
    report = {
        "code": "repetition",
        "miscalibration": args.miscal,
        "eps": args.eps,
        "tol": tol,
        "recovery_conditions": {
            "passed": rep.conditions.passed,
            "failures": rep.conditions.failures(),
        },
        "correctability": {
            "constant": rep.correctability.constant,
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
    failed = rep.hypotheses_met and not rep.protected
    if failed:
        verdict = "FAIL"
    elif rep.protected:
        verdict = "robust"
    else:
        verdict = "not robust (hypotheses not met)"
    lines = [
        f"hypotheses met: {rep.hypotheses_met}",
        f"protected: {rep.protected} (l_eff norm {rep.l_eff_norm_general:.3e})",
        f"verdict: {verdict}",
    ]
    params = {"code": "repetition", "miscal": args.miscal, "eps": args.eps, "tol": tol}
    return Outcome(report, lines=lines, failed=failed, params=params)


def cmd_evolve(args, inputs: Inputs) -> Outcome:
    study, initial_states = inputs.study, inputs.problem.initial_states
    config = SweepConfig(
        epsilons=tuple(args.epsilons),
        taus=tuple(args.taus),
        initial_states=initial_states or default_states(study.lind.dfs),
        mode=args.mode,
    )
    table = evolve_and_compare(study.lind, study.pert, config)
    rows = table.rows()
    report = {
        "mode": config.mode,
        "epsilons": list(config.epsilons),
        "taus": list(config.taus),
        "n_states": len(config.initial_states),
        "rows": rows,
        "propagation": [asdict(p) for p in table.propagation],
        "drift_constants": [{"epsilon": eps, "constant": c}
                            for eps, c in drift_constants(table).items()],
    }
    if len(config.epsilons) >= 2:
        fit = convergence_order(table)
        report["fit"] = {
            "slope": fit.slope,
            "per_tau": [{"tau": t, "slope": s} for t, s in fit.per_tau.items()],
            "monotone": fit.monotone,
            "max_distances": [{"epsilon": e, "distance": dist}
                              for e, dist in fit.max_distances.items()],
            "floor": fit.floor,
        }
        lines = [f"fitted slope: {fit.slope:.4f} (monotone: {fit.monotone})"]
    else:
        report["fit"] = None
        lines = []
    if args.plot_data:
        csv = ["epsilon,tau,state_index,trace_distance"]
        csv += [f"{r['epsilon']!r},{r['tau']!r},{r['state_index']},{r['trace_distance']!r}"
                for r in rows]
        csv_path = Path(args.plot_data) / "sweep.csv"
        try:
            csv_path.parent.mkdir(parents=True, exist_ok=True)
            csv_path.write_text("\n".join(csv) + "\n")
        except OSError as err:
            raise ProblemFormatError(
                "--plot-data", f"cannot write {csv_path}: {err.strerror or err}") from err
        lines.append(f"plot data written to {csv_path}")
    lines.append(f"cells: {len(rows)}, worst trace distance: {table.trace_distance.max():.3e}")
    return Outcome(report, lines=lines)


# ---------------------------------------------------------------------------
# Argument parsing


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return _finite(x, "")
    except ProblemFormatError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _float_list(text: str) -> list[float]:
    try:
        return [_finite(float(x), "") for x in text.split(",") if x.strip() != ""]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {err}") from err


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {err}") from err


class _Seeded(argparse.Action):
    """Stores --seed, or --random D N TRIALS SEED, refusing a negative seed: numpy draws from none."""

    def __call__(self, parser, namespace, values, option_string=None):
        seed = values[-1] if isinstance(values, list) else values
        if seed < 0:
            raise argparse.ArgumentError(self, f"seed must be nonnegative, got {seed}")
        setattr(namespace, self.dest, values)


# How each scenario parameter kind becomes an `ejof scenario` flag.
_FLAG_KINDS = {
    float: {"type": _finite_float},
    int: {"type": int},
    str: {"type": str},
    list: {"type": _int_list},
    bool: {"action": "store_const", "const": True},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ejof",
        description="Effective DFS generators for perturbed Lindblad dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--tol", type=_finite_float, default=None, help="verdict tolerance")
        p.add_argument("--seed", type=int, action=_Seeded, default=None,
                       help="seed for randomized pieces")

    p_eff = sub.add_parser("effective", help="compute the DFS generator by both routes")
    p_eff.add_argument("problem", help="problem file (JSON)")
    p_eff.add_argument("--force", action="store_true",
                       help="compute the general route even if the block or multiplicity "
                            "checks fail (a DFS that is not steady, or an H that is not "
                            "Hermitian, still exits 2)")
    common(p_eff)
    p_eff.set_defaults(func=cmd_effective)

    p_ver = sub.add_parser("verify", help="dual-route equivalence and identity checks")
    p_ver.add_argument("problem", nargs="?", default=None, help="problem file (JSON)")
    p_ver.add_argument("--random", nargs=4, type=int, metavar=("D", "N", "TRIALS", "SEED"),
                       action=_Seeded, default=None,
                       help="random batch: DFS dim, decaying dim, trials, seed")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sc = sub.add_parser("scenario", help="run a named scenario pipeline")
    p_sc.add_argument("name", help=f"one of: {', '.join(PARAM_SPECS)}")
    for key, (kind, _, help_text) in _SCENARIO_FLAGS.items():
        p_sc.add_argument("--" + key.replace("_", "-"), default=None, help=help_text,
                          **_FLAG_KINDS[kind])
    common(p_sc)
    p_sc.set_defaults(func=cmd_scenario)

    p_qec = sub.add_parser("qec", help="continuous-recovery robustness checks")
    p_qec.add_argument("code", help="error-correcting code (repetition)")
    p_qec.add_argument("--miscal", choices=("X", "Y", "Z"), default=None,
                       help="Pauli type of the per-qubit miscalibration")
    p_qec.add_argument("--eps", type=_finite_float, default=0.01,
                       help="miscalibration strength")
    p_qec.add_argument("--obstruction", action="store_true",
                       help="emit the Hamiltonian obstruction table instead")
    p_qec.add_argument("--hamiltonian-scale", dest="hamiltonian_scale", type=_finite_float,
                       default=None, help="decaying-block Hamiltonian scale (obstruction)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except StructureError as err:
        print(f"error: invalid structure: {err}", file=sys.stderr)
        return EXIT_INPUT
    except np.linalg.LinAlgError as err:  # SingularBlockError
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:  # ProblemFormatError and other bad input
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
