"""Continuous quantum error correction as a DFS, and its robustness.

A recovery channel R(rho) = R0 rho R0† + sum_l F_l rho F_l† applied
continuously at unit rate generates L = R - identity: the structured form
with jumps {F_l} and no Hamiltonian, so the codespace is a DFS. R0 = P is
forced: L vanishes on code states, which the F_l annihilate, so R0 acts on
the code as the identity, and sum_l F_l† F_l = Q then leaves R0† R0 = P. So
every check here reads the generator it judges: its jumps, its DFS (the
code) and its structure report.

The concrete instance here is the three-qubit repetition code
(|000>, |111>) with recovery Kraus operators F_l = P X_l that flip single
bit-flip errors back into the codespace. The six non-code basis states are
exactly the single-flip states, so sum_l F_l† F_l equals the decaying-block
projector on the full 8-dimensional space and the channel is complete with
R0 = P.

Robustness statement checked here: a miscalibration f of the recovery leaves
the codespace exactly protected at second order (L_eff = 0) when the
detectable pieces f_ll form a correctable error channel and there is no
decaying-block Hamiltonian. A Hamiltonian obstructs the mechanism: its
presence in the block inverse spoils the proportionality R(E(rho)) ~ rho
that the cancellation needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective import Perturbation, Study, _general_blocks, _on_units
from .lindblad import StructuredLindbladian, structured_lindbladian
from .operators import (
    DfsProjector,
    as_operator,
    dagger,
    four_corners,
    frob,
    gksl_superop,
    vectorize_stack,
)
from .scenarios import _frobs, coherent_cancellation_drive, orthogonality_residual, surjectivity_residual

# Largest residual of a recovery condition, and of the correctability fit,
# that still counts as met.
RECOVERY_TOL = 1e-10
CORRECTABILITY_TOL = 1e-9
# Miscalibration strength eps of `qec` and of the obstruction table.
MISCALIBRATION_EPS = 1e-2
# The obstruction table's decaying-block Hamiltonian: its scale and the seed it is drawn from.
OBSTRUCTION_HAMILTONIAN_SCALE = 0.3
OBSTRUCTION_SEED = 7

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_on_qubit(kind: str, qubit, n_qubits: int = 3) -> np.ndarray:
    """Single-qubit Pauli embedded in an n-qubit register (qubit 0 is the first factor).

    A sequence of qubits gives one (len(qubit), 2^n, 2^n) array. Each string
    is an index map, not a Kronecker chain: column c holds the Pauli's entry
    in row c ^ 2^(n - 1 - qubit) for X and Y, and in row c for I and Z.
    """
    if kind not in _PAULI:
        raise ValueError(f"unknown Pauli label {kind!r}")
    q = np.asarray(qubit, dtype=np.intp)
    if np.any((q < 0) | (q >= n_qubits)):
        raise ValueError(f"qubit index {qubit} out of range for {n_qubits} qubits")
    shift = n_qubits - 1 - q.reshape(-1, 1)
    cols = np.arange(1 << n_qubits)
    b = (cols >> shift) & 1  # the qubit's value in each column
    flip = int(kind in "XY")
    out = np.zeros((q.size, cols.size, cols.size), dtype=complex)
    out[np.arange(q.size)[:, None], cols ^ (flip << shift), cols] = _PAULI[kind][b ^ flip, b]
    return out.reshape(q.shape + out.shape[1:])


def repetition_code_recovery():
    """Three-qubit repetition code under continuous bit-flip recovery.

    Returns (code, lind): the codespace and its StructuredLindbladian on the
    full 8-dimensional register, whose jumps F_l = P X_l are the recovery's
    Kraus operators other than R0 = P, which adds nothing to the generator.
    """
    dim = 8
    code = DfsProjector.from_indices(dim, (0, 7))
    x = pauli_on_qubit("X", range(3))
    kraus = np.zeros_like(x)  # P X_l: the code rows of X_l
    kraus[:, code.indices] = x[:, code.indices]
    return code, structured_lindbladian(np.zeros((dim, dim), dtype=complex), kraus, code)


@dataclass(frozen=True)
class RecoveryConditionsReport:
    """Residuals of the structural hypotheses on a recovery generator."""

    surjectivity: tuple[float, ...]
    orthogonality: float
    decay_completeness: float
    jumps_into_code: tuple[float, ...]

    def failures(self) -> list[str]:
        out = []
        for i, r in enumerate(self.surjectivity):
            if r > RECOVERY_TOL:
                out.append(f"jump {i} violates surjectivity (residual {r:.3e})")
        if self.orthogonality > RECOVERY_TOL:
            out.append(f"jump pair overlap (residual {self.orthogonality:.3e})")
        if self.decay_completeness > RECOVERY_TOL:
            out.append(f"sum F† F != decaying projector: with R0 = P the channel is not trace "
                       f"preserving (residual {self.decay_completeness:.3e})")
        for i, r in enumerate(self.jumps_into_code):
            if r > RECOVERY_TOL:
                out.append(f"jump {i} does not map decaying states into the code (residual {r:.3e})")
        return out

    @property
    def passed(self) -> bool:
        return not self.failures()


def check_recovery_conditions(lind: StructuredLindbladian) -> RecoveryConditionsReport:
    """The recovery hypotheses on lind's jumps and its DFS, the code.

    With R0 = P, ||P† P + sum F† F - I|| is the completeness residual ||sum F† F - Q||;
    the jumps-into-code residuals are read off lind's structure report.
    """
    code, jumps = lind.dfs, lind.jumps
    w = sum(dagger(jumps) @ jumps)
    q = four_corners(np.eye(lind.dim, dtype=complex), code).lr  # the decaying-block projector
    return RecoveryConditionsReport(
        surjectivity=surjectivity_residual(jumps, code),
        orthogonality=orthogonality_residual(jumps),
        decay_completeness=frob(w - q),
        jumps_into_code=lind.report.jumps_into_dfs,
    )


@dataclass(frozen=True)
class MiscalibrationEntry:
    """Corner content of a recovery miscalibration.

    detectable (ll): moves code states to error states; candidates for
        correction through the recovery.
    undetectable (ul): acts inside the code; cancelled by interference.
    feeding (ur) and decaying (lr): act on already-broken states; inert at
        second order.
    """

    detectable: float
    undetectable: float
    feeding: float
    decaying: float

    def as_dict(self) -> dict[str, float]:
        return {
            "detectable": self.detectable,
            "undetectable": self.undetectable,
            "feeding": self.feeding,
            "decaying": self.decaying,
        }


def classify_miscalibration(f: np.ndarray, code: DfsProjector):
    """Corner norms of a miscalibration f, or a tuple of them, one per operator of a (J, D, D) stack."""
    f = np.asarray(f, dtype=complex)
    if f.ndim == 2:
        return classify_miscalibration(as_operator(f)[None], code)[0]
    c = four_corners(f, code)
    norms = zip(*(map(float, _frobs(corner)) for corner in (c.ll, c.ul, c.ur, c.lr)))
    return tuple(MiscalibrationEntry(*entry) for entry in norms)


@dataclass(frozen=True)
class CorrectabilityVerdict:
    """Fit of R(E(rho)) = c * rho on the codespace.

    c is the fitted complex constant (real and nonnegative when the fit is
    genuine); residual is relative to the compressed map's norm.
    """

    constant: complex
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual <= CORRECTABILITY_TOL


def correctability_check(detectable_parts, lind: StructuredLindbladian) -> CorrectabilityVerdict:
    """Check the detectable error channel E(rho) = sum f_ll rho f_ll† is correctable.

    Builds the compressed codespace matrix of rho -> R(E(rho)) and fits the
    best proportionality constant; correctable means the map IS c * identity.
    E, then R, is applied to the d^2 codespace units b_i b_j† at once, and
    only the codespace rows of the recovery Kraus operators, R0 = P and
    lind's jumps, are read.
    """
    idx = lind.dfs.indices
    cols = np.asarray(detectable_parts, dtype=complex)[..., idx]  # f b_i in column i
    e_units = _on_units([cols[None]], [cols[None]])[0]  # E(b_i b_j†), unit i + d j
    top = np.concatenate([np.eye(lind.dim, dtype=complex)[None, idx], lind.jumps[:, idx]])
    m = vectorize_stack(np.sum(top[:, None] @ e_units @ dagger(top)[:, None], axis=0))
    d2 = m.shape[0]
    c = complex(np.trace(m) / d2)
    resid = frob(m - c * np.eye(d2)) / max(frob(m), 1e-300)
    return CorrectabilityVerdict(constant=c, residual=resid)


def pauli_miscalibration(kind: str, eps: float) -> Perturbation:
    """Per-jump miscalibration f_l = eps * (Pauli of the given kind on qubit l) of the 3-qubit register."""
    return Perturbation(v=np.zeros((8, 8), dtype=complex), fs=eps * pauli_on_qubit(kind, range(3)))


@dataclass(frozen=True)
class RobustnessReport:
    """Second-order codespace response to a miscalibrated recovery."""

    conditions: RecoveryConditionsReport
    correctability: CorrectabilityVerdict
    hamiltonian_norm: float
    structure_ok: bool
    hypotheses_met: bool
    miscalibrations: tuple[MiscalibrationEntry, ...]
    h_eff_norm: float
    f_eff_norms: tuple[float, ...]
    cp_part_norm: float
    l_eff_norm: float
    l_eff_norm_general: float
    pert_norm: float
    tol: float

    @property
    def protected(self) -> bool:
        return self.l_eff_norm_general <= self.tol * max(self.pert_norm ** 2, 1e-300)


def robustness_check(study: Study, *, tol: float = 1e-10) -> RobustnessReport:
    """Evaluate codespace protection of the study's recovery generator lind under its pert.

    Computes L_eff by both routes and reports the hypotheses of the
    protection statement separately: recovery conditions, correctability of
    the detectable channel, and absence of a decaying-block Hamiltonian in
    lind. When a hypothesis fails the report says so and carries the
    (generally nonzero) L_eff anyway.
    """
    lind, pert, eff = study.lind, study.pert, study.closed
    structure_ok = lind.report.passed
    conditions = check_recovery_conditions(lind)
    corr = correctability_check(four_corners(pert.fs, lind.dfs).ll, lind)
    entries = classify_miscalibration(pert.fs, lind.dfs)
    zero = np.zeros_like(eff.cp_adjoint_identity)
    cp_part = eff.cp_superop + gksl_superop(zero, [], w=eff.cp_adjoint_identity)
    h_norm = frob(lind.h)
    hypotheses = structure_ok and conditions.passed and corr.passed and h_norm == 0.0
    return RobustnessReport(
        conditions=conditions,
        correctability=corr,
        hamiltonian_norm=h_norm,
        structure_ok=structure_ok,
        hypotheses_met=hypotheses,
        miscalibrations=entries,
        h_eff_norm=frob(eff.h_eff),
        f_eff_norms=tuple(frob(f) for f in eff.jumps_eff),
        cp_part_norm=frob(cp_part),
        l_eff_norm=frob(study.closed_block),
        l_eff_norm_general=frob(study.general),
        pert_norm=pert.norm(),
        tol=tol,
    )


@dataclass(frozen=True)
class ObstructionCell:
    hamiltonian_on: bool
    detectable_on: bool
    drive_applied: bool
    l_eff_norm: float
    study: Study


@dataclass(frozen=True)
class ObstructionTable:
    """Four-case table: {H = 0, H != 0} x {f_ll = 0, f_ll != 0}.

    Zero cells are expected everywhere except (H != 0, f_ll != 0): a
    decaying-block Hamiltonian enters the block inverse inside the feed-through
    term and breaks the proportionality that corrects detectable errors, while
    undetectable pieces remain coherently cancellable (with the induced-shift
    counter-term included in the drive).
    """

    cells: tuple[ObstructionCell, ...]
    eps: float
    hamiltonian_scale: float

    def cell(self, hamiltonian_on: bool, detectable_on: bool) -> ObstructionCell:
        for c in self.cells:
            if c.hamiltonian_on == hamiltonian_on and c.detectable_on == detectable_on:
                return c
        raise KeyError((hamiltonian_on, detectable_on))


def hamiltonian_obstruction_demo(eps: float = MISCALIBRATION_EPS,
                                 hamiltonian_scale: float = OBSTRUCTION_HAMILTONIAN_SCALE,
                                 seed: int = OBSTRUCTION_SEED) -> ObstructionTable:
    """Build the obstruction table for the repetition code.

    f_ll = 0 cells use Z-type miscalibrations (purely undetectable on the
    code, plus inert corners); f_ll != 0 cells use X-type ones (correctable
    detectable channel). In the H != 0 column the coherent-cancellation drive
    (with the induced-Hamiltonian counter-term) is applied, computed from the
    deformations with their detectable corners stripped; those corners do not
    enter the drive formula, so this is the drive the construction dictates.
    The table reads the general route alone, one batch per generator; each
    cell's ``study`` runs the closed route only when read.
    """
    code, lind0 = repetition_code_recovery()
    dim = lind0.dim
    rng = np.random.default_rng(seed)
    hr = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = np.zeros((dim, dim), dtype=complex)
    h[np.ix_(code.rest, code.rest)] = hamiltonian_scale * ((hr + dagger(hr)) / 2)
    cells = []
    for h_on in (False, True):
        lind = structured_lindbladian(h, lind0.jumps, code) if h_on else lind0
        perts = []
        for det_on in (False, True):
            pert = pauli_miscalibration("X" if det_on else "Z", eps)
            if h_on:
                stripped = pert.fs - four_corners(pert.fs, code).ll
                drive = coherent_cancellation_drive(lind, stripped, cancel_induced_hamiltonian=True)
                pert = Perturbation(v=drive.v, fs=pert.fs)
            perts.append(pert)
        # Both cells of a generator take the general route in one batch.
        for det_on, pert, general in zip((False, True), perts, _general_blocks(lind, perts)):
            cells.append(ObstructionCell(
                hamiltonian_on=h_on,
                detectable_on=det_on,
                drive_applied=h_on,
                l_eff_norm=frob(general),
                study=Study(lind, pert),
            ))
    return ObstructionTable(cells=tuple(cells), eps=eps, hamiltonian_scale=hamiltonian_scale)
