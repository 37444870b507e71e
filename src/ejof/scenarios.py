"""Constructive scenario families: cancellation, coherent drives, targeting.

Model systems built here:

* The three-level system. Basis (|0>, |1>, |e>), DFS {|0>, |1>}, detuning
  delta on |e>, decay F = sqrt(Gamma)|0><e|, and a weak drive-type jump
  deformation f = sqrt(gamma)|0><1|. Its effective jump has the closed form
  F_eff = sqrt(gamma) * delta / (delta - i Gamma/2) |0><1|: the direct decay
  from |1> interferes with the virtual path through |e>, cancelling exactly
  on resonance (delta = 0).

* Jump families satisfying the interference-cancellation conditions:
  surjectivity F (F†F)^-1 F† = P on the DFS, and pairwise orthogonality
  F_l F_l'† = 0 for l != l' (disjoint decaying blocks). Under both
  conditions, perturbations with no f_ll corner induce no dissipation in the
  DFS at second order.

* Drive constructions: a Hermitian V cancelling the effective jumps of a
  given deformation family (coherent cancellation), and a V turning given
  DFS-supported targets {V_target, f_ul_l} into the exact effective generator
  (universal dissipation engineering).

The named scenarios of ``ejof scenario`` (three-level, cancellation,
coherent-cancel, universal) are the pipelines at the end of this module:
:data:`PARAM_SPECS` declares each one's parameters, and
:func:`build_scenario` draws its system; its judge computes the effective
generator and decides the verdicts on first read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .effective import (
    Perturbation,
    Study,
    _random_hermitian,
    effective_coupling,
    random_structured_instance,
)
from .lindblad import (
    StructuredLindbladian,
    assemble_lindbladian,
    nh_hamiltonian_inverse,
    structured_lindbladian,
)
from .operators import (
    DEFAULT_TOL,
    DfsProjector,
    as_operator,
    dagger,
    four_corners,
    frob,
    operator_stack,
    require_hermitian,
)

# Largest residual of a cancellation condition (surjectivity, orthogonality,
# relative f_ll) that still counts as met.
CONDITION_TOL = 1e-9


@dataclass(frozen=True)
class ThreeLevelParams:
    """Parameters of the three-level system (all rates nonnegative)."""

    delta: float
    Gamma: float
    gamma: float

    def __post_init__(self):
        if self.Gamma <= 0:
            raise ValueError("Gamma must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


def three_level_system(params: ThreeLevelParams):
    """Three-level system and its drive-type perturbation.

    Returns (StructuredLindbladian, Perturbation) on the basis (|0>, |1>, |e>)
    with DFS {|0>, |1>}.
    """
    dfs = DfsProjector.from_indices(3, (0, 1))
    h = np.zeros((3, 3), dtype=complex)
    h[2, 2] = params.delta
    big_f = np.zeros((3, 3), dtype=complex)
    big_f[0, 2] = np.sqrt(params.Gamma)
    lind = structured_lindbladian(h, [big_f], dfs)
    f = np.zeros((3, 3), dtype=complex)
    f[0, 1] = np.sqrt(params.gamma)
    pert = Perturbation(v=np.zeros((3, 3), dtype=complex), fs=(f,))
    return lind, pert


def surjectivity_residual(f, dfs: DfsProjector, w_pinv: np.ndarray | None = None):
    """Residual of the condition F (F†F)^-1 F† = P (inverse on the support).

    f is one operator (a float), or a (J, D, D) stack (a tuple, one residual
    per jump) whose :func:`_gram_pinv` w_pinv is computed when not given.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim == 2:
        return surjectivity_residual(as_operator(f)[None], dfs, w_pinv)[0]
    resid = f @ (_gram_pinv(f) if w_pinv is None else w_pinv) @ dagger(f)
    resid[:, dfs.indices, dfs.indices] -= 1.0  # minus P
    return tuple(map(float, _frobs(resid)))


def _gram_pinv(jumps: np.ndarray) -> np.ndarray:
    """(F_l† F_l)^+ for each jump of a (J, D, D) stack, in one batched pseudo-inverse."""
    return np.linalg.pinv(dagger(jumps) @ jumps, rcond=1e-12)


def _frobs(stack: np.ndarray) -> np.ndarray:
    """:func:`~ejof.operators.frob` of each operator of a C-ordered (J, D, D) stack, bit for bit."""
    flat = stack.reshape(*stack.shape[:-2], -1)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def orthogonality_residual(jumps) -> float:
    """Largest residual ||F_l F_l'†|| over ordered pairs of distinct jumps.

    Each jump takes one product, against the whole family: no (J, J, D, D) array.
    """
    jumps = np.asarray(jumps, dtype=complex)
    worst = 0.0
    for i, a in enumerate(jumps):
        norms = _frobs(a @ dagger(jumps))
        norms[i] = 0.0  # F_l F_l† is not a pair
        worst = max(worst, float(norms.max()))
    return worst


def random_orthogonal_family(d: int, blocks, seed: int):
    """Random jump family on disjoint decaying blocks.

    blocks lists the decaying dimension N_l addressed by each jump; the full
    space has dimension d + sum(blocks). Each jump is a random surjective map
    from its block onto the DFS, so the orthogonality condition
    F_l F_l'† = 0 holds exactly by construction.

    Returns (jumps, DfsProjector), the jumps as one (J, D, D) array. Note a
    zero-Hamiltonian generator built on the family relaxes onto a unique DFS
    only when each block has size d: a jump has rank at most d, so a wider
    block leaves dark directions that never decay. Wider blocks are still valid for condition
    checks or with a mixing Hamiltonian.
    """
    blocks = list(blocks)
    if any(b < d for b in blocks):
        raise ValueError(f"every block must be at least the DFS dimension d={d}, got {blocks}")
    rng = np.random.default_rng(seed)
    dim = d + sum(blocks)
    dfs = DfsProjector.from_indices(dim, range(d))
    jumps = np.zeros((len(blocks), dim, dim), dtype=complex)
    offset = d
    for f, b in zip(jumps, blocks):
        for attempt in range(8):
            f[:d, offset:offset + b] = rng.standard_normal((d, b)) + 1j * rng.standard_normal((d, b))
            if surjectivity_residual(f, dfs) <= 1e-10:
                break
        else:
            raise RuntimeError(f"no surjective draw for block of size {b}")
        offset += b
    return jumps, dfs


@dataclass(frozen=True)
class CancellationReport:
    """Interference-cancellation outcome for a jump family and deformations."""

    surjectivity: tuple[float, ...]
    orthogonality: float
    f_ll_norms: tuple[float, ...]
    conditions_met: bool
    f_eff_norms: tuple[float, ...]
    l_eff_norm: float
    pert_norm: float
    tol: float

    @property
    def cancelled(self) -> bool:
        return self.l_eff_norm <= self.tol * max(self.pert_norm ** 2, 1e-300)


def _check_conditions(jumps, fs, dfs: DfsProjector, w_pinv: np.ndarray | None = None):
    """Residuals of the cancellation conditions and a message per violated one.

    jumps and fs are (J, D, D) stacks, and w_pinv the jumps' :func:`_gram_pinv` if known.
    Returns (surjectivity residual per jump, orthogonality residual, ||f_ll||
    per deformation, messages); the messages follow that order.
    """
    surj = surjectivity_residual(jumps, dfs, w_pinv)
    orth = orthogonality_residual(jumps)
    f_ll = tuple(map(float, _frobs(four_corners(fs, dfs).ll)))
    messages = []
    if max(surj, default=0.0) > CONDITION_TOL:
        messages.append(f"surjectivity condition violated (worst residual {max(surj):.3e})")
    if orth > CONDITION_TOL:
        messages.append(f"orthogonality condition violated (residual {orth:.3e})")
    for i, (r, f_norm) in enumerate(zip(f_ll, _frobs(fs))):
        if r > CONDITION_TOL * max(1.0, f_norm):
            messages.append(f"deformation {i} has a detectable (ll) corner (norm {r:.3e})")
    return surj, orth, f_ll, messages


def cancellation_check(study: Study, *, tol: float = 1e-10) -> CancellationReport:
    """Evaluate generic cancellation: H = 0, V = 0, conditions met, f_ll = 0.

    Computes the effective generator of (lind, pert) by both routes and
    reports whether the second-order DFS dissipation vanishes at the expected
    tolerance. Violated hypotheses are reported, not raised, so near-misses
    can be quantified.
    """
    lind, pert = study.lind, study.pert
    surj, orth, f_ll, violated = _check_conditions(lind.jumps, pert.fs, lind.dfs)
    return CancellationReport(
        surjectivity=surj,
        orthogonality=orth,
        f_ll_norms=f_ll,
        conditions_met=not violated and not lind.h.any() and not pert.v.any(),
        f_eff_norms=tuple(frob(f) for f in study.closed.jumps_eff),
        l_eff_norm=frob(study.general),
        pert_norm=pert.norm(),
        tol=tol,
    )


def coherent_cancellation_drive(lind: StructuredLindbladian, fs, *,
                                cancel_induced_hamiltonian: bool = False) -> Perturbation:
    """Hermitian drive V cancelling the effective jumps of a deformation family.

    V = (i/2) sum_l (F_l† f_l - f_l† F_l) + Vtilde + Vtilde†, with
    Vtilde = K sum_l (F_l† F_l)^-1 F_l† f_l (inverses on the block supports).
    Requires the surjectivity and orthogonality conditions and f_ll = 0; with
    this V in the perturbation the closed-form effective jumps vanish for any
    decaying-block Hamiltonian.

    The drive still leaves a second-order DFS Hamiltonian (a Stark-type shift
    from the virtual coupling). cancel_induced_hamiltonian=True adds the
    Hermitian counter-term V_pp = Herm(C_pq Kinv C_qp) that removes it, which
    is free since the DFS block of V never feeds back into the coupling.
    """
    fs = operator_stack(fs, lind.h, "jump deformation", "hamiltonian")
    if len(fs) != len(lind.jumps):
        raise ValueError(f"{len(fs)} deformations for {len(lind.jumps)} jumps")
    dfs, big = lind.dfs, lind.jumps
    w_pinv = _gram_pinv(big)  # shared by the surjectivity check and Vtilde
    violated = _check_conditions(big, fs, dfs, w_pinv)[3]
    if violated:
        raise ValueError(violated[0])
    zero = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    v = sum(0.5j * (dagger(big) @ fs - dagger(fs) @ big), zero)
    x = lind.k @ sum(w_pinv @ dagger(big) @ fs, zero)
    v = v + x + dagger(x)
    pert = Perturbation(v=v, fs=fs)
    if cancel_induced_hamiltonian:
        c_qp, c_pq = effective_coupling(lind, pert)
        t = c_pq @ nh_hamiltonian_inverse(lind.k, dfs) @ c_qp
        v = v.copy()
        v[np.ix_(dfs.indices, dfs.indices)] += 0.5 * (t + dagger(t))
        pert = Perturbation(v=v, fs=fs)
    return pert


def universal_dissipation(lind: StructuredLindbladian, target_h, target_jumps) -> Perturbation:
    """Perturbation realizing a target DFS generator exactly at second order.

    Given DFS-supported targets (V_target Hermitian, jumps t_l), the
    deformations are f_l = t_l and the drive is
    V = V_target + (i/2) sum_l (F_l† f_l - f_l† F_l). The resulting effective
    generator is -i[V_target, .] + sum_l D[t_l] for any decaying-block
    Hamiltonian: the compensation term empties the decaying-side corner of
    the induced coupling, so no interference correction survives.
    """
    target_h = require_hermitian(target_h, "target Hamiltonian")
    targets = operator_stack(target_jumps, target_h, "target jump", "target Hamiltonian")
    dfs, big = lind.dfs, lind.jumps
    if len(targets) > len(big):
        raise ValueError(f"{len(targets)} target jumps but only {len(big)} unperturbed jumps")
    if frob(target_h - four_corners(target_h, dfs).ul) > DEFAULT_TOL * max(1.0, frob(target_h)):
        raise ValueError("target Hamiltonian must be supported on the DFS corner")
    off = (_frobs(targets - four_corners(targets, dfs).ul)
           > DEFAULT_TOL * np.maximum(1.0, _frobs(targets)))
    if off.any():
        raise ValueError(f"target jump {np.argmax(off)} must be supported on the DFS corner")
    fs = np.concatenate([targets, np.zeros((len(big) - len(targets), dfs.dim, dfs.dim), dtype=complex)])
    v = sum(0.5j * (dagger(big) @ fs - dagger(fs) @ big), target_h.astype(complex))
    return Perturbation(v=v, fs=fs)


def pauli_lowering_targets(scale: float, dim: int):
    """Scaled target jumps {sigma_minus, sigma_z/2, sigma_plus} on a qubit DFS.

    The qubit lives on the first two basis states of a dim-dimensional space;
    the returned (3, dim, dim) array holds full-dimension, DFS-corner supported matrices.
    """
    if dim < 2:
        raise ValueError("need at least a 2-dimensional space for a qubit DFS")
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    out = np.zeros((3, dim, dim), dtype=complex)
    out[:, :2, :2] = scale * np.array([sm, sz / 2, dagger(sm)])
    return out


# ---------------------------------------------------------------------------
# Scenario pipelines: each draws its system, and its judge computes the
# effective generator and decides the verdicts. ``ejof scenario`` and problem
# files run them.


@dataclass
class ScenarioBundle:
    """A scenario's study (its generator and perturbation), report details and verdicts.

    details and verdicts are judge()'s, computed on first read: the routes
    they need are most of a scenario's cost, and ``evolve`` and ``verify``
    read neither. details may hold numpy arrays and complex numbers; the
    report writer encodes them.
    """

    study: Study
    judge: Callable[[], tuple[dict, dict]]

    @cached_property
    def _judged(self) -> tuple[dict, dict]:
        return self.judge()

    details = property(lambda self: self._judged[0])
    verdicts = property(lambda self: self._judged[1])


# Scenario parameters: key -> (kind, default, help). The keys of PARAM_SPECS
# are the scenario names, in the order they are listed.
_CANCELLATION_PARAMS = {
    "dfs_dim": (int, 2, "cancellation scenarios: DFS dimension"),
    "blocks": (list, None, "cancellation scenarios: comma-separated decaying block sizes"),
    "pert_scale": (float, 1.0, "cancellation scenarios: deformation scale"),
}
PARAM_SPECS = {
    "three-level": {
        "delta": (float, 1.0, "three-level: DFS level splitting"),
        "Gamma": (float, 2.0, "three-level: decay rate"),
        "gamma": (float, 0.04, "three-level: perturbing rate"),
    },
    "cancellation": _CANCELLATION_PARAMS,
    "coherent-cancel": {
        **_CANCELLATION_PARAMS,
        "keep_induced_hamiltonian": (bool, False,
                                     "coherent-cancel: skip the induced-shift counter-term"),
    },
    "universal": {
        "targets": (str, "pauli", "universal: target family (pauli)"),
        "scale": (float, 0.5, "universal: target scale"),
        "decaying_dim": (int, 3, "universal: decaying dimension"),
        "n_jumps": (int, 3, "universal: number of unperturbed jumps"),
    },
}


def build_scenario(name: str, params: dict, seed: int, tol: float) -> ScenarioBundle:
    """Run the scenario `name` of PARAM_SPECS.

    params holds values of the kinds PARAM_SPECS[name] declares; a missing
    key takes its default. Random scenarios draw from seed; tol sets the
    verdicts.
    """
    params = {key: params.get(key, default) for key, (_, default, _) in PARAM_SPECS[name].items()}
    for key in ("dfs_dim", "decaying_dim"):
        if params.get(key, 1) < 1:
            raise ValueError(f"scenario.{key}: must be at least 1")
    if name == "three-level":
        return _scenario_three_level(params, tol)
    if name == "cancellation":
        return _scenario_cancellation(params, seed, tol)
    if name == "coherent-cancel":
        return _scenario_coherent_cancel(params, seed, tol)
    return _scenario_universal(params, seed, tol)


def _supported_hermitian(dim: int, states: np.ndarray, rng, scale: float = 1.0) -> np.ndarray:
    """A random Hermitian operator on dim levels, supported on the block of the given basis states."""
    out = np.zeros((dim, dim), dtype=complex)
    out[np.ix_(states, states)] = scale * _random_hermitian(rng, states.size)
    return out


def _random_deformations(count: int, dfs: DfsProjector, rng, scale: float) -> np.ndarray:
    """(count, D, D) random jump deformations with the DFS-to-decaying corner Q F P removed."""
    g = rng.standard_normal((count, 2, dfs.dim, dfs.dim))  # each deformation's real, then imaginary part
    fs = scale * (g[:, 0] + 1j * g[:, 1])
    fs[:, dfs.rest[:, None], dfs.indices] = 0.0
    return fs


def _scenario_three_level(params: dict, tol: float) -> ScenarioBundle:
    tl = ThreeLevelParams(delta=params["delta"], Gamma=params["Gamma"], gamma=params["gamma"])
    study = Study(*three_level_system(tl))

    def judge():
        eff = study.closed
        f_block = eff.jumps_eff[0]
        f_eff_norm = frob(f_block)
        dark = tl.delta == 0.0
        details = {
            "params": {"delta": tl.delta, "Gamma": tl.Gamma, "gamma": tl.gamma},
            "f_eff": f_block,
            "f_eff_entry": f_block[0, 1],
            "f_eff_norm": f_eff_norm,
            "h_eff": eff.h_eff,
            "equivalence_residual": study.scaled_residual,
            "dark_state_case": dark,
        }
        verdicts = {"routes_agree": bool(study.scaled_residual <= tol)}
        if dark:
            verdicts["effective_jump_vanishes"] = bool(f_eff_norm <= 1e-12)
        return details, verdicts

    return ScenarioBundle(study, judge)


def _scenario_cancellation(params: dict, seed: int, tol: float) -> ScenarioBundle:
    d = params["dfs_dim"]
    blocks = params["blocks"] if params["blocks"] is not None else [d, d]
    jumps, dfs = random_orthogonal_family(d, blocks, seed)
    rng = np.random.default_rng((seed, 1))
    zero = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    fs = _random_deformations(len(jumps), dfs, rng, params["pert_scale"])
    study = Study(structured_lindbladian(zero, jumps, dfs),
                  Perturbation(v=zero.copy(), fs=fs))

    def judge():
        rep = cancellation_check(study, tol=tol)
        details = {
            "dfs_dim": d,
            "blocks": list(blocks),
            "surjectivity_residuals": list(rep.surjectivity),
            "orthogonality_residual": rep.orthogonality,
            "detectable_corner_norms": list(rep.f_ll_norms),
            "effective_jump_norms": list(rep.f_eff_norms),
            "l_eff_norm": rep.l_eff_norm,
            "perturbation_norm": rep.pert_norm,
        }
        return details, {"conditions_met": rep.conditions_met, "cancelled": rep.cancelled}

    return ScenarioBundle(study, judge)


def _scenario_coherent_cancel(params: dict, seed: int, tol: float) -> ScenarioBundle:
    d = params["dfs_dim"]
    blocks = params["blocks"] if params["blocks"] is not None else [d, d]
    jumps, dfs = random_orthogonal_family(d, blocks, seed)
    rng = np.random.default_rng((seed, 2))
    lind = structured_lindbladian(_supported_hermitian(dfs.dim, dfs.rest, rng), jumps, dfs)
    fs = _random_deformations(len(jumps), dfs, rng, params["pert_scale"])
    counter_term = not params["keep_induced_hamiltonian"]
    pert = coherent_cancellation_drive(lind, fs, cancel_induced_hamiltonian=counter_term)
    study = Study(lind, pert)

    def judge():
        l_eff_norm = frob(study.general)
        scale = max(pert.norm() ** 2, 1e-300)
        f_eff_norms = [frob(f) for f in study.closed.jumps_eff]
        details = {
            "dfs_dim": d,
            "blocks": list(blocks),
            "counter_term_applied": counter_term,
            "effective_jump_norms": f_eff_norms,
            "h_eff_norm": frob(study.closed.h_eff),
            "l_eff_norm": l_eff_norm,
            "perturbation_norm": pert.norm(),
        }
        verdicts = {"effective_jumps_vanish": bool(max(f_eff_norms, default=0.0) <= tol * scale)}
        if counter_term:
            verdicts["generator_vanishes"] = bool(l_eff_norm <= tol * scale)
        return details, verdicts

    return ScenarioBundle(study, judge)


def _scenario_universal(params: dict, seed: int, tol: float) -> ScenarioBundle:
    if params["targets"] != "pauli":
        raise ValueError("scenario.targets: only 'pauli' targets are available")
    n_jumps = params["n_jumps"]
    if n_jumps < 3:
        raise ValueError("scenario.n_jumps: pauli targets need at least 3 jumps")
    lind, _ = random_structured_instance(2, params["decaying_dim"], n_jumps, seed)
    dfs = lind.dfs
    rng = np.random.default_rng((seed, 3))
    target_h = _supported_hermitian(dfs.dim, dfs.indices, rng, scale=params["scale"])
    targets = pauli_lowering_targets(params["scale"], lind.dim)
    study = Study(lind, universal_dissipation(lind, target_h, targets))

    def judge():
        achieved = study.general
        ul = np.ix_(dfs.indices, dfs.indices)
        target_block = assemble_lindbladian(target_h[ul], [t[ul] for t in targets])
        residual = frob(achieved - target_block) / max(frob(target_block), 1e-300)
        details = {
            "targets": "pauli",
            "scale": params["scale"],
            "n_jumps": n_jumps,
            "decaying_dim": params["decaying_dim"],
            "target_generator_norm": frob(target_block),
            "achieved_generator_norm": frob(achieved),
            "match_residual": residual,
        }
        return details, {"target_matched": bool(residual <= tol)}

    return ScenarioBundle(study, judge)
