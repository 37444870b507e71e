"""Effective DFS generator of a perturbed Lindbladian, by two routes.

Setting: an unperturbed generator in the DFS normal form (H on the decaying
block, jumps mapping decaying -> DFS) is perturbed by a Hermitian Hamiltonian
V and by jump deformations F_l -> F_l + f_l. To second order the evolution
inside the DFS is governed by an effective Lindbladian. This module computes
it two independent ways and checks they agree.

General route (resolvent form)
    L_eff = P_inf (O1 + O2) P_inf - P_inf O1 L^D O1 P_inf
where P_inf is the asymptotic projection of the unperturbed generator, L^D its
Drazin pseudoinverse, O1 collects the first-order perturbation superoperators
and O2 the second-order dissipators of the f_l alone. The consistency contract
O1 + O2 = L(H+V, {F+f}) - L(H, {F}) holds as a matrix identity.

Closed route (effective operators)
    H_eff = (1/2)(V_ul - C Kinv C) + H.c.
    F_eff_l = f_ul_l - F_l Kinv C
    E_eff(rho) = - sum_l' F_l' Kinv_lr( sum_l f_ll_l rho f_ll_l† ) F_l'†
assembled as
    L_eff(rho) = -i[H_eff, rho] + sum_l D[F_eff_l](rho)
                 + E_eff(rho) - (1/2){ sum_l f_ll_l† f_ll_l , rho }
where K is the non-Hermitian Hamiltonian of the unperturbed generator, Kinv
its decaying-block inverse, Kinv_lr the inverse of the decaying-block
evolution sigma -> -i(K sigma - sigma K†), and C the induced non-Hermitian
coupling between the blocks,
    C = V_offdiag - (i/2) sum_l ( F_l† f_ul_l + f_ul_l† F_l ).

Both routes return the same full-dimension superoperator restricted to the
DFS corner; :func:`verify_equivalence` quantifies the agreement. Both are
evaluated on the d^2 DFS columns only: with E = conj(B) kron B for a DFS
isometry B, vec(B sigma B†) = E vec(sigma) and the DFS-corner projector is
S_ul = E E†, so every D^2 x D^2 product becomes a tall-skinny one. The general
route applies O1 and O2 as maps on the d^2 operators P_inf E (batched D x D
products), never as D^2 x D^2 matrices; :func:`perturbation_superops` forms
those matrices from the same maps, as the oracle of the O1 + O2 contract. The
closed route is assembled on the (d^2, d^2) block and embedded once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import (
    StructuredLindbladian,
    assemble_lindbladian,
    nh_hamiltonian_inverse,
    nh_superop_solve,
    structured_lindbladian,
)
from .operators import (
    DEFAULT_TOL,
    DfsProjector,
    adjoint_superop,
    apply_superop,
    as_operator,
    compress_superop,
    dagger,
    dfs_columns,
    embed_superop,
    four_corners,
    frob,
    gksl_superop,
    require_hermitian,
    star_commutator,
    vectorize,
)

RESIDUAL_FLOOR = 1e-14


@dataclass(frozen=True)
class Perturbation:
    """Hermitian Hamiltonian drive V and jump deformations f_l.

    fs must have one entry per unperturbed jump (zero matrices are fine, and
    extra channels can be represented by appending zero unperturbed jumps).
    """

    v: np.ndarray
    fs: tuple[np.ndarray, ...]

    def __post_init__(self):
        v = require_hermitian(self.v, "perturbation Hamiltonian")
        fs = tuple(as_operator(f) for f in self.fs)
        for f in fs:
            if f.shape != v.shape:
                raise ValueError(f"jump deformation shape {f.shape} != V shape {v.shape}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "fs", fs)

    @classmethod
    def zero(cls, dim: int, n_jumps: int) -> "Perturbation":
        z = np.zeros((dim, dim), dtype=complex)
        return cls(v=z, fs=tuple(z.copy() for _ in range(n_jumps)))

    def scaled(self, s: float) -> "Perturbation":
        return Perturbation(v=s * self.v, fs=tuple(s * f for f in self.fs))

    def norm(self) -> float:
        return float(np.sqrt(frob(self.v) ** 2 + sum(frob(f) ** 2 for f in self.fs)))


def _check_pair(lind: StructuredLindbladian, pert: Perturbation):
    if pert.v.shape[0] != lind.dim:
        raise ValueError(f"perturbation dimension {pert.v.shape[0]} != system dimension {lind.dim}")
    if len(pert.fs) != len(lind.jumps):
        raise ValueError(
            f"{len(pert.fs)} jump deformations for {len(lind.jumps)} jumps; "
            "pad with zero matrices to match"
        )


def effective_coupling(lind: StructuredLindbladian, pert: Perturbation) -> np.ndarray:
    """Induced non-Hermitian coupling between the DFS and decaying blocks.

    C = V_offdiag - (i/2) sum_l (F_l† f_ul_l + f_ul_l† F_l); supported on the
    block-off-diagonal corners.
    """
    _check_pair(lind, pert)
    c = four_corners(pert.v, lind.dfs).offdiag.astype(complex)
    for big_f, f in zip(lind.jumps, pert.fs):
        f_ul = four_corners(f, lind.dfs).ul
        c = c - 0.5j * (dagger(big_f) @ f_ul + dagger(f_ul) @ big_f)
    return c


def _o1_terms(lind: StructuredLindbladian, pert: Perturbation):
    """Coefficients of O1: A = x + C and the (F_l, f_l) pairs.

    O1(X) = -i(A X - X A†) + sum_l (F_l X f_l† + f_l X F_l†), where
    x = V_diag - (i/2) sum_l (f_ur_l† F_l + F_l† f_ur_l) and C is
    :func:`effective_coupling`; the star commutator is additive in A, so the
    V-part and the coupling part share one.
    """
    _check_pair(lind, pert)
    dfs = lind.dfs
    a = four_corners(pert.v, dfs).diag + effective_coupling(lind, pert)
    for big_f, f in zip(lind.jumps, pert.fs):
        f_ur = four_corners(f, dfs).ur
        a = a - 0.5j * (dagger(f_ur) @ big_f + dagger(big_f) @ f_ur)
    return a, tuple(zip(lind.jumps, pert.fs))


def _apply_o1(terms, x: np.ndarray) -> np.ndarray:
    """O1 on a stack x of (D, D) operators, from :func:`_o1_terms`."""
    a, pairs = terms
    out = -1j * (a @ x - x @ dagger(a))
    for big_f, f in pairs:
        out += big_f @ x @ dagger(f) + f @ x @ dagger(big_f)
    return out


def _apply_o2(fs, x: np.ndarray) -> np.ndarray:
    """O2 = sum_l D[f_l] on a stack x of (D, D) operators."""
    w = sum((dagger(f) @ f for f in fs), np.zeros(x.shape[-2:], dtype=complex))
    out = -0.5 * (w @ x + x @ w)
    for f in fs:
        out += f @ x @ dagger(f)
    return out


def _stack(cols: np.ndarray, dim: int) -> np.ndarray:
    """(D^2, m) vec columns -> (m, D, D) stack of the operators they stack."""
    return cols.T.reshape(-1, dim, dim).transpose(0, 2, 1)


def _columns(stack: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_stack`."""
    m, dim, _ = stack.shape
    return stack.transpose(0, 2, 1).reshape(m, dim * dim).T


def perturbation_superops(lind: StructuredLindbladian, pert: Perturbation):
    """First- and second-order perturbation superoperators (O1, O2) as matrices.

    O1 = V-part + coupling part + mixed-dissipator part:
        V-part:   -i [ V_diag - (i/2) sum_l (f_ur_l† F_l + F_l† f_ur_l), . ]*
        coupling: -i [ C, . ]*   (star commutator, C from effective_coupling)
        mixed:    sum_l ( F_l (.) f_l† + f_l (.) F_l† )
    O2 = sum_l D[f_l].

    O1 + O2 equals the direct Lindbladian difference
    L(H+V, {F+f}) - L(H, {F}) up to round-off. The matrices are the maps the
    general route applies, evaluated on the D^2 unit operators; the route
    itself never forms them.
    """
    terms = _o1_terms(lind, pert)
    units = _stack(np.eye(lind.dim ** 2, dtype=complex), lind.dim)
    return _columns(_apply_o1(terms, units)), _columns(_apply_o2(pert.fs, units))


def effective_lindbladian_general(lind: StructuredLindbladian, pert: Perturbation) -> np.ndarray:
    """Second-order effective generator by the resolvent route.

    Returns the full (D^2, D^2) matrix restricted to the DFS corner:
    P_ul [ P_inf (O1 + O2) P_inf - P_inf O1 L^D O1 P_inf ] P_ul, evaluated as
    E E† P_inf [ (O1 + O2)(P_inf E) - O1 L^D O1 (P_inf E) ] E†. O1 and O2 act
    as maps on the d^2 operators P_inf E, and L^D is applied to the d^2
    columns O1 P_inf E only. Only the generator's own spectral factor and
    asymptotic projection enter, so the route stays independent of the
    closed one.
    """
    terms = _o1_terms(lind, pert)
    dim, basis = lind.dim, lind.dfs.basis
    e = dfs_columns(basis)
    pinf = lind.asymptotic_projection
    x = _stack(pinf @ e, dim)
    o1x = _apply_o1(terms, x)
    o1_ld_o1x = _apply_o1(terms, _stack(lind.factor.apply_drazin(_columns(o1x)), dim))
    cols = _columns(o1x + _apply_o2(pert.fs, x) - o1_ld_o1x)
    return embed_superop(dagger(e) @ pinf @ cols, basis)


@dataclass(frozen=True)
class EffectiveGenerator:
    """Closed-form effective generator data on the DFS.

    h_eff and the jumps_eff are supported on the DFS corner. cp_superop is the
    completely positive feed-through term E_eff as a full-dimension matrix
    (it reads only the DFS corner of its input, so its columns outside the
    DFS corner vanish);
    cp_adjoint_identity = sum_l f_ll_l† f_ll_l is its adjoint applied to the
    identity, used for the trace-conserving anticommutator counterweight.
    """

    h_eff: np.ndarray
    jumps_eff: tuple[np.ndarray, ...]
    cp_superop: np.ndarray
    cp_adjoint_identity: np.ndarray
    dfs: DfsProjector

    def superop(self) -> np.ndarray:
        return effective_to_superop(self)


def effective_lindbladian_closed(lind: StructuredLindbladian, pert: Perturbation) -> EffectiveGenerator:
    """Second-order effective generator by the closed (effective-operator) route."""
    _check_pair(lind, pert)
    dfs = lind.dfs
    kinv = nh_hamiltonian_inverse(lind.k, dfs)
    coupling = effective_coupling(lind, pert)
    v_ul = four_corners(pert.v, dfs).ul
    x = v_ul - coupling @ kinv @ coupling
    h_eff = 0.5 * (x + dagger(x))
    jumps_eff = tuple(
        four_corners(f, dfs).ul - big_f @ kinv @ coupling
        for big_f, f in zip(lind.jumps, pert.fs)
    )
    f_lls = [four_corners(f, dfs).ll for f in pert.fs]
    adj_id = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    for f_ll in f_lls:
        adj_id = adj_id + dagger(f_ll) @ f_ll
    # E_eff on the d^2 DFS units b_i b_j†: source, sector solve, feed. The
    # source f_ll (.) f_ll† reads only P X P, so these columns determine E_eff.
    bp, bq = dfs.basis, dfs.basis_c
    d = dfs.d
    cols = np.zeros((dfs.dim ** 2, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            unit = np.outer(bp[:, i], bp[:, j].conj())
            source = dagger(bq) @ _sandwich_sum(f_lls, unit) @ bq
            if not source.any():
                continue
            sigma = bq @ lind.decaying_sector.solve(source) @ dagger(bq)
            cols[:, i + d * j] = -vectorize(_sandwich_sum(lind.jumps, sigma))
    cp_superop = cols @ dagger(dfs_columns(bp))
    return EffectiveGenerator(
        h_eff=h_eff,
        jumps_eff=jumps_eff,
        cp_superop=cp_superop,
        cp_adjoint_identity=adj_id,
        dfs=dfs,
    )


def _sandwich_sum(ops, x: np.ndarray) -> np.ndarray:
    """sum_l A_l X A_l†."""
    out = np.zeros_like(x)
    for a in ops:
        out += a @ x @ dagger(a)
    return out


def effective_to_superop(eff: EffectiveGenerator) -> np.ndarray:
    """Assemble the closed-form pieces into a DFS-corner superoperator.

    -i[H_eff, .] + sum_l D[F_eff_l] + E_eff - (1/2){E_eff_adj(I), .},
    restricted to the DFS corner on both sides. It is assembled on the
    (d^2, d^2) block, from B† H_eff B, B† F_eff_l B, B† (sum_l F_eff_l† F_eff_l
    + E_eff_adj(I)) B and E† E_eff E, and embedded once.
    """
    b = eff.dfs.basis
    e = dfs_columns(b)
    w = sum((dagger(f) @ f for f in eff.jumps_eff), eff.cp_adjoint_identity)
    block = gksl_superop(dagger(b) @ eff.h_eff @ b,
                         [dagger(b) @ f @ b for f in eff.jumps_eff],
                         w=dagger(b) @ w @ b)
    return embed_superop(block + dagger(e) @ eff.cp_superop @ e, b)


def dfs_block(superop: np.ndarray, dfs: DfsProjector) -> np.ndarray:
    """Compress a DFS-corner superoperator to its (d^2, d^2) block matrix."""
    return compress_superop(superop, dfs.basis)


@dataclass(frozen=True)
class EquivalenceReport:
    residual: float
    general_norm: float
    closed_norm: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def verify_equivalence(lind: StructuredLindbladian, pert: Perturbation,
                       tol: float = 1e-9) -> EquivalenceReport:
    """Compare the general and closed routes on the DFS corner."""
    gen = effective_lindbladian_general(lind, pert)
    closed = effective_to_superop(effective_lindbladian_closed(lind, pert))
    num = frob(gen - closed)
    den = max(frob(gen), RESIDUAL_FLOOR)
    return EquivalenceReport(
        residual=num / den,
        general_norm=frob(gen),
        closed_norm=frob(closed),
        tol=tol,
    )


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the structural identities behind the closed route.

    adjoint_identity: E_eff adjoint applied to I vs sum_l f_ll_l† f_ll_l.
    offdiag_inverse: the decaying-sector solve against i[Kinv, sigma]* on a
        basis of block-off-diagonal operators.
    resolvent_identity: sum_l Kinv† F_l† F_l Kinv vs -i(Kinv - Kinv†).
    jump_norm_identity: sum_l (F_eff_l† F_eff_l - f_ul_l† f_ul_l) vs
        -i(C Kinv C - H.c.).
    """

    adjoint_identity: float
    offdiag_inverse: float
    resolvent_identity: float
    jump_norm_identity: float
    tol: float

    def as_dict(self) -> dict[str, float]:
        return {
            "adjoint_identity": self.adjoint_identity,
            "offdiag_inverse": self.offdiag_inverse,
            "resolvent_identity": self.resolvent_identity,
            "jump_norm_identity": self.jump_norm_identity,
        }

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.as_dict().values())


def _rel(num: float, scale: float) -> float:
    return num / max(scale, RESIDUAL_FLOOR)


def identity_suite(lind: StructuredLindbladian, pert: Perturbation,
                   tol: float = 1e-11) -> IdentityReport:
    """Check the operator identities that tie the two routes together."""
    _check_pair(lind, pert)
    dfs = lind.dfs
    eff = effective_lindbladian_closed(lind, pert)
    kinv = nh_hamiltonian_inverse(lind.k, dfs)

    # E_eff adjoint on the identity.
    lhs = apply_superop(adjoint_superop(eff.cp_superop), np.eye(dfs.dim, dtype=complex))
    rhs = eff.cp_adjoint_identity
    adjoint_res = _rel(frob(lhs - rhs), max(frob(lhs), frob(rhs)))

    # Decaying-sector solve vs i[Kinv, sigma]* on off-diagonal basis units.
    offdiag_res = 0.0
    bp, bq = dfs.basis, dfs.basis_c
    for i in range(dfs.d):
        for j in range(dfs.n_decay):
            for sigma in (
                np.outer(bp[:, i], bq[:, j].conj()),
                np.outer(bq[:, j], bp[:, i].conj()),
            ):
                got = nh_superop_solve(lind.k, sigma, dfs)
                want = 1j * star_commutator(kinv, sigma)
                offdiag_res = max(offdiag_res, _rel(frob(got - want), frob(want)))

    # Resolvent identity.
    lhs = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    for big_f in lind.jumps:
        lhs = lhs + dagger(kinv) @ dagger(big_f) @ big_f @ kinv
    rhs = -1j * (kinv - dagger(kinv))
    resolvent_res = _rel(frob(lhs - rhs), max(frob(lhs), frob(rhs)))

    # Effective-jump norm identity.
    coupling = effective_coupling(lind, pert)
    lhs = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    for f_eff, f in zip(eff.jumps_eff, pert.fs):
        f_ul = four_corners(f, dfs).ul
        lhs = lhs + dagger(f_eff) @ f_eff - dagger(f_ul) @ f_ul
    x = coupling @ kinv @ coupling
    rhs = -1j * (x - dagger(x))
    jump_res = _rel(frob(lhs - rhs), max(frob(lhs), frob(rhs), frob(coupling) ** 2))

    return IdentityReport(
        adjoint_identity=adjoint_res,
        offdiag_inverse=offdiag_res,
        resolvent_identity=resolvent_res,
        jump_norm_identity=jump_res,
        tol=tol,
    )


@dataclass(frozen=True)
class CornerSensitivityReport:
    """Relative change of the general-route L_eff when inert corners are zeroed.

    The v_lr, f_ur, and f_lr corners of the perturbation do not enter the
    second-order DFS generator; each delta should sit at round-off.
    """

    v_lr_delta: float
    f_ur_delta: float
    f_lr_delta: float
    combined_delta: float
    reference_norm: float
    tol: float

    def as_dict(self) -> dict[str, float]:
        return {
            "v_lr_delta": self.v_lr_delta,
            "f_ur_delta": self.f_ur_delta,
            "f_lr_delta": self.f_lr_delta,
            "combined_delta": self.combined_delta,
        }

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.as_dict().values())


def corner_sensitivity(lind: StructuredLindbladian, pert: Perturbation,
                       tol: float = 1e-10) -> CornerSensitivityReport:
    """Recompute the general route with inert perturbation corners removed."""
    _check_pair(lind, pert)
    dfs = lind.dfs
    reference = effective_lindbladian_general(lind, pert)
    scale = max(frob(reference), RESIDUAL_FLOOR)

    def strip(drop_v_lr: bool, drop_f_ur: bool, drop_f_lr: bool) -> float:
        v = pert.v
        if drop_v_lr:
            v = v - four_corners(v, dfs).lr
        fs = []
        for f in pert.fs:
            c = four_corners(f, dfs)
            g = f
            if drop_f_ur:
                g = g - c.ur
            if drop_f_lr:
                g = g - c.lr
            fs.append(g)
        other = effective_lindbladian_general(lind, Perturbation(v=v, fs=tuple(fs)))
        return frob(other - reference) / scale

    return CornerSensitivityReport(
        v_lr_delta=strip(True, False, False),
        f_ur_delta=strip(False, True, False),
        f_lr_delta=strip(False, False, True),
        combined_delta=strip(True, True, True),
        reference_norm=frob(reference),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Random structured instances
# ---------------------------------------------------------------------------

def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + dagger(a)) / 2


def _random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _defective_decaying_hamiltonian(w: np.ndarray) -> np.ndarray:
    """Hermitian 2x2 H making K = H - iW/2 defective (double eigenvalue, Jordan).

    With y = (W_00 - W_11)/2 and v = W_01/2, choosing the off-diagonal entry b
    so the eigenvalue discriminant of K vanishes while K21 stays nonzero gives
    an exactly non-diagonalizable K. Requires |v| or |y| nonzero.
    """
    y = (w[0, 0].real - w[1, 1].real) / 2
    v = w[0, 1] / 2
    if abs(v) > 1e-12:
        r = np.sqrt(abs(v) ** 2 + y * y / 4)
        b = 1j * r * v / abs(v)
    elif abs(y) > 1e-12:
        b = y / 2
    else:
        raise ValueError("weight matrix too symmetric to engineer a Jordan block")
    return np.array([[0.0, b], [np.conj(b), 0.0]], dtype=complex)


def random_structured_instance(d: int, n: int, n_jumps: int, seed: int, *,
                               defective_k: bool = False,
                               pert_scale: float = 1.0,
                               extra_zero_jump: bool = False,
                               max_attempts: int = 8):
    """Draw a random structured Lindbladian and a full-corner perturbation.

    The DFS is the first d basis states of a (d+n)-dimensional space. Jumps
    have standard complex normal entries on their decaying-to-DFS corner, the
    Hamiltonian is a random Hermitian on the decaying block, V is a random
    full Hermitian, and each f_l is a random full matrix times pert_scale.

    With defective_k=True (requires n == 2) the decaying Hamiltonian is
    engineered so the non-Hermitian Hamiltonian K has a genuine Jordan block.
    With extra_zero_jump=True a zero jump with a nonzero deformation is
    appended, exercising newly opened channels.

    Redraws (up to max_attempts) when the instance fails validation or is too
    close to degenerate for reliable spectral separation.
    """
    if defective_k and n != 2:
        raise ValueError("defective_k instances are engineered for n == 2")
    rng = np.random.default_rng(seed)
    dim = d + n
    dfs = DfsProjector.from_indices(dim, range(d))
    last_err = None
    for _ in range(max_attempts):
        jumps = []
        for _ in range(n_jumps):
            f = np.zeros((dim, dim), dtype=complex)
            f[:d, d:] = _random_matrix(rng, d, n)
            jumps.append(f)
        w = sum(dagger(f) @ f for f in jumps)[d:, d:]
        h = np.zeros((dim, dim), dtype=complex)
        try:
            h[d:, d:] = _defective_decaying_hamiltonian(w) if defective_k else _random_hermitian(rng, n)
            lind = structured_lindbladian(h, jumps, dfs)
            if min(np.abs(np.diag(lind.decaying_sector.t))) < 1e-2:
                raise ValueError("non-Hermitian Hamiltonian too close to singular")
            # The slowest decay rate of a structured L is min(-Im kappa) over
            # the eigenvalues kappa of K_qq, on the cached Schur diagonal.
            if float(np.min(-np.diag(lind.decaying_sector.t).imag)) < 5e-2:
                raise ValueError("spectral gap too small for a clean instance")
        except (ValueError, np.linalg.LinAlgError) as err:
            last_err = err
            continue
        if extra_zero_jump:
            lind = structured_lindbladian(
                h, list(jumps) + [np.zeros((dim, dim), dtype=complex)], dfs
            )
        v = pert_scale * _random_hermitian(rng, dim)
        fs = [pert_scale * _random_matrix(rng, dim, dim) for _ in lind.jumps]
        return lind, Perturbation(v=v, fs=tuple(fs))
    raise RuntimeError(f"no valid instance after {max_attempts} draws: {last_err}")


def perturbed_superop(lind: StructuredLindbladian, pert: Perturbation) -> np.ndarray:
    """Full generator of the perturbed system, L(H+V, {F+f})."""
    _check_pair(lind, pert)
    jumps = [big_f + f for big_f, f in zip(lind.jumps, pert.fs)]
    return assemble_lindbladian(lind.h + pert.v, jumps)
