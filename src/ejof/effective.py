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
O1 + O2 = L(H+V, {F+f}) - L(H, {F}) holds as a matrix identity. The route is
evaluated for K perturbations of one generator at once. In normal form every
jump annihilates the DFS, so O1 maps each DFS unit to a rank-two operator and
L^D maps that to x_i b_j† + b_i x_j†, read off the one n x n LU of the
generator's corner factor in one solve for all K (:func:`_rank_two_blocks`).

Closed route (effective operators)
    H_eff = Herm(V_pp - C_pq Kinv C_qp)
    F_eff_l = f_pp_l - A_l Kinv C_qp
    E_eff(rho) = - sum_l' A_l' Kinv_lr( sum_l f_qp_l rho f_qp_l† ) A_l'†
assembled as
    L_eff(rho) = -i[H_eff, rho] + sum_l D[F_eff_l](rho)
                 + E_eff(rho) - (1/2){ sum_l f_qp_l† f_qp_l , rho }
on the blocks of a DFS P (d states, indices ``dfs.indices``) and its decaying
complement Q (n states, ``dfs.rest``): X_pq is the (d, n) block X[P, Q] of an
operator, and so on. A_l = F_l[P, Q] is the part of a jump that feeds the DFS,
K the non-Hermitian Hamiltonian of the unperturbed generator, Kinv = K_qq^-1
(n, n), Kinv_lr the inverse of the decaying-block evolution
sigma -> -i(K_qq sigma - sigma K_qq†), and C_qp, C_pq the two blocks of the
induced coupling between the DFS and the decaying block,
    C_qp = V_qp - (i/2) sum_l A_l† f_pp_l,   C_pq = V_pq - (i/2) sum_l f_pp_l† A_l.
The coupling has no other block that the route reads, and these forms are
exact: the paper's full-space products (C Kinv C, F_l Kinv C) read only these
blocks, since Kinv lives on the decaying block and only the DFS corner is kept.

Both routes return the effective generator as the (d^2, d^2) DFS block, its
only form. A :class:`Study` of one generator and perturbation evaluates each
route, their agreement, the identities and the corner-sensitivity batch (the
reference and four stripped variants, K = 5) at most once, and every check
reads its numbers from one. The DFS block of an operator is its rows and
columns at the DFS indices, and the block of a map S of the full space is
E† S E, for E the d^2 unit columns at the DFS vec positions
(``dfs.vec_order[:d^2]``): vec(b_i b_j†) in column i + d j. The general route
applies O1 and O2 as maps on the d^2 operators P_inf E (the DFS units
themselves, for the generator's corner factor), never as D^2 x D^2
matrices, and on a generator in normal form as pairs of DFS columns only.
The closed route forms no D x D array (:class:`EffectiveGenerator`): E_eff
acts on the d^2 DFS units b_i b_j† at once, as d^2 sources on the decaying
block formed in the Schur frame of the sector map, one sweep of that map,
and the feed read off the solutions in the same frame, and the block of
L_eff is one GKSL assembly of the pieces (:func:`effective_to_superop`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .lindblad import (
    CornerFactor,
    StructuredLindbladian,
    assemble_lindbladian,
    nh_hamiltonian_inverse,
    slowest_decay_rate,
    structured_lindbladian,
)
from .operators import (
    DfsProjector,
    dagger,
    devectorize_columns,
    four_corners,
    frob,
    gksl_superop,
    operator_stack,
    require_hermitian,
    vectorize_stack,
)

RESIDUAL_FLOOR = 1e-14
EQUIVALENCE_TOL = 1e-9
IDENTITY_TOL = 1e-11
CORNER_TOL = 1e-10


@dataclass(frozen=True)
class Perturbation:
    """Hermitian Hamiltonian drive V and jump deformations f_l.

    fs must have one entry per unperturbed jump (zero matrices are fine, and
    extra channels can be represented by appending zero unperturbed jumps).
    It may be a sequence of (D, D) operators, stacked once, or one (J, D, D)
    array, kept uncopied when complex; ``fs`` is then one complex (J, D, D)
    array, the only form of the f_l (:func:`~ejof.operators.operator_stack`).
    """

    v: np.ndarray
    fs: np.ndarray

    def __post_init__(self):
        v = require_hermitian(self.v, "perturbation Hamiltonian")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "fs", operator_stack(self.fs, v, "jump deformation", "V"))

    @classmethod
    def zero(cls, dim: int, n_jumps: int) -> "Perturbation":
        return cls(v=np.zeros((dim, dim), dtype=complex),
                   fs=np.zeros((n_jumps, dim, dim), dtype=complex))

    def scaled(self, s: float) -> "Perturbation":
        return Perturbation(v=s * self.v, fs=s * self.fs)

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


def _blocks(stack: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The [rows, cols] block of each operator of a (J, D, D) stack, as one gather."""
    return stack[:, rows[:, None], cols]


def effective_coupling(lind: StructuredLindbladian,
                       pert: Perturbation) -> tuple[np.ndarray, np.ndarray]:
    """The blocks (C_qp, C_pq) of the induced coupling between the DFS and decaying blocks.

    C_qp = V_qp - (i/2) sum_l A_l† f_pp_l, (n, d), and
    C_pq = V_pq - (i/2) sum_l f_pp_l† A_l, (d, n), for A_l = F_l[P, Q]: the
    blocks of the paper's C = V_offdiag - (i/2) sum_l (F_l† f_ul_l + f_ul_l† F_l)
    that the closed route reads.
    """
    _check_pair(lind, pert)
    idx, rest = lind.dfs.indices, lind.dfs.rest
    a = _blocks(lind.jumps, idx, rest)
    f_pp = _blocks(pert.fs, idx, idx)
    g = np.sum(dagger(a) @ f_pp, axis=0)  # sum_l A_l† f_pp_l, (n, d)
    return pert.v[np.ix_(rest, idx)] - 0.5j * g, pert.v[np.ix_(idx, rest)] - 0.5j * dagger(g)


def _o1_coefficient(lind: StructuredLindbladian, perts) -> np.ndarray:
    """A of O1 for each of K perturbations, as (K, D, D).

    O1(X) = -i(A X - X A†) + sum_l (F_l X f_l† + f_l X F_l†). The star
    commutator is additive in A, so its V_diag part, the full-space coupling C
    (whose two blocks :func:`effective_coupling` returns) and its f_ur part
    -(i/2) sum_l (f_ur_l† F_l + F_l† f_ur_l) share one A; as f_ul + f_ur = P f,
    the DFS rows of f, A = V - (i/2)(G + G†) with G = sum_l F_l† P f_l. As P
    acts on the rows of f_l, G = sum_l F_l[idx, :]† f_l[idx, :], one
    (D, J d) x (J d, D) product per perturbation, whatever rows F_l has.
    """
    idx = lind.dfs.indices
    rows = lind.jumps[:, idx].reshape(-1, lind.dim)  # row (l, i) is F_l[idx_i, :]
    g = dagger(rows) @ np.array([pert.fs[:, idx].reshape(-1, lind.dim) for pert in perts])
    return np.array([pert.v for pert in perts]) - 0.5j * (g + dagger(g))


def _apply_o1(a: np.ndarray, jumps, fs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """O1 of each of K perturbations on its operators, as (K, m, D, D).

    a is :func:`_o1_coefficient`, fs the (K, J, D, D) deformations, and x a
    (K, m, D, D) stack or one (m, D, D) stack shared by all K. The jump sum
    accumulates in place, so no temporary exceeds K m operators.
    """
    a = a[:, None]
    out = -1j * (a @ x - x @ dagger(a))
    for j, big_f in enumerate(jumps):
        f = fs[:, j, None]
        out += big_f @ x @ dagger(f) + f @ x @ dagger(big_f)
    return out


def _apply_o2(fs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """O2 = sum_l D[f_l] of each of K perturbations on a shared (m, D, D) stack x."""
    w = np.sum(dagger(fs) @ fs, axis=1)[:, None]
    out = -0.5 * (w @ x + x @ w)
    for j in range(fs.shape[1]):
        f = fs[:, j, None]
        out += f @ x @ dagger(f)
    return out


def _on_units(left: list, right: list) -> np.ndarray:
    """sum_l left_l E right_l† on each DFS unit E = b_i b_j†, as (K, d^2, D, D), unit i + d j.

    left and right are lists of (K, P, D, d) stacks of the DFS columns
    left_l[:, idx] and right_l[:, idx] of operator pairs, joined along P. As
    left_l b_i b_j† right_l† = left_l[:, idx_i] right_l[:, idx_j]†, every unit
    and pair is one (D d, P) x (P, D d) product per perturbation.
    """
    left, right = np.concatenate(left, axis=1), np.concatenate(right, axis=1)
    k, pairs, dim, d = left.shape
    outer = left.reshape(k, pairs, dim * d).transpose(0, 2, 1) @ right.conj().reshape(k, pairs, dim * d)
    # outer[k, (p, i), (q, j)] is entry (p, q) of unit i + d j.
    return outer.reshape(k, dim, d, dim, d).transpose(0, 4, 2, 1, 3).reshape(k, d * d, dim, dim)


def _unit_terms(lind: StructuredLindbladian, perts):
    """A of O1, and the DFS columns of the pairs of O1 E and O2 E.

    Each of O1 E and O2 E is a (left, right) pair of lists of (K, P, D, d)
    stacks for :func:`_on_units`: with c = -i A for O1 and
    c = -(1/2) sum_l f_l† f_l for O2, c E + E c† is the pairs (c, I) and
    (I, c), and the jump terms are (F_l, f_l) and (f_l, F_l) for O1 and
    (f_l, f_l) for O2. So O1 E's left list is [c b, b, F_l b, f_l b]. Each
    perturbation's f_l enter only through its DFS rows and columns, gathered
    from its own (J, D, D) array, and its c2 b.
    """
    for pert in perts:
        _check_pair(lind, pert)
    dim, idx = lind.dim, lind.dfs.indices
    a = _o1_coefficient(lind, perts)
    f = np.array([pert.fs[..., idx] for pert in perts])  # (K, J, D, d)
    shape = (len(perts), 1, dim, idx.size)
    big_f = np.broadcast_to(lind.jumps[..., idx], f.shape)
    unit = np.broadcast_to(np.eye(dim, dtype=complex)[:, idx], shape)
    c1 = (-1j * a[..., idx]).reshape(shape)
    # sum_l f_l† (f_l b) is the conjugate of sum_l f_l^T conj(f_l b), which conjugates
    # only the DFS columns f_l b, not the f_l.
    c2 = np.array([np.sum(pert.fs.swapaxes(-1, -2) @ fb.conj(), axis=0) for pert, fb in zip(perts, f)])
    c2 = (-0.5 * c2.conj()).reshape(shape)
    return a, ([c1, unit, big_f, f], [unit, c1, f, big_f]), ([c2, unit, f], [unit, c2, f])


def _dfs_unit_columns(lind: StructuredLindbladian) -> np.ndarray:
    """E, the d^2 vec columns of the DFS units b_i b_j†, unit i + d j."""
    m = lind.dfs.d ** 2
    e = np.zeros((lind.dim ** 2, m), dtype=complex)
    e[lind.dfs.vec_order[:m], range(m)] = 1.0
    return e


def _contract(lind: StructuredLindbladian, units: np.ndarray) -> np.ndarray:
    """E† P_inf of (K, d^2, D, D) operators, as (K, d^2, d^2): J† of their vec columns."""
    m = lind.dfs.d ** 2
    j = lind.factor.apply_projection(_dfs_unit_columns(lind), adjoint=True)
    return (dagger(j) @ vectorize_stack(units)).reshape(m, len(units), m).transpose(1, 0, 2)


def _stacked_blocks(lind: StructuredLindbladian, perts) -> np.ndarray:
    """The route of :func:`_general_blocks` by L^D columns and stacked D x D products.

    O1 and O2 act on the DFS units as pairs (:func:`_unit_terms`); a factor
    with P_inf E != E (the dense oracle on a DFS that is not steady) adds O1
    and O2 of P_inf E - E as stacked D x D products. L^D is applied to the
    K d^2 columns O1 P_inf E in one solve, and the second O1 acts on them as
    stacked D x D products, 2 + 4J per operator. Exact for any factor that
    solves columns: a leaky corner factor or a dense one swapped in. It
    is the one path that stacks the K perturbations' f_l, as (K, J, D, D).
    """
    a, o1, o2 = _unit_terms(lind, perts)
    fs = np.array([pert.fs for pert in perts])
    o1x, o2x = _on_units(*o1), _on_units(*o2)
    e = _dfs_unit_columns(lind)
    moved = devectorize_columns(lind.factor.apply_projection(e) - e)
    if moved.any():
        o1x = o1x + _apply_o1(a, lind.jumps, fs, moved)
        o2x = o2x + _apply_o2(fs, moved)
    ld_o1x = devectorize_columns(lind.factor.apply_drazin(vectorize_stack(o1x))).reshape(o1x.shape)
    return _contract(lind, o1x + o2x - _apply_o1(a, lind.jumps, fs, ld_o1x))


def _rank_two_blocks(lind: StructuredLindbladian, perts) -> np.ndarray:
    """The route of :func:`_general_blocks` on a non-leaky corner factor: L^D O1 E is rank two.

    In normal form H = QHQ and F_l = P F_l Q, and a non-leaky factor has no
    entry outside them, so F_l b_i = 0 exactly. With c = -i A (A of
    :func:`_o1_coefficient`), O1(E_ij) = (c b_i) b_j† + b_i (c b_j)†, the
    pairs (c, I) and (I, c). Its ul corner is dropped by L^D, its lr corner
    is zero, and its ll and ur corners are c_qp[:, i] b_j† and
    b_i c_qp[:, j]†, which L_rr maps to themselves and G does not read, so
    (:meth:`~ejof.lindblad.CornerFactor.solve_rank_two`)

        L^D O1 E_ij = x_i b_j† + b_i x_j†,   x = (-i K_qq)^-1 c_qp,

    one solve with the factor's n x n LU on the K d columns of c_qp: the ur
    corner's solve is the ll one's adjoint, so both give x. As F_l b = 0,
    the second O1 maps x_i b_j† to the pairs (c x, b), (x, c b) and
    (F_l x, f_l b), and b_i x_j† to their mirrors (c b, x), (b, c x) and
    (f_l b, F_l x): six pair kinds on the DFS columns, with no D x D x D
    product. They enter :func:`_on_units` with the pairs of O1 E and O2 E,
    the second-order ones negated.
    """
    a, ((cb, b, _, fb), _), (o2_left, o2_right) = _unit_terms(lind, perts)
    k = len(perts)
    dim, d, n, rest = lind.dim, lind.dfs.d, lind.dfs.n_decay, lind.dfs.rest
    # Column (k, j) is c_qp[:, j] of perturbation k; x comes back as (K, n, d).
    c_qp = cb[:, 0, rest].transpose(1, 0, 2).reshape(n, k * d)
    x_q = lind.factor.solve_rank_two(c_qp).reshape(n, k, d).transpose(1, 0, 2)
    x = np.zeros((k, 1, dim, d), dtype=complex)
    x[:, 0, rest] = x_q
    cx = (-1j * a[..., rest] @ x_q)[:, None]
    fx = lind.jumps[..., rest] @ x_q[:, None]  # (K, J, D, d)
    left = [cb, b, *o2_left, -cx, -x, -fx, -cb, -b, -fb]
    right = [b, cb, *o2_right, b, cb, fb, x, cx, fx]
    return _contract(lind, _on_units(left, right))


def _general_blocks(lind: StructuredLindbladian, perts) -> np.ndarray:
    """General-route DFS blocks of K perturbations of one generator, as (K, d^2, d^2).

    Block k is E† P_inf [ (O1 + O2)(P_inf E) - O1 L^D O1 (P_inf E) ] for the
    O1, O2 of perturbation k. A :class:`~ejof.lindblad.CornerFactor` gives
    P_inf E = E exactly, so O1 and O2 act on the d^2 DFS units themselves, as
    pairs over DFS columns (:func:`_unit_terms`). On a non-leaky corner
    factor L^D O1 E is rank two per unit and is read off the factor's one
    n x n LU (:func:`_rank_two_blocks`); a leaky factor, whose F_l b_i need
    not vanish, or any other factor takes the L^D solve and the stacked
    products (:func:`_stacked_blocks`). P_inf enters only through the d^2
    columns P_inf E and P_inf† E (E and J for a corner factor), never as a
    D^2 x D^2 matrix. Only the generator's own spectral factor enters, so
    the route stays independent of the closed one.
    """
    factor = lind.factor
    if isinstance(factor, CornerFactor) and not factor.leaky:
        return _rank_two_blocks(lind, perts)
    return _stacked_blocks(lind, perts)


def effective_lindbladian_general(lind: StructuredLindbladian, pert: Perturbation) -> np.ndarray:
    """Second-order effective generator by the resolvent route, as its DFS block.

    The (d^2, d^2) block of P_inf (O1 + O2) P_inf - P_inf O1 L^D O1 P_inf: the
    K = 1 case of :func:`_general_blocks`.
    """
    return _general_blocks(lind, [pert])[0]


@dataclass(frozen=True)
class EffectiveGenerator:
    """Closed-form effective generator data, as the blocks it is built from.

    h_eff (d, d) and jumps_eff (J, d, d) are H_eff and the F_eff_l on the DFS,
    their only block. cp_superop is the completely positive feed-through term
    E_eff as its (d^2, d^2) DFS block (E_eff reads and writes only the DFS
    corner, so the block is all of it); cp_adjoint_identity (d, d) is
    sum_l f_qp_l† f_qp_l, the adjoint of E_eff applied to the identity, which
    sets the trace-conserving anticommutator counterweight. kinv (n, n) is
    K_qq^-1 and coupling the blocks (C_qp, C_pq) of :func:`effective_coupling`;
    :attr:`Study.identities` reads them.
    """

    h_eff: np.ndarray
    jumps_eff: np.ndarray
    cp_superop: np.ndarray
    cp_adjoint_identity: np.ndarray
    kinv: np.ndarray
    coupling: tuple[np.ndarray, np.ndarray]


def effective_lindbladian_closed(lind: StructuredLindbladian, pert: Perturbation) -> EffectiveGenerator:
    """Second-order effective generator by the closed (effective-operator) route.

    H_eff, the F_eff_l and sum_l f_qp_l† f_qp_l are products of the (d, d),
    (d, n) and (n, d) blocks of the module docstring. E_eff is built on the
    d^2 DFS units b_i b_j† at once: their sources sum_l f_qp_l b_i b_j† f_qp_l†
    on the decaying block are one GEMM, one sweep of the generator's
    ``decaying_sector`` inverts the evolution on all of them, and the feed
    sum_l A_l (.) A_l† maps the solutions back to the DFS block. Sources and
    feed are taken in the sweep's Schur frame (sigma = U Y V†), from the
    (n, d) and (d, n) blocks times U and V, so no n x n solution is turned
    back out of that frame.
    """
    _check_pair(lind, pert)
    dfs = lind.dfs
    d, n, idx, rest = dfs.d, dfs.n_decay, dfs.indices, dfs.rest
    kinv = nh_hamiltonian_inverse(lind.k, dfs)
    c_qp, c_pq = effective_coupling(lind, pert)
    feed = _blocks(lind.jumps, idx, rest)  # A_l, (J, d, n)
    kc = kinv @ c_qp
    x = pert.v[np.ix_(idx, idx)] - c_pq @ kc
    h_eff = 0.5 * (x + dagger(x))
    jumps_eff = _blocks(pert.fs, idx, idx) - feed @ kc
    f_qp = _blocks(pert.fs, rest, idx)
    adj_id = np.sum(dagger(f_qp) @ f_qp, axis=0)
    cp_superop = np.zeros((d * d, d * d), dtype=complex)
    # With every f_qp zero, E_eff is zero and the sector is not solved.
    if f_qp.any():
        # In the sector's Schur frame sigma = U Y V†, the source of unit i + d j,
        # sum_l f_qp_l[:, i] f_qp_l[:, j]†, is sum_l (U† f_qp_l)[:, i] (V† f_qp_l)[:, j]†:
        # one GEMM over [l, (q, j)] and [l, (p, i)], laid out as the stack [q, p, (j, i)].
        sector = lind.decaying_sector
        gu = (dagger(sector.u) @ f_qp).reshape(-1, n * d)
        gv = (dagger(sector.v) @ f_qp).reshape(-1, n * d)
        source = (gv.conj().T @ gu).reshape(n, d, n, d).transpose(0, 2, 1, 3).reshape(n, n, d * d)
        y = sector.sweep(-source)  # [q, p, c] = Y_c[p, q]
        # The feed sum_l A_l sigma_c A_l† is sum_l (A_l U) Y_c (A_l V)†: V's side is one
        # GEMM over q, laid out as [l, j, p, c], and U's side one product per jump.
        z = (np.conj(feed @ sector.v).reshape(-1, n) @ y.reshape(n, -1)).reshape(-1, d, n, d * d)
        cp_superop = np.sum((feed @ sector.u)[:, None] @ z, axis=0).reshape(d * d, d * d)
    return EffectiveGenerator(
        h_eff=h_eff,
        jumps_eff=jumps_eff,
        cp_superop=cp_superop,
        cp_adjoint_identity=adj_id,
        kinv=kinv,
        coupling=(c_qp, c_pq),
    )


def effective_to_superop(eff: EffectiveGenerator) -> np.ndarray:
    """Assemble the closed-form blocks into the (d^2, d^2) DFS block of L_eff.

    -i[H_eff, .] + sum_l D[F_eff_l] + E_eff - (1/2){E_eff_adj(I), .}: one
    GKSL assembly of H_eff and the F_eff_l with
    W = sum_l F_eff_l† F_eff_l + E_eff_adj(I), plus the block of E_eff.
    """
    w = sum((dagger(f) @ f for f in eff.jumps_eff), eff.cp_adjoint_identity)
    return gksl_superop(eff.h_eff, eff.jumps_eff, w=w) + eff.cp_superop


@dataclass(frozen=True)
class EquivalenceReport:
    residual: float
    general_norm: float
    closed_norm: float

    @property
    def passed(self) -> bool:
        return self.residual <= EQUIVALENCE_TOL


def verify_equivalence(lind: StructuredLindbladian, pert: Perturbation) -> EquivalenceReport:
    """Compare the general and closed routes on the DFS block (:attr:`Study.equivalence`)."""
    return Study(lind, pert).equivalence


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the structural identities behind the closed route.

    adjoint_identity: E_eff adjoint applied to I vs sum_l f_qp_l† f_qp_l.
    offdiag_inverse: LU solves of -i K_qq and i K_qq† on the ll and ur units
        against the columns of i Kinv and the rows of -i Kinv†.
    resolvent_identity: Kinv† W_qq Kinv vs -i(Kinv - Kinv†), for
        W_qq = sum_l F_l[:, Q]† F_l[:, Q].
    jump_norm_identity: sum_l (F_eff_l† F_eff_l - f_pp_l† f_pp_l) vs
        -i(C_pq Kinv C_qp - H.c.).
    """

    adjoint_identity: float
    offdiag_inverse: float
    resolvent_identity: float
    jump_norm_identity: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def passed(self) -> bool:
        return all(r <= IDENTITY_TOL for r in self.as_dict().values())


def _rel(num: float, scale: float) -> float:
    return num / max(scale, RESIDUAL_FLOOR)


def identity_suite(lind: StructuredLindbladian, pert: Perturbation) -> IdentityReport:
    """Check the operator identities behind the closed route (:attr:`Study.identities`)."""
    return Study(lind, pert).identities


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

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name.endswith("_delta")}

    @property
    def passed(self) -> bool:
        return all(r <= CORNER_TOL for r in self.as_dict().values())


def corner_sensitivity(lind: StructuredLindbladian, pert: Perturbation) -> CornerSensitivityReport:
    """Recompute the general route with inert perturbation corners removed.

    The four stripped perturbations come from one corner split of V and of
    the stacked f_l, and go through the general route in one batch with the
    reference.
    """
    _check_pair(lind, pert)
    v_lr = four_corners(pert.v, lind.dfs).lr
    fs = pert.fs
    f = four_corners(fs, lind.dfs)
    reference, *stripped = _general_blocks(lind, [
        pert,
        Perturbation(v=pert.v - v_lr, fs=fs),
        Perturbation(v=pert.v, fs=fs - f.ur),
        Perturbation(v=pert.v, fs=fs - f.lr),
        Perturbation(v=pert.v - v_lr, fs=fs - f.ur - f.lr),
    ])
    scale = max(frob(reference), RESIDUAL_FLOOR)
    # The variants come in the report's field order: v_lr, f_ur, f_lr, combined.
    return CornerSensitivityReport(*(frob(other - reference) / scale for other in stripped),
                                   reference_norm=frob(reference))


@dataclass(frozen=True, eq=False)
class Study:
    """One generator and perturbation, and every number read off them, each computed once.

    Attributes are computed on first read and kept. ``general`` is a K = 1
    evaluation that reads only the generator's own factor and asymptotic
    projection, never a closed-route attribute, so the routes stay
    independent. Each report passes by its module constant (EQUIVALENCE_TOL,
    IDENTITY_TOL, CORNER_TOL).
    """

    lind: StructuredLindbladian
    pert: Perturbation

    @cached_property
    def general(self) -> np.ndarray:
        return effective_lindbladian_general(self.lind, self.pert)

    @cached_property
    def closed(self) -> EffectiveGenerator:
        return effective_lindbladian_closed(self.lind, self.pert)

    @cached_property
    def closed_block(self) -> np.ndarray:
        return effective_to_superop(self.closed)

    @cached_property
    def equivalence(self) -> EquivalenceReport:
        """Route disagreement relative to ||general||, floored at RESIDUAL_FLOOR."""
        general_norm = frob(self.general)
        return EquivalenceReport(
            residual=frob(self.general - self.closed_block) / max(general_norm, RESIDUAL_FLOOR),
            general_norm=general_norm,
            closed_norm=frob(self.closed_block),
        )

    @cached_property
    def scaled_residual(self) -> float:
        """Route disagreement relative to max(||general||, ||closed||, ||pert||^2).

        Unlike :attr:`equivalence`, it stays meaningful where L_eff vanishes.
        """
        eq = self.equivalence
        scale = max(eq.general_norm, eq.closed_norm, self.pert.norm() ** 2, 1e-300)
        return frob(self.general - self.closed_block) / scale

    @cached_property
    def identities(self) -> IdentityReport:
        """The operator identities that tie the two routes together, on blocks."""
        lind, eff = self.lind, self.closed
        dfs = lind.dfs
        kinv, (c_qp, c_pq) = eff.kinv, eff.coupling

        # E_eff adjoint on the identity, on the DFS block: E_eff† vec(I), unstacked.
        lhs = (dagger(eff.cp_superop) @ np.eye(dfs.d, dtype=complex).reshape(-1)).reshape(
            (dfs.d, dfs.d), order="F")
        rhs = eff.cp_adjoint_identity
        adjoint_res = _rel(frob(lhs - rhs), max(frob(lhs), frob(rhs)))

        # Decaying-sector solve vs i[Kinv, sigma]* on the units q_j b_i† (ll:
        # -i K rho = sigma) and b_i q_j† (ur: i rho K† = sigma). Their solutions
        # are column j of (-i K_qq)^-1 and row j of (i K_qq†)^-1, for every i.
        lu = lu_factor(-1j * lind.k[np.ix_(dfs.rest, dfs.rest)])
        eye = np.eye(dfs.n_decay)
        offdiag_res = float(max(
            np.max(np.linalg.norm(got - want, axis=axis)
                   / np.maximum(np.linalg.norm(want, axis=axis), RESIDUAL_FLOOR))
            for got, want, axis in ((lu_solve(lu, eye), 1j * kinv, 0),
                                    (lu_solve(lu, eye, trans=2), -1j * dagger(kinv), 1))
        ))

        # Resolvent identity on the decaying block, W_qq = sum_l A_l† A_l for A_l = F_l[P, Q]:
        # the identities are read where the structure checks passed: F_l is A_l up to 1e-10 of its norm.
        a = _blocks(lind.jumps, dfs.indices, dfs.rest).reshape(-1, dfs.n_decay)
        lhs = dagger(kinv) @ (dagger(a) @ a) @ kinv
        rhs = -1j * (kinv - dagger(kinv))
        resolvent_res = _rel(frob(lhs - rhs), max(frob(lhs), frob(rhs)))

        # Effective-jump norm identity, on the DFS block.
        f_pp = _blocks(self.pert.fs, dfs.indices, dfs.indices)
        lhs = np.sum(dagger(eff.jumps_eff) @ eff.jumps_eff - dagger(f_pp) @ f_pp, axis=0)
        x = c_pq @ kinv @ c_qp
        rhs = -1j * (x - dagger(x))
        coupling_sq = frob(c_qp) ** 2 + frob(c_pq) ** 2
        jump_res = _rel(frob(lhs - rhs), max(frob(lhs), frob(rhs), coupling_sq))

        return IdentityReport(
            adjoint_identity=adjoint_res,
            offdiag_inverse=offdiag_res,
            resolvent_identity=resolvent_res,
            jump_norm_identity=jump_res,
        )

    @cached_property
    def corners(self) -> CornerSensitivityReport:
        return corner_sensitivity(self.lind, self.pert)


# ---------------------------------------------------------------------------
# Random structured instances
# ---------------------------------------------------------------------------

# Draws random_structured_instance makes before it gives up.
MAX_DRAWS = 8


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
                               extra_zero_jump: bool = False):
    """Draw a random structured Lindbladian and a full-corner perturbation.

    The DFS is the first d basis states of a (d+n)-dimensional space. Jumps
    have standard complex normal entries on their decaying-to-DFS corner, the
    Hamiltonian is a random Hermitian on the decaying block, V is a random
    full Hermitian, and each f_l is a random full matrix.

    With defective_k=True (requires n == 2) the decaying Hamiltonian is
    engineered so the non-Hermitian Hamiltonian K has a genuine Jordan block.
    With extra_zero_jump=True a zero jump with a nonzero deformation is
    appended, exercising newly opened channels.

    Redraws (up to MAX_DRAWS times) when the instance fails validation or is too
    close to degenerate for reliable spectral separation.
    """
    if defective_k and n != 2:
        raise ValueError("defective_k instances are engineered for n == 2")
    rng = np.random.default_rng(seed)
    dim = d + n
    dfs = DfsProjector.from_indices(dim, range(d))
    last_err = None
    for _ in range(MAX_DRAWS):
        jumps = np.zeros((n_jumps, dim, dim), dtype=complex)
        for f in jumps:
            f[:d, d:] = _random_matrix(rng, d, n)
        w = np.sum(dagger(jumps[:, :d, d:]) @ jumps[:, :d, d:], axis=0)  # W_qq, from A_l alone
        h = np.zeros((dim, dim), dtype=complex)
        try:
            h[d:, d:] = _defective_decaying_hamiltonian(w) if defective_k else _random_hermitian(rng, n)
            lind = structured_lindbladian(h, jumps, dfs)
            if min(np.abs(np.diag(lind.k_schur[0]))) < 1e-2:
                raise ValueError("non-Hermitian Hamiltonian too close to singular")
            if slowest_decay_rate(lind) < 5e-2:
                raise ValueError("spectral gap too small for a clean instance")
        except (ValueError, np.linalg.LinAlgError) as err:
            last_err = err
            continue
        if extra_zero_jump:
            lind = structured_lindbladian(
                h, list(jumps) + [np.zeros((dim, dim), dtype=complex)], dfs
            )
        v = _random_hermitian(rng, dim)
        fs = np.empty((len(lind.jumps), dim, dim), dtype=complex)
        for f in fs:
            f[:] = _random_matrix(rng, dim, dim)
        return lind, Perturbation(v=v, fs=fs)
    raise RuntimeError(f"no valid instance after {MAX_DRAWS} draws: {last_err}")


def perturbed_superop(lind: StructuredLindbladian, pert: Perturbation) -> np.ndarray:
    """Full generator of the perturbed system, L(H+V, {F+f})."""
    _check_pair(lind, pert)
    return assemble_lindbladian(lind.h + pert.v, lind.jumps + pert.fs)
