"""Dense reference constructions the tests check the package against.

The package represents a DFS as an index set and takes every corner and block
by slicing. The oracles here build the dense objects the paper writes down:
the projectors P and Q, the isometries B and B_q, the vec-space columns
E = conj(B) kron B, Kronecker-form superoperators (vec, sandwich, left,
right, anticommutator, adjoint) and the dense ordered Schur form of a
generator (:class:`OrderedSchur`) with the spectral inverses read off it.
The package decomposes no D^2 x D^2 matrix and builds no D^2-side
superoperator but the generators L and L_full; these are used only by the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag, lu_factor, lu_solve, schur, solve_sylvester, solve_triangular
from scipy.linalg.lapack import ztrsyl

from ejof.effective import EffectiveGenerator, Perturbation
from ejof.lindblad import (
    ZERO_CLUSTER_FACTOR,
    SingularBlockError,
    StructuredLindbladian,
    _diagnose,
    _warn_if_gap_small,
    structured_lindbladian,
)
from ejof.operators import (
    DEFAULT_TOL,
    DfsProjector,
    as_operator,
    dagger,
    four_corners,
    frob,
    operator_stack,
)


# ---------------------------------------------------------------------------
# Kronecker-form superoperators, under column stacking: vec(A X B) = (B^T kron A) vec(X).


def vectorize(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return as_operator(x).reshape(-1, order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape((dim, dim), order="F")


def sandwich_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> A X B under column stacking: B^T kron A."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"sandwich factors must share a dimension, got {a.shape} and {b.shape}")
    return np.kron(b.T, a)


def left_superop(a: np.ndarray) -> np.ndarray:
    """Matrix of X -> A X."""
    a = as_operator(a)
    return np.kron(np.eye(a.shape[0], dtype=complex), a)


def right_superop(b: np.ndarray) -> np.ndarray:
    """Matrix of X -> X B."""
    b = as_operator(b)
    return np.kron(b.T, np.eye(b.shape[0], dtype=complex))


def anticommutator_superop(a: np.ndarray) -> np.ndarray:
    """Matrix of X -> {A, X}."""
    return left_superop(a) + right_superop(a)


def adjoint_superop(s: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint: if S = sum_i A_i (.) B_i†, returns sum_i A_i† (.) B_i."""
    return dagger(as_operator(s))


def apply_superop(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    return devectorize(as_operator(s) @ vectorize(x))


# ---------------------------------------------------------------------------
# Dense DFS objects


class DenseDfs(NamedTuple):
    """P, Q = I - P, and the unit columns B (DFS) and B_q (decaying) of a DFS."""

    p: np.ndarray
    q: np.ndarray
    basis: np.ndarray
    basis_c: np.ndarray


def dense_dfs(dfs: DfsProjector) -> DenseDfs:
    """The dense projectors and isometries of an index-set DFS."""
    eye = np.eye(dfs.dim, dtype=complex)
    basis, basis_c = eye[:, dfs.indices], eye[:, dfs.rest]
    return DenseDfs(p=basis @ dagger(basis), q=basis_c @ dagger(basis_c),
                    basis=basis, basis_c=basis_c)


def dfs_columns(basis: np.ndarray) -> np.ndarray:
    """E = conj(B) kron B for an isometry B: vec(B sigma B†) = E vec(sigma)."""
    return np.kron(basis.conj(), basis)


def compress_superop(s: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The (m^2, m^2) matrix of sigma -> B† S(B sigma B†) B, for a (D, m) isometry B."""
    return np.kron(basis.T, dagger(basis)) @ as_operator(s) @ dfs_columns(basis)


def embed_superop(s_small: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Inverse direction of :func:`compress_superop` (zero outside the block)."""
    return dfs_columns(basis) @ as_operator(s_small) @ np.kron(basis.T, dagger(basis))


def corner_superops(dfs: DfsProjector):
    """Superoperator projectors onto the four corners (X -> P X P etc.), as (ul, ur, ll, lr)."""
    p, q = dense_dfs(dfs)[:2]
    return (sandwich_superop(p, p), sandwich_superop(p, q),
            sandwich_superop(q, p), sandwich_superop(q, q))


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of X -> [H, X]."""
    return left_superop(h) - right_superop(h)


def star_commutator(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Generalized commutator A X - X A† (reduces to [A, X] for Hermitian A)."""
    return a @ x - x @ dagger(a)


def star_commutator_superop(a: np.ndarray) -> np.ndarray:
    """Matrix of X -> A X - X A†."""
    return left_superop(a) - right_superop(dagger(a))


def dissipator(f: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[F](X) = F X F† - (1/2){F† F, X} as a matrix."""
    f = as_operator(f)
    w = dagger(f) @ f
    eye = np.eye(f.shape[0], dtype=complex)
    return (sandwich_superop(f, dagger(f))
            - 0.5 * sandwich_superop(w, eye) - 0.5 * sandwich_superop(eye, w))


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| kron S(|i><j|); S is completely positive iff it is PSD."""
    s = as_operator(s)
    dim = int(round(np.sqrt(s.shape[0])))
    lam = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            lam += np.kron(unit, apply_superop(s, unit))
    return lam


def kraus_operators(s: np.ndarray, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators of a completely positive superoperator, from its Choi matrix.

    Eigenvalues below -tol raise; those in [-tol, tol] are dropped.
    """
    lam = choi_matrix(s)
    dim = int(round(np.sqrt(lam.shape[0])))
    evals, evecs = np.linalg.eigh((lam + dagger(lam)) / 2)
    scale = max(1.0, float(np.max(np.abs(evals))))
    if np.min(evals) < -tol * scale:
        raise ValueError(f"map is not completely positive (Choi eigenvalue {np.min(evals):.3e})")
    # Choi column index decodes as (input i, output row); vec is grouped by
    # input index i in blocks of length dim.
    return [np.sqrt(val) * vec.reshape(dim, dim).T
            for val, vec in zip(evals, evecs.T) if val > tol * scale]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||A - B||_1 for Hermitian A, B."""
    diff = as_operator(a) - as_operator(b)
    diff = (diff + dagger(diff)) / 2
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def structure_report(h, jumps, dfs: DfsProjector, tol: float = DEFAULT_TOL):
    """The structural checks of a generator, evaluated without raising."""
    h = as_operator(h)
    return _diagnose(h, operator_stack(jumps, h, "jump", "hamiltonian"), dfs, tol)[0]


class NonSemisimpleZeroError(np.linalg.LinAlgError):
    """The zero eigenvalue carries a nilpotent (Jordan) block."""


@dataclass(frozen=True, eq=False)
class OrderedSchur:
    """Ordered complex Schur form S = Z T Z† of a square matrix.

    The ``sdim`` eigenvalues with |lambda| above the zero threshold lead the
    diagonal of T and the zero cluster trails::

        T = [[T11, T12],   S^D = Z [[inv(T11), inv(T11)^2 T12],  Z†
             [0,   T22]],            [0,        0            ]]

    The dense oracle of the spectral layer: O(D^6) for a Lindbladian, where the
    package's :class:`~ejof.lindblad.CornerFactor` solves the decaying-corner
    blocks of L by their structure. It exposes the same
    ``drazin``/``projection``/``apply_drazin``/``apply_projection`` interface,
    and keeps the matrix it factors as ``superop``, as a corner factor keeps
    its assembly, so ``dataclasses.replace(lind, factor=OrderedSchur.of(lind.superop))``
    runs a route on it and still reads ``lind.superop``.
    """

    superop: np.ndarray
    t: np.ndarray
    z: np.ndarray
    sdim: int
    thresh: float

    @classmethod
    def of(cls, s: np.ndarray, *, zero_tol: float | None = None) -> "OrderedSchur":
        """Factor S, sorting at zero_tol (default 1e-8 * ||S||_2, by a dense SVD)."""
        s = as_operator(s)
        if zero_tol is None:
            zero_tol = ZERO_CLUSTER_FACTOR * float(np.linalg.norm(s, 2))
        thresh = float(zero_tol)
        t, z, sdim = schur(s, output="complex", sort=lambda lam: abs(lam) > thresh)
        return cls(superop=s, t=t, z=z, sdim=int(sdim), thresh=thresh)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.t)

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """inv(T11) and inv(T11) T12, after the semisimplicity and gap checks.

        For a semisimple zero cluster T22 vanishes up to round-off; a
        nilpotent residual above tolerance raises
        :class:`NonSemisimpleZeroError`. A retained eigenvalue within 100x of
        the threshold emits :class:`~ejof.lindblad.SpectralGapWarning`.
        """
        k = self.sdim
        m = self.t.shape[0] - k
        t11, t12 = self.t[:k, :k], self.t[:k, k:]
        if m:
            nil = frob(self.t[k:, k:])
            nil_tol = 10.0 * self.thresh * max(1.0, np.sqrt(m))
            if nil > nil_tol:
                raise NonSemisimpleZeroError(
                    f"zero eigenvalue is not semisimple (nilpotent residual {nil:.3e} > {nil_tol:.3e})"
                )
            if k:
                _warn_if_gap_small(float(np.min(np.abs(np.diag(t11)))), self.thresh)
        inv11 = solve_triangular(t11, np.eye(k, dtype=complex))
        return inv11, inv11 @ t12

    def apply_drazin(self, y: np.ndarray) -> np.ndarray:
        """S^D y = Z1 inv(T11) (Z1† y + inv(T11) T12 Z2† y), for columns y."""
        inv11, x = self._split
        z1, z2 = self.z[:, :self.sdim], self.z[:, self.sdim:]
        return z1 @ (inv11 @ (dagger(z1) @ y + x @ (dagger(z2) @ y)))

    def drazin(self) -> np.ndarray:
        """S^D = Z1 inv(T11) (Z1† + inv(T11) T12 Z2†)."""
        inv11, x = self._split
        z1, z2 = self.z[:, :self.sdim], self.z[:, self.sdim:]
        return z1 @ (inv11 @ (dagger(z1) + x @ dagger(z2)))

    def _steady_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Z2 - Z1 inv(T11) T12 and Z2, so that P_inf = (Z2 - Z1 inv(T11) T12) Z2†."""
        _, x = self._split
        z1, z2 = self.z[:, :self.sdim], self.z[:, self.sdim:]
        return z2 - z1 @ x, z2

    def apply_projection(self, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """P_inf y, or P_inf† y, for columns y, read off the Z blocks."""
        left, z2 = self._steady_columns()
        if adjoint:
            return z2 @ (dagger(left) @ y)
        return left @ (dagger(z2) @ y)

    def projection(self) -> np.ndarray:
        """P_inf = I - S S^D = (Z2 - Z1 inv(T11) T12) Z2†."""
        left, z2 = self._steady_columns()
        return left @ dagger(z2)


def bordered_solve(s: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L^D and P_inf from the dense inverse of [[L, E], [E†, 0]], for the DFS columns E."""
    n, m = e.shape
    inv = np.linalg.inv(np.block([[s, e], [dagger(e), np.zeros((m, m))]]))
    z, j = inv[:n, :n], dagger(inv[n:, :n])
    return z - e @ (dagger(j) @ z), e @ dagger(j)


def normal_form_blocks(h, w, jumps, dfs: DfsProjector) -> tuple[np.ndarray, ...]:
    """The ll, ur and lr blocks of L_rr and the lr columns of L_ur, for a generator in normal form.

    Each block is one F-ordered allocation, and its Kronecker terms are
    written on strided diagonal views of it, as
    :func:`~ejof.operators.gksl_superop` writes them on L, with the same
    entries: -i K_qq and i K_qq'^T, for K_qq = H_qq - (i/2) W_qq and
    K_qq' = H_qq + (i/2) W_qq, read off W = sum_l F_l† F_l. The jump sum of
    L_ur is one GEMM over the jumps' ur entries, reordered once to Kronecker
    layout.
    """
    d, n, idx, rest = dfs.d, dfs.n_decay, dfs.indices, dfs.rest
    lr_of = (rest[:, None], rest)
    h_qq, w_qq = h[lr_of], w[lr_of]
    minus_ik = -1j * (h_qq - 0.5j * w_qq)
    ik_t = 1j * (h_qq + 0.5j * w_qq).T
    ll, ur = (np.zeros((d * n, d * n), dtype=complex, order="F") for _ in range(2))
    lr = np.zeros((n * n, n * n), dtype=complex, order="F")
    # A block of side p q, reshaped F-ordered to (p, q, p, q), is indexed
    # [a, b, c, e], with row a + p b and column c + p e: "abcb" is I_q kron A,
    # its view [a, b, c] holding A[a, c], and "abad" is A kron I_p, its view
    # [a, b, e] holding A[b, e].
    for block, shape, pattern, term in (
            (ll, (n, d, n, d), "abcb->abc", minus_ik[:, None, :]),  # I_d kron (-i K_qq)
            (ur, (d, n, d, n), "abad->abd", ik_t[None]),            # i K_qq'^T kron I_d
            (lr, (n, n, n, n), "abcb->abc", minus_ik[:, None, :]),  # I_n kron (-i K_qq)
            (lr, (n, n, n, n), "abad->abd", ik_t[None])):           # + i K_qq'^T kron I_n
        view = np.einsum(pattern, block.reshape(shape, order="F"))
        view += term
    # (a^T conj(a))[(i, k), (j, m)] = sum_l F_l[idx_i, rest_k] conj(F_l[idx_j, rest_m]);
    # its Kronecker row is i + d j and its column k + n m.
    a = np.array([f[idx[:, None], rest] for f in jumps], dtype=complex)
    a = a.reshape(len(jumps), d * n)
    feed = (a.T @ a.conj()).reshape(d, n, d, n).transpose(2, 0, 3, 1).reshape(d * d, n * n)
    return ll, ur, lr, feed


def dense_normal_form_factor(lind) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L^D, P_inf and G = L_ur L_rr^-1 of a generator in normal form, from dense blocks.

    The ll, ur and lr blocks of L_rr are formed whole (:func:`normal_form_blocks`,
    sides dn, dn and n^2) and each is inverted through its LU; in the frame
    of ``dfs.vec_order``, L^D = [[0, G L_rr^-1], [0, L_rr^-1]] and
    P_inf = [[I, -G], [0, 0]]. The package solves the same blocks by their
    structure, never forming one.
    """
    dfs = lind.dfs
    w = sum((dagger(f) @ f for f in lind.jumps), np.zeros_like(lind.h))
    *diagonal, feed = normal_form_blocks(lind.h, w, lind.jumps, dfs)
    inverses = [lu_solve(lu_factor(block), np.eye(block.shape[0])) for block in diagonal]
    m, order = dfs.d ** 2, dfs.vec_order
    u, r = order[:m], order[m:]
    g = np.zeros((m, r.size), dtype=complex)
    g[:, r.size - dfs.n_decay ** 2:] = feed @ inverses[-1]
    inv_rr = block_diag(*inverses)
    drazin = np.zeros((order.size,) * 2, dtype=complex)
    drazin[np.ix_(r, r)] = inv_rr
    drazin[np.ix_(u, r)] = g @ inv_rr
    projection = np.zeros((order.size,) * 2, dtype=complex)
    projection[u, u] = 1.0
    projection[np.ix_(u, r)] = -g
    return drazin, projection, g


def relabel(a: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The operator a with basis state i renamed perm[i]."""
    out = np.empty_like(a)
    out[np.ix_(perm, perm)] = a
    return out


def relabelled(lind: StructuredLindbladian, perm) -> StructuredLindbladian:
    """The generator with basis state i renamed perm[i], its DFS on perm[dfs.indices], unvalidated."""
    perm = np.asarray(perm)
    dfs = DfsProjector.from_indices(lind.dim, perm[lind.dfs.indices])
    return structured_lindbladian(relabel(lind.h, perm), [relabel(f, perm) for f in lind.jumps],
                                  dfs, validate=False)


def drazin_inverse(s: np.ndarray, *, zero_tol: float | None = None) -> np.ndarray:
    """Drazin pseudoinverse from one dense ordered Schur form of S (default cut 1e-8 ||S||_2)."""
    return OrderedSchur.of(s, zero_tol=zero_tol).drazin()


def asymptotic_projection(s: np.ndarray) -> np.ndarray:
    """P_inf = I - S S^D, the spectral projection onto the kernel of S."""
    return OrderedSchur.of(s).projection()


def nh_superop_solve(k: np.ndarray, sigma: np.ndarray, dfs: DfsProjector,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve -i(K rho - rho K†) = sigma on the ll, ur and lr corners.

    The ll and ur corners are dense solves with K_qq in the block bases; the
    lr corner is SciPy's Sylvester solve K rho + rho (-K†) = i sigma, which
    shares no code with the package's sector sweep. sigma must have no ul
    component.
    """
    k = as_operator(k)
    sigma = as_operator(sigma)
    c = four_corners(sigma, dfs)
    if frob(c.ul) > tol * max(1.0, frob(sigma)):
        raise ValueError(
            f"right-hand side has weight {frob(c.ul):.3e} on the DFS corner, "
            "where the map is not invertible"
        )
    _, _, bp, bq = dense_dfs(dfs)
    kk = dagger(bq) @ k @ bq
    rhs_ll = dagger(bq) @ c.ll @ bp
    rhs_ur = dagger(bp) @ c.ur @ bq
    rhs_lr = dagger(bq) @ c.lr @ bq
    rho = np.zeros_like(sigma)
    try:
        if rhs_ll.any():
            # ll corner: -i K rho = sigma_ll.
            rho += bq @ np.linalg.solve(-1j * kk, rhs_ll) @ dagger(bp)
        if rhs_ur.any():
            # ur corner: i rho K† = sigma_ur, solved from the right.
            rho += bp @ np.linalg.solve((1j * dagger(kk)).T, rhs_ur.T).T @ dagger(bq)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"non-Hermitian sector solve failed: {err}") from err
    if rhs_lr.any():
        rho += bq @ solve_sylvester(kk, -dagger(kk), 1j * rhs_lr) @ dagger(bq)
    return rho


def cp_superop_per_unit(lind, pert: Perturbation) -> np.ndarray:
    """E_eff's (d^2, d^2) DFS block, one DFS unit b_i b_j† at a time.

    Each unit's source sum_l f_ll_l b_i b_j† f_ll_l† is solved on its own, by
    one triangular Sylvester solve (LAPACK ztrsyl) on the generator's stored
    Schur form of K_qq (``k_schur``),
    and fed back by sum_l F_l (.) F_l†. A unit with a zero source is skipped.
    """
    dfs, (t, u) = lind.dfs, lind.k_schur
    d = dfs.d
    detect = [f[np.ix_(dfs.rest, dfs.indices)] for f in pert.fs]           # f_ll, (n, d)
    feed = [big_f[np.ix_(dfs.indices, dfs.rest)] for big_f in lind.jumps]  # F_l, (d, n)
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            source = sum(np.outer(g[:, i], g[:, j].conj()) for g in detect)
            if not source.any():
                continue
            y, scale, info = ztrsyl(t, t, 1j * (dagger(u) @ -source @ u),
                                    trana="N", tranb="C", isgn=-1)
            if info != 0:
                raise SingularBlockError(f"K and K† share an eigenvalue (ztrsyl info {info})")
            sigma = u @ (y / scale) @ dagger(u)
            out[:, i + d * j] = vectorize(sum(g @ sigma @ dagger(g) for g in feed))
    return out


def dense_correctability(detectable_parts, rec) -> tuple[complex, float]:
    """Constant and residual of the fit R(E(rho)) = c rho, from Kronecker-form superoperators.

    The (D^2, D^2) matrices of E = sum_f f (.) f† and of the recovery channel
    R are multiplied whole, and the product's codespace block is fitted.
    """
    e_super = sum(sandwich_superop(f, dagger(f)) for f in detectable_parts)
    r_super = sum(sandwich_superop(r, dagger(r)) for r in (rec.identity_kraus, *rec.kraus))
    ul = rec.code.vec_order[:rec.code.d ** 2]  # the codespace vec positions
    m = (r_super @ e_super)[np.ix_(ul, ul)]
    c = complex(np.trace(m) / m.shape[0])
    return c, frob(m - c * np.eye(m.shape[0])) / max(frob(m), 1e-300)


def full_space_coupling(lind, pert: Perturbation) -> np.ndarray:
    """The induced coupling on the full space, as the paper writes it.

    C = V_offdiag - (i/2) sum_l (F_l† f_ul_l + f_ul_l† F_l), a (D, D) matrix.
    """
    v = four_corners(pert.v, lind.dfs)
    c = v.ur + v.ll
    for big_f, f in zip(lind.jumps, pert.fs):
        f_ul = four_corners(f, lind.dfs).ul
        c = c - 0.5j * (dagger(big_f) @ f_ul + dagger(f_ul) @ big_f)
    return c


def embedded_nh_inverse(lind) -> np.ndarray:
    """K_qq^-1 embedded in the full space: X K = K X = Q, zero on the other corners."""
    lr = np.ix_(lind.dfs.rest, lind.dfs.rest)
    out = np.zeros((lind.dim, lind.dim), dtype=complex)
    out[lr] = np.linalg.inv(lind.k[lr])
    return out


def closed_route_full_space(lind, pert: Perturbation) -> EffectiveGenerator:
    """The closed route from the full-space forms of C and Kinv, its blocks gathered at the end.

    H_eff = Herm(V_ul - C Kinv C) and F_eff_l = f_ul_l - F_l Kinv C are
    formed as (D, D) products and their DFS corner kept, sum_l f_ll_l† f_ll_l
    likewise, and E_eff is the per-unit oracle :func:`cp_superop_per_unit`.
    kinv and coupling hold the blocks of the full-space Kinv and C that the
    package keeps.
    """
    dfs = lind.dfs
    idx, rest = dfs.indices, dfs.rest
    ul = np.ix_(idx, idx)
    kinv = embedded_nh_inverse(lind)
    c = full_space_coupling(lind, pert)
    x = four_corners(pert.v, dfs).ul - c @ kinv @ c
    corners = [four_corners(f, dfs) for f in pert.fs]
    return EffectiveGenerator(
        h_eff=(0.5 * (x + dagger(x)))[ul],
        jumps_eff=np.array([(f.ul - big_f @ kinv @ c)[ul] for big_f, f in zip(lind.jumps, corners)],
                           dtype=complex).reshape(len(corners), dfs.d, dfs.d),
        cp_superop=cp_superop_per_unit(lind, pert),
        cp_adjoint_identity=sum((dagger(f.ll) @ f.ll for f in corners),
                                np.zeros((dfs.dim, dfs.dim), dtype=complex))[ul],
        kinv=kinv[np.ix_(rest, rest)],
        coupling=(c[np.ix_(rest, idx)], c[np.ix_(idx, rest)]),
    )


def perturbation_superops(lind, pert: Perturbation):
    """First- and second-order perturbation superoperators (O1, O2) as dense matrices.

    O1 = V-part + coupling part + mixed-dissipator part:
        V-part:   -i [ V_diag - (i/2) sum_l (f_ur_l† F_l + F_l† f_ur_l), . ]*
        coupling: -i [ C, . ]*   (star commutator, C from full_space_coupling)
        mixed:    sum_l ( F_l (.) f_l† + f_l (.) F_l† )
    O2 = sum_l D[f_l].

    O1 + O2 equals L(H+V, {F+f}) - L(H, {F}) up to round-off.
    """
    v = four_corners(pert.v, lind.dfs)
    a_v = v.ul + v.lr
    for big_f, f in zip(lind.jumps, pert.fs):
        f_ur = four_corners(f, lind.dfs).ur
        a_v = a_v - 0.5j * (dagger(f_ur) @ big_f + dagger(big_f) @ f_ur)
    o1 = -1j * (star_commutator_superop(a_v)
                + star_commutator_superop(full_space_coupling(lind, pert)))
    o2 = np.zeros_like(o1)
    for big_f, f in zip(lind.jumps, pert.fs):
        o1 += sandwich_superop(big_f, dagger(f)) + sandwich_superop(f, dagger(big_f))
        o2 += dissipator(f)
    return o1, o2


def generalized_three_level_perturbation(psi, gamma: float) -> Perturbation:
    """Drive-type deformation f = sqrt(gamma) |0><psi| for a DFS state psi of the three-level system.

    psi is a length-2 amplitude vector on (|0>, |1>); it is normalized here.
    On resonance the effective jump vanishes for every psi.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (2,):
        raise ValueError("psi must be a length-2 amplitude vector on the DFS")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("psi must be nonzero")
    f = np.zeros((3, 3), dtype=complex)
    f[0, :2] = np.sqrt(gamma) * (psi / nrm).conj()
    return Perturbation(v=np.zeros((3, 3), dtype=complex), fs=(f,))


# ---------------------------------------------------------------------------
# QEC and cancellation references: one operator, or one pair, at a time.

_PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli(kind: str, qubit: int, n_qubits: int) -> np.ndarray:
    """Single-qubit Pauli on `qubit` of an n-qubit register, as a chain of np.kron (qubit 0 first)."""
    out = np.array([[1.0 + 0j]])
    for i in range(n_qubits):
        out = np.kron(out, _PAULI_2X2[kind] if i == qubit else _PAULI_2X2["I"])
    return out


def surjectivity_per_jump(jumps, dfs: DfsProjector) -> tuple[float, ...]:
    """||F (F†F)^+ F† - P|| of each jump, one pseudo-inverse of its Gram matrix at a time."""
    out = []
    for f in jumps:
        f = as_operator(f)
        resid = f @ np.linalg.pinv(dagger(f) @ f, rcond=1e-12) @ dagger(f)
        resid[dfs.indices, dfs.indices] -= 1.0
        out.append(frob(resid))
    return tuple(out)


def orthogonality_per_pair(jumps) -> float:
    """Largest ||F_l F_l'†|| and ||F_l' F_l†|| over pairs l < l', one pair at a time."""
    jumps = [as_operator(f) for f in jumps]
    worst = 0.0
    for i, a in enumerate(jumps):
        for b in jumps[i + 1:]:
            worst = max(worst, frob(a @ dagger(b)), frob(b @ dagger(a)))
    return worst


def coherent_drive_per_jump(lind, fs) -> np.ndarray:
    """The drive V of ``coherent_cancellation_drive`` without its counter-term, one jump at a time.

    V = (i/2) sum_l (F_l† f_l - f_l† F_l) + Vtilde + Vtilde†, with
    Vtilde = K sum_l (F_l† F_l)^+ F_l† f_l.
    """
    v = np.zeros((lind.dim, lind.dim), dtype=complex)
    x = np.zeros_like(v)
    for big_f, f in zip(lind.jumps, fs):
        v = v + 0.5j * (dagger(big_f) @ f - dagger(f) @ big_f)
        x = x + np.linalg.pinv(dagger(big_f) @ big_f, rcond=1e-12) @ dagger(big_f) @ f
    x = lind.k @ x
    return v + x + dagger(x)
