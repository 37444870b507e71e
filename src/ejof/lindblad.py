"""Lindbladian assembly, spectral tools, and the DFS block structure.

The generator of a Markovian master equation is

    L(rho) = -i [H, rho] + sum_l ( F_l rho F_l† - (1/2){F_l† F_l, rho} ).

A decoherence-free subspace (DFS) with projector P is supported here through a
structural normal form: H = Q H Q lives on the decaying block and every jump
maps the decaying block into the DFS, F_l = P F_l Q. Under that form the DFS is
exactly steady and, when the decaying dynamics is relaxing, the zero eigenvalue
of L has multiplicity exactly d^2 (the DFS block of density matrices).

Two objects drive all perturbative computations downstream:

* the non-Hermitian Hamiltonian K = H - (i/2) sum_l F_l† F_l, which is
  supported on the decaying block for structured generators, and
* the Drazin pseudoinverse of L, an inverse on the complement of the steady
  subspace.

Under the normal form L is block-triangular over the corners, so its spectrum
is known from the n x n block K_qq alone: {0}^(d^2), -i kappa_a and
i conj(kappa_a) d times each, and -i(kappa_a - conj(kappa_b)), for the
eigenvalues kappa_a of K_qq. :func:`structured_lindbladian` Schur-factors K_qq
once (kept as ``k_schur``) and reads the zero multiplicity, the gap and the
spectral radius rho(L) off it. The zero cut is relative to that radius,
|lambda| <= 1e-8 max(1, rho(L)), so no norm of L is taken. Every Schur form
is LAPACK zgees behind a finiteness check (:func:`complex_schur`), and no
decomposition of L is taken; the DFS
steadiness check applies L to the d^2 DFS units by D x D products when an
entry leaks off its corner (without one, L(b_i b_j†) is exactly zero). The
(D^2, D^2) matrix of L is not built to construct a generator: the Drazin
inverse and the asymptotic projection come from eliminating the DFS corner
(:class:`CornerFactor`): in the frame of the DFS basis, L is
block-triangular with its kernel on the DFS corner, and both are read off
the decaying-corner blocks of L. Under the normal form these blocks (ll, ur
and lr, block diagonal) and the feed into the DFS corner are Kronecker
functions of K_qq and the jumps' decaying columns, with W = sum_l F_l† F_l
summed once and made exactly Hermitian, so that H_qq + (i/2) W_qq is
K_qq†; none is formed: ll is inverted by one n x n LU of -i K_qq, ur by
the same LU conjugated, and lr by a Bartels-Stewart sweep on the factor's
own Schur form of K_qq (:class:`LrSweep`), so the factor holds O(n^2)
entries where the lr block has n^4. Only when an entry leaks off its
corner, or H is not exactly Hermitian, is L assembled, once, in K form with
one GEMM for the jump sum (:func:`~ejof.operators.gksl_superop`), and L_rr
gathered whole and LU-factored: only such a factor solves columns. An LU
with a zero or tiny pivot, or a sweep with a zero or tiny shift, raises :class:`SingularBlockError`. The closed route's sector
map sigma -> -i(K sigma - sigma K†) is the lr map with K' = K†: its sweep
(``decaying_sector``) is built on first read from ``k_schur`` alone, so
each route has its own K, Schur form and sweep. The map's dense Kronecker
form is kept in :func:`nh_superop_inverse_lr` as an independent oracle,
behind the closed-form :func:`asymptotic_projection_analytic`. Every block
of an operator or superoperator is an index gather on the DFS index set
(:class:`~ejof.operators.DfsProjector`), never a product with a projector.
"""

from __future__ import annotations

import functools
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm
from scipy.linalg.blas import ztrsm
from scipy.linalg.lapack import zgees, zgetrf, zgetrs

from .operators import (
    DEFAULT_TOL,
    DfsProjector,
    as_operator,
    dagger,
    frob,
    gksl_superop,
    operator_stack,
    require_hermitian,
)

# Relative threshold separating the zero cluster of a superoperator spectrum.
ZERO_CLUSTER_FACTOR = 1e-8
# Warn when the smallest retained eigenvalue is within this factor of the cut.
GAP_WARNING_FACTOR = 100.0
# A block of L_rr whose smallest |LU pivot|, or Bartels-Stewart |shift|, is
# below this fraction of its largest is taken as singular: its solves would
# carry no correct digit.
PIVOT_RATIO_FLOOR = 1e3 * np.finfo(float).eps
# LrSweep.leave multiplies a stack by conj(V) in place, this many of its
# (p, c) columns at a time: its temporaries are n x 256, not the stack's size.
LEAVE_COLUMNS = 256


class SpectralGapWarning(UserWarning):
    """Separation between zero and nonzero spectrum is close to the threshold."""


class SingularBlockError(np.linalg.LinAlgError):
    """A block linear system required by the computation is singular."""


class StructureError(ValueError):
    """Input violates the structural normal form for a DFS Lindbladian."""


def assemble_lindbladian(h: np.ndarray, jumps) -> np.ndarray:
    """Full (D^2, D^2) matrix of the Lindblad generator."""
    return gksl_superop(require_hermitian(h, "hamiltonian"), jumps)


@dataclass(frozen=True)
class StructureReport:
    """Residuals of the structural checks for a DFS Lindbladian."""

    h_hermitian: float
    h_on_decaying_block: float
    jumps_into_dfs: tuple[float, ...]
    dfs_steady: float
    zero_multiplicity: int | None
    expected_multiplicity: int
    spectral_gap: float | None
    tol: float

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        out = []
        if self.h_hermitian > self.tol:
            out.append(f"hamiltonian not Hermitian (residual {self.h_hermitian:.3e})")
        if self.h_on_decaying_block > self.tol:
            out.append(f"hamiltonian leaks off the decaying block (residual {self.h_on_decaying_block:.3e})")
        for i, r in enumerate(self.jumps_into_dfs):
            if r > self.tol:
                out.append(f"jump {i} is not a decaying-to-DFS map (residual {r:.3e})")
        if self.dfs_steady > self.tol:
            out.append(f"DFS is not steady (residual {self.dfs_steady:.3e})")
        if self.zero_multiplicity not in (None, self.expected_multiplicity):
            out.append(
                f"zero eigenvalue multiplicity {self.zero_multiplicity}"
                f" != DFS block dimension {self.expected_multiplicity}"
            )
        return out


# Frames a warning is not attributed to: this package, and the cached_property
# that computes a factor on first use.
_INTERNAL_FILES = (os.path.dirname(__file__) + os.sep, functools.__file__)


def _warn_if_gap_small(gap: float | None, thresh: float) -> None:
    if gap is not None and gap < GAP_WARNING_FACTOR * thresh:
        frame, level = sys._getframe(1), 2
        while frame.f_code.co_filename.startswith(_INTERNAL_FILES) and frame.f_back is not None:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"smallest retained eigenvalue {gap:.3e} is within "
            f"{GAP_WARNING_FACTOR:g}x of the zero threshold {thresh:.3e}",
            SpectralGapWarning,
            stacklevel=level,
        )


def complex_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, U) with a = U T U†, T upper triangular: the complex Schur form, by LAPACK zgees.

    The diagonal of T is unsorted. A non-finite entry raises ValueError
    before LAPACK sees it, and a QR iteration that does not converge raises
    LinAlgError.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    t, _, _, u, _, info = zgees(lambda _: None, a)
    if info:
        raise np.linalg.LinAlgError(f"Schur form not found (zgees info {info})")
    return t, u


def _refuse_if_singular(values: np.ndarray, side: int, what: str) -> None:
    """Raise :class:`SingularBlockError` if min |values| is 0 or below PIVOT_RATIO_FLOOR max |values|."""
    mags = np.abs(values)
    small, big = mags.min(), mags.max()
    if small == 0 or small < PIVOT_RATIO_FLOOR * big:
        raise SingularBlockError(
            f"a decaying-corner block of L (side {side}) is singular: "
            f"smallest/largest {what} {small / big if small else 0.0:.3e} < {PIVOT_RATIO_FLOOR:.3e}"
        )


def _lu(a: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray]:
    """LU of a square block (LAPACK getrf, in place when a is F-ordered), refusing a small pivot.

    ``side`` is the side of the block of L_rr that a factors, named in the error.
    """
    lu = zgetrf(a, overwrite_a=True)[:2]
    _refuse_if_singular(np.diag(lu[0]), side, "|LU pivot|")
    return lu


@dataclass(frozen=True, eq=False)
class LrSweep:
    """X -> -i K X + i X K' on n x n operators, solved by Bartels-Stewart.

    It is the lr block of L_rr and the closed route's sector map, K = K_qq
    and K' = K† in both, each built from its own Schur form K = U T U†,
    which gives K' = V S V† (:meth:`of_adjoint_pair`). X = U Y V† turns the
    map X -> C into -i T Y + i Y S = U† C V, solved column by column
    (Bartels and Stewart, CACM 15, 1972), for j = 0 .. n-1:

        (-i T + i s_jj I) y_j = c_j - i sum_{k<j} s_kj y_k.

    The adjoint map Z -> i K† Z - i Z K'† = M becomes, with Z = U Y V†, the
    sweep j = n-1 .. 0 of (-i T + i s_jj I)† y_j = c_j + i sum_{k>j} conj(s_jk) y_k.
    A stack of m right-hand sides lives in the Schur frame as a C-ordered
    (n, n, m) array y, y[j, p, c] = Y_c[p, j]: row j holds column j of every
    Y_c as one (n, m) block, and y[j].T is the F-ordered (m, n) block that
    BLAS reads. Each step is then one in-place triangular solve from the
    right (BLAS ztrsm) on y[j].T, by the transpose of -i T + i s_jj I, or
    for the adjoint by its conjugate i conj(T) - i conj(s_jj) I. Callers
    form their stacks in the frame. Leaving it is two matrix products, made
    in place on the stack, so that it makes no copy of the stack: conj(V) on
    the leading axis, ``LEAVE_COLUMNS`` columns at a time, then U on each row
    block. A stack leaves as [q, p, c] = X_c[p, q], which reshapes to the
    (n^2, m) vec columns of the X_c. A shift -i t_pp + i s_jj whose modulus
    is zero or below ``PIVOT_RATIO_FLOOR`` times the largest raises
    :class:`SingularBlockError` at construction, as a small LU pivot does.
    No eigenvector is taken, so a defective K is handled exactly, and no
    (n^2, n^2) array is formed.
    """

    t: np.ndarray
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    shifts: np.ndarray = field(init=False, repr=False)  # [p, j] = -i t_pp + i s_jj

    def __post_init__(self):
        shifts = -1j * np.diag(self.t)[:, None] + 1j * np.diag(self.s)[None, :]
        _refuse_if_singular(shifts, self.t.size, "|sweep shift|")
        object.__setattr__(self, "shifts", shifts)

    @classmethod
    def of_adjoint_pair(cls, t: np.ndarray, u: np.ndarray) -> "LrSweep":
        """The sweep with K' = K†, from the one Schur form K = U T U†.

        With P the reversal permutation, K† = (U P)(P T† P)(U P)† and P T† P
        is upper triangular, so no second Schur form is taken.
        """
        return cls(t=t, u=u, s=dagger(t)[::-1, ::-1], v=u[:, ::-1])

    def leave(self, y: np.ndarray) -> np.ndarray:
        """X_c = U Y_c V† for the stack y[j, p, c] = Y_c[p, j], written over y as X_c[p, q] at [q, p, c]."""
        n = y.shape[0]
        rows, v_conj = y.reshape(n, -1), self.v.conj()
        for k in range(0, rows.shape[1], LEAVE_COLUMNS):
            rows[:, k:k + LEAVE_COLUMNS] = v_conj @ rows[:, k:k + LEAVE_COLUMNS]  # (Y_c V†)[p, q]
        for q in range(n):
            y[q] = self.u @ y[q]
        return y

    def sweep(self, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve the stack y in the Schur frame, in place: lr, or with ``adjoint`` lr†."""
        n = self.t.shape[0]
        y = np.ascontiguousarray(y)
        rows = y.reshape(n, -1)  # row j: column j of every Y_c
        coupling = 1j * (self.s.conj() if adjoint else self.s)
        # The step's matrix is -i T (forward, read transposed) or i conj(T)
        # (adjoint), F-ordered, with its diagonal, a strided view, reset.
        shifted = np.array(1j * self.t.conj() if adjoint else -1j * self.t, order="F")
        diagonal = shifted.reshape(-1, order="F")[::n + 1]
        shifts = self.shifts.conj() if adjoint else self.shifts
        for j in (range(n - 1, -1, -1) if adjoint else range(n)):
            if adjoint and j < n - 1:
                rows[j] += np.dot(coupling[j, j + 1:], rows[j + 1:])
            elif not adjoint and j:
                rows[j] -= np.dot(coupling[:j, j], rows[:j])
            diagonal[:] = shifts[:, j]
            ztrsm(1.0, shifted, y[j].T, side=1, trans_a=int(not adjoint), overwrite_b=True)
        return y


@dataclass(frozen=True, eq=False)
class CornerFactor:
    """L^D and P_inf of a generator whose kernel is its DFS corner, by eliminating that corner.

    In the DFS frame U = [B, B_q], with vec indices ordered ul, ll, ur, lr, the
    DFS columns E are the first m = d^2 unit columns, and u and r below index
    the DFS corner and the three decaying corners. The bordered system
    [[L, E], [E†, 0]] [z; c] = [y; 0] then reduces exactly to L_rr, whatever
    L's DFS columns hold: z_u = 0 and z_r = L_rr^-1 y_r. With G = L_ur L_rr^-1,

        J† = [I, -G],   P_inf = E J†,   L^D = [[0, G L_rr^-1], [0, L_rr^-1]],

    the group inverse of a block-triangular matrix (Campbell and Meyer,
    *Generalized Inverses of Linear Transformations*). Every coupling entry
    between the ll, ur and lr blocks of L_rr, and every entry of the ll and
    ur columns of L_ur, comes from an H entry outside lr or a jump entry
    outside ur. Without such an entry, and with H exactly Hermitian
    (``leaky`` False), L_rr is block diagonal, and each block is a Kronecker
    function of K_qq = H_qq - (i/2) W_qq, with ``w`` = W = sum_l F_l† F_l
    formed from the jumps, the generator's (J, D, D) array ``jumps``, and
    made exactly Hermitian, so that H_qq + (i/2) W_qq is exactly K_qq†:

        ll X = -i K_qq X,   ur X = i X K_qq†,   lr X = -i K_qq X + i X K_qq†,

    for X the (n, d), (d, n) and (n, n) corner of an operator, and the lr
    columns of L_ur map X to sum_l A_l X A_l†, A_l = F_l[idx, rest], one
    index gather on ``jumps``. No block is formed: ll is inverted by one
    n x n LU of -i K_qq, and ur by the same LU conjugated, since ur X = C is
    i K_qq^* X^T = C^T with i K_qq^* = conj(-i K_qq); lr by a
    Bartels-Stewart sweep on the factor's own Schur form of K_qq
    (:class:`LrSweep`); and G, whose ll and ur columns are zero, by the
    adjoint sweep on the d^2 operators sum_l A_l† b_i b_j† A_l.
    K_qq is formed here, never read off the generator's ``k``, ``k_schur``
    or ``decaying_sector``, so the general route shares no input with the
    closed one. With a leaking entry (leakage below the tolerance, a
    non-Hermitian H, or a generator that fails its checks), L is assembled
    (``superop``, on first read, with this W) and L_rr and L_ur are gathered
    whole, so no entry of L is dropped, and L_rr is LU-factored in place:
    only this factor solves columns (:meth:`apply_drazin`).

    The frame is the permutation ``dfs.order``, and ``dfs.vec_order`` gives
    the vec index of each frame position, so entering or leaving the frame is
    an index gather or scatter. The factors are taken on first use, with a
    :class:`SpectralGapWarning` when ``gap`` is within 100x of the zero cut
    ``thresh`` (``gap`` is None when the structure report has none). An LU
    whose smallest |pivot|, or a sweep whose smallest |shift|, is zero or
    below ``PIVOT_RATIO_FLOOR`` times its largest raises
    :class:`SingularBlockError`: L_rr is then numerically singular, and a
    kernel of L larger than the DFS corner has no group inverse here.
    """

    h: np.ndarray
    jumps: np.ndarray
    w: np.ndarray
    dfs: DfsProjector
    thresh: float
    gap: float | None
    leaky: bool

    @cached_property
    def superop(self) -> np.ndarray:
        """L as a (D^2, D^2) matrix, assembled on first read (:func:`gksl_superop`)."""
        return gksl_superop(self.h, self.jumps, self.w)

    def _gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """L[rows, cols], F-ordered: the transpose of a C-ordered gather of L^T."""
        return self.superop.T[cols[:, None], rows].T

    @cached_property
    def _factored(self) -> tuple[tuple, np.ndarray]:
        """The factors of L_rr, and G = L_ur L_rr^-1.

        The factors are the LU of L_rr when ``leaky``, and otherwise (LU of
        -i K_qq, :class:`LrSweep` of lr).
        """
        _warn_if_gap_small(self.gap, self.thresh)
        d, n = self.dfs.d, self.dfs.n_decay
        u, r = self.dfs.vec_order[:d * d], self.dfs.vec_order[d * d:]
        if self.leaky:
            lu = _lu(self._gather(r, r), r.size)
            return lu, dagger(zgetrs(*lu, dagger(self.superop[np.ix_(u, r)]), trans=2)[0])
        idx, rest = self.dfs.indices, self.dfs.rest
        lr_of = (rest[:, None], rest)
        k = self.h[lr_of] - 0.5j * self.w[lr_of]
        ll, lr = _lu(-1j * k, d * n), LrSweep.of_adjoint_pair(*complex_schur(k))
        # Feed operator i + d j, in the Schur frame: U† A_l† b_i b_j† A_l V, entry
        # [p, q] = sum_l conj((A_l U)[i, p]) (A_l V)[j, q], one GEMM laid out as [q, p, (j, i)].
        au = self.jumps[:, idx[:, None], rest] @ lr.u  # A_l U, (J, d, n)
        # V is U with its columns reversed, and so is A_l V against A_l U.
        au, av = au.reshape(-1, d * n), au[..., ::-1].reshape(-1, d * n)
        feed = (av.T @ au.conj()).reshape(d, n, d, n).transpose(1, 3, 0, 2).reshape(n, n, d * d)
        z = lr.leave(lr.sweep(feed, adjoint=True))  # [q, p, (j, i)] = Z_ij[p, q]
        # Row i + d j of G holds conj(vec Z_ij) on the lr columns, rows p + n q.
        g = np.zeros((d * d, r.size), dtype=complex)
        g[:, 2 * d * n:] = np.conjugate(z, out=z).reshape(n * n, d * d).T
        return (ll, lr), g

    def _leave(self, z: np.ndarray) -> np.ndarray:
        """Frame columns z, in corner order, scattered back to vec order."""
        out = np.empty(z.shape, dtype=complex)
        out[self.dfs.vec_order] = z
        return out

    def apply_drazin(self, y: np.ndarray) -> np.ndarray:
        """L^D y = [G z_r; z_r] in the frame, z_r = L_rr^-1 y_r, for columns y. Leaky only."""
        if not self.leaky:
            raise ValueError("a normal-form corner factor has no column solve")
        (lu, g), m = self._factored, self.dfs.d ** 2
        z = np.empty(y.shape, dtype=complex)
        z[m:] = zgetrs(*lu, y[self.dfs.vec_order[m:]])[0]
        np.matmul(g, z[m:], out=z[:m])
        return self._leave(z)

    def solve_rank_two(self, c: np.ndarray) -> np.ndarray:
        """x = (-i K_qq)^-1 c, for (n, m) columns c on the decaying block.

        For decaying-block vectors u and v, L^D (u b_j† + b_i v†) is
        x_u b_j† + b_i x_v†, x_u = (-i K_qq)^-1 u: the operator has only an
        ll and a ur corner, which L_rr maps to themselves, and G is zero on
        both. ll solves -i K_qq X = u b_j†, and ur, i X K_qq† = b_i v†, is
        its adjoint. One solve with the ll LU. Not for a leaky factor.
        """
        if self.leaky:
            raise ValueError("a leaky corner factor has no rank-two solve")
        (ll, _), _ = self._factored
        return zgetrs(*ll, c)[0]

    def apply_projection(self, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """P_inf y = E (J† y), or P_inf† y = J (E† y), for columns y.

        P_inf E = E and E† P_inf = J† hold exactly: no D^2 x D^2 matrix is formed.
        """
        _, g = self._factored
        m = self.dfs.d ** 2
        y = y[self.dfs.vec_order]
        if adjoint:
            return self._leave(np.concatenate([y[:m], -dagger(g) @ y[:m]]))
        return self._leave(np.concatenate([y[:m] - g @ y[m:], np.zeros(y[m:].shape)]))

    def drazin(self) -> np.ndarray:
        """L^D = [[0, G L_rr^-1], [0, L_rr^-1]] in the frame, written block by block.

        Leaky, it is :meth:`apply_drazin` of the identity. Otherwise the lr
        inverse is the sweep of the n^2 units q_a q_b†, whose Schur-frame
        right-hand sides U† q_a q_b† V are one outer product of the rows of V
        and conj U; the sweep's own stack reshapes to its (n^2, n^2) columns.
        The ll and ur inverses, I_d kron (-i K_qq)^-1 and
        conj((-i K_qq)^-1) kron I_d, are written on the strided diagonals of
        the output's (D, D, D, D) view, [q, p, b, a] the entry at
        (p + D q, a + D b): one (n, n) write per DFS index each. The ul row
        is G times L_rr^-1, whose ll and ur columns are zero here.
        """
        if self.leaky:
            return self.apply_drazin(np.eye(self.dfs.dim ** 2, dtype=complex))
        (ll, lr), g = self._factored
        order, m = self.dfs.vec_order, self.dfs.d ** 2
        n, rest = self.dfs.n_decay, self.dfs.rest
        out = np.zeros((order.size,) * 2, dtype=complex)
        rows = order[-n * n:]
        # Unit c = a + n b: U† q_a q_b† V = conj(U[a, :])^T V[b, :], laid out as [j, p, (b, a)].
        units = lr.v.T[:, None, :, None] * lr.u.conj().T[:, None]
        inv = lr.leave(lr.sweep(units.reshape(n, n, n * n))).reshape(n * n, n * n)
        view = out.reshape((self.dfs.dim,) * 4)
        inv_ll = zgetrs(*ll, np.eye(n, dtype=complex))[0]
        for i in self.dfs.indices:
            view[i, rest[:, None], i, rest] = inv_ll
            view[rest[:, None], i, rest, i] = inv_ll.conj()  # ur's LU is ll's conjugated
        out[np.ix_(rows, rows)] = inv
        out[np.ix_(order[:m], rows)] = g[:, -rows.size:] @ inv
        return out

    def projection(self) -> np.ndarray:
        """P_inf = E J† = [[I, -G], [0, 0]] in the frame."""
        _, g = self._factored
        order, m = self.dfs.vec_order, self.dfs.d ** 2
        out = np.zeros((order.size,) * 2, dtype=complex)
        top = order[:m]
        out[top, top] = 1.0
        out[top[:, None], order[m:]] = -g
        return out


@dataclass(eq=False)
class StructuredLindbladian:
    """A Lindbladian in the DFS structural normal form.

    Use :func:`structured_lindbladian` to construct one with validation.
    ``jumps`` is one complex (J, D, D) array, the only form of the jumps,
    shared with ``factor``. The non-Hermitian Hamiltonian ``k`` (supported
    on the decaying block), the Schur form (T, U) of K_qq (``k_schur``) and
    the corner factor (``factor``) are built once, at construction; the
    Drazin inverse and the asymptotic projection are read off ``factor``.
    The closed route's sector sweep (``decaying_sector``) is built on first
    read, so a small sector shift is refused at the first closed solve. The
    (D^2, D^2) matrix of L is not: ``superop`` is the factor's, assembled at most once,
    on first read (by the oracles, or by a leaky factor). A factor swapped in
    for the corner factor keeps the matrix it factors as its ``superop``.
    """

    h: np.ndarray
    jumps: np.ndarray
    dfs: DfsProjector
    k: np.ndarray = field(repr=False)
    k_schur: tuple[np.ndarray, np.ndarray] = field(repr=False)
    report: StructureReport = field(repr=False)
    factor: CornerFactor = field(repr=False)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def superop(self) -> np.ndarray:
        """L as a (D^2, D^2) matrix, cached on the factor after its first assembly."""
        return self.factor.superop

    @cached_property
    def decaying_sector(self) -> LrSweep:
        """The closed route's sweep of sigma -> -i(K_qq sigma - sigma K_qq†), built on first read."""
        return LrSweep.of_adjoint_pair(*self.k_schur)

    @cached_property
    def drazin(self) -> np.ndarray:
        return self.factor.drazin()

    @cached_property
    def asymptotic_projection(self) -> np.ndarray:
        """Projection onto the steady subspace along the decaying directions."""
        return self.factor.projection()


def _normal_form_magnitudes(kappa: np.ndarray, d: int) -> np.ndarray:
    """|lambda| over spec(L) for a generator in normal form, from spec(K_qq).

    d^2 zeros (ul), |kappa_a| d times each on ll and on ur, and
    |kappa_a - conj(kappa_b)| on lr.
    """
    return np.concatenate([
        np.zeros(d * d),
        np.repeat(np.abs(kappa), 2 * d),
        np.abs(kappa[:, None] - kappa.conj()[None, :]).ravel(),
    ])


def _dfs_columns(h, w, jumps, dfs: DfsProjector) -> np.ndarray:
    """L's columns at the d^2 DFS vec positions, as a C-ordered (D^2, d^2) array, from D x D products.

    Column i + d j is vec L(b_i b_j†), with

        L(b_i b_j†) = -i(H b_i b_j† - b_i b_j† H) + sum_l F_l b_i (F_l b_j)†
                      - (1/2){W, b_i b_j†},   W = sum_l F_l† F_l,

    so only the DFS columns of the F_l, one column and one row of H and W
    per unit, and one (D d)-side product for the jump sum are formed. The
    entries are computed as :func:`~ejof.operators.gksl_superop` computes
    them, jump sum first, then the K and K' terms, from the same W.
    """
    dim, d, idx = dfs.dim, dfs.d, dfs.indices
    f = jumps[:, :, idx].reshape(-1, dim * d)
    # (conj(f)^T f)[(b, j), (a, i)] = sum_l conj(F_l[b, idx_j]) F_l[a, idx_i] is
    # entry (a, b) of unit i + d j, at row a + D b: cols[b, a, j, i] below.
    cols = np.ascontiguousarray((f.conj().T @ f).reshape(dim, d, dim, d).transpose(0, 2, 1, 3))
    units = np.arange(d)
    cols[idx, :, units, :] -= 1j * (h - 0.5j * w)[:, idx]    # column idx_j of unit (i, j): -i K b_i
    cols[:, idx, :, units] += 1j * (h + 0.5j * w).T[:, idx]  # row idx_i of unit (i, j): i b_j† K'
    return cols.reshape(dim * dim, d * d)


def _diagnose(h, jumps, dfs: DfsProjector):
    """(report, K, W, Schur form of K_qq, zero cut, whether any entry leaks).

    An entry leaks when it lies in H outside lr or in a jump outside ur; each
    leak is its operator with the one corner it may hold set to zero. H also
    leaks when it differs from H† in any entry: the corner factor's ur and lr
    blocks read H_qq + (i/2) W_qq as K_qq†. The flag tests the entries
    themselves: the report's residuals are norms, which underflow to zero for
    entries below about 1e-154. W = sum_l F_l† F_l is summed here once, as
    :func:`~ejof.operators.gksl_superop` sums it, and made exactly Hermitian,
    (W + W†) / 2; the steadiness residual, K = H - (i/2) W and the corner
    factor all read this W.

    The scale is max(1, rho), with rho the largest |lambda| that the normal
    form reads off the Schur form of K_qq (the spectral radius of L when the
    H and jump checks pass). The cut is 1e-8 times that scale, and the
    steadiness residual, the largest norm of L(b_i b_j†) over the DFS units
    (:func:`_dfs_columns`), is divided by it. Without a leaking entry the
    DFS columns of H, of the F_l and of W are exact zeros, so L(b_i b_j†) is
    exactly zero and the residual is 0 without a product. L is not formed and no
    decomposition of it is taken: when an H or jump check fails, K_qq does
    not give the spectrum of L, so the zero multiplicity and the gap are None
    and the multiplicity check is not made.
    """
    scale_h = max(1.0, frob(h))
    skew = h - dagger(h)
    h_herm = frob(skew) / scale_h
    _, ur, _, lr = dfs._corner_masks
    h_leak, jump_leaks = np.where(lr, 0j, h), np.where(ur, 0j, jumps)
    h_block = frob(h_leak) / scale_h
    jump_res = tuple(frob(x) / max(1.0, frob(f)) for x, f in zip(jump_leaks, jumps))
    leaky = bool(skew.any() or h_leak.any() or jump_leaks.any())
    w = sum((dagger(f) @ f for f in jumps), np.zeros_like(h))
    w = 0.5 * (w + dagger(w))
    k = h - 0.5j * w
    k_schur = complex_schur(k[np.ix_(dfs.rest, dfs.rest)])
    mags = _normal_form_magnitudes(np.diag(k_schur[0]), dfs.d)
    scale_s = max(1.0, float(np.max(mags)))
    thresh = ZERO_CLUSTER_FACTOR * scale_s
    steady = 0.0
    if leaky:
        steady = float(np.max(np.linalg.norm(_dfs_columns(h, w, jumps, dfs), axis=0))) / scale_s
    multiplicity = gap = None
    if max((h_herm, h_block) + jump_res) <= DEFAULT_TOL:
        nonzero = mags[mags > thresh]
        multiplicity = int(mags.size - nonzero.size)
        gap = float(np.min(nonzero)) if nonzero.size else np.inf
    report = StructureReport(
        h_hermitian=h_herm,
        h_on_decaying_block=h_block,
        jumps_into_dfs=jump_res,
        dfs_steady=steady,
        zero_multiplicity=multiplicity,
        expected_multiplicity=dfs.d ** 2,
        spectral_gap=gap,
        tol=DEFAULT_TOL,
    )
    return report, k, w, k_schur, thresh, leaky


def structured_lindbladian(h, jumps, dfs: DfsProjector, *,
                           validate: bool = True) -> StructuredLindbladian:
    """Build a :class:`StructuredLindbladian`, validating the normal form.

    With validate=True (default) a violated structural assumption raises
    :class:`StructureError`. With validate=False the report is still attached
    so callers can inspect what failed.

    The jumps may be a sequence of (D, D) operators, stacked once, or one
    (J, D, D) array, kept uncopied when complex; the generator and its factor
    then share one complex (J, D, D) array, ``jumps``
    (:func:`~ejof.operators.operator_stack`).

    The Schur form of K_qq and the zero cut 1e-8 max(1, rho) are computed
    here, once, and the DFS steadiness is read off D x D products when an
    entry leaks off its corner, and is exactly 0 otherwise (see
    :func:`_diagnose`); when the H and jump checks pass, the zero
    multiplicity and the gap are read off K_qq too. The (D^2, D^2) matrix of
    L is not assembled here. L^D and P_inf come from a :class:`CornerFactor`,
    which eliminates the DFS corner of L and, on first use, factors its
    decaying-corner blocks: under the normal form by one n x n LU and one
    Schur form of K_qq, formed from H, the jumps and their Hermitian
    W = sum_l F_l† F_l. It solves the bordered system [[L, E], [E†, 0]],
    which is L^D only when the DFS is steady and L_rr is invertible: with
    validate=False and a DFS that is not steady, the factor is the bordered
    solve, not L^D.
    """
    h = as_operator(h)
    if h.shape[0] != dfs.dim:
        raise ValueError(f"hamiltonian dimension {h.shape[0]} != projector dimension {dfs.dim}")
    if dfs.d >= dfs.dim:
        raise ValueError("DFS must be a proper subspace (nonempty decaying block)")
    jumps = operator_stack(jumps, h, "jump", "hamiltonian")
    rep, k, w, k_schur, thresh, leaky = _diagnose(h, jumps, dfs)
    if validate and not rep.passed:
        raise StructureError("; ".join(rep.failures()))
    factor = CornerFactor(h=h, jumps=jumps, w=w, dfs=dfs, thresh=thresh, gap=rep.spectral_gap,
                          leaky=leaky)
    return StructuredLindbladian(h=h, jumps=jumps, dfs=dfs, k=k, k_schur=k_schur, report=rep,
                                 factor=factor)


def decay_rates(s: np.ndarray) -> np.ndarray:
    """Sorted decay rates -Re(lambda) over the nonzero spectrum of a generator."""
    s = as_operator(s)
    evals = np.linalg.eigvals(s)
    thresh = ZERO_CLUSTER_FACTOR * max(np.abs(evals).max(), np.finfo(float).tiny)
    rates = -evals.real[np.abs(evals) > thresh]
    return np.sort(rates)


def min_decay_rate(s: np.ndarray) -> float:
    """Smallest decay rate; raises if the nonzero spectrum is not relaxing."""
    rates = decay_rates(s)
    if rates.size == 0:
        raise ValueError("generator has no nonzero spectrum")
    if rates[0] <= 0:
        raise ValueError(f"generator is not relaxing (slowest rate {rates[0]:.3e})")
    return float(rates[0])


def asymptotic_projection_limit(s: np.ndarray, *, t: float) -> np.ndarray:
    """Large-time oracle for the asymptotic projection: exp(t S).

    t must be long enough that every decaying direction is suppressed below
    round-off relative to the result, such as 40 over the smallest decay
    rate (:func:`min_decay_rate`).
    """
    s = as_operator(s)
    if t < 0:
        raise ValueError("time must be nonnegative")
    return expm(t * s)


# ---------------------------------------------------------------------------
# Non-Hermitian sector solves
# ---------------------------------------------------------------------------

def nh_hamiltonian_inverse(k: np.ndarray, dfs: DfsProjector) -> np.ndarray:
    """Inverse of K on the decaying block: K_qq^-1, as an (n, n) matrix."""
    kk = as_operator(k)[np.ix_(dfs.rest, dfs.rest)]
    try:
        return np.linalg.solve(kk, np.eye(kk.shape[0], dtype=complex))
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"non-Hermitian Hamiltonian is singular on the decaying block: {err}") from err


def slowest_decay_rate(lind: StructuredLindbladian) -> float:
    """Slowest decay rate of the generator, from the Schur diagonal of K_qq.

    Under the normal form the nonzero spectrum of L is -i kappa_a and
    i conj(kappa_a) (decay rate -Im kappa_a) and -i(kappa_a - conj(kappa_b))
    (rate -Im kappa_a - Im kappa_b), over the eigenvalues kappa_a of K_qq, so
    the slowest rate is min_a -Im kappa_a.
    """
    return float(np.min(-np.diag(lind.k_schur[0]).imag))


def _nh_block_matrix(kk: np.ndarray) -> np.ndarray:
    """Matrix of sigma -> -i(K sigma - sigma K†) on the decaying block."""
    n = kk.shape[0]
    eye = np.eye(n, dtype=complex)
    return -1j * (np.kron(eye, kk) - np.kron(kk.conj(), eye))


def nh_superop_inverse_lr(k: np.ndarray, dfs: DfsProjector) -> np.ndarray:
    """Embedded inverse of sigma -> -i(K sigma - sigma K†) on the lr corner.

    Returns a full (D^2, D^2) matrix that inverts the map on lr-supported
    operators and annihilates the other corners. Implemented as a dense linear
    solve on the Kronecker form of the map, (D-d)^2 square, so a
    non-diagonalizable K is handled exactly. The routes solve the sector by
    Bartels-Stewart (:class:`LrSweep`); this dense form is kept as the
    independent oracle behind :func:`asymptotic_projection_analytic` and the
    tests.
    """
    m = _nh_block_matrix(as_operator(k)[np.ix_(dfs.rest, dfs.rest)])
    try:
        minv = np.linalg.solve(m, np.eye(m.shape[0], dtype=complex))
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"decaying-block evolution superoperator is singular: {err}") from err
    lr = dfs.vec_order[-dfs.n_decay ** 2:]
    out = np.zeros((dfs.dim ** 2, dfs.dim ** 2), dtype=complex)
    out[np.ix_(lr, lr)] = minv
    return out


def asymptotic_projection_analytic(lind: StructuredLindbladian) -> np.ndarray:
    """Closed-form asymptotic projection for a structured Lindbladian.

    P_inf(rho) = P rho P - sum_l F_l Kinv_lr(rho) F_l†, where Kinv_lr inverts
    the decaying-block evolution sigma -> -i(K sigma - sigma K†). The map
    annihilates the block-off-diagonal corners. Kinv_lr reads and writes only
    the lr vec positions, so the feed enters through its lr columns alone.
    """
    dfs = lind.dfs
    rest = dfs.rest
    inv_lr = nh_superop_inverse_lr(lind.k, dfs)
    # Column a + n b of conj(F_l[:, rest]) kron F_l[:, rest] is vec(F_l q_a q_b† F_l†).
    feed_lr = sum(np.kron(f[:, rest].conj(), f[:, rest]) for f in lind.jumps)
    out = -(feed_lr @ inv_lr[dfs.vec_order[-dfs.n_decay ** 2:]])
    ul = dfs.vec_order[:dfs.d ** 2]
    out[ul, ul] += 1.0
    return out
