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
once (:class:`SectorSolver`, cached as ``decaying_sector``) and reads the
zero multiplicity, the gap and the spectral radius rho(L) off it. The zero
cut is relative to that radius, |lambda| <= 1e-8 max(1, rho(L)), so no norm
of L is taken. That Schur form is the only decomposition of the generator:
L itself is assembled once, in K form, with one GEMM for the jump sum
(:func:`~ejof.operators.gksl_superop`), and the Drazin inverse and the
asymptotic projection come from eliminating the DFS corner
(:class:`CornerFactor`): in the frame of the DFS basis, L is
block-triangular with its kernel on the DFS corner, and both are read off
LUs of the decaying-corner blocks of L, block diagonal over ll, ur and lr
under the normal form, each gathered on its own; a block with a zero or
tiny pivot raises :class:`SingularBlockError`. The decaying-sector map
sigma -> -i(K sigma - sigma K†) is a Sylvester equation, solved by
Bartels-Stewart on the cached Schur form of K_qq, for a whole stack of
right-hand sides in one column sweep of n triangular solves; its dense
Kronecker form is kept in :func:`nh_superop_inverse_lr` as an independent
oracle, behind the closed-form :func:`asymptotic_projection_analytic`. Every
block of an operator or superoperator is an index gather on the DFS index set
(:class:`~ejof.operators.DfsProjector`), never a product with a projector.
"""

from __future__ import annotations

import functools
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

import numpy as np
from scipy.linalg import expm, schur
from scipy.linalg.lapack import zgetrf, zgetrs, ztrtrs

from .operators import (
    DEFAULT_TOL,
    DfsProjector,
    as_operator,
    dagger,
    four_corners,
    frob,
    gksl_superop,
    require_hermitian,
)

# Relative threshold separating the zero cluster of a superoperator spectrum.
ZERO_CLUSTER_FACTOR = 1e-8
# Warn when the smallest retained eigenvalue is within this factor of the cut.
GAP_WARNING_FACTOR = 100.0
# A block of L_rr whose smallest |LU pivot| is below this fraction of its
# largest is taken as singular: its solves would carry no correct digit.
PIVOT_RATIO_FLOOR = 1e3 * np.finfo(float).eps


class SpectralGapWarning(UserWarning):
    """Separation between zero and nonzero spectrum is close to the threshold."""


class SingularBlockError(np.linalg.LinAlgError):
    """A block linear system required by the computation is singular."""


class StructureError(ValueError):
    """Input violates the structural normal form for a DFS Lindbladian."""


def assemble_lindbladian(h: np.ndarray, jumps) -> np.ndarray:
    """Full (D^2, D^2) matrix of the Lindblad generator."""
    return gksl_superop(require_hermitian(h, "hamiltonian"), jumps)


def nh_hamiltonian(h: np.ndarray, jumps) -> np.ndarray:
    """Non-Hermitian Hamiltonian K = H - (i/2) sum_l F_l† F_l."""
    k = as_operator(h).astype(complex)
    for f in jumps:
        f = as_operator(f)
        k = k - 0.5j * (dagger(f) @ f)
    return k


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
    outside ur. Without such an entry (``leaky`` False) L_rr is block
    diagonal over ll and ur (side dn each) and lr (side n^2), each block is
    gathered and LU-factored apart, and only the lr columns of L_ur are
    read. With one (leakage below the tolerance, or a generator that fails
    its checks), L_rr and L_ur are gathered whole, so no entry of L is
    dropped. Each block is gathered F-ordered and factored in place.

    U is the permutation ``dfs.order``, and ``order`` is ``dfs.vec_order``, the
    vec index of each frame position, so entering or leaving the frame is an
    index gather or scatter. The factor reads only L's own entries. The LUs
    are taken on first use, with a :class:`SpectralGapWarning` when ``gap`` is
    within 100x of the zero cut ``thresh`` (``gap`` is None when the
    structure report has none). A block whose smallest |LU pivot| is zero, or
    below ``PIVOT_RATIO_FLOOR`` times its largest, raises
    :class:`SingularBlockError`: L_rr is then numerically singular, and a
    kernel of L larger than the DFS corner has no group inverse here.
    """

    superop: np.ndarray
    order: np.ndarray
    d: int
    thresh: float
    gap: float | None
    leaky: bool

    @classmethod
    def of(cls, superop: np.ndarray, dfs: DfsProjector, *, thresh: float,
           gap: float | None, leaky: bool) -> "CornerFactor":
        return cls(superop=superop, order=dfs.vec_order, d=dfs.d, thresh=thresh, gap=gap,
                   leaky=leaky)

    def _gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """L[rows, cols], F-ordered: the transpose of a C-ordered gather of L^T."""
        return self.superop.T[cols[:, None], rows].T

    @cached_property
    def _factored(self) -> tuple[list, np.ndarray]:
        """[(slice of r, LU of its diagonal block of L_rr)] and G = L_ur L_rr^-1."""
        _warn_if_gap_small(self.gap, self.thresh)
        m = self.d ** 2
        u, r = self.order[:m], self.order[m:]
        dn = self.d * (isqrt(self.order.size) - self.d)
        if self.leaky:
            cuts = [slice(0, r.size)]
        else:
            cuts = [slice(0, dn), slice(dn, 2 * dn), slice(2 * dn, r.size)]
        blocks = []
        for cut in cuts:
            lu = zgetrf(self._gather(r[cut], r[cut]), overwrite_a=True)[:2]
            pivots = np.abs(np.diag(lu[0]))
            small, big = pivots.min(), pivots.max()
            if small == 0 or small < PIVOT_RATIO_FLOOR * big:
                raise SingularBlockError(
                    f"a decaying-corner block of L (side {pivots.size}) is singular: "
                    f"smallest/largest |LU pivot| {small / big if small else 0.0:.3e}"
                    f" < {PIVOT_RATIO_FLOOR:.3e}"
                )
            blocks.append((cut, lu))
        # Only the last block (lr, or all of L_rr) feeds ul.
        cut, lu = blocks[-1]
        g = np.zeros((m, r.size), dtype=complex)
        g[:, cut] = dagger(zgetrs(*lu, dagger(self.superop[np.ix_(u, r[cut])]), trans=2)[0])
        return blocks, g

    def _leave(self, z: np.ndarray) -> np.ndarray:
        """Frame columns z, in corner order, scattered back to vec order."""
        out = np.empty(z.shape, dtype=complex)
        out[self.order] = z
        return out

    def apply_drazin(self, y: np.ndarray) -> np.ndarray:
        """L^D y = [G z_r; z_r] in the frame, z_r = L_rr^-1 y_r, for columns y."""
        blocks, g = self._factored
        y_r = y[self.order[self.d ** 2:]]
        z = np.empty(y_r.shape, dtype=complex)
        for cut, lu in blocks:
            z[cut] = zgetrs(*lu, y_r[cut])[0]
        return self._leave(np.concatenate([g @ z, z]))

    def apply_projection(self, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """P_inf y = E (J† y), or P_inf† y = J (E† y), for columns y.

        P_inf E = E and E† P_inf = J† hold exactly: no D^2 x D^2 matrix is formed.
        """
        _, g = self._factored
        m = self.d ** 2
        y = y[self.order]
        if adjoint:
            return self._leave(np.concatenate([y[:m], -dagger(g) @ y[:m]]))
        return self._leave(np.concatenate([y[:m] - g @ y[m:], np.zeros(y[m:].shape)]))

    def drazin(self) -> np.ndarray:
        """L^D = [[0, G L_rr^-1], [0, L_rr^-1]] in the frame, written block by block.

        Each block inverse is its LU solved against the identity (LAPACK
        getrs), and the ul row is G times it.
        """
        blocks, g = self._factored
        m = self.d ** 2
        order = self.order
        out = np.zeros((order.size, order.size), dtype=complex)
        for cut, lu in blocks:
            side = cut.stop - cut.start
            inv = zgetrs(*lu, np.eye(side, dtype=complex, order="F"), overwrite_b=True)[0]
            rows = order[m + cut.start:m + cut.stop]
            out[np.ix_(rows, rows)] = inv
            out[np.ix_(order[:m], rows)] = g[:, cut] @ inv
        return out

    def projection(self) -> np.ndarray:
        """P_inf = E J† = [[I, -G], [0, 0]] in the frame."""
        _, g = self._factored
        m = self.d ** 2
        out = np.zeros((self.order.size,) * 2, dtype=complex)
        top = self.order[:m]
        out[top, top] = 1.0
        out[top[:, None], self.order[m:]] = -g
        return out


@dataclass(eq=False)
class StructuredLindbladian:
    """A Lindbladian in the DFS structural normal form.

    Use :func:`structured_lindbladian` to construct one with validation. The
    non-Hermitian Hamiltonian ``k`` (supported on the decaying block), the
    corner factor of the superoperator (``factor``) and the Schur form of K_qq
    (``decaying_sector``) are built once, at construction; the Drazin inverse
    and the asymptotic projection are read off ``factor``.
    """

    h: np.ndarray
    jumps: tuple[np.ndarray, ...]
    dfs: DfsProjector
    superop: np.ndarray
    k: np.ndarray = field(repr=False)
    report: StructureReport = field(repr=False)
    factor: CornerFactor = field(repr=False)
    decaying_sector: SectorSolver = field(repr=False)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

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


def _diagnose(h, jumps, dfs: DfsProjector, superop: np.ndarray, tol: float):
    """(report, K, Schur form of K_qq, zero cut, whether any entry leaks).

    An entry leaks when it lies in H outside lr or in a jump outside ur. The
    flag tests the entries themselves: the report's residuals are norms, which
    underflow to zero for entries below about 1e-154.

    The scale is max(1, rho), with rho the largest |lambda| that the normal
    form reads off the Schur form of K_qq (the spectral radius of L when the
    H and jump checks pass). The cut is 1e-8 times that scale, and the
    steadiness residual is divided by it. No decomposition of L is taken: when
    an H or jump check fails, K_qq does not give the spectrum of L, so the
    zero multiplicity and the gap are None and the multiplicity check is not
    made.
    """
    scale_h = max(1.0, frob(h))
    h_herm = frob(h - dagger(h)) / scale_h
    leaks = [h - four_corners(h, dfs).lr] + [f - four_corners(f, dfs).ur for f in jumps]
    h_block = frob(leaks[0]) / scale_h
    jump_res = tuple(frob(x) / max(1.0, frob(f)) for x, f in zip(leaks[1:], jumps))
    k = nh_hamiltonian(h, jumps)
    sector = SectorSolver.of(k, dfs)
    mags = _normal_form_magnitudes(np.diag(sector.t), dfs.d)
    scale_s = max(1.0, float(np.max(mags)))
    thresh = ZERO_CLUSTER_FACTOR * scale_s
    # Steadiness: L applied to each DFS unit b_i b_j† is L's column at the
    # unit's vec position. np.take returns the columns C-ordered (a fancy-index
    # gather would be F-ordered), and the layout fixes the order in which the
    # column norms are summed.
    cols = np.take(superop, dfs.vec_order[:dfs.d ** 2], axis=1)
    steady = float(np.max(np.linalg.norm(cols, axis=0))) / scale_s
    multiplicity = gap = None
    if max((h_herm, h_block) + jump_res) <= tol:
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
        tol=tol,
    )
    return report, k, sector, thresh, any(x.any() for x in leaks)


def structured_lindbladian(h, jumps, dfs: DfsProjector, *, validate: bool = True,
                           tol: float = DEFAULT_TOL) -> StructuredLindbladian:
    """Build a :class:`StructuredLindbladian`, validating the normal form.

    With validate=True (default) a violated structural assumption raises
    :class:`StructureError`. With validate=False the report is still attached
    so callers can inspect what failed.

    The Schur form of K_qq and the zero cut 1e-8 max(1, rho) are computed
    here, once (see :func:`_diagnose`); when the H and jump checks pass, the
    zero multiplicity and the gap are read off K_qq too. L^D and P_inf come
    from a :class:`CornerFactor`, which eliminates the DFS corner of L and
    LU-factors its decaying-corner blocks (sides dn, dn and n^2 under the
    normal form) on first use. It solves the bordered system
    [[L, E], [E†, 0]], which is L^D only when the DFS is steady and L_rr is
    invertible: with validate=False and a DFS that is not steady, the factor
    is the bordered solve, not L^D.
    """
    h = as_operator(h)
    jumps = tuple(as_operator(f) for f in jumps)
    if h.shape[0] != dfs.dim:
        raise ValueError(f"hamiltonian dimension {h.shape[0]} != projector dimension {dfs.dim}")
    if dfs.d >= dfs.dim:
        raise ValueError("DFS must be a proper subspace (nonempty decaying block)")
    # Assemble without the Hermiticity hard-check; the report records it, and
    # validate=True raises below on any failure.
    superop = gksl_superop(h, jumps)
    rep, k, sector, thresh, leaky = _diagnose(h, jumps, dfs, superop, tol)
    if validate and not rep.passed:
        raise StructureError("; ".join(rep.failures()))
    factor = CornerFactor.of(superop, dfs, thresh=thresh, gap=rep.spectral_gap, leaky=leaky)
    return StructuredLindbladian(h=h, jumps=jumps, dfs=dfs, superop=superop, k=k, report=rep,
                                 factor=factor, decaying_sector=sector)


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


def asymptotic_projection_limit(s: np.ndarray, *, t: float | None = None,
                                factor: float = 40.0) -> np.ndarray:
    """Large-time oracle for the asymptotic projection: exp(t S).

    By default t = factor / (smallest decay rate), long enough that every
    decaying direction is suppressed below round-off relative to the result.
    """
    s = as_operator(s)
    if t is None:
        t = factor / min_decay_rate(s)
    if t < 0:
        raise ValueError("time must be nonnegative")
    return expm(t * s)


# ---------------------------------------------------------------------------
# Non-Hermitian sector solves
# ---------------------------------------------------------------------------

def nh_hamiltonian_inverse(k: np.ndarray, dfs: DfsProjector) -> np.ndarray:
    """Inverse of K on the decaying block, embedded in the full space.

    The result X satisfies X K = K X = Q (the decaying-block projector) and
    vanishes on the other corners.
    """
    lr = np.ix_(dfs.rest, dfs.rest)
    kk = as_operator(k)[lr]
    try:
        inv = np.linalg.solve(kk, np.eye(kk.shape[0], dtype=complex))
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"non-Hermitian Hamiltonian is singular on the decaying block: {err}") from err
    out = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    out[lr] = inv
    return out


@dataclass(frozen=True, eq=False)
class SectorSolver:
    """Bartels-Stewart solver for sigma -> -i(K sigma - sigma K†) on the decaying block.

    K_qq = U T U† is Schur-factored once. A right-hand side C, or a stack of
    m of them, is solved as T Y - Y T† = i U† C U by the column recurrence of
    Bartels and Stewart (CACM 15, 1972): for j = n-1 down to 0,

        (T - conj(t_jj) I) y_j = c_j + sum_{k>j} conj(t_jk) y_k,

    one triangular solve (LAPACK ztrtrs) carrying the j-th columns of all m
    right-hand sides. A batch costs n triangular solves and four stacked
    n x n products, against a dense (n^2, n^2) solve per right-hand side for
    the Kronecker form. No eigenvectors are involved, so a defective K is
    handled exactly. A :class:`StructuredLindbladian` caches one as
    ``decaying_sector``.
    """

    t: np.ndarray
    u: np.ndarray

    @classmethod
    def of(cls, k: np.ndarray, dfs: DfsProjector) -> "SectorSolver":
        t, u = schur(as_operator(k)[np.ix_(dfs.rest, dfs.rest)], output="complex")
        return cls(t=t, u=u)

    @cached_property
    def _gaps(self) -> np.ndarray:
        """The sweep diagonals t_aa - conj(t_jj), as [a, j].

        One at or below ztrsyl's threshold max(eps max|T_ij|, the smallest
        normal number), in ztrsyl's measure |Re| + |Im|, raises
        :class:`SingularBlockError`.
        """
        diag = np.diag(self.t)
        gaps = diag[:, None] - diag.conj()[None, :]
        small = max(np.finfo(float).eps * float(np.max(np.abs(self.t))), np.finfo(float).tiny)
        if float(np.min(np.abs(gaps.real) + np.abs(gaps.imag))) <= small:
            raise SingularBlockError(
                "decaying-block evolution superoperator is singular: "
                f"K and K† share an eigenvalue (a Schur diagonal gap is at most {small:.3e})"
            )
        return gaps

    def solve(self, c: np.ndarray) -> np.ndarray:
        """sigma with -i(K sigma - sigma K†) = c, in the decaying basis.

        c is one (n, n) operator or an (m, n, n) stack, and sigma has its shape.
        """
        u, t, gaps = self.u, self.t, self._gaps
        n = t.shape[0]
        rhs = 1j * (dagger(u) @ c @ u)
        # y[j] holds column j of every Y in the stack as an (m, n) block, so
        # that y[j].T is the F-ordered (n, m) right-hand side LAPACK reads.
        y = np.ascontiguousarray(rhs.reshape(-1, n, n).transpose(2, 0, 1))
        size = y[0].size
        # T - conj(t_jj) I is T's F-ordered copy with its diagonal, a strided view, reset.
        shifted = np.array(t, order="F")
        diagonal = shifted.reshape(-1, order="F")[::n + 1]
        for j in range(n - 1, -1, -1):
            y[j] += (t[j, j + 1:].conj() @ y[j + 1:].reshape(n - 1 - j, size)).reshape(y[j].shape)
            diagonal[:] = gaps[:, j]
            y[j] = ztrtrs(shifted, y[j].T, overwrite_b=True)[0].T
        return u @ y.transpose(1, 2, 0).reshape(rhs.shape) @ dagger(u)


def slowest_decay_rate(lind: StructuredLindbladian) -> float:
    """Slowest decay rate of the generator, from the Schur diagonal of K_qq.

    Under the normal form the nonzero spectrum of L is -i kappa_a and
    i conj(kappa_a) (decay rate -Im kappa_a) and -i(kappa_a - conj(kappa_b))
    (rate -Im kappa_a - Im kappa_b), over the eigenvalues kappa_a of K_qq, so
    the slowest rate is min_a -Im kappa_a.
    """
    return float(np.min(-np.diag(lind.decaying_sector.t).imag))


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
    Bartels-Stewart (:class:`SectorSolver`); this dense form is kept as the
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
