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
zero multiplicity and the spectral gap off it. L is block diagonal over the
corners too, so ||L||_2, the scale of every cut, is the larger of ||K_qq||_2
and the 2-norm of a (d^2 + n^2, n^2) corner block: a structured L is never
SVD-factored densely. L itself is assembled once, in K form
(:func:`~ejof.operators.gksl_superop`). When every structural check
passes, the Drazin inverse and the asymptotic projection come from one LU of
the bordered matrix [[L, E], [E†, 0]], with E the DFS columns of ker L
(:class:`BorderedFactor`). A generator that fails a check falls back to one
dense ordered complex Schur form of L (:class:`OrderedSchur`), which also
serves the free functions :func:`drazin_inverse` and
:func:`asymptotic_projection` and the tests as an oracle. The decaying-sector
map sigma -> -i(K sigma - sigma K†) is a Sylvester equation, solved by
Bartels-Stewart on the cached Schur form of K_qq; its dense Kronecker form is
kept in :func:`nh_superop_inverse_lr` as an independent oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve, schur, solve_triangular
from scipy.linalg.lapack import ztrsyl

from .operators import (
    DEFAULT_TOL,
    DfsProjector,
    as_operator,
    dagger,
    dfs_columns,
    four_corners,
    frob,
    gksl_superop,
    require_hermitian,
    sandwich_superop,
)

# Relative threshold separating the zero cluster of a superoperator spectrum.
ZERO_CLUSTER_FACTOR = 1e-8
# Warn when the smallest retained eigenvalue is within this factor of the cut.
GAP_WARNING_FACTOR = 100.0


class SpectralGapWarning(UserWarning):
    """Separation between zero and nonzero spectrum is close to the threshold."""


class NonSemisimpleZeroError(np.linalg.LinAlgError):
    """The zero eigenvalue carries a nilpotent (Jordan) block."""


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
    zero_multiplicity: int
    expected_multiplicity: int
    spectral_gap: float
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
        if self.zero_multiplicity != self.expected_multiplicity:
            out.append(
                f"zero eigenvalue multiplicity {self.zero_multiplicity}"
                f" != DFS block dimension {self.expected_multiplicity}"
            )
        return out


def _warn_if_gap_small(gap: float, thresh: float) -> None:
    if gap < GAP_WARNING_FACTOR * thresh:
        warnings.warn(
            f"smallest retained eigenvalue {gap:.3e} is within "
            f"{GAP_WARNING_FACTOR:g}x of the zero threshold {thresh:.3e}",
            SpectralGapWarning,
            stacklevel=3,
        )


@dataclass(frozen=True, eq=False)
class OrderedSchur:
    """Ordered complex Schur form S = Z T Z† of a square matrix.

    The ``sdim`` eigenvalues with |lambda| above the zero threshold lead the
    diagonal of T and the zero cluster trails::

        T = [[T11, T12],   S^D = Z [[inv(T11), inv(T11)^2 T12],  Z†
             [0,   T22]],            [0,        0            ]]

    This is the dense fallback of the spectral layer: generators that fail a
    structural check, the free functions :func:`drazin_inverse` and
    :func:`asymptotic_projection`, and the tests' oracle. It exposes the same
    ``drazin``/``projection``/``apply_drazin`` interface as
    :class:`BorderedFactor`.
    """

    t: np.ndarray
    z: np.ndarray
    sdim: int
    thresh: float

    @classmethod
    def of(cls, s: np.ndarray, *, zero_tol: float | None = None,
           norm2: float | None = None) -> "OrderedSchur":
        """Factor S, sorting at zero_tol (default 1e-8 * ||S||_2).

        Pass a known ||S||_2 as norm2 to skip recomputing it.
        """
        s = as_operator(s)
        if zero_tol is None:
            if norm2 is None:
                norm2 = float(np.linalg.norm(s, 2))
            zero_tol = ZERO_CLUSTER_FACTOR * norm2
        thresh = float(zero_tol)
        t, z, sdim = schur(s, output="complex", sort=lambda lam: abs(lam) > thresh)
        return cls(t=t, z=z, sdim=int(sdim), thresh=thresh)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.t)

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """inv(T11) and inv(T11) T12, after the semisimplicity and gap checks.

        For a semisimple zero cluster T22 vanishes up to round-off; a
        nilpotent residual above tolerance raises
        :class:`NonSemisimpleZeroError`. A retained eigenvalue within 100x of
        the threshold emits :class:`SpectralGapWarning`.
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
        return self.apply_drazin(np.eye(self.t.shape[0], dtype=complex))

    def projection(self) -> np.ndarray:
        """P_inf = I - S S^D = (Z2 - Z1 inv(T11) T12) Z2†."""
        _, x = self._split
        z1, z2 = self.z[:, :self.sdim], self.z[:, self.sdim:]
        return (z2 - z1 @ x) @ dagger(z2)


@dataclass(frozen=True, eq=False)
class BorderedFactor:
    """L^D and P_inf of a generator whose kernel is spanned by known columns E.

    With ker L = range(E) and a semisimple zero eigenvalue, the bordered
    matrix M = [[L, E], [E†, 0]] is nonsingular and is LU-factored once:

    * the left conserved quantities J (L† J = 0, E† J = I) solve
      M† [J; 0] = [0; I], and P_inf = E J†;
    * for columns y, M [z; c] = [y; 0] gives L z = (I - P_inf) y with
      E† z = 0, and L^D y = z - E (J† z).

    For a structured generator E = conj(B) kron B, the DFS columns. The LU is
    taken on first use; it emits :class:`SpectralGapWarning` when ``gap`` is
    within 100x of ``thresh``, as :class:`OrderedSchur` does.
    """

    superop: np.ndarray
    e: np.ndarray
    thresh: float
    gap: float

    @cached_property
    def _solved(self):
        """LU of M and the left conserved quantities J."""
        _warn_if_gap_small(self.gap, self.thresh)
        n, m = self.e.shape
        bordered = np.zeros((n + m, n + m), dtype=complex)
        bordered[:n, :n] = self.superop
        bordered[:n, n:] = self.e
        bordered[n:, :n] = dagger(self.e)
        lu = lu_factor(bordered, overwrite_a=True, check_finite=False)
        rhs = np.zeros((n + m, m), dtype=complex)
        rhs[n:] = np.eye(m)
        return lu, lu_solve(lu, rhs, trans=2, check_finite=False)[:n]

    def apply_drazin(self, y: np.ndarray) -> np.ndarray:
        """L^D y for columns y, from one bordered solve."""
        lu, j = self._solved
        n = self.e.shape[0]
        rhs = np.zeros((n + self.e.shape[1],) + y.shape[1:], dtype=complex)
        rhs[:n] = y
        z = lu_solve(lu, rhs, check_finite=False)[:n]
        return z - self.e @ (dagger(j) @ z)

    def drazin(self) -> np.ndarray:
        return self.apply_drazin(np.eye(self.e.shape[0], dtype=complex))

    def projection(self) -> np.ndarray:
        """P_inf = E J†."""
        _, j = self._solved
        return self.e @ dagger(j)


@dataclass(eq=False)
class StructuredLindbladian:
    """A Lindbladian in the DFS structural normal form.

    Use :func:`structured_lindbladian` to construct one with validation. The
    spectral factor of the superoperator (``factor``: a :class:`BorderedFactor`
    when the structural checks pass, else the dense :class:`OrderedSchur`) and
    the Schur form of K_qq (``decaying_sector``) are built once, at
    construction; the Drazin inverse and the asymptotic projection are read off
    ``factor``.
    """

    h: np.ndarray
    jumps: tuple[np.ndarray, ...]
    dfs: DfsProjector
    superop: np.ndarray
    report: StructureReport = field(repr=False)
    factor: BorderedFactor | OrderedSchur = field(repr=False)
    decaying_sector: SectorSolver = field(repr=False)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @cached_property
    def k(self) -> np.ndarray:
        """Non-Hermitian Hamiltonian on the decaying block."""
        return nh_hamiltonian(self.h, self.jumps)

    @cached_property
    def drazin(self) -> np.ndarray:
        return self.factor.drazin()

    @cached_property
    def asymptotic_projection(self) -> np.ndarray:
        """Projection onto the steady subspace along the decaying directions."""
        return self.factor.projection()


def structure_report(h, jumps, dfs: DfsProjector, superop=None, tol: float = DEFAULT_TOL) -> StructureReport:
    """Evaluate the structural checks without raising."""
    h = as_operator(h)
    jumps = [as_operator(f) for f in jumps]
    if superop is None:
        superop = assemble_lindbladian(h, jumps)
    return _diagnose(h, jumps, dfs, superop, tol)[0]


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


def _normal_form_norm2(k: np.ndarray, jumps, dfs: DfsProjector) -> float:
    """||L||_2 of a generator in normal form, exactly, from its corner blocks.

    Over the corners L is block diagonal: ur -> ur is X -> i X K† and
    ll -> ll is X -> -i K X, both of 2-norm ||K_qq||_2; ul -> 0; and
    lr -> (ul, lr) is the stacked (d^2 + n^2, n^2) matrix
    [sum_l conj(F_pq) kron F_pq; -i(I kron K_qq - conj(K_qq) kron I)], with
    F_pq = B_p† F B_q. So ||L||_2 is the larger of ||K_qq||_2 and the 2-norm
    of that stack.
    """
    bp, bq = dfs.basis, dfs.basis_c
    kqq = dagger(bq) @ k @ bq
    feed = np.zeros((dfs.d ** 2, dfs.n_decay ** 2), dtype=complex)
    for f in jumps:
        f_pq = dagger(bp) @ f @ bq
        feed += np.kron(f_pq.conj(), f_pq)
    lr = np.vstack([feed, _nh_block_matrix(kqq)])
    return max(float(np.linalg.norm(kqq, 2)), float(np.linalg.norm(lr, 2)))


def _diagnose(h, jumps, dfs: DfsProjector, superop: np.ndarray, tol: float):
    """(report, Schur form of K_qq, dense fallback factor, ||L||_2).

    When the H and jump checks pass, ||L||_2 comes from the corner blocks
    (:func:`_normal_form_norm2`); otherwise from a dense SVD of L. When the
    steadiness check passes too, the spectrum is read off the Schur form of
    K_qq and the fallback is None. Otherwise it is read off an ordered Schur
    form of L, returned as the fallback.
    """
    scale_h = max(1.0, frob(h))
    h_herm = frob(h - dagger(h)) / scale_h
    h_block = frob(h - dfs.q @ h @ dfs.q) / scale_h
    jump_res = tuple(
        frob(f - dfs.p @ f @ dfs.q) / max(1.0, frob(f)) for f in jumps
    )
    k = nh_hamiltonian(h, jumps)
    sector = SectorSolver.of(k, dfs)
    blocks_ok = max((h_herm, h_block) + jump_res) <= tol
    norm2 = _normal_form_norm2(k, jumps, dfs) if blocks_ok else float(np.linalg.norm(superop, 2))
    scale_s = max(1.0, norm2)
    # Steadiness: L applied to a basis of the DFS block, one unit per column.
    steady = float(np.max(np.linalg.norm(superop @ dfs_columns(dfs.basis), axis=0))) / scale_s
    fallback = None
    if blocks_ok and steady <= tol:
        mags = _normal_form_magnitudes(np.diag(sector.t), dfs.d)
    else:
        fallback = OrderedSchur.of(superop, norm2=norm2)
        mags = np.abs(fallback.eigenvalues)
    # Zero cluster and gap at the report's own cut.
    thresh = ZERO_CLUSTER_FACTOR * scale_s
    nonzero = mags[mags > thresh]
    report = StructureReport(
        h_hermitian=h_herm,
        h_on_decaying_block=h_block,
        jumps_into_dfs=jump_res,
        dfs_steady=steady,
        zero_multiplicity=int(mags.size - nonzero.size),
        expected_multiplicity=dfs.d ** 2,
        spectral_gap=float(np.min(nonzero)) if nonzero.size else np.inf,
        tol=tol,
    )
    return report, sector, fallback, norm2


def structured_lindbladian(h, jumps, dfs: DfsProjector, *, validate: bool = True,
                           tol: float = DEFAULT_TOL) -> StructuredLindbladian:
    """Build a :class:`StructuredLindbladian`, validating the normal form.

    With validate=True (default) a violated structural assumption raises
    :class:`StructureError`. With validate=False the report is still attached
    so callers can inspect what failed.

    ||L||_2 and the Schur form of K_qq are computed here, once. When the H
    and jump checks pass, ||L||_2 comes exactly from the corner blocks of L
    (2-norms of side n and d^2 + n^2, no dense SVD of L); otherwise from a
    dense 2-norm SVD of L. When the steadiness check passes too, the zero
    multiplicity and the gap are read off K_qq, with no Schur form of L; if
    the multiplicity check passes too, L^D and P_inf come from a
    :class:`BorderedFactor` on the DFS columns, a dense LU of side D^2 + d^2
    taken on first use. Otherwise the factor is a dense :class:`OrderedSchur`
    of L.
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
    rep, sector, factor, norm2 = _diagnose(h, jumps, dfs, superop, tol)
    if validate and not rep.passed:
        raise StructureError("; ".join(rep.failures()))
    if factor is None:
        if rep.passed:
            factor = BorderedFactor(superop=superop, e=dfs_columns(dfs.basis),
                                    thresh=ZERO_CLUSTER_FACTOR * norm2,
                                    gap=rep.spectral_gap)
        else:
            factor = OrderedSchur.of(superop, norm2=norm2)
    return StructuredLindbladian(h=h, jumps=jumps, dfs=dfs, superop=superop, report=rep,
                                 factor=factor, decaying_sector=sector)


def drazin_inverse(s: np.ndarray, *, zero_tol: float | None = None) -> np.ndarray:
    """Drazin pseudoinverse of a matrix with (at most) a semisimple zero eigenvalue.

    Factors S once as a dense :class:`OrderedSchur` and reads S^D off it; it
    needs nothing of S's structure, so it serves as the oracle for the
    factor a :class:`StructuredLindbladian` caches at build. For a
    semisimple zero cluster T22 vanishes
    up to round-off; a nilpotent residual above tolerance raises
    :class:`NonSemisimpleZeroError`. The default threshold is
    1e-8 * ||S||_2; a nonzero eigenvalue within 100x of the threshold emits
    :class:`SpectralGapWarning`.
    """
    return OrderedSchur.of(s, zero_tol=zero_tol).drazin()


def asymptotic_projection(s: np.ndarray) -> np.ndarray:
    """P_inf = I - S S^D, the spectral projection onto the kernel of S."""
    return OrderedSchur.of(s).projection()


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
    k = as_operator(k)
    bq = dfs.basis_c
    kk = dagger(bq) @ k @ bq
    try:
        inv = np.linalg.solve(kk, np.eye(kk.shape[0], dtype=complex))
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"non-Hermitian Hamiltonian is singular on the decaying block: {err}") from err
    return bq @ inv @ dagger(bq)


@dataclass(frozen=True, eq=False)
class SectorSolver:
    """Bartels-Stewart solver for sigma -> -i(K sigma - sigma K†) on the decaying block.

    K_qq = U T U† is Schur-factored once. Each right-hand side C then costs one
    triangular Sylvester solve T Y - Y T† = i U† C U (LAPACK ztrsyl) and four
    n x n products, against a dense (n^2, n^2) solve for the Kronecker form.
    No eigenvectors are involved, so a defective K is handled exactly. A
    :class:`StructuredLindbladian` caches one as ``decaying_sector``.
    """

    t: np.ndarray
    u: np.ndarray

    @classmethod
    def of(cls, k: np.ndarray, dfs: DfsProjector) -> "SectorSolver":
        bq = dfs.basis_c
        t, u = schur(dagger(bq) @ as_operator(k) @ bq, output="complex")
        return cls(t=t, u=u)

    def solve(self, c: np.ndarray) -> np.ndarray:
        """sigma with -i(K sigma - sigma K†) = c, both (n, n) in the decaying basis."""
        u = self.u
        y, scale, info = ztrsyl(self.t, self.t, 1j * (dagger(u) @ c @ u),
                                trana="N", tranb="C", isgn=-1)
        if info != 0:
            raise SingularBlockError(
                "decaying-block evolution superoperator is singular: "
                f"K and K† share an eigenvalue (LAPACK ztrsyl info {info})"
            )
        return u @ (y / scale) @ dagger(u)


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
    k = as_operator(k)
    bq = dfs.basis_c
    kk = dagger(bq) @ k @ bq
    m = _nh_block_matrix(kk)
    try:
        minv = np.linalg.solve(m, np.eye(m.shape[0], dtype=complex))
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"decaying-block evolution superoperator is singular: {err}") from err
    comp = np.kron(bq.T, dagger(bq))
    emb = np.kron(bq.conj(), bq)
    return emb @ minv @ comp


def nh_superop_solve(k: np.ndarray, sigma: np.ndarray, dfs: DfsProjector,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve -i(K rho - rho K†) = sigma on the ll, ur, and lr corners.

    The map is block diagonal over corners and vanishes identically on the
    DFS corner, so sigma must have no ul component. The ll and ur corners are
    dense linear systems with K_qq in the compressed basis; the lr corner is a
    Bartels-Stewart Sylvester solve (:class:`SectorSolver`). A corner whose
    right-hand side is exactly zero is skipped, so K_qq is Schur-factored only
    when the lr corner is nonzero. No diagonalization of K is involved, so
    defective K are fine.
    """
    k = as_operator(k)
    sigma = as_operator(sigma)
    c = four_corners(sigma, dfs)
    if frob(c.ul) > tol * max(1.0, frob(sigma)):
        raise ValueError(
            f"right-hand side has weight {frob(c.ul):.3e} on the DFS corner, "
            "where the map is not invertible"
        )
    bp, bq = dfs.basis, dfs.basis_c
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
        rho += bq @ SectorSolver.of(k, dfs).solve(rhs_lr) @ dagger(bq)
    return rho


def asymptotic_projection_analytic(lind: StructuredLindbladian) -> np.ndarray:
    """Closed-form asymptotic projection for a structured Lindbladian.

    P_inf(rho) = P rho P - sum_l F_l Kinv_lr(rho) F_l†, where Kinv_lr inverts
    the decaying-block evolution sigma -> -i(K sigma - sigma K†). The map
    annihilates the block-off-diagonal corners.
    """
    dfs = lind.dfs
    s = sandwich_superop(dfs.p, dfs.p).astype(complex)
    inv_lr = nh_superop_inverse_lr(lind.k, dfs)
    feed = np.zeros_like(s)
    for f in lind.jumps:
        feed = feed + sandwich_superop(f, dagger(f))
    return s - feed @ inv_lr
