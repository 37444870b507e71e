"""Dense operator and superoperator primitives.

Everything in this package works with plain complex numpy arrays. Operators on
a D-dimensional Hilbert space are (D, D) arrays; superoperators are (D*D, D*D)
arrays acting on column-stacked operators.

Vectorization convention (fixed across the package): vec(X) stacks the columns
of X, so vec(A X B) = (B^T kron A) vec(X). With numpy this is
``X.reshape(-1, order="F")``. The one superoperator the package assembles is
the GKSL generator (:func:`gksl_superop`); every other map acts on stacks of
operators, moved to and from vec columns by :func:`vectorize_stack` and
:func:`devectorize_columns`.

The block structure of an open system with a decoherence-free subspace (DFS) is
handled through :class:`DfsProjector`, a set of computational basis states
and its complement, the decaying states. Any operator splits into four corners

    O = O_ul + O_ur + O_ll + O_lr

by its rows and columns: ul keeps the DFS rows and DFS columns (the DFS
block), ur the DFS rows and decaying columns, ll the decaying rows and DFS
columns, and lr the decaying block. For the projector P onto the DFS and
Q = I - P these are P O P, P O Q, Q O P and Q O Q, but no projector is
formed: a corner is an index split and a block an index gather, each exact in
floating point. The corner names ul/ur/ll/lr are used throughout. A DFS given
as a dense projector matrix is not represented: the problem is rotated into
the projector's eigenbasis (:func:`projector_frame`) where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

import numpy as np

DEFAULT_TOL = 1e-10


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix, validating the shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def operator_stack(ops, like: np.ndarray, what: str, of: str) -> np.ndarray:
    """The operators ops as one complex (J, D, D) array, each of the shape of ``like``.

    ops may be a sequence of (D, D) operators, stacked once, or one
    (J, D, D) array, kept uncopied when complex. An operator that is not
    square, or not of like's shape, raises ValueError, naming it ``what``
    and like ``of``.
    """
    checked = [as_operator(a) for a in ops]
    for a in checked:
        if a.shape != like.shape:
            raise ValueError(f"{what} shape {a.shape} != {of} shape {like.shape}")
    return np.asarray(ops if isinstance(ops, np.ndarray) else checked,
                      dtype=complex).reshape(len(checked), *like.shape)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (..., m, n) stack."""
    return a.conj().swapaxes(-1, -2)


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def require_hermitian(a: np.ndarray, what: str = "operator") -> np.ndarray:
    a = as_operator(a)
    resid = frob(a - dagger(a))
    if resid > DEFAULT_TOL * max(1.0, frob(a)):
        raise ValueError(f"{what} is not Hermitian (residual {resid:.3e})")
    return a


def projector_frame(p) -> tuple[np.ndarray, int]:
    """Eigenbasis U = [B, B_q] of an orthogonal projector P, and its rank d.

    B (the first d columns) spans the range of P and B_q its complement, each
    in the ascending order of ``numpy.linalg.eigh``. In the frame of U, the
    projector U† P U is the one onto the first d basis states.
    """
    p = as_operator(p)
    dim = p.shape[0]
    tol = DEFAULT_TOL * max(1.0, frob(p))
    if frob(p - dagger(p)) > tol:
        raise ValueError("projector is not Hermitian")
    if frob(p @ p - p) > tol:
        raise ValueError("projector is not idempotent")
    d = int(round(p.trace().real))
    if not 0 < d <= dim:
        raise ValueError(f"projector rank {d} out of range for dimension {dim}")
    evals, evecs = np.linalg.eigh(p)
    # eigh sorts ascending: complement eigenvectors first, DFS last.
    if d < dim and evals[dim - d - 1] > 0.5:
        raise ValueError("projector eigenvalues are not close to 0/1")
    return np.hstack([evecs[:, dim - d:], evecs[:, :dim - d]]), d


@dataclass(frozen=True, eq=False)
class DfsProjector:
    """The DFS as a set of computational basis states, and the index arrays its blocks are sliced by.

    Build one with :meth:`from_indices`. No projector matrix is formed: a
    block of an operator is an index gather such as
    ``a[np.ix_(indices, rest)]``, and a corner (:func:`four_corners`) is the
    operator with every entry outside its rows and columns set to zero, so
    both are exact in floating point. A DFS given as a projector matrix is
    handled by rotating the problem into the frame of :func:`projector_frame`,
    where it is the first d basis states.

    Attributes
    ----------
    dim : Hilbert-space dimension D.
    indices : (d,) the DFS basis states, in the row and column order of a DFS block.
    rest : (D - d,) the decaying basis states, ascending.
    order : ``indices``, then ``rest``: the basis state at each position of
        the DFS frame.
    vec_order : (D^2,) the vec index of each entry of the frame, corner by
        corner in the order ul, ll, ur, lr, each corner column-stacked. Frame
        entry (a, b) is vec index order[a] + D order[b], so the first d^2
        entries are the DFS vec positions: position i + d j holds
        vec(b_i b_j†), for b_i the unit vector of indices[i].
    d : DFS dimension.
    """

    dim: int
    indices: np.ndarray
    rest: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False)
    vec_order: np.ndarray = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        dim, indices = self.dim, np.array(self.indices, dtype=np.intp)
        d = indices.size
        inside = np.zeros(dim, dtype=bool)
        inside[indices] = True
        order = np.concatenate([indices, np.flatnonzero(~inside)])
        grid = order + dim * order[:, None]  # grid[b, a]: vec index of frame entry (a, b)
        vec_order = np.concatenate([grid[:d, :d], grid[:d, d:], grid[d:, :d], grid[d:, d:]],
                                   axis=None)
        for name, value in (("indices", indices), ("rest", order[d:]), ("order", order),
                            ("vec_order", vec_order)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "d", d)

    @classmethod
    def from_indices(cls, dim: int, indices) -> "DfsProjector":
        """Projector onto a nonempty subset of the computational basis states."""
        idx = list(indices)
        if not idx or len(set(idx)) != len(idx) or any(not 0 <= i < dim for i in idx):
            raise ValueError(f"invalid basis indices {idx} for dimension {dim}")
        return cls(dim, idx)

    @property
    def n_decay(self) -> int:
        return self.dim - self.d

    @cached_property
    def _corner_masks(self) -> tuple[np.ndarray, ...]:
        """(D, D) masks of the ul, ur, ll and lr corners, read by :func:`four_corners`."""
        inside = np.zeros(self.dim, dtype=bool)
        inside[self.indices] = True
        rows, cols = inside[:, None], inside[None, :]
        return rows & cols, rows & ~cols, ~rows & cols, ~rows & ~cols


@dataclass(frozen=True)
class Corners:
    """Four-corner decomposition of an operator relative to a DfsProjector."""

    ul: np.ndarray
    ur: np.ndarray
    ll: np.ndarray
    lr: np.ndarray


def four_corners(op: np.ndarray, dfs: DfsProjector) -> Corners:
    """Corners of an operator, or of each operator in a (..., D, D) stack.

    Each corner keeps the entries of its rows and columns and is zero
    elsewhere: a split by the DFS index mask, with no product.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (dfs.dim, dfs.dim):
        raise ValueError(f"operator shape {op.shape} != projector dimension {dfs.dim}")
    zero = np.zeros((), dtype=complex)
    return Corners(*(np.where(mask, op, zero) for mask in dfs._corner_masks))


# ---------------------------------------------------------------------------
# Vectorization and superoperator constructors
# ---------------------------------------------------------------------------

def devectorize_columns(cols: np.ndarray) -> np.ndarray:
    """(D^2, m) vec columns -> (m, D, D) stack of the operators they stack."""
    dim = isqrt(cols.shape[0])
    return cols.T.reshape(-1, dim, dim).transpose(0, 2, 1)


def vectorize_stack(stack: np.ndarray) -> np.ndarray:
    """Inverse of :func:`devectorize_columns`; leading axes of the stack are flattened."""
    dim = stack.shape[-1]
    return stack.reshape(-1, dim, dim).transpose(0, 2, 1).reshape(-1, dim * dim).T


def gksl_superop(h: np.ndarray, jumps, w: np.ndarray | None = None) -> np.ndarray:
    """Matrix of X -> -i(H X - X H) - (1/2){W, X} + sum_l A_l X A_l†.

    W defaults to sum_l A_l† A_l, which makes this the Lindbladian of H and the
    jumps A_l. It is assembled in K form, -i I kron K + i K'^T kron I +
    sum_l conj(A_l) kron A_l with K = H - (i/2)W and K' = H + (i/2)W (K' = K†
    for Hermitian H). The jumps are a sequence of (D, D) operators or one
    (J, D, D) array (:func:`operator_stack`). The jump sum is one
    (D^2, J)^T @ (J, D^2) product, reordered once to Kronecker layout; the
    two K terms are added on the strided diagonals of its (D, D, D, D) view.
    """
    h = as_operator(h)
    jumps = operator_stack(jumps, h, "jump", "hamiltonian")
    if w is None:
        w = sum((dagger(a) @ a for a in jumps), np.zeros_like(h))
    dim = h.shape[0]
    a = jumps.reshape(len(jumps), dim * dim)
    # (conj(a)^T a)[(i, j), (k, m)] = sum_l conj(A_l[i, j]) A_l[k, m]; the Kronecker
    # row is (i, k) and the column (j, m).
    s = (a.conj().T @ a).reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    s4 = s.reshape((dim,) * 4)
    left = np.einsum("ikim->ikm", s4)   # I kron K: row (i, k), column (i, m)
    left -= 1j * (h - 0.5j * w)
    right = np.einsum("ikjk->ijk", s4)  # K'^T kron I: row (i, k), column (j, k)
    right += 1j * (h + 0.5j * w).T[:, :, None]
    return s
