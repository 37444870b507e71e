"""Dense operator and superoperator primitives.

Everything in this package works with plain complex numpy arrays. Operators on
a D-dimensional Hilbert space are (D, D) arrays; superoperators are (D*D, D*D)
arrays acting on column-stacked operators.

Vectorization convention (fixed across the package): vec(X) stacks the columns
of X, so vec(A X B) = (B^T kron A) vec(X). With numpy this is
``X.reshape(-1, order="F")``.

The block structure of an open system with a decoherence-free subspace (DFS) is
handled through :class:`DfsProjector`. For a projector P onto the DFS and its
complement Q = I - P, any operator splits into four corners

    O = P O P + P O Q + Q O P + Q O Q = O_ul + O_ur + O_ll + O_lr

("upper-left" is the DFS block, "lower-right" the decaying block). The corner
names ul/ur/ll/lr are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-10


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix, validating the shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(a)
    return frob(a - dagger(a)) <= tol * max(1.0, frob(a))


def require_hermitian(a: np.ndarray, what: str = "operator", tol: float = DEFAULT_TOL) -> np.ndarray:
    a = as_operator(a)
    resid = frob(a - dagger(a))
    if resid > tol * max(1.0, frob(a)):
        raise ValueError(f"{what} is not Hermitian (residual {resid:.3e})")
    return a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(A† B)."""
    return complex(np.vdot(a, b))


@dataclass(frozen=True, eq=False)
class DfsProjector:
    """Orthogonal projector P onto the DFS, with derived block data.

    Attributes
    ----------
    p : (D, D) projector onto the DFS.
    q : (D, D) complementary projector I - P onto the decaying space.
    d : DFS dimension (rank of P).
    basis : (D, d) isometry whose columns span the DFS.
    basis_c : (D, D - d) isometry spanning the decaying space.
    """

    p: np.ndarray
    q: np.ndarray = field(init=False)
    d: int = field(init=False)
    basis: np.ndarray = field(init=False)
    basis_c: np.ndarray = field(init=False)

    def __post_init__(self):
        p = as_operator(self.p)
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", np.eye(dim, dtype=complex) - p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "basis", evecs[:, dim - d:])
        object.__setattr__(self, "basis_c", evecs[:, : dim - d])

    @classmethod
    def from_indices(cls, dim: int, indices) -> "DfsProjector":
        """Projector onto a subset of computational basis states.

        The resulting corner decompositions are exact in floating point.
        """
        idx = list(indices)
        if len(set(idx)) != len(idx) or any(not 0 <= i < dim for i in idx):
            raise ValueError(f"invalid basis indices {idx} for dimension {dim}")
        p = np.zeros((dim, dim), dtype=complex)
        for i in idx:
            p[i, i] = 1.0
        proj = cls(p)
        # Re-derive the bases as exact unit columns in the given order.
        basis = np.zeros((dim, len(idx)), dtype=complex)
        for k, i in enumerate(idx):
            basis[i, k] = 1.0
        rest = [i for i in range(dim) if i not in idx]
        basis_c = np.zeros((dim, len(rest)), dtype=complex)
        for k, i in enumerate(rest):
            basis_c[i, k] = 1.0
        object.__setattr__(proj, "basis", basis)
        object.__setattr__(proj, "basis_c", basis_c)
        return proj

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    @property
    def n_decay(self) -> int:
        return self.dim - self.d


@dataclass(frozen=True)
class Corners:
    """Four-corner decomposition of an operator relative to a DfsProjector."""

    ul: np.ndarray
    ur: np.ndarray
    ll: np.ndarray
    lr: np.ndarray

    def total(self) -> np.ndarray:
        return self.ul + self.ur + self.ll + self.lr

    @property
    def diag(self) -> np.ndarray:
        """Block-diagonal part ul + lr."""
        return self.ul + self.lr

    @property
    def offdiag(self) -> np.ndarray:
        """Block-off-diagonal part ur + ll."""
        return self.ur + self.ll


def four_corners(op: np.ndarray, dfs: DfsProjector) -> Corners:
    op = as_operator(op)
    if op.shape[0] != dfs.dim:
        raise ValueError(f"operator dimension {op.shape[0]} != projector dimension {dfs.dim}")
    p, q = dfs.p, dfs.q
    return Corners(ul=p @ op @ p, ur=p @ op @ q, ll=q @ op @ p, lr=q @ op @ q)


# ---------------------------------------------------------------------------
# Vectorization and superoperator constructors
# ---------------------------------------------------------------------------

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


def dfs_columns(basis: np.ndarray) -> np.ndarray:
    """E = conj(B) kron B for an isometry B: vec(B sigma B†) = E vec(sigma).

    Its columns are vec(b_i b_j†) in vec order, and E E† projects onto the
    block that B spans.
    """
    return np.kron(basis.conj(), basis)


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


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of X -> [H, X]."""
    return left_superop(h) - right_superop(h)


def anticommutator_superop(a: np.ndarray) -> np.ndarray:
    """Matrix of X -> {A, X}."""
    return left_superop(a) + right_superop(a)


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
    return (
        sandwich_superop(f, dagger(f))
        - 0.5 * sandwich_superop(w, eye)
        - 0.5 * sandwich_superop(eye, w)
    )


def gksl_superop(h: np.ndarray, jumps, w: np.ndarray | None = None) -> np.ndarray:
    """Matrix of X -> -i(H X - X H) - (1/2){W, X} + sum_l A_l X A_l†.

    W defaults to sum_l A_l† A_l, which makes this the Lindbladian of H and the
    jumps A_l. It is assembled in K form, -i I kron K + i K'^T kron I +
    sum_l conj(A_l) kron A_l with K = H - (i/2)W and K' = H + (i/2)W (K' = K†
    for Hermitian H), so it costs 2 + J Kronecker products.
    """
    h = as_operator(h)
    jumps = [as_operator(a) for a in jumps]
    for a in jumps:
        if a.shape != h.shape:
            raise ValueError(f"jump shape {a.shape} != hamiltonian shape {h.shape}")
    if w is None:
        w = sum((dagger(a) @ a for a in jumps), np.zeros_like(h))
    eye = np.eye(h.shape[0], dtype=complex)
    s = -1j * np.kron(eye, h - 0.5j * w) + 1j * np.kron((h + 0.5j * w).T, eye)
    for a in jumps:
        s += np.kron(a.conj(), a)
    return s


def adjoint_superop(s: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint: if S = sum_i A_i (.) B_i†, returns sum_i A_i† (.) B_i."""
    return dagger(as_operator(s))


def apply_superop(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    return devectorize(as_operator(s) @ vectorize(x))


def superop_identity(dim: int) -> np.ndarray:
    return np.eye(dim * dim, dtype=complex)


def corner_superops(dfs: DfsProjector) -> Corners:
    """Superoperator projectors onto the four corners (X -> P X P etc.)."""
    p, q = dfs.p, dfs.q
    return Corners(
        ul=sandwich_superop(p, p),
        ur=sandwich_superop(p, q),
        ll=sandwich_superop(q, p),
        lr=sandwich_superop(q, q),
    )


def compress_superop(s: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Restrict a superoperator to the block spanned by an isometry.

    For a (D, m) isometry B the result is the (m*m, m*m) matrix of
    sigma -> B† S(B sigma B†) B, i.e. the superoperator in the block basis.
    """
    s = as_operator(s)
    b = np.asarray(basis, dtype=complex)
    comp = np.kron(b.T, dagger(b))     # vec(B† X B) = (B^T kron B†) vec(X)
    emb = np.kron(b.conj(), b)         # vec(B Y B†) = (conj(B) kron B) vec(Y)
    return comp @ s @ emb


def embed_superop(s_small: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Inverse direction of :func:`compress_superop` (zero outside the block)."""
    s_small = as_operator(s_small)
    b = np.asarray(basis, dtype=complex)
    comp = np.kron(b.T, dagger(b))
    emb = np.kron(b.conj(), b)
    return emb @ s_small @ comp


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator on a dim-dimensional space.

    Lambda = sum_ij |i><j| kron S(|i><j|); S is completely positive iff
    Lambda is positive semidefinite.
    """
    s = as_operator(s)
    dim = int(round(np.sqrt(s.shape[0])))
    if dim * dim != s.shape[0]:
        raise ValueError("superoperator side length is not a perfect square")
    lam = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            img = apply_superop(s, unit)
            lam += np.kron(unit, img)
    return lam


def kraus_operators(s: np.ndarray, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators of a completely positive superoperator.

    Obtained from the eigendecomposition of the Choi matrix; eigenvalues below
    -tol raise, eigenvalues in [-tol, tol] are dropped.
    """
    lam = choi_matrix(s)
    dim = int(round(np.sqrt(lam.shape[0])))
    evals, evecs = np.linalg.eigh((lam + dagger(lam)) / 2)
    scale = max(1.0, float(np.max(np.abs(evals))))
    if np.min(evals) < -tol * scale:
        raise ValueError(f"map is not completely positive (Choi eigenvalue {np.min(evals):.3e})")
    ops = []
    for val, vec in zip(evals, evecs.T):
        if val > tol * scale:
            # Choi column index decodes as (input i, output row); vec is grouped
            # by input index i in blocks of length dim.
            ops.append(np.sqrt(val) * vec.reshape(dim, dim).T)
    return ops


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||A - B||_1 for Hermitian A, B."""
    diff = as_operator(a) - as_operator(b)
    diff = (diff + dagger(diff)) / 2
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
