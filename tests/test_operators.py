import numpy as np
import pytest
from scipy.linalg import schur

from ejof.lindblad import nh_hamiltonian
from ejof.operators import (
    DfsProjector,
    dagger,
    four_corners,
    frob,
    gksl_superop,
    projector_frame,
    require_hermitian,
)
from oracles import (
    adjoint_superop,
    anticommutator_superop,
    apply_superop,
    choi_matrix,
    commutator_superop,
    compress_superop,
    corner_superops,
    dense_dfs,
    devectorize,
    dfs_columns,
    dissipator,
    embed_superop,
    kraus_operators,
    left_superop,
    right_superop,
    sandwich_superop,
    star_commutator,
    star_commutator_superop,
    structure_report,
    trace_distance,
    vectorize,
)


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_vectorize_roundtrip(rng):
    x = random_matrix(rng, 4)
    assert np.array_equal(devectorize(vectorize(x)), x)


def test_vectorize_is_column_stacking():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(vectorize(x), np.array([1, 3, 2, 4], dtype=complex))


def test_sandwich_superop_matches_direct_product(rng):
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    x = random_matrix(rng, 3)
    out = devectorize(sandwich_superop(a, b) @ vectorize(x))
    np.testing.assert_allclose(out, a @ x @ b, atol=1e-13)


@pytest.mark.parametrize("builder, direct", [
    (left_superop, lambda a, x: a @ x),
    (right_superop, lambda a, x: x @ a),
    (commutator_superop, lambda a, x: a @ x - x @ a),
    (anticommutator_superop, lambda a, x: a @ x + x @ a),
    (star_commutator_superop, lambda a, x: a @ x - x @ dagger(a)),
])
def test_elementary_superops(rng, builder, direct):
    a = random_matrix(rng, 3)
    x = random_matrix(rng, 3)
    out = apply_superop(builder(a), x)
    np.testing.assert_allclose(out, direct(a, x), atol=1e-13)


def test_star_commutator_function(rng):
    a = random_matrix(rng, 4)
    x = random_matrix(rng, 4)
    np.testing.assert_allclose(star_commutator(a, x), a @ x - x @ dagger(a), atol=1e-14)


def test_dissipator_action(rng):
    f = random_matrix(rng, 4)
    x = random_matrix(rng, 4)
    expected = f @ x @ dagger(f) - 0.5 * (dagger(f) @ f @ x + x @ dagger(f) @ f)
    np.testing.assert_allclose(apply_superop(dissipator(f), x), expected, atol=1e-12)


@pytest.mark.parametrize("jumps, message", [
    ([np.zeros((2, 3))], r"expected a square matrix, got shape \(2, 3\)"),
    (np.zeros((1, 3, 2)), r"expected a square matrix, got shape \(3, 2\)"),
    ([np.zeros((3, 3)), np.zeros((2, 2))], r"jump shape \(2, 2\) != hamiltonian shape \(3, 3\)"),
], ids=["non-square", "array-of-non-square", "ragged"])
def test_gksl_superop_refuses_jumps_of_the_wrong_shape(jumps, message):
    with pytest.raises(ValueError, match=message):
        gksl_superop(np.zeros((3, 3)), jumps)


# n_jumps = 0 with an explicit W is the call gksl_superop(h, [], w=...) that
# assembles the cp part of the QEC robustness check.
@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("n_jumps", [0, 1, 3])
@pytest.mark.parametrize("explicit_w", [False, True], ids=["w-default", "w-explicit"])
def test_gksl_superop_action(rng, dim, n_jumps, explicit_w):
    # The assembled matrix against -i[H, X] + sum(F X F†) - (1/2){W, X}.
    h = random_matrix(rng, dim)
    h = h + dagger(h)
    jumps = [random_matrix(rng, dim) for _ in range(n_jumps)]
    w = sum((dagger(f) @ f for f in jumps), np.zeros((dim, dim), dtype=complex))
    if explicit_w:
        w = w + random_matrix(rng, dim)
    s = gksl_superop(h, jumps, w if explicit_w else None)
    assert s.shape == (dim * dim, dim * dim)
    for _ in range(3):
        x = random_matrix(rng, dim)
        want = -1j * (h @ x - x @ h) - 0.5 * (w @ x + x @ w)
        want = want + sum((f @ x @ dagger(f) for f in jumps), np.zeros_like(x))
        np.testing.assert_allclose(apply_superop(s, x), want, atol=1e-12)


def test_dissipator_is_trace_free(rng):
    f = random_matrix(rng, 3)
    x = random_matrix(rng, 3)
    out = apply_superop(dissipator(f), x)
    assert abs(np.trace(out)) < 1e-12


def test_adjoint_superop_is_hs_adjoint(rng):
    s = dissipator(random_matrix(rng, 3))
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    lhs = np.vdot(a, apply_superop(s, b))
    rhs = np.vdot(apply_superop(adjoint_superop(s), a), b)
    assert abs(lhs - rhs) < 1e-12


def test_superop_identity(rng):
    x = random_matrix(rng, 3)
    np.testing.assert_array_equal(apply_superop(np.eye(9), x), x)


def test_projector_from_indices_is_exact():
    dfs = DfsProjector.from_indices(4, [0, 2])
    assert dfs.d == 2
    assert dfs.n_decay == 2
    assert dfs.indices.tolist() == [0, 2]
    assert dfs.rest.tolist() == [1, 3]
    assert dfs.order.tolist() == [0, 2, 1, 3]
    # Frame entry (a, b) is vec index order[a] + 4 order[b], corner by corner.
    assert dfs.vec_order.tolist() == [0, 2, 8, 10, 1, 3, 9, 11, 4, 6, 12, 14, 5, 7, 13, 15]
    with pytest.raises(ValueError):
        dfs.indices[0] = 1


def test_projector_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        projector_frame(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="idempotent"):
        projector_frame(np.array([[2, 0], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="rank 0 out of range"):
        projector_frame(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="indices"):
        DfsProjector.from_indices(3, [0, 3])
    with pytest.raises(ValueError, match="indices"):
        DfsProjector.from_indices(3, [])


def test_projector_from_matrix(rng):
    v = np.linalg.qr(random_matrix(rng, 4))[0][:, :2]
    p = v @ dagger(v)
    u, d = projector_frame(p)
    assert d == 2
    np.testing.assert_allclose(dagger(u) @ u, np.eye(4), atol=1e-12)
    # The first d columns span range(P), the rest its complement.
    np.testing.assert_allclose(p @ u[:, :d], u[:, :d], atol=1e-12)
    np.testing.assert_allclose(p @ u[:, d:], 0, atol=1e-12)


def test_four_corners_reassemble(rng):
    dfs = DfsProjector.from_indices(5, [0, 1])
    x = random_matrix(rng, 5)
    c = four_corners(x, dfs)
    np.testing.assert_allclose(c.total(), x, atol=1e-14)
    p, q = dense_dfs(dfs)[:2]
    assert frob(q @ c.ul) == 0.0
    assert frob(c.ul @ q) == 0.0
    assert frob(p @ c.ll) == 0.0
    assert frob(c.lr @ p) == 0.0


# DFS index sets at D = 8: the QEC code, an unsorted pair, and one state.
INDEX_SETS = [(0, 7), (5, 2), (1,)]


@pytest.mark.parametrize("indices", INDEX_SETS, ids=str)
def test_corners_and_blocks_equal_the_projector_products(rng, indices):
    # A product with 0/1 unit columns adds only exact zeros, so each index
    # split and gather equals its dense-P form bit for bit, on one operator
    # and on a (J, D, D) stack.
    dfs = DfsProjector.from_indices(8, indices)
    p, q, b, bq = dense_dfs(dfs)
    for op in (random_matrix(rng, 8), random_matrix(rng, 3 * 8, 8).reshape(3, 8, 8)):
        c = four_corners(op, dfs)
        for got, want in ((c.ul, p @ op @ p), (c.ur, p @ op @ q),
                          (c.ll, q @ op @ p), (c.lr, q @ op @ q)):
            assert np.array_equal(got, want)
        for rows, cols, left, right in ((dfs.indices, dfs.indices, b, b),
                                        (dfs.indices, dfs.rest, b, bq),
                                        (dfs.rest, dfs.indices, bq, b),
                                        (dfs.rest, dfs.rest, bq, bq)):
            block = op[..., rows[:, None], cols]
            assert np.array_equal(block, dagger(left) @ op @ right)
            embedded = np.zeros_like(op)
            embedded[..., rows[:, None], cols] = block
            assert np.array_equal(embedded, left @ block @ dagger(right))


@pytest.mark.parametrize("indices", INDEX_SETS, ids=str)
def test_vec_positions_equal_the_kronecker_columns(rng, indices):
    # Column k of the D^2 identity at vec_order[k] is the frame's Kronecker
    # column, corner by corner: E = conj(B) kron B first, so gathering a
    # superoperator there is compress_superop and L E is L's DFS columns.
    dfs = DfsProjector.from_indices(8, indices)
    _, _, b, bq = dense_dfs(dfs)
    frame = np.hstack([dfs_columns(b), np.kron(b.conj(), bq), np.kron(bq.conj(), b),
                       dfs_columns(bq)])
    assert np.array_equal(np.eye(64)[:, dfs.vec_order], frame)
    ul = dfs.vec_order[:dfs.d ** 2]
    s = random_matrix(rng, 64)
    assert np.array_equal(s[np.ix_(ul, ul)], compress_superop(s, b))
    assert np.array_equal(s[:, ul], s @ dfs_columns(b))


@pytest.mark.parametrize("indices", INDEX_SETS, ids=str)
def test_steadiness_residual_equals_the_dense_column_product(rng, indices):
    # Random jumps fail the corner checks. The report still divides by the
    # scale that the normal form reads off K_qq: the largest |kappa_a| and
    # |kappa_a - conj(kappa_b)| over the eigenvalues kappa of K_qq.
    dfs = DfsProjector.from_indices(8, indices)
    jumps = [random_matrix(rng, 8) for _ in range(2)]
    rep = structure_report(np.zeros((8, 8)), jumps, dfs)
    s = gksl_superop(np.zeros((8, 8)), jumps)
    cols = s @ dfs_columns(dense_dfs(dfs).basis)
    k = nh_hamiltonian(np.zeros((8, 8)), jumps)[np.ix_(dfs.rest, dfs.rest)]
    kappa = np.diag(schur(k, output="complex")[0])
    rho = max(np.abs(kappa).max(), np.abs(kappa[:, None] - kappa.conj()[None, :]).max())
    want = float(np.max(np.linalg.norm(cols, axis=0))) / max(1.0, rho)
    assert rep.dfs_steady == want > 0


@pytest.mark.parametrize("indices", INDEX_SETS, ids=str)
def test_a_generator_in_normal_form_has_exactly_zero_dfs_columns(rng, indices):
    # With H on lr and the jumps on ur, L's DFS columns are exact zeros, so
    # the report reads the steadiness residual as 0 without forming them.
    dfs = DfsProjector.from_indices(8, indices)
    lr, ur = np.ix_(dfs.rest, dfs.rest), np.ix_(dfs.indices, dfs.rest)
    h = np.zeros((8, 8), dtype=complex)
    a = random_matrix(rng, dfs.n_decay)
    h[lr] = a + dagger(a)
    jumps = [np.zeros((8, 8), dtype=complex) for _ in range(2)]
    for f in jumps:
        f[ur] = rng.standard_normal((dfs.d, dfs.n_decay))
    cols = gksl_superop(h, jumps) @ dfs_columns(dense_dfs(dfs).basis)
    assert not cols.any()
    assert structure_report(h, jumps, dfs).dfs_steady == 0.0


def test_corner_superops_reassemble(rng):
    dfs = DfsProjector.from_indices(4, [0, 1])
    x = random_matrix(rng, 4)
    cs = corner_superops(dfs)
    np.testing.assert_allclose(apply_superop(sum(cs), x), x, atol=1e-14)
    # each block map is idempotent and they are mutually annihilating
    for s in cs:
        np.testing.assert_allclose(s @ s, s, atol=1e-14)
    assert frob(cs[0] @ cs[3]) == 0.0


def test_compress_embed_roundtrip(rng):
    dfs = DfsProjector.from_indices(5, [1, 3])
    p, _, basis, _ = dense_dfs(dfs)
    s = dissipator(random_matrix(rng, 2))
    embedded = embed_superop(s, basis)
    np.testing.assert_allclose(compress_superop(embedded, basis), s, atol=1e-13)
    # embedded map acts only within the DFS block
    x = random_matrix(rng, 5)
    out = apply_superop(embedded, x)
    np.testing.assert_allclose(out, p @ out @ p, atol=1e-13)


def test_choi_of_identity_channel():
    s = np.eye(4)
    choi = choi_matrix(s)
    # maximally entangled (unnormalized) projector: sum_ij |ii><jj|
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[i * 2 + i, j * 2 + j] = 1.0
    np.testing.assert_allclose(choi, expected, atol=1e-14)


def test_kraus_reconstruction(rng):
    ops = [random_matrix(rng, 3) for _ in range(2)]
    s = sum(sandwich_superop(k, dagger(k)) for k in ops)
    kraus = kraus_operators(s)
    rebuilt = sum(sandwich_superop(k, dagger(k)) for k in kraus)
    np.testing.assert_allclose(rebuilt, s, atol=1e-10)


def test_kraus_rejects_non_cp(rng):
    a = random_matrix(rng, 2)
    s = sandwich_superop(a, dagger(a)) - 3.0 * np.eye(4)
    with pytest.raises(ValueError):
        kraus_operators(s)


def test_trace_distance_known_values():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(rho, sig) - 1.0) < 1e-14
    mixed = np.eye(2, dtype=complex) / 2
    assert abs(trace_distance(rho, mixed) - 0.5) < 1e-14


def test_require_hermitian(rng):
    h = random_matrix(rng, 3)
    h = h + dagger(h)
    np.testing.assert_array_equal(require_hermitian(h, "h"), h)
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(h + 1e-6 * 1j * np.eye(3), "h")
