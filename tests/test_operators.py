import numpy as np
import pytest

from ejof.operators import (
    DfsProjector,
    adjoint_superop,
    anticommutator_superop,
    apply_superop,
    choi_matrix,
    commutator_superop,
    compress_superop,
    corner_superops,
    dagger,
    devectorize,
    dissipator,
    embed_superop,
    four_corners,
    frob,
    gksl_superop,
    kraus_operators,
    left_superop,
    projector_frame,
    require_hermitian,
    right_superop,
    sandwich_superop,
    star_commutator,
    star_commutator_superop,
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
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[2, 2] = 1.0
    assert np.array_equal(dfs.p, expected)
    assert dfs.d == 2
    assert dfs.n_decay == 2
    assert np.array_equal(dfs.basis[:, 0], np.eye(4, dtype=complex)[:, 0])
    assert np.array_equal(dfs.basis[:, 1], np.eye(4, dtype=complex)[:, 2])
    assert np.array_equal(dfs.basis_c, np.eye(4, dtype=complex)[:, [1, 3]])
    assert dfs.order == (0, 2, 1, 3)


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
    assert frob(dfs.q @ c.ul) == 0.0
    assert frob(c.ul @ dfs.q) == 0.0
    assert frob(dfs.p @ c.ll) == 0.0
    assert frob(c.lr @ dfs.p) == 0.0


def test_corner_superops_reassemble(rng):
    dfs = DfsProjector.from_indices(4, [0, 1])
    x = random_matrix(rng, 4)
    cs = corner_superops(dfs)
    total = cs.ul + cs.ur + cs.ll + cs.lr
    np.testing.assert_allclose(apply_superop(total, x), x, atol=1e-14)
    # each block map is idempotent and they are mutually annihilating
    for s in (cs.ul, cs.ur, cs.ll, cs.lr):
        np.testing.assert_allclose(s @ s, s, atol=1e-14)
    assert frob(cs.ul @ cs.lr) == 0.0


def test_compress_embed_roundtrip(rng):
    dfs = DfsProjector.from_indices(5, [1, 3])
    s = dissipator(random_matrix(rng, 2))
    embedded = embed_superop(s, dfs.basis)
    np.testing.assert_allclose(compress_superop(embedded, dfs.basis), s, atol=1e-13)
    # embedded map acts only within the DFS block
    x = random_matrix(rng, 5)
    out = apply_superop(embedded, x)
    np.testing.assert_allclose(out, dfs.p @ out @ dfs.p, atol=1e-13)


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
