import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import ejof.lindblad
from ejof.lindblad import (
    CornerFactor,
    LrSweep,
    SingularBlockError,
    SpectralGapWarning,
    StructureError,
    assemble_lindbladian,
    asymptotic_projection_analytic,
    asymptotic_projection_limit,
    decay_rates,
    min_decay_rate,
    nh_hamiltonian,
    nh_hamiltonian_inverse,
    nh_superop_inverse_lr,
    structured_lindbladian,
)
from ejof.effective import (
    Perturbation,
    _general_blocks,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    effective_to_superop,
    identity_suite,
    random_structured_instance,
)
from ejof.operators import (
    DfsProjector,
    dagger,
    devectorize_columns,
    four_corners,
    frob,
    projector_frame,
    vectorize_stack,
)
from ejof.qec import repetition_code_recovery
from ejof.scenarios import build_scenario
from oracles import (
    NonSemisimpleZeroError,
    OrderedSchur,
    anticommutator_superop,
    asymptotic_projection,
    bordered_solve,
    commutator_superop,
    compress_superop,
    cp_superop_per_unit,
    dense_dfs,
    devectorize,
    dfs_columns,
    dissipator,
    drazin_inverse,
    embed_superop,
    nh_superop_solve,
    perturbation_superops,
    relabelled,
    star_commutator,
    structure_report,
    vectorize,
)


def amplitude_damping(gamma):
    f = np.zeros((2, 2), dtype=complex)
    f[0, 1] = np.sqrt(gamma)
    return assemble_lindbladian(np.zeros((2, 2)), [f])


def test_lindbladian_preserves_trace(rng):
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = h + dagger(h)
    jumps = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
    s = assemble_lindbladian(h, jumps)
    # tr(L(X)) = 0 for every X: the row of vec(I) annihilates the superoperator
    vec_id = vectorize(np.eye(3, dtype=complex))
    np.testing.assert_allclose(vec_id @ s, np.zeros(9), atol=1e-12)


def test_lindbladian_rejects_non_hermitian_h():
    with pytest.raises(ValueError, match="Hermitian"):
        assemble_lindbladian(np.array([[0, 1], [0, 0]], dtype=complex), [])


def test_amplitude_damping_spectrum():
    gamma = 0.8
    s = amplitude_damping(gamma)
    # known decay rates: coherences at gamma/2, population at gamma
    rates = decay_rates(s)
    np.testing.assert_allclose(rates, [gamma / 2, gamma / 2, gamma], atol=1e-12)
    assert abs(min_decay_rate(s) - gamma / 2) < 1e-12
    # steady state is the ground-state projector
    pinf = asymptotic_projection(s)
    rho = np.diag([0.25, 0.75]).astype(complex)
    out = devectorize(pinf @ vectorize(rho))
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_nh_hamiltonian_value():
    h = np.diag([0.0, 2.0]).astype(complex)
    f = np.zeros((2, 2), dtype=complex)
    f[0, 1] = np.sqrt(3.0)
    k = nh_hamiltonian(h, [f])
    np.testing.assert_allclose(k, np.diag([0.0, 2.0 - 1.5j]), atol=1e-14)


def test_structure_report_passes_on_valid(three_level):
    lind, _ = three_level
    rep = lind.report
    assert rep.passed
    assert rep.failures() == []
    assert rep.zero_multiplicity == 4
    assert rep.expected_multiplicity == 4
    assert rep.spectral_gap > 0.1


def test_structure_report_flags_bad_hamiltonian():
    dfs = DfsProjector.from_indices(3, [0, 1])
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0] = 1.0  # lives on the DFS block
    f = np.zeros((3, 3), dtype=complex)
    f[0, 2] = 1.0
    rep = structure_report(h, [f], dfs)
    assert rep.h_on_decaying_block > rep.tol
    assert any("decaying" in msg for msg in rep.failures())


def test_structure_report_flags_bad_jump():
    dfs = DfsProjector.from_indices(3, [0, 1])
    f = np.zeros((3, 3), dtype=complex)
    f[2, 0] = 1.0  # maps the DFS into the decaying space
    rep = structure_report(np.zeros((3, 3)), [f], dfs)
    assert any(r > rep.tol for r in rep.jumps_into_dfs)
    assert rep.dfs_steady > rep.tol


def test_structure_report_counts_extra_steady_states():
    dfs = DfsProjector.from_indices(4, [0, 1])
    f = np.zeros((4, 4), dtype=complex)
    f[0, 2] = 1.0  # |3> never decays
    rep = structure_report(np.zeros((4, 4)), [f], dfs)
    assert rep.zero_multiplicity > rep.expected_multiplicity
    assert not rep.passed


def test_structured_lindbladian_validate_raises():
    dfs = DfsProjector.from_indices(4, [0, 1])
    f = np.zeros((4, 4), dtype=complex)
    f[0, 2] = 1.0
    with pytest.raises(StructureError, match="multiplicity"):
        structured_lindbladian(np.zeros((4, 4)), [f], dfs)
    lind = structured_lindbladian(np.zeros((4, 4)), [f], dfs, validate=False)
    assert not lind.report.passed


@pytest.mark.parametrize("jumps, message", [
    (np.zeros((2, 3, 2), dtype=complex), r"expected a square matrix, got shape \(3, 2\)"),
    ([np.zeros((3, 3)), np.zeros((2, 2))], r"jump shape \(2, 2\) != hamiltonian shape \(3, 3\)"),
], ids=["array-of-non-square", "ragged"])
def test_structured_lindbladian_refuses_jumps_of_the_wrong_shape(jumps, message):
    with pytest.raises(ValueError, match=message):
        structured_lindbladian(np.zeros((3, 3)), jumps, DfsProjector.from_indices(3, [0]))


def drazin_eig_oracle(s):
    """Independent Drazin construction through diagonalization."""
    evals, vecs = np.linalg.eig(s)
    inv = np.array([0.0 if abs(v) < 1e-8 * np.abs(evals).max() else 1.0 / v for v in evals])
    return vecs @ np.diag(inv) @ np.linalg.inv(vecs)


def test_drazin_axioms_and_oracle(generic_instance):
    lind, _ = generic_instance
    s = lind.superop
    sd = lind.drazin
    np.testing.assert_allclose(s @ sd, sd @ s, atol=1e-10)
    np.testing.assert_allclose(sd @ s @ sd, sd, atol=1e-10)
    np.testing.assert_allclose(s @ s @ sd, s, atol=1e-10)
    np.testing.assert_allclose(sd, drazin_eig_oracle(s), atol=1e-8)


def test_drazin_of_invertible_matrix(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
    np.testing.assert_allclose(drazin_inverse(a), np.linalg.inv(a), atol=1e-10)


def test_drazin_of_zero_is_zero():
    assert np.array_equal(drazin_inverse(np.zeros((3, 3))), np.zeros((3, 3)))


def test_drazin_rejects_jordan_zero():
    nil = np.zeros((3, 3), dtype=complex)
    nil[0, 1] = 1.0
    with pytest.raises(NonSemisimpleZeroError, match="not semisimple"):
        drazin_inverse(nil)


def test_drazin_warns_on_small_gap():
    s = np.diag([0.0, -1e-7, -1.0]).astype(complex)
    with pytest.warns(SpectralGapWarning):
        drazin_inverse(s)


def test_asymptotic_projection_triple_agreement(three_level):
    lind, _ = three_level
    p_drazin = lind.asymptotic_projection
    p_analytic = asymptotic_projection_analytic(lind)
    t = 40.0 / min_decay_rate(lind.superop)
    p_limit = asymptotic_projection_limit(lind.superop, t=t)
    assert frob(p_drazin - p_analytic) < 1e-10
    assert frob(p_drazin - p_limit) < 1e-8
    assert frob(p_analytic - p_limit) < 1e-8


def test_asymptotic_projection_is_idempotent_channel(three_level):
    lind, _ = three_level
    pinf = lind.asymptotic_projection
    np.testing.assert_allclose(pinf @ pinf, pinf, atol=1e-12)
    np.testing.assert_allclose(pinf @ lind.superop, np.zeros_like(pinf), atol=1e-12)
    # the excited state relaxes onto the first DFS level
    rho_e = np.diag([0.0, 0.0, 1.0]).astype(complex)
    out = devectorize(pinf @ vectorize(rho_e))
    np.testing.assert_allclose(out, np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_nh_hamiltonian_inverse_is_block_inverse(three_level):
    lind, _ = three_level
    kinv = nh_hamiltonian_inverse(lind.k, lind.dfs)
    kk = lind.k[np.ix_(lind.dfs.rest, lind.dfs.rest)]
    eye = np.eye(lind.dfs.n_decay)
    assert kinv.shape == eye.shape
    np.testing.assert_allclose(kk @ kinv, eye, atol=1e-12)
    np.testing.assert_allclose(kinv @ kk, eye, atol=1e-12)


@pytest.mark.parametrize("seed, defective", [(3, False), (5, False), (9, True)])
def test_nh_superop_solve_inverts_star_commutator(seed, defective):
    lind, _ = random_structured_instance(2, 2, 2, seed, defective_k=defective)
    rng = np.random.default_rng(seed + 100)
    dim = lind.dim
    sigma = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    sigma = sigma - four_corners(sigma, lind.dfs).ul  # no DFS-corner content
    x = nh_superop_solve(lind.k, sigma, lind.dfs)
    residual = -1j * star_commutator(lind.k, x) - sigma
    assert frob(residual) < 1e-12 * max(1.0, frob(sigma))


def test_nh_superop_solve_rejects_dfs_content(three_level):
    lind, _ = three_level
    sigma = np.zeros((3, 3), dtype=complex)
    sigma[0, 0] = 1.0
    with pytest.raises(ValueError, match="DFS"):
        nh_superop_solve(lind.k, sigma, lind.dfs)


def stiff_lindbladian():
    """Two decaying levels whose decay rates differ by a factor of about 1e4."""
    dfs = DfsProjector.from_indices(4, [0, 1])
    fast = np.zeros((4, 4), dtype=complex)
    fast[0, 2] = 10.0
    slow = np.zeros((4, 4), dtype=complex)
    slow[1, 3] = 0.09
    h = np.zeros((4, 4), dtype=complex)
    h[2, 3] = h[3, 2] = 0.1
    h[3, 3] = 1.0
    return structured_lindbladian(h, [fast, slow], dfs)


def test_nh_superop_inverse_lr_consistent(generic_instance):
    # Bartels-Stewart sector solves against the dense Kronecker oracle.
    stiff = stiff_lindbladian()
    rates = -np.linalg.eigvals(stiff.k[2:, 2:]).imag
    assert rates.max() / rates.min() >= 1e4
    instances = {
        "random": generic_instance[0],
        "defective": random_structured_instance(2, 2, 2, 4, defective_k=True)[0],
        "stiff": stiff,
    }
    rng = np.random.default_rng(2)
    for name, lind in instances.items():
        dfs = lind.dfs
        dim = lind.dim
        sigma = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        sigma = four_corners(sigma, dfs).lr
        want = devectorize(nh_superop_inverse_lr(lind.k, dfs) @ vectorize(sigma))
        bq = dense_dfs(dfs).basis_c
        swept = lind.decaying_sector.solve(vectorize(dagger(bq) @ sigma @ bq)[:, None])
        cached = bq @ devectorize(swept.reshape(-1)) @ dagger(bq)
        for got in (nh_superop_solve(lind.k, sigma, dfs), cached):
            assert frob(got - want) <= 1e-11 * frob(want), name


# The sweep's cases: a defective K (n = 2 Jordan block), the stiff n = 12
# ladder and an n = 16 draw. The ladder is defined below, and read on call.
SWEEP_CASES = {
    "defective": lambda: random_structured_instance(2, 2, 2, 4, defective_k=True)[0],
    "stiff-n12": lambda: _wide_stiff_lindbladian(),
    "draw-n16": lambda: random_structured_instance(4, 16, 5, 1)[0],
}


@pytest.mark.parametrize("make", SWEEP_CASES.values(), ids=SWEEP_CASES.keys())
def test_stacked_sector_solve_matches_slices_and_kronecker_oracle(make):
    # One column sweep over a stack of right-hand sides gives each slice's
    # own solve, and the dense solve of the Kronecker form of the map.
    lind = make()
    dfs, sector = lind.dfs, lind.decaying_sector
    n = dfs.n_decay
    rng = np.random.default_rng(5)
    c = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    got = devectorize_columns(sector.solve(vectorize_stack(c)).reshape(n * n, 6))
    assert got.shape == c.shape
    lr = dfs.vec_order[-n * n:]
    kron = nh_superop_inverse_lr(lind.k, dfs)[np.ix_(lr, lr)]
    want = devectorize_columns(kron @ vectorize_stack(c))
    for got_s, c_s, want_s in zip(got, c, want):
        single = devectorize(sector.solve(vectorize(c_s)[:, None]).reshape(-1))
        assert frob(got_s - single) <= 1e-12 * frob(single)
        assert frob(got_s - want_s) <= 1e-12 * frob(want_s)


@pytest.mark.parametrize("offset, singular", [(0.0, True), (1e-17, True), (1e-13, True),
                                              (1e-11, False)])
def test_sector_solve_refuses_a_shared_eigenvalue(offset, singular):
    # t_00 - conj(t_11) = offset: the smallest sweep shift over the largest
    # (|2 Im t_00| = 2) is offset / 2. Below PIVOT_RATIO_FLOOR (2.2e-13) the
    # sector map is refused as singular, as a small LU pivot is.
    t = np.array([[1 + 1j, 0.3], [0, 1 - 1j + offset]])
    c = np.array([[1.0, 2.0], [0.5j, -1.0]])
    if singular:
        with pytest.raises(SingularBlockError, match=r"smallest/largest \|sweep shift\|"):
            LrSweep.of_adjoint_pair(t, np.eye(2, dtype=complex))
    else:
        sector = LrSweep.of_adjoint_pair(t, np.eye(2, dtype=complex))
        sigma = devectorize(sector.solve(vectorize(c)[:, None]).reshape(-1))
        residual = frob(-1j * (t @ sigma - sigma @ dagger(t)) - c)
        assert residual <= 1e-12 * frob(t) * frob(sigma)


SCENARIOS = ("three-level", "cancellation", "coherent-cancel", "universal", "repetition")


def _count_calls(monkeypatch, owner, name, log, when=lambda *args, **kwargs: True):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        if when(*args, **kwargs):
            log.append(np.shape(args[0])[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_generator_and_k_are_factored_once(monkeypatch, generic_instance):
    # A structured generator is never decomposed densely: its spectrum and
    # its zero cut come from the Schur form of K_qq that the structure checks
    # take (no 2-norm is taken), L^D and P_inf from n x n factors only: LUs of
    # -i K_qq (ll) and i K_qq'^T (ur), and the corner factor's own Schur forms
    # of K_qq and K_qq' (lr), none of side dn or more. K itself is formed
    # once, by the structure checks, and kept.
    base, pert = generic_instance
    schurs, norms, eigs, lus, ks = [], [], [], [], []
    _count_calls(monkeypatch, ejof.lindblad, "complex_schur", schurs)
    _count_calls(monkeypatch, ejof.lindblad, "nh_hamiltonian", ks)
    _count_calls(monkeypatch, ejof.lindblad, "zgetrf", lus)
    _count_calls(monkeypatch, np.linalg, "norm", norms,
                 when=lambda x, ord=None, *a, **k: ord == 2 and np.ndim(x) == 2)
    _count_calls(monkeypatch, np.linalg, "eigvals", eigs)
    _count_calls(monkeypatch, np.linalg, "eig", eigs)
    lind = structured_lindbladian(base.h, base.jumps, base.dfs)
    _ = lind.drazin, lind.asymptotic_projection
    effective_lindbladian_general(lind, pert)
    effective_lindbladian_closed(lind, pert)
    identity_suite(lind, pert)
    assert isinstance(lind.factor, CornerFactor)
    n = lind.dfs.n_decay
    assert schurs == [n, n, n]
    assert ks == [lind.dim]
    assert lus == [n, n]
    assert norms == []
    assert eigs == []


def _generator(dim, dfs, h_entries, jump_entries):
    h = np.zeros((dim, dim), dtype=complex)
    for (i, j), value in h_entries.items():
        h[i, j] = value
    f = np.zeros((dim, dim), dtype=complex)
    for (i, j), value in jump_entries.items():
        f[i, j] = value
    return h, [f], DfsProjector.from_indices(dim, dfs)


# name -> (H, jumps, DFS, whether L_rr is invertible)
SPY_CASES = {
    "passing": (*_generator(3, [0, 1], {(2, 2): 1.0}, {(0, 2): 1.0}), True),
    "non-hermitian-h": (*_generator(3, [0, 1], {(2, 2): 1.0 + 0.3j}, {(0, 2): 1.0}), True),
    "lr-jump-entry": (*_generator(3, [0, 1], {(2, 2): 1.0}, {(0, 2): 1.0, (2, 2): 0.5}), True),
    "extra-steady-state": (*_generator(4, [0, 1], {}, {(0, 2): 1.0}), False),
    # The jump maps the DFS into the decaying level, which then never decays.
    "not-steady": (*_generator(3, [0, 1], {}, {(2, 0): 1.0}), False),
}


@pytest.mark.parametrize("h, jumps, dfs, invertible", SPY_CASES.values(), ids=SPY_CASES.keys())
def test_no_generator_is_decomposed_densely(monkeypatch, h, jumps, dfs, invertible):
    # Passing or failing its checks, a generator gets one Schur form of K_qq
    # for its checks, and two n x n ones (of K_qq and K_qq') when its factor
    # sweeps an lr block in normal form; no 2-norm and no eigendecomposition.
    # Its factor is always a CornerFactor, and a singular L_rr is refused, not
    # cut by a dense spectrum.
    schurs, norms, eigs = [], [], []
    _count_calls(monkeypatch, ejof.lindblad, "complex_schur", schurs)
    _count_calls(monkeypatch, np.linalg, "norm", norms,
                 when=lambda x, ord=None, *a, **k: ord == 2 and np.ndim(x) == 2)
    _count_calls(monkeypatch, np.linalg, "eigvals", eigs)
    _count_calls(monkeypatch, np.linalg, "eig", eigs)
    lind = structured_lindbladian(h, jumps, dfs, validate=False)
    assert isinstance(lind.factor, CornerFactor)
    if invertible:
        _ = lind.drazin, lind.asymptotic_projection
    else:
        with pytest.raises(SingularBlockError, match="pivot"):
            _ = lind.drazin
    swept = invertible and not lind.factor.leaky
    assert schurs == [dfs.n_decay] * (3 if swept else 1)
    assert norms == []
    assert eigs == []


def test_an_undamped_level_is_refused_by_the_sweep_shift():
    # Level 2 has energy 1 and no decay: K_qq = [1], so the ll and ur LUs
    # have the one pivot -i and i, but the lr shift -i + i is exactly 0.
    h, jumps, dfs = _generator(3, [0, 1], {(2, 2): 1.0}, {})
    lind = structured_lindbladian(h, jumps, dfs, validate=False)
    assert lind.report.zero_multiplicity == dfs.d ** 2 + 1
    assert not lind.factor.leaky
    with pytest.raises(SingularBlockError, match=r"side 1\) is singular: smallest/largest \|sweep shift\| 0"):
        _ = lind.drazin


def test_failed_block_check_reports_no_spectrum():
    # K_qq gives the spectrum of L only under the normal form.
    h, jumps, dfs, _ = SPY_CASES["lr-jump-entry"]
    rep = structured_lindbladian(h, jumps, dfs, validate=False).report
    assert rep.dfs_steady <= rep.tol
    assert (rep.zero_multiplicity, rep.spectral_gap) == (None, None)
    assert not any("multiplicity" in line for line in rep.failures())


def _extra_zero_jump_instance():
    return random_structured_instance(2, 3, 2, 6, extra_zero_jump=True)[0]


def _lr_jump_instance():
    """A draw whose first jump also maps decaying level 3 to 4: leaky, with the DFS still steady."""
    lind = random_structured_instance(2, 3, 2, 11)[0]
    jumps = [f.copy() for f in lind.jumps]
    jumps[0][4, 3] = 0.7
    lind = structured_lindbladian(lind.h, jumps, lind.dfs, validate=False)
    assert lind.factor.leaky
    return lind


CORNER_CASES = {
    "random": lambda: random_structured_instance(2, 3, 2, 11)[0],
    "random-d3": lambda: random_structured_instance(3, 4, 3, 2)[0],
    "defective": lambda: random_structured_instance(2, 2, 2, 4, defective_k=True)[0],
    "stiff": lambda: stiff_lindbladian(),
    "extra-zero-jump": _extra_zero_jump_instance,
    # The DFS {1, 3} of D = 5, and a D = 7 draw relabelled by a permutation.
    "dfs-1-3": lambda: relabelled(random_structured_instance(2, 3, 2, 11)[0], [1, 3, 0, 2, 4]),
    "relabelled": lambda: relabelled(random_structured_instance(3, 4, 3, 2)[0],
                                     np.random.default_rng(5).permutation(7)),
    "projector-n12": lambda: _wide_rotated_lindbladian(),
}


@pytest.mark.parametrize("make", [*CORNER_CASES.values(), _lr_jump_instance],
                         ids=[*CORNER_CASES, "leaky-lr-jump"])
def test_bordered_factor_matches_schur_oracle(make):
    # The corner factor is the exact elimination of the bordered system
    # [[L, E], [E†, 0]]; the dense Schur form of L is its oracle.
    lind = make()
    assert isinstance(lind.factor, CornerFactor)
    s = lind.superop
    want_d, want_p = drazin_inverse(s), asymptotic_projection(s)
    assert frob(lind.drazin - want_d) <= 1e-11 * frob(want_d)
    assert frob(lind.asymptotic_projection - want_p) <= 1e-11 * frob(want_p)
    cols = np.random.default_rng(0).standard_normal((s.shape[0], 3))
    got = lind.factor.apply_drazin(cols)
    assert frob(got - want_d @ cols) <= 1e-11 * frob(want_d @ cols)
    for adjoint, want in ((False, want_p), (True, dagger(want_p))):
        got = lind.factor.apply_projection(cols, adjoint=adjoint)
        assert frob(got - want @ cols) <= 1e-11 * frob(want @ cols)


def test_corner_factor_is_the_bordered_solve_on_a_leaky_dfs(monkeypatch):
    # H couples the DFS to the decaying block by 1e-12: the checks pass, L's
    # coupling blocks are nonzero, and L_rr is factored whole. The result is
    # the bordered solve, which never reads L's DFS columns.
    lind = random_structured_instance(2, 3, 2, 11)[0]
    h = lind.h.copy()
    h[0, 2] = h[2, 0] = 1e-12
    lind = structured_lindbladian(h, lind.jumps, lind.dfs)
    assert lind.report.h_on_decaying_block > 0
    assert isinstance(lind.factor, CornerFactor)
    lus = []
    _count_calls(monkeypatch, ejof.lindblad, "zgetrf", lus)
    want_d, want_p = bordered_solve(lind.superop, dfs_columns(dense_dfs(lind.dfs).basis))
    assert frob(lind.drazin - want_d) <= 1e-11 * frob(want_d)
    assert frob(lind.asymptotic_projection - want_p) <= 1e-11 * frob(want_p)
    assert lus == [lind.dim ** 2 - lind.dfs.d ** 2]


def test_corner_factor_solves_with_k_prime_for_a_non_hermitian_h():
    # With H not Hermitian, K_qq' = H_qq + (i/2) W_qq is not K_qq†: the ur and
    # lr blocks must be solved with K_qq', as L holds it, to match the
    # bordered solve of L.
    lind = random_structured_instance(2, 3, 2, 11)[0]
    h = lind.h.copy()
    h[3, 4] += 0.3j
    lind = structured_lindbladian(h, lind.jumps, lind.dfs, validate=False)
    assert not lind.factor.leaky
    want_d, want_p = bordered_solve(lind.superop, dfs_columns(dense_dfs(lind.dfs).basis))
    assert frob(lind.drazin - want_d) <= 1e-11 * frob(want_d)
    assert frob(lind.asymptotic_projection - want_p) <= 1e-11 * frob(want_p)


def test_corner_factor_reads_the_leak_off_the_entries(monkeypatch):
    # An H coupling of 1e-170 underflows the report's residual norm to zero,
    # but it is a coupling entry of L_rr: L_rr is still factored whole.
    lind = random_structured_instance(2, 3, 2, 11)[0]
    h = lind.h.copy()
    h[0, 2] = h[2, 0] = 1e-170
    lind = structured_lindbladian(h, lind.jumps, lind.dfs)
    assert lind.report.h_on_decaying_block == 0.0
    lus = []
    _count_calls(monkeypatch, ejof.lindblad, "zgetrf", lus)
    _ = lind.drazin
    assert lind.factor.leaky
    assert lus == [lind.dim ** 2 - lind.dfs.d ** 2]


def test_corner_factor_copies_only_the_blocks_it_factors():
    # Without leakage the factor forms no block of L_rr: it keeps n x n LUs
    # and Schur forms, and sweeps the d^2 feed operators for G. Its peak
    # allocation stays below a quarter of the lr block (n^4 entries), which
    # the dense normal-form factor held 1.35 times and L gathered whole 3.8:
    # 0.84 of that quarter at D = 20 (d^2 = n^4 / 16 feed operators), 0.14 at D = 40.
    for n, seed in ((16, 1), (36, 3)):
        lind = random_structured_instance(4, n, 5, seed)[0]
        assert not lind.factor.leaky
        lr_bytes = n ** 4 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            _ = lind.factor._factored
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= lr_bytes / 4, n


def test_a_swapped_factor_keeps_the_generator_matrix():
    # Routes are run on the dense oracle by swapping it in for the corner
    # factor; the generator's matrix is then the oracle's, the same L.
    lind = random_structured_instance(2, 3, 2, 11)[0]
    swapped = dataclasses.replace(lind, factor=OrderedSchur.of(lind.superop))
    assert swapped.superop is lind.superop


def _scenario_lindbladian(name):
    if name == "repetition":
        return repetition_code_recovery()[1]
    return build_scenario(name, {}, 0, 1e-9).study.lind


def _wide_stiff_lindbladian(d=2, n=12):
    """n decaying levels, level j decaying into the DFS at a rate from 1e4 down to 1e-1."""
    dim = d + n
    dfs = DfsProjector.from_indices(dim, range(d))
    jumps = []
    for j, rate in enumerate(np.geomspace(1e4, 1e-1, n)):
        f = np.zeros((dim, dim), dtype=complex)
        f[j % d, d + j] = np.sqrt(rate)
        jumps.append(f)
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(d, dim - 1):
        h[j, j + 1] = h[j + 1, j] = 0.1
    return structured_lindbladian(h, jumps, dfs)


def _wide_rotated_lindbladian(d=2, n=12):
    """A system rotated by a dense unitary, read back in its projector's eigenbasis.

    That frame is dense inside each block and leaves round-off leakage
    between them, so the corner factor takes L_rr whole.
    """
    lind = random_structured_instance(d, n, 3, 5)[0]
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.standard_normal((d + n, d + n))
                        + 1j * rng.standard_normal((d + n, d + n)))
    frame, rank = projector_frame(u @ dense_dfs(lind.dfs).p @ dagger(u))

    def turn(a):
        return dagger(frame) @ (u @ a @ dagger(u)) @ frame

    return structured_lindbladian(turn(lind.h), [turn(f) for f in lind.jumps],
                                  DfsProjector.from_indices(d + n, range(rank)))


# Wide decaying blocks (n^2 >= 144), stiff rates and a dense DFS basis.
WIDE_CASES = {
    "ladder-d20": lambda: random_structured_instance(4, 16, 5, 1)[0],
    "stiff-n12": _wide_stiff_lindbladian,
    "projector-n12": _wide_rotated_lindbladian,
}

ORACLE_CASES = dict(CORNER_CASES, **WIDE_CASES, **{
    name: functools.partial(_scenario_lindbladian, name) for name in SCENARIOS
})


def _random_perturbation(lind, seed):
    rng = np.random.default_rng(seed)
    shape = (lind.dim, lind.dim)

    def cnormal():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = cnormal()
    return Perturbation(v=(v + dagger(v)) / 2, fs=tuple(cnormal() for _ in lind.jumps))


# The dense eigvals of the defective case carry Jordan error (9.4e-9 relative
# on the gap), far above the oracle's 1e-12.
SPECTRUM_CASES = {name: make for name, make in ORACLE_CASES.items() if name != "defective"}


@pytest.mark.parametrize("make", SPECTRUM_CASES.values(), ids=SPECTRUM_CASES.keys())
def test_structure_report_spectrum_matches_eigvals_oracle(make):
    # The oracle cuts at 1e-8 max(1, ||L||_2); the report at 1e-8 max(1, rho(L)).
    # A dense eigenvalue is accurate only to its backward error eps ||L||_2: on
    # stiff-n12 (||L||_2 = 1.4e4) that is 3.1e-12 absolute, 2.2e-11 relative
    # to the gap 0.142. The eigvals gap there is off by 1.2e-12 relative at
    # one BLAS thread and 2e-13 at two, while the report's gap, read off K_qq,
    # agrees with an mpmath evaluation of spec(K_qq) to 8e-19 relative.
    lind = make()
    s = lind.superop
    mags = np.abs(np.linalg.eigvals(s))
    norm = np.linalg.norm(s, 2)
    thresh = 1e-8 * max(1.0, norm)
    gap = mags[mags > thresh].min()
    assert lind.report.zero_multiplicity == int(np.sum(mags <= thresh))
    assert abs(lind.report.spectral_gap - gap) <= 1e-12 * gap + np.finfo(float).eps * norm


@pytest.mark.parametrize("make", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_general_route_matches_dense_evaluation(make):
    # The dense resolvent formula, with O1 and O2 as full matrices.
    lind = make()
    pert = _random_perturbation(lind, 3)
    o1, o2 = perturbation_superops(lind, pert)
    basis = dense_dfs(lind.dfs).basis
    e = dfs_columns(basis)
    pe = lind.asymptotic_projection @ e
    cols = (o1 + o2) @ pe - o1 @ lind.drazin @ o1 @ pe
    want = compress_superop(e @ dagger(e) @ lind.asymptotic_projection @ cols @ dagger(e), basis)
    got = effective_lindbladian_general(lind, pert)
    assert frob(got - want) <= 1e-11 * frob(want)


BATCH_CASES = {name: ORACLE_CASES[name]
               for name in ("random", "defective", "extra-zero-jump", "projector-n12")}


@pytest.mark.parametrize("make", BATCH_CASES.values(), ids=BATCH_CASES.keys())
def test_general_blocks_match_single_calls(make):
    lind = make()
    perts = [_random_perturbation(lind, seed) for seed in (3, 5, 6, 9)]
    got = _general_blocks(lind, perts)
    assert got.shape == (4, lind.dfs.d ** 2, lind.dfs.d ** 2)
    for block, pert in zip(got, perts):
        want = effective_lindbladian_general(lind, pert)
        assert frob(block - want) <= 1e-13 * frob(want)


@pytest.mark.parametrize("make", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_block_effective_superop_matches_full_assembly(make):
    lind = make()
    eff = effective_lindbladian_closed(lind, _random_perturbation(lind, 4))
    basis = dense_dfs(lind.dfs).basis

    def embed(block):
        return basis @ block @ dagger(basis)

    full = -1j * commutator_superop(embed(eff.h_eff)) + embed_superop(eff.cp_superop, basis)
    full = full - 0.5 * anticommutator_superop(embed(eff.cp_adjoint_identity))
    for f in eff.jumps_eff:
        full = full + dissipator(embed(f))
    want = compress_superop(full, basis)
    got = effective_to_superop(eff)
    assert frob(got - want) <= 1e-11 * frob(want)


@pytest.mark.parametrize("make", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_cp_superop_matches_the_per_unit_oracle(make):
    # The d^2 units in one stacked sector solve, against one ztrsyl per unit.
    lind = make()
    pert = _random_perturbation(lind, 4)
    want = cp_superop_per_unit(lind, pert)
    got = effective_lindbladian_closed(lind, pert).cp_superop
    assert frob(got - want) <= 1e-13 * frob(want)


def _two_rate_lindbladian(fast, slow):
    """H = 0; level 2 decays into DFS level 0 at rate fast, level 3 into 1 at slow."""
    dfs = DfsProjector.from_indices(4, [0, 1])
    f0 = np.zeros((4, 4), dtype=complex)
    f0[0, 2] = np.sqrt(fast)
    f1 = np.zeros((4, 4), dtype=complex)
    f1[1, 3] = np.sqrt(slow)
    return structured_lindbladian(np.zeros((4, 4)), [f0, f1], dfs)


def test_structured_spectrum_warns_on_narrow_gap():
    # Rates 1e4 and 1e-2: the slow level's |kappa| = 5e-3 sits within 100x of
    # the 1e-8 rho(L) cut, yet the zero cluster is exactly the DFS block.
    lind = _two_rate_lindbladian(1e4, 1e-2)
    assert lind.report.zero_multiplicity == 4
    assert isinstance(lind.factor, CornerFactor)
    with pytest.warns(SpectralGapWarning):
        _ = lind.drazin


def test_gap_warning_uses_the_report_cut():
    # rho(L) = 0.02 < 1, so the report cuts at 1e-8, and the gap 1e-7 is within
    # 100x of it. The factor must warn at that same cut, not at 1e-8 ||L||_2.
    lind = _two_rate_lindbladian(0.02, 2e-7)
    assert lind.report.zero_multiplicity == 4
    assert abs(lind.report.spectral_gap - 1e-7) <= 1e-12 * 1e-7
    assert lind.factor.thresh == 1e-8
    with pytest.warns(SpectralGapWarning, match="zero threshold 1.000e-08"):
        _ = lind.drazin


def test_gap_warning_names_the_caller():
    # The warning points at the line that asked for L^D, not at ejof or functools.
    lind = _two_rate_lindbladian(0.02, 2e-7)
    with pytest.warns(SpectralGapWarning) as record:
        _ = lind.drazin
    assert [w.filename for w in record] == [__file__]


def test_asymptotic_projection_limit_matches_expm(three_level):
    lind, _ = three_level
    t = 25.0
    np.testing.assert_allclose(
        asymptotic_projection_limit(lind.superop, t=t), expm(t * lind.superop), atol=1e-12
    )


def test_min_decay_rate_requires_nonzero_spectrum():
    with pytest.raises(ValueError, match="no nonzero spectrum"):
        min_decay_rate(np.zeros((4, 4)))
