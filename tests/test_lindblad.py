import functools

import numpy as np
import pytest
from scipy.linalg import expm

import ejof.effective
import ejof.lindblad
from ejof.cli import build_scenario
from ejof.lindblad import (
    BorderedFactor,
    NonSemisimpleZeroError,
    OrderedSchur,
    SpectralGapWarning,
    StructureError,
    assemble_lindbladian,
    asymptotic_projection,
    asymptotic_projection_analytic,
    asymptotic_projection_limit,
    decay_rates,
    drazin_inverse,
    min_decay_rate,
    nh_hamiltonian,
    nh_hamiltonian_inverse,
    nh_superop_inverse_lr,
    nh_superop_solve,
    structure_report,
    structured_lindbladian,
)
from ejof.effective import (
    Perturbation,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    effective_to_superop,
    identity_suite,
    perturbation_superops,
    random_structured_instance,
)
from ejof.operators import (
    DfsProjector,
    anticommutator_superop,
    commutator_superop,
    compress_superop,
    dagger,
    dfs_columns,
    dissipator,
    embed_superop,
    devectorize,
    four_corners,
    frob,
    star_commutator,
    vectorize,
)
from ejof.qec import repetition_code_recovery


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
    np.testing.assert_allclose(lind.k @ kinv, lind.dfs.q, atol=1e-12)
    np.testing.assert_allclose(kinv @ lind.k, lind.dfs.q, atol=1e-12)


@pytest.mark.parametrize("seed, defective", [(3, False), (5, False), (9, True)])
def test_nh_superop_solve_inverts_star_commutator(seed, defective):
    lind, _ = random_structured_instance(2, 2, 2, seed, defective_k=defective)
    rng = np.random.default_rng(seed + 100)
    dim = lind.dim
    sigma = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    sigma = sigma - lind.dfs.p @ sigma @ lind.dfs.p  # no DFS-corner content
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
        bq = dfs.basis_c
        cached = bq @ lind.decaying_sector.solve(dagger(bq) @ sigma @ bq) @ dagger(bq)
        for got in (nh_superop_solve(lind.k, sigma, dfs), cached):
            assert frob(got - want) <= 1e-11 * frob(want), name


SCENARIOS = ("three-level", "cancellation", "coherent-cancel", "universal", "repetition")


@pytest.mark.parametrize("name", SCENARIOS)
def test_structure_report_spectrum_matches_eigvals_oracle(name):
    if name == "repetition":
        _, lind = repetition_code_recovery()
    else:
        lind = build_scenario(name, {}, 0, 1e-9).lind
    s = lind.superop
    mags = np.abs(np.linalg.eigvals(s))
    thresh = 1e-8 * max(1.0, np.linalg.norm(s, 2))
    gap = mags[mags > thresh].min()
    assert lind.report.zero_multiplicity == int(np.sum(mags <= thresh))
    assert abs(lind.report.spectral_gap - gap) <= 1e-12 * gap


def _count_calls(monkeypatch, owner, name, log, when=lambda *args, **kwargs: True):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        if when(*args, **kwargs):
            log.append(np.shape(args[0])[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_generator_and_k_are_factored_once(monkeypatch, generic_instance):
    # A structured generator is never decomposed densely: its spectrum comes
    # from the one Schur form of K_qq, ||L||_2 from its corner blocks, L^D and
    # P_inf from one bordered LU, and the general route never forms O1, O2.
    base, pert = generic_instance
    schurs, norms, eigs = [], [], []
    _count_calls(monkeypatch, ejof.lindblad, "schur", schurs)
    _count_calls(monkeypatch, np.linalg, "norm", norms,
                 when=lambda x, ord=None, *a, **k: ord == 2 and np.ndim(x) == 2)
    _count_calls(monkeypatch, np.linalg, "eigvals", eigs)
    _count_calls(monkeypatch, np.linalg, "eig", eigs)

    def dense_superops(*args, **kwargs):
        raise AssertionError("the general route formed dense O1, O2")

    monkeypatch.setattr(ejof.effective, "perturbation_superops", dense_superops)
    lind = structured_lindbladian(base.h, base.jumps, base.dfs)
    _ = lind.drazin, lind.asymptotic_projection
    effective_lindbladian_general(lind, pert)
    effective_lindbladian_closed(lind, pert)
    identity_suite(lind, pert)
    assert isinstance(lind.factor, BorderedFactor)
    assert schurs == [lind.dfs.n_decay]
    assert lind.superop.shape[0] not in norms
    assert norms and max(norms) <= lind.dfs.n_decay ** 2 + lind.dfs.d ** 2
    assert eigs == []


def test_failing_generator_falls_back_to_one_dense_schur(monkeypatch):
    dfs = DfsProjector.from_indices(3, [0, 1])
    bad = np.zeros((3, 3), dtype=complex)
    bad[2, 0] = 1.0  # maps the DFS into the decaying space
    schurs, norms = [], []
    _count_calls(monkeypatch, ejof.lindblad, "schur", schurs)
    _count_calls(monkeypatch, np.linalg, "norm", norms,
                 when=lambda x, ord=None, *a, **k: ord == 2 and np.ndim(x) == 2)
    lind = structured_lindbladian(np.zeros((3, 3)), [bad], dfs, validate=False)
    _ = lind.drazin, lind.asymptotic_projection
    assert not lind.report.passed
    assert isinstance(lind.factor, OrderedSchur)
    # ||L||_2 is passed through to the fallback factor, not recomputed.
    assert norms == [9]
    assert schurs.count(9) == 1


def _extra_zero_jump_instance():
    return random_structured_instance(2, 3, 2, 6, extra_zero_jump=True)[0]


BORDERED_CASES = {
    "random": lambda: random_structured_instance(2, 3, 2, 11)[0],
    "random-d3": lambda: random_structured_instance(3, 4, 3, 2)[0],
    "defective": lambda: random_structured_instance(2, 2, 2, 4, defective_k=True)[0],
    "stiff": lambda: stiff_lindbladian(),
    "extra-zero-jump": _extra_zero_jump_instance,
}


@pytest.mark.parametrize("make", BORDERED_CASES.values(), ids=BORDERED_CASES.keys())
def test_bordered_factor_matches_schur_oracle(make):
    lind = make()
    assert isinstance(lind.factor, BorderedFactor)
    s = lind.superop
    want_d, want_p = drazin_inverse(s), asymptotic_projection(s)
    assert frob(lind.drazin - want_d) <= 1e-11 * frob(want_d)
    assert frob(lind.asymptotic_projection - want_p) <= 1e-11 * frob(want_p)
    cols = np.random.default_rng(0).standard_normal((s.shape[0], 3))
    got = lind.factor.apply_drazin(cols)
    assert frob(got - want_d @ cols) <= 1e-11 * frob(want_d @ cols)


def _scenario_lindbladian(name):
    if name == "repetition":
        return repetition_code_recovery()[1]
    return build_scenario(name, {}, 0, 1e-9).lind


ORACLE_CASES = dict(BORDERED_CASES, **{
    name: functools.partial(_scenario_lindbladian, name) for name in SCENARIOS
})


def _random_perturbation(lind, seed):
    rng = np.random.default_rng(seed)
    shape = (lind.dim, lind.dim)

    def cnormal():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = cnormal()
    return Perturbation(v=(v + dagger(v)) / 2, fs=tuple(cnormal() for _ in lind.jumps))


@pytest.mark.parametrize("make", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_corner_norm_matches_dense_svd(make):
    lind = make()
    want = np.linalg.norm(lind.superop, 2)
    got = ejof.lindblad._normal_form_norm2(lind.k, lind.jumps, lind.dfs)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("make", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_general_route_matches_dense_evaluation(make):
    # The dense resolvent formula, with O1 and O2 as full matrices.
    lind = make()
    pert = _random_perturbation(lind, 3)
    o1, o2 = perturbation_superops(lind, pert)
    e = dfs_columns(lind.dfs.basis)
    pe = lind.asymptotic_projection @ e
    cols = (o1 + o2) @ pe - o1 @ lind.drazin @ o1 @ pe
    want = e @ dagger(e) @ lind.asymptotic_projection @ cols @ dagger(e)
    got = effective_lindbladian_general(lind, pert)
    assert frob(got - want) <= 1e-11 * frob(want)


@pytest.mark.parametrize("make", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_block_effective_superop_matches_full_assembly(make):
    lind = make()
    eff = effective_lindbladian_closed(lind, _random_perturbation(lind, 4))
    full = -1j * commutator_superop(eff.h_eff) + eff.cp_superop
    full = full - 0.5 * anticommutator_superop(eff.cp_adjoint_identity)
    for f in eff.jumps_eff:
        full = full + dissipator(f)
    basis = lind.dfs.basis
    want = embed_superop(compress_superop(full, basis), basis)
    got = effective_to_superop(eff)
    assert frob(got - want) <= 1e-11 * frob(want)


def test_structured_spectrum_warns_on_narrow_gap():
    # Rates 1e4 and 1e-2: the slow level's |kappa| = 5e-3 sits within 100x of
    # the 1e-8 ||L||_2 cut, yet the zero cluster is exactly the DFS block.
    dfs = DfsProjector.from_indices(4, [0, 1])
    fast = np.zeros((4, 4), dtype=complex)
    fast[0, 2] = np.sqrt(1e4)
    slow = np.zeros((4, 4), dtype=complex)
    slow[1, 3] = np.sqrt(1e-2)
    lind = structured_lindbladian(np.zeros((4, 4)), [fast, slow], dfs)
    assert lind.report.zero_multiplicity == 4
    assert isinstance(lind.factor, BorderedFactor)
    with pytest.warns(SpectralGapWarning):
        _ = lind.drazin


def test_asymptotic_projection_limit_matches_expm(three_level):
    lind, _ = three_level
    t = 25.0
    np.testing.assert_allclose(
        asymptotic_projection_limit(lind.superop, t=t), expm(t * lind.superop), atol=1e-12
    )


def test_min_decay_rate_requires_nonzero_spectrum():
    with pytest.raises(ValueError, match="no nonzero spectrum"):
        min_decay_rate(np.zeros((4, 4)))
