import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

import ejof.lindblad
from ejof.effective import (
    IDENTITY_TOL,
    Perturbation,
    Study,
    _general_blocks,
    corner_sensitivity,
    effective_coupling,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    effective_to_superop,
    identity_suite,
    perturbed_superop,
    random_structured_instance,
    verify_equivalence,
)
from ejof.lindblad import nh_superop_inverse_lr, structured_lindbladian
from ejof.operators import (
    DfsProjector,
    dagger,
    four_corners,
    frob,
)
from oracles import (
    OrderedSchur,
    choi_matrix,
    compress_superop,
    dense_dfs,
    embedded_nh_inverse,
    full_space_coupling,
    perturbation_superops,
    sandwich_superop,
)


def test_perturbation_validates_hermiticity():
    with pytest.raises(ValueError, match="Hermitian"):
        Perturbation(v=np.array([[0, 1], [0, 0]], dtype=complex), fs=())


def test_perturbation_validates_shapes():
    v = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shape"):
        Perturbation(v=v, fs=(np.zeros((3, 3)),))


# A deformation that is not square, a (J, D, D') array, and a sequence whose
# operators differ in shape, each refused with the message of its first fault.
BAD_DEFORMATIONS = {
    "non-square": ((np.zeros((2, 3)),), r"expected a square matrix, got shape \(2, 3\)"),
    "array-of-non-square": (np.zeros((2, 2, 3), dtype=complex),
                            r"expected a square matrix, got shape \(2, 3\)"),
    "ragged": ((np.zeros((2, 2)), np.zeros((3, 3))),
               r"jump deformation shape \(3, 3\) != V shape \(2, 2\)"),
}


@pytest.mark.parametrize("fs, message", BAD_DEFORMATIONS.values(), ids=BAD_DEFORMATIONS.keys())
def test_perturbation_refuses_deformations_of_the_wrong_shape(fs, message):
    with pytest.raises(ValueError, match=message):
        Perturbation(v=np.zeros((2, 2)), fs=fs)


def test_jumps_and_deformations_are_one_array_each(generic_instance):
    # A complex (J, D, D) array is kept uncopied, and the corner factor reads
    # the generator's own array; a sequence is stacked once into that form.
    base, pert = generic_instance
    jumps, fs = np.array(base.jumps), np.array(pert.fs)
    lind = structured_lindbladian(base.h, jumps, base.dfs)
    kept = Perturbation(v=pert.v, fs=fs)
    assert np.shares_memory(lind.jumps, jumps) and np.shares_memory(kept.fs, fs)
    assert lind.factor.jumps is lind.jumps
    for got, given in ((lind.jumps, jumps), (kept.fs, fs),
                       (structured_lindbladian(base.h, list(jumps), base.dfs).jumps, jumps),
                       (Perturbation(v=pert.v, fs=tuple(fs)).fs, fs)):
        assert isinstance(got, np.ndarray) and got.dtype == complex
        assert got.shape == (len(jumps), base.dim, base.dim)
        assert np.array_equal(got, given)


def test_the_normal_form_route_stacks_no_deformations():
    # The rank-two route reads each perturbation's f_l through gathers of its
    # DFS rows and columns, and never copies the K perturbations into one
    # (K, J, D, D) array: its peak allocation stays below 1.5 times that
    # array, 1.28 times here (D = 34, J = 32, K = 5), against 2.28 when the
    # route made it.
    lind, pert = random_structured_instance(2, 32, 32, 4)
    perts = [pert.scaled(s) for s in (1.0, 0.5, 0.25, 2.0, -1.0)]
    assert not lind.factor.leaky
    _general_blocks(lind, perts[:1])  # the generator is factored before tracing
    tracemalloc.start()
    try:
        _general_blocks(lind, perts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(perts) * pert.fs.nbytes


def test_perturbation_requires_matching_jump_count(three_level):
    lind, _ = three_level
    pert = Perturbation.zero(3, 2)
    with pytest.raises(ValueError, match="pad with zero"):
        effective_lindbladian_general(lind, pert)


def test_perturbation_norm_and_scaling(generic_instance):
    _, pert = generic_instance
    assert pert.norm() > 0
    half = pert.scaled(0.5)
    assert abs(half.norm() - 0.5 * pert.norm()) < 1e-12


def test_superops_sum_to_generator_difference(generic_instance):
    # O1 + O2 must equal the exact difference of full Lindbladians
    lind, pert = generic_instance
    o1, o2 = perturbation_superops(lind, pert)
    diff = perturbed_superop(lind, pert) - lind.superop
    assert frob(o1 + o2 - diff) < 1e-12 * max(1.0, frob(diff))


def test_zero_perturbation_gives_zero_generator(three_level):
    lind, _ = three_level
    zero = Perturbation.zero(3, 1)
    gen = effective_lindbladian_general(lind, zero)
    assert np.array_equal(gen, np.zeros_like(gen))
    eff = effective_lindbladian_closed(lind, zero)
    assert frob(eff.h_eff) == 0.0
    assert all(frob(f) == 0.0 for f in eff.jumps_eff)
    assert frob(eff.cp_superop) == 0.0


def test_coupling_is_off_diagonal(generic_instance):
    # The full-space C has only its off-diagonal corners, and effective_coupling
    # returns exactly those two blocks.
    lind, pert = generic_instance
    dfs = lind.dfs
    c = full_space_coupling(lind, pert)
    corners = four_corners(c, dfs)
    assert frob(corners.ul) == 0.0
    assert frob(corners.lr) == 0.0
    c_qp, c_pq = effective_coupling(lind, pert)
    assert c_qp.shape == (dfs.n_decay, dfs.d) and c_pq.shape == (dfs.d, dfs.n_decay)
    for got, want in ((c_qp, c[np.ix_(dfs.rest, dfs.indices)]), (c_pq, c[np.ix_(dfs.indices, dfs.rest)])):
        assert frob(got - want) <= 1e-14 * frob(want)
    assert frob(c_qp) > 0


@pytest.mark.parametrize(
    "d, n, n_jumps, seed, defective, extra",
    [
        (2, 2, 1, 0, False, False),
        (2, 3, 2, 1, False, False),
        (2, 4, 3, 2, False, False),
        (3, 3, 2, 3, False, False),
        (2, 2, 2, 4, True, False),
        (2, 2, 1, 5, True, False),
        (2, 3, 1, 6, False, True),
        (2, 2, 2, 7, True, True),
    ],
)
def test_routes_agree_on_random_instances(d, n, n_jumps, seed, defective, extra):
    lind, pert = random_structured_instance(
        d, n, n_jumps, seed, defective_k=defective, extra_zero_jump=extra
    )
    rep = verify_equivalence(lind, pert)
    assert rep.passed, rep.residual
    assert rep.residual <= 1e-9
    assert rep.general_norm > 0


def test_defective_instance_really_is_defective():
    lind, _ = random_structured_instance(2, 2, 2, 4, defective_k=True)
    kk = lind.k[2:, 2:]
    evals = np.linalg.eigvals(kk)
    assert abs(evals[0] - evals[1]) < 1e-6
    # a Jordan block: (K - lambda)^1 does not vanish although both eigenvalues merge
    lam = evals.mean()
    assert frob(kk - lam * np.eye(2)) > 1e-3


def test_identity_suite_on_random_instances():
    for seed in (11, 12, 13):
        lind, pert = random_structured_instance(2, 3, 2, seed)
        rep = identity_suite(lind, pert)
        assert rep.passed, rep.as_dict()
        assert max(rep.as_dict().values()) <= 1e-11


def _corrupt_kinv(eff):
    return dataclasses.replace(eff, kinv=eff.kinv * (1 + 1e-6))


def _corrupt_jump(eff):
    jumps = eff.jumps_eff.copy()
    jumps[0, 0, 1] += 1e-6 * frob(jumps)
    return dataclasses.replace(eff, jumps_eff=jumps)


def _corrupt_cp_superop(eff):
    # Row 0 of the block is read by E_eff† vec(I): it holds vec(b_0 b_0†).
    cp = eff.cp_superop.copy()
    cp[0, 0] += 1e-6 * frob(cp)
    return dataclasses.replace(eff, cp_superop=cp)


def _corrupt_coupling(eff):
    c_qp, c_pq = eff.coupling
    return dataclasses.replace(eff, coupling=(c_qp * (1 + 1e-6), c_pq))


@pytest.mark.parametrize("corrupt, failing", [
    (_corrupt_kinv, {"offdiag_inverse", "resolvent_identity", "jump_norm_identity"}),
    (_corrupt_jump, {"jump_norm_identity"}),
    (_corrupt_cp_superop, {"adjoint_identity"}),
    (_corrupt_coupling, {"jump_norm_identity"}),
], ids=["kinv", "f_eff", "cp_superop", "c_qp"])
def test_each_identity_fails_on_a_corrupted_closed_route_piece(generic_instance, corrupt, failing):
    # A relative error of 1e-6 in one piece of Study.closed lifts each identity
    # that reads it to 1e-7 or more, four orders above IDENTITY_TOL, and leaves
    # the others at round-off.
    study = Study(*generic_instance)
    assert study.identities.passed
    corrupted = Study(*generic_instance)
    vars(corrupted)["closed"] = corrupt(study.closed)
    residuals = corrupted.identities.as_dict()
    assert {name for name, r in residuals.items() if r > IDENTITY_TOL} == failing
    assert all(residuals[name] > 1e3 * IDENTITY_TOL for name in failing)


def test_corner_sensitivity_tiny(generic_instance):
    lind, pert = generic_instance
    rep = corner_sensitivity(lind, pert)
    assert rep.passed, rep.as_dict()
    assert rep.combined_delta <= 1e-10
    assert rep.reference_norm > 0


def _corner_deltas_by_loop(lind, pert):
    """Corner deltas by one general-route call per stripped variant, P O Q products."""
    p, q = dense_dfs(lind.dfs)[:2]
    reference = effective_lindbladian_general(lind, pert)
    scale = max(frob(reference), 1e-14)

    def strip(drop_v_lr, drop_f_ur, drop_f_lr):
        v = pert.v - q @ pert.v @ q if drop_v_lr else pert.v
        fs = []
        for f in pert.fs:
            g = f
            if drop_f_ur:
                g = g - p @ f @ q
            if drop_f_lr:
                g = g - q @ f @ q
            fs.append(g)
        other = effective_lindbladian_general(lind, Perturbation(v=v, fs=tuple(fs)))
        return frob(other - reference) / scale

    deltas = {
        "v_lr_delta": strip(True, False, False),
        "f_ur_delta": strip(False, True, False),
        "f_lr_delta": strip(False, False, True),
        "combined_delta": strip(True, True, True),
    }
    return deltas, frob(reference)


def _mislabelled_dfs_instance():
    # The generator's DFS is {0, 1}; labelled {0, 2}, no corner is inert. Its
    # L_rr is exactly singular, so the routes run on the dense oracle factor.
    lind, pert = random_structured_instance(2, 3, 2, 11)
    wrong = DfsProjector.from_indices(5, [0, 2])
    lind = structured_lindbladian(lind.h, lind.jumps, wrong, validate=False)
    return dataclasses.replace(lind, factor=OrderedSchur.of(lind.superop)), pert


@pytest.mark.parametrize("inert", [True, False], ids=["structured", "mislabelled-dfs"])
def test_corner_sensitivity_matches_per_variant_loop(generic_instance, inert):
    lind, pert = generic_instance if inert else _mislabelled_dfs_instance()
    want, want_norm = _corner_deltas_by_loop(lind, pert)
    rep = corner_sensitivity(lind, pert)
    assert abs(rep.reference_norm - want_norm) <= 1e-13 * want_norm
    for key, got in rep.as_dict().items():
        if inert:
            # Both sides are round-off; they agree on that scale and both pass.
            assert max(got, want[key]) <= 1e-13, key
        else:
            assert want[key] > 0.1, key
            assert abs(got - want[key]) <= 1e-11 * want[key], key


def test_corner_sensitivity_takes_one_drazin_solve(count_drazin_solves, generic_instance):
    lind, pert = generic_instance
    widths = count_drazin_solves(lind)
    corner_sensitivity(lind, pert)
    assert widths == [5 * lind.dfs.d]


def test_study_general_reads_no_closed_route_piece(generic_instance, monkeypatch):
    # The routes stay independent: the general block of a fresh study, with
    # the first use of a fresh corner factor, uses neither Kinv, the coupling
    # C, the generator's K, its stored Schur form of K_qq nor its decaying
    # sector, and takes exactly one Schur form, its factor's own.
    base, pert = generic_instance
    lind = structured_lindbladian(base.h, base.jumps, base.dfs)
    for name in ("nh_hamiltonian_inverse", "effective_coupling"):
        real = getattr(sys.modules["ejof.effective"], name)

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"the general route called {name}")

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "ejof" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, refuse)
    schurs = []
    real_schur = ejof.lindblad.complex_schur
    monkeypatch.setattr(ejof.lindblad, "complex_schur",
                        lambda a: schurs.append(a.shape[0]) or real_schur(a))
    for name in ("k", "k_schur", "decaying_sector"):
        # A class property shadows the instance field, so every read fails.
        monkeypatch.setattr(ejof.lindblad.StructuredLindbladian, name, property(
            lambda self, name=name: pytest.fail(f"the general route read lind.{name}")), raising=False)
    study = Study(lind, pert)
    general = study.general
    assert "closed" not in vars(study) and "closed_block" not in vars(study)
    assert schurs == [lind.dfs.n_decay]
    monkeypatch.undo()
    assert np.array_equal(general, effective_lindbladian_general(lind, pert))


def test_study_reports_match_the_check_functions(generic_instance):
    lind, pert = generic_instance
    study = Study(lind, pert)
    assert study.equivalence == verify_equivalence(lind, pert)
    assert study.identities == identity_suite(lind, pert)
    assert study.corners == corner_sensitivity(lind, pert)
    assert study.scaled_residual <= 1e-12


def test_generator_scales_quadratically():
    # only terms of order s and s^2 appear: L(s*pert) = s*A + s^2*B exactly
    lind, pert = random_structured_instance(2, 3, 2, 21)
    g1 = effective_lindbladian_general(lind, pert.scaled(1.0))
    g2 = effective_lindbladian_general(lind, pert.scaled(2.0))
    g3 = effective_lindbladian_general(lind, pert.scaled(3.0))
    # second difference isolates B, then reconstruct g3 from g1 and g2
    b = (g2 - 2 * g1) / 2.0
    a = g1 - b
    recon = 3 * a + 9 * b
    assert frob(recon - g3) <= 1e-9 * max(frob(g3), 1.0)


def test_h_eff_is_hermitian_and_dfs_supported(generic_instance):
    # H_eff and the F_eff_l, formed on the full space from C and Kinv, have
    # only a DFS corner, and the closed route's blocks are that corner.
    lind, pert = generic_instance
    eff = effective_lindbladian_closed(lind, pert)
    d, ul = lind.dfs.d, np.ix_(lind.dfs.indices, lind.dfs.indices)
    assert eff.h_eff.shape == (d, d)
    assert eff.jumps_eff.shape == (len(lind.jumps), d, d)
    assert frob(eff.h_eff - dagger(eff.h_eff)) < 1e-13
    c = full_space_coupling(lind, pert)
    kc = embedded_nh_inverse(lind) @ c
    x = four_corners(pert.v, lind.dfs).ul - c @ kc
    full_pieces = [0.5 * (x + dagger(x))]
    full_pieces += [four_corners(f, lind.dfs).ul - big_f @ kc for big_f, f in zip(lind.jumps, pert.fs)]
    for full, block in zip(full_pieces, [eff.h_eff, *eff.jumps_eff]):
        corners = four_corners(full, lind.dfs)
        assert frob(corners.ur) + frob(corners.ll) + frob(corners.lr) < 1e-13
        assert frob(full[ul] - block) <= 1e-13 * max(frob(block), 1.0)


def test_cp_superop_is_completely_positive(generic_instance):
    lind, pert = generic_instance
    eff = effective_lindbladian_closed(lind, pert)
    choi = choi_matrix(eff.cp_superop)
    evals = np.linalg.eigvalsh(choi)
    assert evals.min() > -1e-11


@pytest.mark.parametrize("n, seed, defective, extra", [(3, 11, False, False), (2, 4, True, False),
                                                     (2, 7, True, True)])
def test_cp_superop_matches_dense_product(n, seed, defective, extra):
    # E_eff from its DFS columns against -feed @ inv_lr @ source on full matrices.
    lind, pert = random_structured_instance(2, n, 2, seed, defective_k=defective,
                                            extra_zero_jump=extra)
    dfs = lind.dfs
    feed = sum(sandwich_superop(f, dagger(f)) for f in lind.jumps)
    f_lls = [four_corners(f, dfs).ll for f in pert.fs]
    source = sum(sandwich_superop(f, dagger(f)) for f in f_lls)
    want = compress_superop(-feed @ nh_superop_inverse_lr(lind.k, dfs) @ source,
                            dense_dfs(dfs).basis)
    got = effective_lindbladian_closed(lind, pert).cp_superop
    assert frob(got - want) <= 1e-11 * frob(want)


def test_closed_route_solves_the_dfs_units_in_one_stack(monkeypatch):
    # E_eff on the d^2 = 16 DFS units is one sweep of 16 columns, on the
    # generator's decaying sector: a stack [j, p, c] of n = 5 rows of 16 columns.
    lind, pert = random_structured_instance(4, 5, 5, 3)
    shapes = []
    real = ejof.lindblad.LrSweep.sweep

    def counting(self, y, adjoint=False):
        shapes.append((self, np.shape(y), adjoint))
        return real(self, y, adjoint)

    monkeypatch.setattr(ejof.lindblad.LrSweep, "sweep", counting)
    _ = Study(lind, pert).closed
    assert shapes == [(lind.decaying_sector, (5, 5, 16), False)]


def test_cp_superop_is_exactly_zero_without_a_source(generic_instance):
    # With f_ll = 0 there is no source and E_eff is exactly zero. With f_ll
    # nonzero on the first DFS column only, the column of every unit b_i b_j†
    # with i or j another DFS state is exactly zero.
    lind, pert = generic_instance
    dfs = lind.dfs
    bare = tuple(f - four_corners(f, dfs).ll for f in pert.fs)
    assert not effective_lindbladian_closed(lind, dataclasses.replace(pert, fs=bare)).cp_superop.any()
    one_column = tuple(f.copy() for f in bare)
    for f, full in zip(one_column, pert.fs):
        f[dfs.rest, dfs.indices[0]] = full[dfs.rest, dfs.indices[0]]
    cp = effective_lindbladian_closed(lind, dataclasses.replace(pert, fs=one_column)).cp_superop
    d = dfs.d
    units = np.arange(d * d)
    reads_other = (units % d != 0) | (units // d != 0)
    assert not cp[:, reads_other].any()
    assert cp[:, 0].any()


def test_three_level_routes_match(three_level):
    lind, pert = three_level
    gen = effective_lindbladian_general(lind, pert)
    closed = effective_to_superop(effective_lindbladian_closed(lind, pert))
    assert frob(gen - closed) <= 1e-10 * max(frob(gen), 1.0)


@pytest.mark.parametrize("d, n, n_jumps", [(2, 1, 1), (4, 16, 5)], ids=["D3", "D20"])
def test_routes_return_the_dfs_block(d, n, n_jumps):
    lind, pert = random_structured_instance(d, n, n_jumps, 3)
    eff = effective_lindbladian_closed(lind, pert)
    for block in (effective_lindbladian_general(lind, pert), effective_to_superop(eff),
                  eff.cp_superop):
        assert block.shape == (d * d, d * d)


def test_extra_zero_jump_opens_new_channel():
    lind, pert = random_structured_instance(2, 3, 1, 30, extra_zero_jump=True)
    assert len(lind.jumps) == 2
    assert frob(lind.jumps[-1]) == 0.0
    assert frob(pert.fs[-1]) > 0
    rep = verify_equivalence(lind, pert)
    assert rep.passed


def test_defective_k_requires_two_decaying_levels():
    with pytest.raises(ValueError, match="n == 2"):
        random_structured_instance(2, 3, 1, 0, defective_k=True)
