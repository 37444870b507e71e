import numpy as np
import pytest

from ejof.effective import (
    Perturbation,
    Study,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    random_structured_instance,
    verify_equivalence,
)
from ejof.lindblad import assemble_lindbladian, structured_lindbladian
from ejof.operators import DfsProjector, dagger, four_corners, frob
from ejof.scenarios import (
    PARAM_SPECS,
    ThreeLevelParams,
    build_scenario,
    cancellation_check,
    coherent_cancellation_drive,
    orthogonality_residual,
    pauli_lowering_targets,
    random_orthogonal_family,
    surjectivity_residual,
    three_level_system,
    universal_dissipation,
)
from oracles import (
    coherent_drive_per_jump,
    generalized_three_level_perturbation,
    orthogonality_per_pair,
    surjectivity_per_jump,
)


def three_level_closed_jump(delta, Gamma, gamma):
    """Independent closed form for the effective jump of the driven Lambda system, on the DFS block."""
    out = np.zeros((2, 2), dtype=complex)
    out[0, 1] = np.sqrt(gamma) * delta / (delta - 0.5j * Gamma)
    return out


def test_params_validate():
    with pytest.raises(ValueError, match="Gamma"):
        ThreeLevelParams(delta=1.0, Gamma=0.0, gamma=0.1)
    with pytest.raises(ValueError, match="gamma"):
        ThreeLevelParams(delta=1.0, Gamma=1.0, gamma=-0.1)


def test_three_level_effective_jump_exact_value():
    lind, pert = three_level_system(ThreeLevelParams(delta=0.1, Gamma=0.2, gamma=0.01))
    eff = effective_lindbladian_closed(lind, pert)
    # delta/(delta - i*Gamma/2) with delta = Gamma/2 gives (1 + i)/2
    expected = np.sqrt(0.01) * (0.5 + 0.5j)
    assert abs(eff.jumps_eff[0][0, 1] - expected) < 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_three_level_effective_jump_formula(seed):
    rng = np.random.default_rng(seed)
    delta = float(rng.uniform(0.1, 5.0))
    Gamma = float(rng.uniform(0.5, 5.0))
    gamma = float(rng.uniform(0.001, 0.2))
    lind, pert = three_level_system(ThreeLevelParams(delta=delta, Gamma=Gamma, gamma=gamma))
    eff = effective_lindbladian_closed(lind, pert)
    want = three_level_closed_jump(delta, Gamma, gamma)
    assert frob(eff.jumps_eff[0] - want) <= 1e-11 * frob(want)
    # the drive also imprints a light shift on |1>, nothing anywhere else
    shift = 0.25 * Gamma * gamma * delta / (delta ** 2 + Gamma ** 2 / 4)
    want_h = np.zeros((2, 2))
    want_h[1, 1] = shift
    assert frob(eff.h_eff - want_h) <= 1e-11 * shift
    assert frob(eff.cp_superop) < 1e-13  # deformation has no detectable corner


def test_three_level_dark_on_resonance():
    lind, pert = three_level_system(ThreeLevelParams(delta=0.0, Gamma=2.0, gamma=0.05))
    eff = effective_lindbladian_closed(lind, pert)
    assert frob(eff.jumps_eff[0]) <= 1e-12
    gen = effective_lindbladian_general(lind, pert)
    assert frob(gen) <= 1e-12


def test_three_level_large_detuning_recovers_bare_jump():
    # delta >> Gamma turns the dressed jump back into sqrt(gamma)|0><1|
    lind, pert = three_level_system(ThreeLevelParams(delta=100.0, Gamma=1.0, gamma=0.04))
    eff = effective_lindbladian_closed(lind, pert)
    bare = pert.fs[0][:2, :2]  # sqrt(gamma)|0><1| on the DFS block
    assert frob(eff.jumps_eff[0] - bare) / frob(bare) <= 0.01


@pytest.mark.parametrize("psi", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.4j)])
def test_generalized_dark_state(psi):
    lind, _ = three_level_system(ThreeLevelParams(delta=0.0, Gamma=1.5, gamma=0.02))
    pert = generalized_three_level_perturbation(psi, 0.02)
    eff = effective_lindbladian_closed(lind, pert)
    assert frob(eff.jumps_eff[0]) <= 1e-12
    assert frob(effective_lindbladian_general(lind, pert)) <= 1e-12


def test_generalized_perturbation_validates():
    with pytest.raises(ValueError, match="length-2"):
        generalized_three_level_perturbation((1.0, 0.0, 0.0), 0.1)
    with pytest.raises(ValueError, match="nonzero"):
        generalized_three_level_perturbation((0.0, 0.0), 0.1)


def test_surjectivity_residual_detects_rank_loss():
    dfs = DfsProjector.from_indices(4, [0, 1])
    good = random_orthogonal_family(2, [2], seed=3)[0][0]
    assert surjectivity_residual(good, dfs) <= 1e-10
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 2] = 1.0  # rank 1 cannot cover a 2-dimensional DFS
    assert surjectivity_residual(bad, dfs) > 0.5


def condition_families():
    """Jump families for the stacked condition checks: orthogonal draws, then two broken ones."""
    families = [random_orthogonal_family(d, blocks, seed)
                for d, blocks, seed in ((2, [2, 2], 1), (2, [2, 3, 2], 2), (3, [3, 4], 3), (1, [1], 4))]
    jumps, dfs = random_orthogonal_family(2, [2, 2], seed=5)
    overlapping = np.array(jumps)
    overlapping[1, :2, 3:5] = overlapping[0, :2, 2:4]  # the second jump also reads the first block
    rank_one = np.array(jumps)
    rank_one[0] = 0.0
    rank_one[0, 0, 2] = 1.0  # rank 1 cannot cover the 2-dimensional DFS
    return families + [(overlapping, dfs), (rank_one, dfs)]


@pytest.mark.parametrize("case", range(6))
def test_stacked_conditions_are_the_per_jump_and_per_pair_oracles(case):
    jumps, dfs = condition_families()[case]
    stack = np.array(jumps)
    surj = surjectivity_residual(stack, dfs)
    assert surj == surjectivity_per_jump(jumps, dfs)
    assert all(type(r) is float for r in surj)
    assert surjectivity_residual(stack[0], dfs) == surj[0]
    assert orthogonality_residual(stack) == orthogonality_per_pair(jumps)
    if case == 4:
        assert orthogonality_residual(stack) > 0.1
    if case == 5:
        assert surj[0] > 0.5


def test_coherent_drive_takes_one_pseudo_inverse(monkeypatch):
    lind, dfs = coherent_test_system(2)
    fs = random_deformations(lind.jumps, dfs, 22)
    calls = []
    original = np.linalg.pinv

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting)
    coherent_cancellation_drive(lind, fs, cancel_induced_hamiltonian=True)
    assert calls == [lind.jumps.shape]


@pytest.mark.parametrize("seed", range(3))
def test_coherent_drive_is_the_per_jump_oracle(seed):
    lind, dfs = coherent_test_system(seed)
    fs = random_deformations(lind.jumps, dfs, seed + 40)
    pert = coherent_cancellation_drive(lind, fs)
    assert pert.v.tobytes() == coherent_drive_per_jump(lind, fs).tobytes()
    np.testing.assert_array_equal(pert.fs, fs)


def test_random_surjective_jump_needs_room():
    with pytest.raises(ValueError, match="at least the DFS dimension"):
        random_orthogonal_family(3, [2], seed=0)


def test_orthogonal_family_is_exactly_orthogonal():
    jumps, dfs = random_orthogonal_family(2, [2, 2, 3], seed=9)
    assert len(jumps) == 3
    assert dfs.dim == 2 + 7
    assert orthogonality_residual(jumps) == 0.0
    for f in jumps:
        assert surjectivity_residual(f, dfs) <= 1e-10


def test_orthogonal_family_validates_blocks():
    with pytest.raises(ValueError, match="at least the DFS dimension"):
        random_orthogonal_family(2, [1, 2], seed=0)
    with pytest.raises(ValueError, match="exceed"):
        random_orthogonal_family(2, [2, 2], seed=0, total_decaying=3)


def zero_hamiltonian_check(jumps, fs, dfs):
    """cancellation_check on the H = 0 generator of the jumps and the V = 0 perturbation fs."""
    zero = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    return cancellation_check(Study(structured_lindbladian(zero, jumps, dfs),
                                    Perturbation(v=zero, fs=tuple(fs))))


def strip_ll(f, dfs):
    return f - four_corners(f, dfs).ll


def random_deformations(jumps, dfs, seed, scale=1e-2):
    rng = np.random.default_rng(seed)
    dim = dfs.dim
    out = []
    for _ in jumps:
        f = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        out.append(strip_ll(f, dfs))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_cancellation_holds_under_conditions(seed):
    jumps, dfs = random_orthogonal_family(2, [2, 2], seed=seed)
    fs = random_deformations(jumps, dfs, seed + 50)
    rep = zero_hamiltonian_check(jumps, fs, dfs)
    assert rep.conditions_met
    assert rep.cancelled
    assert rep.l_eff_norm <= 1e-10 * rep.pert_norm ** 2
    assert max(rep.f_eff_norms) <= 1e-10 * rep.pert_norm


def test_cancellation_fails_with_detectable_corner():
    jumps, dfs = random_orthogonal_family(2, [2, 2], seed=2)
    rng = np.random.default_rng(77)
    dim = dfs.dim
    fs = [
        1e-2 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        for _ in jumps
    ]  # ll corners kept
    rep = zero_hamiltonian_check(jumps, fs, dfs)
    assert not rep.conditions_met
    assert any(r > 1e-9 for r in rep.f_ll_norms)
    assert not rep.cancelled
    assert rep.l_eff_norm > 1e-6


def test_cancellation_fails_with_overlapping_jumps():
    # two jumps addressing the same decaying block violate orthogonality
    dfs = DfsProjector.from_indices(4, [0, 1])
    f1 = random_orthogonal_family(2, [2], seed=5)[0][0]
    f2 = random_orthogonal_family(2, [2], seed=6)[0][0]
    rep = zero_hamiltonian_check(
        [f1, f2], random_deformations([f1, f2], dfs, 8), dfs
    )
    assert rep.orthogonality > 1e-9
    assert not rep.conditions_met
    assert rep.l_eff_norm > 1e-6


def test_cancellation_hypotheses_include_zero_h_and_v():
    jumps, dfs = random_orthogonal_family(2, [2, 2], seed=1)
    fs = tuple(random_deformations(jumps, dfs, 51))
    zero = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    lind = structured_lindbladian(zero, jumps, dfs)
    assert cancellation_check(Study(lind, Perturbation(v=zero, fs=fs))).conditions_met
    h = zero.copy()
    h[2:, 2:] = 0.3 * np.eye(4)  # a decaying-block Hamiltonian
    with_h = cancellation_check(Study(structured_lindbladian(h, jumps, dfs),
                                      Perturbation(v=zero, fs=fs)))
    v = zero.copy()
    v[0, 0] = 1e-3
    with_v = cancellation_check(Study(lind, Perturbation(v=v, fs=fs)))
    assert not with_h.conditions_met
    assert not with_v.conditions_met
    assert with_h.surjectivity == with_v.surjectivity


def coherent_test_system(seed):
    """Orthogonal family plus a decaying-block Hamiltonian with lr off-diagonals."""
    jumps, dfs = random_orthogonal_family(2, [2, 2], seed=seed)
    rng = np.random.default_rng(seed + 1000)
    h = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    block = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h[2:, 2:] = (block + dagger(block)) / 2
    return structured_lindbladian(h, jumps, dfs), dfs


@pytest.mark.parametrize("seed", range(4))
def test_coherent_drive_kills_effective_jumps(seed):
    lind, dfs = coherent_test_system(seed)
    # the decaying Hamiltonian mixes the blocks, so cancellation is not generic
    assert frob(four_corners(lind.h, dfs).lr) > 0.1
    fs = random_deformations(lind.jumps, dfs, seed + 20)
    pert = coherent_cancellation_drive(lind, fs)
    assert frob(pert.v - dagger(pert.v)) < 1e-13
    eff = effective_lindbladian_closed(lind, pert)
    assert max(frob(f) for f in eff.jumps_eff) <= 1e-11
    # without the counter-term a Stark-type DFS Hamiltonian survives
    assert frob(eff.h_eff) > 1e-8


def test_coherent_drive_counterterm_zeroes_generator():
    lind, dfs = coherent_test_system(7)
    fs = random_deformations(lind.jumps, dfs, 27)
    pert = coherent_cancellation_drive(lind, fs, cancel_induced_hamiltonian=True)
    gen = effective_lindbladian_general(lind, pert)
    assert frob(gen) <= 1e-10 * pert.norm() ** 2
    eff = effective_lindbladian_closed(lind, pert)
    assert frob(eff.h_eff) <= 1e-11
    assert max(frob(f) for f in eff.jumps_eff) <= 1e-11


def test_coherent_drive_validates_conditions():
    lind, _ = three_level_system(ThreeLevelParams(delta=1.0, Gamma=1.0, gamma=0.1))
    # the single three-level jump is rank 1, not surjective on the qubit DFS
    with pytest.raises(ValueError, match="surjectivity"):
        coherent_cancellation_drive(lind, [np.zeros((3, 3))])


def test_coherent_drive_rejects_detectable_deformation():
    lind, dfs = coherent_test_system(3)
    bad = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    bad[2, 0] = 1e-2  # maps the DFS into the decaying block
    with pytest.raises(ValueError, match="detectable"):
        coherent_cancellation_drive(lind, [bad, np.zeros_like(bad)])


def test_coherent_drive_counts_deformations():
    lind, dfs = coherent_test_system(4)
    with pytest.raises(ValueError, match="deformations for"):
        coherent_cancellation_drive(lind, [np.zeros((dfs.dim, dfs.dim))])


@pytest.mark.parametrize("seed", range(5))
def test_universal_dissipation_hits_target(seed):
    lind, _ = random_structured_instance(2, 3, 3, seed + 200)
    assert frob(four_corners(lind.h, lind.dfs).lr) > 0.1
    dfs = lind.dfs
    targets = pauli_lowering_targets(0.05, dfs.dim)
    rng = np.random.default_rng(seed)
    th = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    th[:2, :2] = 0.05 * (blk + dagger(blk)) / 2
    pert = universal_dissipation(lind, th, targets)
    got = effective_lindbladian_general(lind, pert)
    want_full = assemble_lindbladian(th[:2, :2], [t[:2, :2] for t in targets])
    assert frob(got - want_full) <= 1e-9 * max(frob(want_full), 1.0)


def test_universal_dissipation_validates_targets():
    lind, _ = random_structured_instance(2, 2, 1, 77)
    dim = lind.dim
    bad = np.zeros((dim, dim), dtype=complex)
    bad[0, 2] = 1.0
    bad = bad + dagger(bad)
    with pytest.raises(ValueError, match="supported on the DFS"):
        universal_dissipation(lind, bad, [])
    with pytest.raises(ValueError, match="target jump 0"):
        universal_dissipation(lind, np.zeros((dim, dim)), [bad])
    with pytest.raises(ValueError, match="only"):
        universal_dissipation(
            lind, np.zeros((dim, dim)), pauli_lowering_targets(0.1, dim)
        )


def test_universal_deformations_are_one_padded_array():
    lind, _ = random_structured_instance(2, 3, 4, 12)
    targets = pauli_lowering_targets(0.1, lind.dim)
    pert = universal_dissipation(lind, np.zeros((lind.dim, lind.dim)), targets)
    assert isinstance(pert.fs, np.ndarray) and pert.fs.shape == lind.jumps.shape
    np.testing.assert_array_equal(pert.fs[:3], np.array(targets))
    assert not pert.fs[3].any()


def test_universal_dissipation_names_the_first_unsupported_target():
    lind, _ = random_structured_instance(2, 2, 3, 77)
    good = pauli_lowering_targets(0.1, lind.dim)[0]
    bad = np.zeros((lind.dim, lind.dim), dtype=complex)
    bad[0, 2] = 1.0
    with pytest.raises(ValueError, match="^target jump 1 must be supported on the DFS corner$"):
        universal_dissipation(lind, np.zeros((lind.dim, lind.dim)), [good, bad, bad])


@pytest.mark.parametrize("name", list(PARAM_SPECS))
def test_scenario_routes_run_when_details_or_verdicts_are_first_read(name):
    # evolve and verify read only the bundle's study, so building it runs no route.
    routes = {"general", "closed"}
    bundle = build_scenario(name, {}, 0, 1e-9)
    assert not routes & vars(bundle.study).keys()
    details = bundle.details
    assert routes & vars(bundle.study).keys()
    assert bundle.details is details and bundle.verdicts is bundle.verdicts


def test_universal_routes_agree():
    lind, _ = random_structured_instance(2, 3, 3, 33)
    targets = pauli_lowering_targets(0.03, lind.dim)
    pert = universal_dissipation(lind, np.zeros((lind.dim, lind.dim)), targets)
    rep = verify_equivalence(lind, pert)
    assert rep.passed


def test_pauli_targets_embed():
    ts = pauli_lowering_targets(2.0, 5)
    assert len(ts) == 3
    assert ts[0][0, 1] == 2.0
    assert ts[1][0, 0] == 1.0 and ts[1][1, 1] == -1.0
    assert ts[2][1, 0] == 2.0
    for t in ts:
        assert t.shape == (5, 5)
        assert frob(t[2:, :]) == 0.0 and frob(t[:, 2:]) == 0.0
    with pytest.raises(ValueError, match="2-dimensional"):
        pauli_lowering_targets(1.0, 1)
