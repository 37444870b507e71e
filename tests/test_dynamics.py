import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ejof import dynamics
from ejof.cli import default_states
from ejof.dynamics import (
    SweepConfig,
    convergence_order,
    drift_constants,
    evolve_and_compare,
    validate_initial_state,
)
from ejof.effective import (
    Perturbation,
    _general_blocks,
    effective_lindbladian_general,
    perturbed_superop,
    random_structured_instance,
)
from ejof.lindblad import slowest_decay_rate, structured_lindbladian
from ejof.operators import DfsProjector, dagger, frob, gksl_superop, projector_frame
from ejof.qec import pauli_miscalibration, repetition_code_recovery
from ejof.scenarios import ThreeLevelParams, build_scenario, three_level_system
from oracles import dense_dfs, devectorize, embed_superop, trace_distance, vectorize


def dfs_states_three_level():
    p0 = np.zeros((3, 3), dtype=complex)
    p0[0, 0] = 1.0
    plus = np.zeros((3, 3), dtype=complex)
    plus[:2, :2] = 0.5
    return (p0, plus)


def test_config_validates():
    states = dfs_states_three_level()
    with pytest.raises(ValueError, match="mode"):
        SweepConfig(epsilons=(0.1,), taus=(1.0,), initial_states=states, mode="cubic")
    with pytest.raises(ValueError, match="epsilons"):
        SweepConfig(epsilons=(), taus=(1.0,), initial_states=states)
    with pytest.raises(ValueError, match="epsilons"):
        SweepConfig(epsilons=(0.1, -0.1), taus=(1.0,), initial_states=states)
    with pytest.raises(ValueError, match="taus"):
        SweepConfig(epsilons=(0.1,), taus=(-1.0,), initial_states=states)
    for grid in ({"epsilons": (0.04, 0.04), "taus": (1.0,)},
                 {"epsilons": (0.04, 0.02, 0.04), "taus": (1.0,)},
                 {"epsilons": (0.1,), "taus": (1.0, 2.0, 1.0)}):
        with pytest.raises(ValueError, match="must be distinct"):
            SweepConfig(initial_states=states, **grid)
    cfg = SweepConfig(epsilons=(0.1,), taus=(0.0, 1.0), initial_states=states)
    assert cfg.order == 2
    assert SweepConfig(
        epsilons=(0.1,), taus=(1.0,), initial_states=states, mode="first-order"
    ).order == 1


def test_validate_initial_state(three_level):
    lind, _ = three_level
    good = np.zeros((3, 3), dtype=complex)
    good[0, 0] = 1.0
    validate_initial_state(good, lind.dfs)
    with pytest.raises(ValueError, match="trace"):
        validate_initial_state(2 * good, lind.dfs)
    with pytest.raises(ValueError, match="positive"):
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        validate_initial_state(bad, lind.dfs)
    with pytest.raises(ValueError, match="DFS"):
        validate_initial_state(np.diag([0.5, 0.0, 0.5]).astype(complex), lind.dfs)
    # (rho + rho†)/2 of this rho is PSD, but rho is not Hermitian.
    skew = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"not Hermitian \(residual 1.414e\+00\)"):
        validate_initial_state(skew, lind.dfs)


def three_level_sweep(delta, epsilons=(0.04, 0.02, 0.01), taus=(0.5, 1.0, 2.0, 5.0)):
    # the base system fixes gamma = 1 so the scaled deformation is eps * f
    lind, pert = three_level_system(ThreeLevelParams(delta=delta, Gamma=2.0, gamma=1.0))
    cfg = SweepConfig(epsilons=epsilons, taus=taus, initial_states=dfs_states_three_level())
    return evolve_and_compare(lind, pert, cfg)


def test_sweep_takes_one_drazin_solve_for_all_epsilons(count_drazin_solves):
    lind, pert = three_level_system(ThreeLevelParams(delta=2.0, Gamma=2.0, gamma=1.0))
    widths = count_drazin_solves(lind)
    cfg = SweepConfig(epsilons=(0.04, 0.02, 0.01), taus=(1.0,),
                      initial_states=dfs_states_three_level())
    evolve_and_compare(lind, pert, cfg)
    assert widths == [3 * lind.dfs.d]


def test_three_level_sweep_converges_at_second_order():
    table = three_level_sweep(delta=2.0)
    fit = convergence_order(table)
    assert fit.monotone
    assert fit.slope >= 0.7
    # the neglected terms are third order on the rescaled clock: slope near 2
    assert 1.7 <= fit.slope <= 2.3
    for tau, s in fit.per_tau.items():
        assert s >= 0.7, (tau, s)


def test_sweep_cells_are_physical():
    table = three_level_sweep(delta=2.0, epsilons=(0.04, 0.02), taus=(1.0, 5.0))
    for row in table.rows():
        assert row["trace_error_full"] < 1e-12
        assert row["trace_error_eff"] < 1e-12
        assert row["min_eig_full"] > -1e-12
        assert row["min_eig_eff"] > -1e-12
        assert 0.0 <= row["trace_distance"] <= 1.0


def test_table_accessors():
    table = three_level_sweep(delta=2.0, epsilons=(0.04, 0.02), taus=(1.0, 5.0))
    assert table.epsilons.tolist() == [0.04, 0.02]
    assert table.taus.tolist() == [1.0, 5.0]
    for key in dynamics.CELL_KEYS:
        assert getattr(table, key).shape == (2, 2, 2)  # (eps, tau, state)
    rows = table.rows()
    assert [(r["epsilon"], r["tau"], r["state_index"]) for r in rows] == [
        (eps, tau, s) for eps in (0.04, 0.02) for tau in (1.0, 5.0) for s in range(2)]
    for (e, t, s), row in zip(np.ndindex(table.trace_distance.shape), rows):
        for key in dynamics.CELL_KEYS:
            assert row[key] == getattr(table, key)[e, t, s]
    fit = convergence_order(table)
    worst = table.trace_distance.max(axis=(1, 2))
    assert fit.max_distances == {0.04: worst[0], 0.02: worst[1]}


def test_ascending_epsilons_fit_as_descending_ones():
    down = three_level_sweep(delta=2.0, epsilons=(0.04, 0.02, 0.01))
    up = three_level_sweep(delta=2.0, epsilons=(0.01, 0.02, 0.04))
    assert np.array_equal(up.trace_distance, down.trace_distance[::-1])
    assert convergence_order(up) == convergence_order(down)
    assert list(convergence_order(up).max_distances) == [0.04, 0.02, 0.01]
    assert drift_constants(up) == drift_constants(down)
    assert list(drift_constants(up)) == [0.04, 0.02, 0.01]


def test_convergence_needs_two_epsilons():
    table = three_level_sweep(delta=2.0, epsilons=(0.04,), taus=(1.0,))
    with pytest.raises(ValueError, match="two epsilon"):
        convergence_order(table)


def test_dark_drive_has_bounded_drift():
    # on resonance the effective generator vanishes; the raw state never
    # strays further than C * eps * (1 + tau) with C independent of eps
    table = three_level_sweep(delta=0.0)
    consts = drift_constants(table)
    values = list(consts.values())
    assert max(values) / min(values) <= 1.5
    assert max(values) < 1.0
    # the projected comparison against the frozen state decays at second order
    fit = convergence_order(table)
    assert fit.monotone
    assert fit.slope >= 1.7
    assert table.trace_distance[table.epsilons == 0.01].max() < 1e-4


def qec_z_sweep(epsilons=(0.04, 0.02, 0.01), taus=(0.5, 1.0, 2.0, 5.0)):
    _, lind = repetition_code_recovery()
    pert = pauli_miscalibration("Z", 1.0)
    zero = np.zeros((8, 8), dtype=complex)
    rho0 = zero.copy()
    rho0[0, 0] = 1.0
    plus = zero.copy()
    plus[0, 0] = plus[0, 7] = plus[7, 0] = plus[7, 7] = 0.5
    cfg = SweepConfig(epsilons=epsilons, taus=taus, initial_states=(rho0, plus))
    return evolve_and_compare(lind, pert, cfg)


def test_qec_z_sweep_protected():
    table = qec_z_sweep()
    consts = drift_constants(table)
    values = list(consts.values())
    assert max(values) / min(values) <= 1.5
    fit = convergence_order(table)
    assert fit.monotone
    assert fit.slope >= 1.7
    assert table.trace_distance[table.epsilons == 0.01].max() < 1e-3


def test_secular_decay_shows_up_in_drift():
    # off resonance the drive leaks: the effective decay rate is eps^2, so on
    # the rescaled clock the drift stays O(1) and the fitted constant grows
    # like 1/eps instead of saturating
    table = three_level_sweep(delta=1.0, epsilons=(0.04, 0.01), taus=(5.0,))
    consts = drift_constants(table)
    assert consts[0.01] / consts[0.04] > 2.0


def _rotated_instance():
    # A rotated system read back in its projector's eigenbasis: dense inside
    # each block, with round-off leakage between them.
    lind, pert = random_structured_instance(2, 3, 2, 11)
    u, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
    frame, rank = projector_frame(u @ dense_dfs(lind.dfs).p @ dagger(u))

    def turn(a):
        return dagger(frame) @ (u @ a @ dagger(u)) @ frame

    dfs = DfsProjector.from_indices(5, range(rank))
    lind = structured_lindbladian(turn(lind.h), [turn(f) for f in lind.jumps], dfs)
    return lind, Perturbation(v=turn(pert.v), fs=tuple(turn(f) for f in pert.fs))


@pytest.mark.parametrize("make", [
    lambda: three_level_system(ThreeLevelParams(delta=1.0, Gamma=2.0, gamma=0.04)),
    lambda: random_structured_instance(2, 3, 2, 11),
    _rotated_instance,
], ids=["three-level", "random", "rotated-dfs"])
def test_block_propagation_matches_embedded_expm(make):
    lind, pert = make()
    dfs = lind.dfs
    _, _, basis, basis_c = dense_dfs(dfs)
    block = effective_lindbladian_general(lind, pert)
    # A DFS state with 1e-10 weight off the DFS corner, which validation allows.
    b0, b1, q = basis[:, 0], basis[:, 1], basis_c[:, 0]
    rho = 0.6 * np.outer(b0, b0.conj()) + 0.4 * np.outer(b1, b1.conj())
    rho = rho + 0.2 * (np.outer(b0, b1.conj()) + np.outer(b1, b0.conj()))
    rho = rho + 1e-10 * (np.outer(b0, q.conj()) + np.outer(q, b0.conj()))
    validate_initial_state(rho, dfs)
    for t in (0.0, 1.0, 30.0):
        want = devectorize(expm(t * embed_superop(block, basis)) @ vectorize(rho))
        got = dynamics._effective_states(dynamics._expm_stack(t * block[None]), dfs.indices,
                                         np.array([rho]))[0, 0]
        assert frob(got - want) <= 1e-12


def _dense_cells(lind, pert, config):
    """The sweep cell by cell, with a dense exp(t L_full) per (eps, tau): the oracle."""
    cells = []
    scaled = [pert.scaled(eps) for eps in config.epsilons]
    blocks = [effective_lindbladian_general(lind, p) for p in scaled]
    projection = lind.asymptotic_projection
    basis = dense_dfs(lind.dfs).basis
    for eps, pert_eps, block in zip(config.epsilons, scaled, blocks):
        l_full = perturbed_superop(lind, pert_eps)
        for tau in config.taus:
            t = tau / eps ** config.order
            prop = expm(t * l_full)
            step = expm(t * block) - np.eye(block.shape[0])
            for idx, rho in enumerate(config.initial_states):
                raw = devectorize(prop @ vectorize(rho))
                full = devectorize(projection @ vectorize(raw))
                eff = rho + basis @ devectorize(
                    step @ vectorize(dagger(basis) @ rho @ basis)) @ dagger(basis)
                cells.append({
                    "epsilon": eps,
                    "tau": tau,
                    "state_index": idx,
                    "trace_distance": trace_distance(full, eff),
                    "drift": trace_distance(raw, rho),
                    "trace_error_full": abs(np.trace(full) - 1.0),
                    "trace_error_eff": abs(np.trace(eff) - 1.0),
                    "min_eig_full": float(np.min(np.linalg.eigvalsh((full + dagger(full)) / 2))),
                    "min_eig_eff": float(np.min(np.linalg.eigvalsh((eff + dagger(eff)) / 2))),
                })
    return cells


def _assert_matches_oracle(table, lind, pert, config, atol=1e-10):
    rows = table.rows()
    want = _dense_cells(lind, pert, config)
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        for key in ("epsilon", "tau", "state_index"):
            assert got[key] == ref[key]
        for key, value in ref.items():
            assert abs(got[key] - value) <= atol, (key, got, ref)


def _scenario(name):
    study = build_scenario(name, {}, 0, 1e-9).study
    return study.lind, study.pert, default_states(study.lind.dfs)


def _repetition_file():
    # The system of `ejof evolve` on a Z-miscalibrated repetition-code file.
    _, lind = repetition_code_recovery()
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    plus = np.zeros((8, 8), dtype=complex)
    plus[0, 0] = plus[0, 7] = plus[7, 0] = plus[7, 7] = 0.5
    return lind, pauli_miscalibration("Z", 1.0), (rho0, plus)


SYSTEMS = {
    "three-level": lambda: (*three_level_system(ThreeLevelParams(delta=2.0, Gamma=2.0, gamma=1.0)),
                            dfs_states_three_level()),
    "universal": lambda: _scenario("universal"),
    "cancellation": lambda: _scenario("cancellation"),
    "coherent-cancel": lambda: _scenario("coherent-cancel"),
    "repetition": _repetition_file,
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_slow_subspace_propagation_matches_dense_oracle(name):
    lind, pert, states = SYSTEMS[name]()
    config = SweepConfig(epsilons=(0.04, 0.02, 0.01), taus=(0.5, 1.0, 2.0, 5.0),
                         initial_states=states)
    table = evolve_and_compare(lind, pert, config)
    # every cell is past the horizon and every certificate holds
    for prop in table.propagation:
        assert prop.dense_cells == 0
        assert prop.rank_ratio <= dynamics.RANK_BOUND
        assert prop.invariance <= dynamics.INVARIANCE_BOUND
        assert prop.horizon == dynamics.HORIZON_FACTOR / slowest_decay_rate(lind)
    _assert_matches_oracle(table, lind, pert, config)


def test_cells_below_the_horizon_are_dense_and_counted():
    lind, pert, states = SYSTEMS["three-level"]()
    horizon = dynamics.HORIZON_FACTOR / slowest_decay_rate(lind)
    config = SweepConfig(epsilons=(0.04, 0.02, 0.01), taus=(0.0, 0.5, 1.0, 2.0),
                         initial_states=states, mode="first-order")
    table = evolve_and_compare(lind, pert, config)
    for prop in table.propagation:
        times = np.array(config.taus) / prop.epsilon
        assert prop.dense_cells == np.count_nonzero(times < horizon)
    # tau = 0 at every eps, and more at the largest eps
    assert [p.dense_cells for p in table.propagation] == [3, 2, 1]
    _assert_matches_oracle(table, lind, pert, config)


@pytest.mark.parametrize("bound", ["RANK_BOUND", "INVARIANCE_BOUND"])
def test_failed_certificate_takes_the_dense_path_for_every_cell(monkeypatch, bound):
    lind, pert, states = SYSTEMS["repetition"]()
    monkeypatch.setattr(dynamics, bound, 0.0)
    config = SweepConfig(epsilons=(0.04, 0.02), taus=(0.5, 1.0, 5.0), initial_states=states)
    table = evolve_and_compare(lind, pert, config)
    assert [p.dense_cells for p in table.propagation] == [3, 3]
    _assert_matches_oracle(table, lind, pert, config)


@pytest.mark.parametrize("mode, taus, formed", [
    ("second-order", (0.5, 1.0, 2.0, 5.0), 3),
    ("second-order", (0.0, 1.0), 3),
    ("first-order", (0.0, 0.5, 1.0, 2.0), 3),
    ("second-order", (0.0,), 0),
])
def test_dense_side_expm_calls_are_one_per_eps_plus_the_dense_cells(monkeypatch, mode, taus,
                                                                    formed):
    lind, pert, states = SYSTEMS["three-level"]()
    stacks, kernel_stacks = [], []
    kernel = dynamics._expm_stack

    def counting(a):
        stacks.append(np.shape(a))
        return expm(a)

    def counting_kernel(a):
        kernel_stacks.append(np.shape(a))
        return kernel(a)

    monkeypatch.setattr(dynamics, "expm", counting)
    monkeypatch.setattr(dynamics, "_expm_stack", counting_kernel)
    config = SweepConfig(epsilons=(0.04, 0.02, 0.01), taus=taus, initial_states=states, mode=mode)
    table = evolve_and_compare(lind, pert, config)
    # Pi is formed for each eps with a cell past the horizon, and only there
    assert sum(p.rank_ratio is not None for p in table.propagation) == formed
    dense = sum(p.dense_cells for p in table.propagation)
    # one stacked scipy call for the Pis, one for the dense cells, each only when nonempty
    side = lind.dim ** 2
    assert stacks == [(n, side, side) for n in (formed, dense) if n]
    # one Padé call: a slow cell per cell past the horizon, an effective cell per cell
    cells = len(config.epsilons) * len(taus)
    m = lind.dfs.d ** 2
    assert kernel_stacks == [(2 * cells - dense, m, m)]


def _assert_kernel_matches_scipy(a):
    got, ref = dynamics._expm_stack(a), expm(a)
    assert got.shape == a.shape
    err = np.linalg.norm(got - ref, axis=(-2, -1))
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.linalg.norm(ref, axis=(-2, -1)))), err


def _with_norm(a, norm):
    """Each slice of the stack a rescaled to the given 1-norm."""
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.floats(-6.0, 1.3), st.booleans(),
       st.integers(0, 2 ** 16))
def test_pade_kernel_matches_scipy_on_random_stacks(n, m, log_norm, upper, seed):
    # Dense and upper-triangular slices (scipy's triangular branch) with
    # 1-norms from 1e-9 to 20, several scaling counts within one stack.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    a = np.triu(a) if upper else a
    _assert_kernel_matches_scipy(_with_norm(a, 10.0 ** (log_norm - np.arange(n))))


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("lam", [0.0, -0.5, -3.0, 1.0 + 2.0j])
def test_pade_kernel_matches_scipy_on_a_jordan_block(m, lam):
    _assert_kernel_matches_scipy((lam * np.eye(m) + np.eye(m, k=1))[None])


def test_pade_kernel_is_exact_on_the_zero_matrix():
    # tau = 0 cells: exp(0) = I with no round-off, as scipy gives.
    for m in (1, 4, 9):
        assert np.array_equal(dynamics._expm_stack(np.zeros((2, m, m), dtype=complex)),
                              np.broadcast_to(np.eye(m), (2, m, m)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.floats(-6.0, 3.0), st.integers(0, 2 ** 16))
def test_pade_kernel_matches_scipy_on_dissipative_generators(dim, n_jumps, log_norm, seed):
    # GKSL generators with 1-norms from 1e-6 to 1e3: up to ten squarings.
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    jumps = rng.standard_normal((n_jumps, dim, dim)) + 1j * rng.standard_normal((n_jumps, dim, dim))
    _assert_kernel_matches_scipy(_with_norm(gksl_superop(h + dagger(h), jumps)[None],
                                            10.0 ** log_norm))


@pytest.mark.parametrize("name", SYSTEMS)
def test_batched_general_blocks_are_a_polynomial_in_eps(name):
    # L_eff(eps pert) = eps c1 + eps^2 c2 exactly (ROADMAP item 8(0)); the
    # sweep batches one scaled perturbation per eps through _general_blocks.
    lind, pert, _ = SYSTEMS[name]()
    plus, minus = _general_blocks(lind, [pert.scaled(1.0), pert.scaled(-1.0)])
    c1, c2 = (plus - minus) / 2, (plus + minus) / 2
    epsilons = (0.04, 0.02, 0.01, 1e-4)
    for eps, got in zip(epsilons, _general_blocks(lind, [pert.scaled(e) for e in epsilons])):
        want = eps * c1 + eps ** 2 * c2
        # relative to the second-order problem scale, as the routes are read
        assert frob(got - want) <= 1e-13 * max(frob(want), (eps * pert.norm()) ** 2), eps
