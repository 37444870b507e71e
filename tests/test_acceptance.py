"""End-to-end acceptance suite.

Each test prints one pass/fail line for its criterion and asserts it. The
random-instance pool is shared across the equivalence, identity, projection,
and corner-insensitivity criteria.
"""

import numpy as np
import pytest

from ejof.dynamics import SweepConfig, convergence_order, drift_constants, evolve_and_compare
from ejof.effective import (
    Perturbation,
    Study,
    corner_sensitivity,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    identity_suite,
    random_structured_instance,
    verify_equivalence,
)
from ejof.lindblad import (
    assemble_lindbladian,
    asymptotic_projection_analytic,
    asymptotic_projection_limit,
    min_decay_rate,
    structured_lindbladian,
)
from ejof.operators import dagger, four_corners, frob
from ejof.qec import (
    hamiltonian_obstruction_demo,
    pauli_miscalibration,
    repetition_code_recovery,
    robustness_check,
)
from ejof.scenarios import (
    ThreeLevelParams,
    cancellation_check,
    coherent_cancellation_drive,
    pauli_lowering_targets,
    random_orthogonal_family,
    three_level_system,
    universal_dissipation,
)


def _report(number: int, description: str, ok: bool, detail: str = ""):
    word = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {word} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def instance_pool():
    """100 structured instances: d = 2, N in 2..6, 1-3 jumps, 10 defective K."""
    pool = []
    for i in range(100):
        n = 2 + i % 5
        n_jumps = 1 + i % 3
        defective = i % 10 == 0  # those indices all have n == 2
        lind, pert = random_structured_instance(2, n, n_jumps, 1000 + i, defective_k=defective)
        pool.append((lind, pert, defective))
    return pool


def test_criterion_01_three_level_closed_form():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        delta = float(rng.uniform(0.05, 4.0))
        Gamma = float(rng.uniform(0.2, 4.0))
        gamma = float(rng.uniform(1e-3, 0.3))
        lind, pert = three_level_system(ThreeLevelParams(delta=delta, Gamma=Gamma, gamma=gamma))
        eff = effective_lindbladian_closed(lind, pert)
        want = np.zeros((2, 2), dtype=complex)  # the DFS block: |0>, |1>
        want[0, 1] = np.sqrt(gamma) * delta / (delta - 0.5j * Gamma)
        worst = max(worst, frob(eff.jumps_eff[0] - want) / frob(want))
    ok = worst <= 1e-11

    lind, pert = three_level_system(ThreeLevelParams(delta=0.0, Gamma=1.0, gamma=0.1))
    dark_norm = frob(effective_lindbladian_closed(lind, pert).jumps_eff[0])
    ok = ok and dark_norm <= 1e-12

    lind, pert = three_level_system(ThreeLevelParams(delta=100.0, Gamma=1.0, gamma=0.1))
    eff = effective_lindbladian_closed(lind, pert)
    bare = pert.fs[0][:2, :2]
    detuned_rel = frob(eff.jumps_eff[0] - bare) / frob(bare)
    ok = ok and detuned_rel <= 0.01

    _report(
        1, "three-level closed form", ok,
        f"worst rel {worst:.2e}, dark norm {dark_norm:.2e}, far-detuned rel {detuned_rel:.2e}",
    )


def test_criterion_02_dual_route_equivalence(instance_pool):
    n_defective = sum(1 for _, _, d in instance_pool if d)
    worst = 0.0
    for lind, pert, _ in instance_pool:
        worst = max(worst, verify_equivalence(lind, pert).residual)
    ok = len(instance_pool) >= 100 and n_defective >= 10 and worst <= 1e-9
    _report(
        2, "dual-route equivalence", ok,
        f"{len(instance_pool)} instances, {n_defective} defective, worst rel residual {worst:.2e}",
    )


def _zero_hamiltonian_check(jumps, fs, dfs):
    """cancellation_check on the H = 0 generator of the jumps and the V = 0 perturbation fs."""
    zero = np.zeros((dfs.dim, dfs.dim), dtype=complex)
    return cancellation_check(Study(structured_lindbladian(zero, jumps, dfs),
                                    Perturbation(v=zero, fs=tuple(fs))))


def test_criterion_03_generic_cancellation():
    # blocks of size d = 2 exactly cover the decaying space, giving a unique DFS
    block_choices = ([2, 2], [2, 2, 2], [2, 2, 2, 2])
    eps = 1e-2
    n_cancelled = 0
    worst = 0.0
    for i in range(50):
        blocks = block_choices[i % len(block_choices)]
        jumps, dfs = random_orthogonal_family(2, blocks, seed=2000 + i)
        rng = np.random.default_rng(3000 + i)
        fs = []
        for _ in jumps:
            f = eps * (rng.standard_normal((dfs.dim, dfs.dim))
                       + 1j * rng.standard_normal((dfs.dim, dfs.dim)))
            fs.append(f - four_corners(f, dfs).ll)
        rep = _zero_hamiltonian_check(jumps, fs, dfs)
        if rep.conditions_met and rep.l_eff_norm <= 1e-10 * rep.pert_norm ** 2:
            n_cancelled += 1
        worst = max(worst, rep.l_eff_norm / rep.pert_norm ** 2)

    n_violations = 0
    for i in range(3):  # detectable (ll) corners kept
        jumps, dfs = random_orthogonal_family(2, [2, 2], seed=4000 + i)
        rng = np.random.default_rng(5000 + i)
        fs = [
            eps * (rng.standard_normal((dfs.dim, dfs.dim))
                   + 1j * rng.standard_normal((dfs.dim, dfs.dim)))
            for _ in jumps
        ]
        rep = _zero_hamiltonian_check(jumps, fs, dfs)
        if not rep.conditions_met and rep.l_eff_norm > 1e-6:
            n_violations += 1
    for i in range(3):  # two jumps on one block break orthogonality
        jumps, dfs = random_orthogonal_family(2, [2], seed=6000 + i)
        second = np.zeros_like(jumps[0])
        rng = np.random.default_rng(6100 + i)
        second[:2, 2:] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        family = [jumps[0], second]
        rng2 = np.random.default_rng(6200 + i)
        fs = []
        for _ in family:
            f = eps * (rng2.standard_normal((dfs.dim, dfs.dim))
                       + 1j * rng2.standard_normal((dfs.dim, dfs.dim)))
            fs.append(f - four_corners(f, dfs).ll)
        rep = _zero_hamiltonian_check(family, fs, dfs)
        if not rep.conditions_met and rep.l_eff_norm > 1e-6:
            n_violations += 1

    ok = n_cancelled >= 50 and worst <= 1e-10 and n_violations >= 5
    _report(
        3, "generic cancellation", ok,
        f"{n_cancelled}/50 cancelled (worst scaled norm {worst:.2e}), "
        f"{n_violations}/6 violations detected",
    )


def test_criterion_04_coherent_cancellation():
    worst = 0.0
    n_checked = 0
    for i in range(20):
        jumps, dfs = random_orthogonal_family(2, [2, 2], seed=7000 + i)
        rng = np.random.default_rng(7100 + i)
        h = np.zeros((dfs.dim, dfs.dim), dtype=complex)
        block = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h[2:, 2:] = (block + dagger(block)) / 2
        lind = structured_lindbladian(h, jumps, dfs)
        assert frob(four_corners(h, dfs).lr) > 0.1
        fs = []
        for _ in jumps:
            f = 1e-2 * (rng.standard_normal((dfs.dim, dfs.dim))
                        + 1j * rng.standard_normal((dfs.dim, dfs.dim)))
            fs.append(f - four_corners(f, dfs).ll)
        pert = coherent_cancellation_drive(lind, fs)
        eff = effective_lindbladian_closed(lind, pert)
        worst = max(worst, max(frob(f) for f in eff.jumps_eff))
        n_checked += 1
    ok = n_checked >= 20 and worst <= 1e-11
    _report(
        4, "coherent cancellation", ok,
        f"{n_checked} instances with mixing Hamiltonian, worst effective-jump norm {worst:.2e}",
    )


def test_criterion_05_universal_dissipation():
    worst = 0.0
    for seed in range(5):
        lind, _ = random_structured_instance(2, 3, 3, 8000 + seed)
        dfs = lind.dfs
        rng = np.random.default_rng(8100 + seed)
        targets = pauli_lowering_targets(0.05, dfs.dim)
        th = np.zeros((dfs.dim, dfs.dim), dtype=complex)
        blk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        th[:2, :2] = 0.05 * (blk + dagger(blk)) / 2
        pert = universal_dissipation(lind, th, targets)
        got = effective_lindbladian_general(lind, pert)
        want = assemble_lindbladian(th[:2, :2], [t[:2, :2] for t in targets])
        worst = max(worst, frob(got - want) / frob(want))
    ok = worst <= 1e-9
    _report(5, "universal dissipation", ok, f"worst rel residual {worst:.2e}")


def test_criterion_06_qec_robustness():
    rec, lind = repetition_code_recovery()
    eps = 1e-2
    rep_x = robustness_check(rec, Study(lind, pauli_miscalibration("X", eps)))
    rep_z = robustness_check(rec, Study(lind, pauli_miscalibration("Z", eps)))
    protected_ok = (
        rep_x.hypotheses_met and rep_x.l_eff_norm_general <= 1e-10 * eps ** 2
        and rep_z.hypotheses_met and rep_z.l_eff_norm_general <= 1e-10 * eps ** 2
    )
    rep_y = robustness_check(rec, Study(lind, pauli_miscalibration("Y", eps)))
    y_nonzero = (not rep_y.hypotheses_met) and rep_y.l_eff_norm_general > 1e-6

    table = hamiltonian_obstruction_demo(eps=eps, hamiltonian_scale=0.3, seed=7)
    floor = 1e-10 * eps ** 2
    # nonzero generator only in the (H != 0, f_ll != 0) cell
    pattern_ok = (
        table.cell(False, False).l_eff_norm <= floor
        and table.cell(False, True).l_eff_norm <= floor
        and table.cell(True, False).l_eff_norm <= floor
        and table.cell(True, True).l_eff_norm > 1e-6
    )
    ok = protected_ok and y_nonzero and pattern_ok
    _report(
        6, "continuous QEC robustness", ok,
        f"X/Z norms {rep_x.l_eff_norm_general:.2e}/{rep_z.l_eff_norm_general:.2e}, "
        f"Y norm {rep_y.l_eff_norm_general:.2e}, "
        f"obstruction cell {table.cell(True, True).l_eff_norm:.2e}",
    )


def test_criterion_07_identity_suite(instance_pool):
    worst = 0.0
    for lind, pert, _ in instance_pool:
        worst = max(worst, max(identity_suite(lind, pert).as_dict().values()))
    ok = worst <= 1e-11
    _report(7, "structural identity suite", ok, f"worst residual {worst:.2e}")


def test_criterion_08_projection_triple_agreement(instance_pool):
    worst = 0.0
    for lind, _, _ in instance_pool:
        p_drazin = lind.asymptotic_projection
        p_analytic = asymptotic_projection_analytic(lind)
        t = 40.0 / min_decay_rate(lind.superop)
        p_limit = asymptotic_projection_limit(lind.superop, t=t)
        worst = max(
            worst,
            frob(p_drazin - p_analytic),
            frob(p_drazin - p_limit),
            frob(p_analytic - p_limit),
        )
    ok = worst <= 1e-8
    _report(8, "asymptotic projection triple agreement", ok, f"worst pairwise {worst:.2e}")


def test_criterion_09_dynamics_convergence():
    p0 = np.zeros((3, 3), dtype=complex)
    p0[0, 0] = 1.0
    plus = np.zeros((3, 3), dtype=complex)
    plus[:2, :2] = 0.5
    states3 = (p0, plus)

    lind, pert = three_level_system(ThreeLevelParams(delta=2.0, Gamma=2.0, gamma=1.0))
    cfg = SweepConfig(epsilons=(0.04, 0.02, 0.01), taus=(0.5, 1.0, 2.0, 5.0),
                      initial_states=states3)
    fit = convergence_order(evolve_and_compare(lind, pert, cfg))
    conv_ok = fit.monotone and fit.slope >= 0.7

    lind, pert = three_level_system(ThreeLevelParams(delta=0.0, Gamma=2.0, gamma=1.0))
    consts = list(drift_constants(evolve_and_compare(lind, pert, cfg)).values())
    spread_dark = max(consts) / min(consts)

    rec, lind_q = repetition_code_recovery()
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    plus_q = np.zeros((8, 8), dtype=complex)
    plus_q[0, 0] = plus_q[0, 7] = plus_q[7, 0] = plus_q[7, 7] = 0.5
    cfg_q = SweepConfig(epsilons=(0.04, 0.02, 0.01), taus=(0.5, 1.0, 2.0, 5.0),
                        initial_states=(rho0, plus_q))
    consts_q = list(drift_constants(
        evolve_and_compare(lind_q, pauli_miscalibration("Z", 1.0), cfg_q)
    ).values())
    spread_qec = max(consts_q) / min(consts_q)

    drift_ok = spread_dark <= 1.5 and spread_qec <= 1.5
    ok = conv_ok and drift_ok
    _report(
        9, "dynamics convergence", ok,
        f"slope {fit.slope:.3f} monotone {fit.monotone}, "
        f"drift spreads {spread_dark:.3f} (dark) / {spread_qec:.3f} (recovery)",
    )


def test_criterion_10_corner_insensitivity(instance_pool):
    worst = 0.0
    for lind, pert, _ in instance_pool:
        rep = corner_sensitivity(lind, pert)
        worst = max(worst, rep.v_lr_delta, rep.f_lr_delta, rep.f_ur_delta)
    ok = worst <= 1e-10
    _report(10, "inert-corner insensitivity", ok, f"worst relative change {worst:.2e}")
