import dataclasses

import numpy as np
import pytest

import ejof.effective
import ejof.qec
from ejof.effective import Study, effective_lindbladian_general
from ejof.lindblad import structured_lindbladian
from ejof.operators import dagger, four_corners, frob
from oracles import (
    anticommutator_superop,
    dense_correctability,
    dense_dfs,
    kron_pauli,
    surjectivity_per_jump,
)
from ejof.qec import (
    RecoveryChannel,
    check_recovery_conditions,
    classify_miscalibration,
    correctability_check,
    hamiltonian_obstruction_demo,
    pauli_miscalibration,
    pauli_on_qubit,
    robustness_check,
)


def test_pauli_on_qubit_placement():
    x1 = pauli_on_qubit("X", 1)
    assert x1.shape == (8, 8)
    # |010> = index 2 maps to |000> = index 0
    assert x1[0, 2] == 1.0
    z0 = pauli_on_qubit("Z", 0)
    np.testing.assert_allclose(np.diag(z0), [1, 1, 1, 1, -1, -1, -1, -1])


def test_pauli_on_qubit_validates():
    with pytest.raises(ValueError, match="unknown Pauli"):
        pauli_on_qubit("Q", 0)
    with pytest.raises(ValueError, match="out of range"):
        pauli_on_qubit("X", 3)


def test_pauli_on_qubit_single_qubit_register():
    np.testing.assert_array_equal(
        pauli_on_qubit("Y", 0, n_qubits=1), np.array([[0, -1j], [1j, 0]])
    )


@pytest.mark.parametrize("kind", "IXYZ")
@pytest.mark.parametrize("n_qubits", range(1, 6))
def test_pauli_on_qubit_is_the_kronecker_chain(kind, n_qubits):
    # Exact equality, entry for entry, up to the sign of zero: adding 0.0 maps -0.0 to 0.0
    # before the byte compare, since the chain's products of -1 and 0 leave -0.0 and the
    # index map copies the -0.0 real part of Y's -1j.
    stack = pauli_on_qubit(kind, range(n_qubits), n_qubits)
    assert stack.shape == (n_qubits, 2 ** n_qubits, 2 ** n_qubits)
    for qubit in range(n_qubits):
        want = kron_pauli(kind, qubit, n_qubits)
        got = pauli_on_qubit(kind, qubit, n_qubits)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), (kind, n_qubits, qubit)
        assert (stack[qubit] + 0.0).tobytes() == (want + 0.0).tobytes(), (kind, n_qubits, qubit)


def test_pauli_on_qubit_validates_each_qubit_of_a_sequence():
    with pytest.raises(ValueError, match="out of range"):
        pauli_on_qubit("X", [0, 3])
    with pytest.raises(ValueError, match="out of range"):
        pauli_on_qubit("Z", -1)


def test_recovery_kraus_is_one_array_the_generators_share(repetition, monkeypatch):
    rec, lind = repetition
    assert isinstance(rec.kraus, np.ndarray)
    assert rec.kraus.dtype == complex and rec.kraus.shape == (3, 8, 8)
    assert np.shares_memory(rec.kraus, lind.jumps)
    built = []
    original = ejof.qec.structured_lindbladian

    def recording(h, jumps, dfs, **kwargs):
        built.append(original(h, jumps, dfs, **kwargs))
        return built[-1]

    monkeypatch.setattr(ejof.qec, "structured_lindbladian", recording)
    hamiltonian_obstruction_demo()
    bare, driven = built  # H = 0 from repetition_code_recovery, then H != 0
    assert frob(driven.h) > 0
    assert np.shares_memory(bare.jumps, driven.jumps)


def test_recovery_channel_stacks_a_sequence_and_checks_shapes(repetition):
    rec, _ = repetition
    listed = RecoveryChannel(kraus=list(rec.kraus), identity_kraus=rec.identity_kraus, code=rec.code)
    assert isinstance(listed.kraus, np.ndarray)
    np.testing.assert_array_equal(listed.kraus, rec.kraus)
    with pytest.raises(ValueError, match="recovery Kraus operator shape"):
        RecoveryChannel(kraus=[np.eye(4)], identity_kraus=rec.identity_kraus, code=rec.code)


def test_recovery_surjectivity_is_the_per_jump_oracle(repetition):
    rec, _ = repetition
    rep = check_recovery_conditions(rec)
    assert rep.surjectivity == surjectivity_per_jump(rec.kraus, rec.code)
    assert all(type(r) is float for r in rep.surjectivity + rep.jumps_into_code)


def test_recovery_channel_shape(repetition):
    rec, lind = repetition
    assert rec.dim == 8
    assert len(rec.kraus) == 3
    assert rec.code.d == 2
    assert lind.dim == 8
    # the code states are |000> and |111>
    np.testing.assert_allclose(np.diag(dense_dfs(rec.code).p).real, [1, 0, 0, 0, 0, 0, 0, 1])


def test_recovery_conditions_hold(repetition):
    rec, _ = repetition
    rep = check_recovery_conditions(rec)
    assert rep.passed, rep.failures()
    # the jumps resolve the decaying space exactly: sum F†F = Q with no residual
    w = sum(dagger(f) @ f for f in rec.kraus)
    assert frob(w - dense_dfs(rec.code).q) == 0.0
    assert rep.orthogonality == 0.0


def test_recovery_conditions_flag_broken_channel(repetition):
    rec, _ = repetition
    broken = dataclasses.replace(rec, kraus=rec.kraus[:2])  # drop one syndrome
    rep = check_recovery_conditions(broken)
    assert not rep.passed
    assert rep.decay_completeness > 0.5
    assert any("trace preserving" in msg for msg in rep.failures())


@pytest.mark.parametrize(
    "kind, nonzero",
    [
        ("X", {"detectable", "feeding", "decaying"}),
        ("Y", {"detectable", "feeding", "decaying"}),
        ("Z", {"undetectable", "decaying"}),
    ],
)
def test_miscalibration_classification(repetition, kind, nonzero):
    rec, _ = repetition
    pert = pauli_miscalibration(kind, 1e-2)
    for f in pert.fs:
        entry = classify_miscalibration(f, rec).as_dict()
        for corner, value in entry.items():
            if corner in nonzero:
                assert value > 1e-3, (kind, corner)
            else:
                assert value < 1e-15, (kind, corner)


@pytest.mark.parametrize("kind", "XYZ")
def test_classification_of_a_stack_is_per_operator(repetition, kind):
    rec, _ = repetition
    fs = pauli_miscalibration(kind, 1e-2).fs + _random_detectable(rec, 5)
    entries = classify_miscalibration(fs, rec)
    assert entries == tuple(classify_miscalibration(f, rec) for f in fs)
    for f, entry in zip(fs, entries):
        c = four_corners(f, rec.code)
        assert entry.as_dict() == {"detectable": frob(c.ll), "undetectable": frob(c.ul),
                                   "feeding": frob(c.ur), "decaying": frob(c.lr)}
    assert all(type(v) is float for e in entries for v in e.as_dict().values())


def test_x_channel_is_correctable(repetition):
    rec, _ = repetition
    eps = 1e-2
    pert = pauli_miscalibration("X", eps)
    detectable = [four_corners(f, rec.code).ll for f in pert.fs]
    verdict = correctability_check(detectable, rec)
    assert verdict.passed
    # each of the three flips is recovered with unit fidelity: c = 3 eps^2
    assert abs(verdict.constant - 3 * eps ** 2) < 1e-12


def test_y_channel_is_not_correctable(repetition):
    rec, _ = repetition
    pert = pauli_miscalibration("Y", 1e-2)
    detectable = [four_corners(f, rec.code).ll for f in pert.fs]
    verdict = correctability_check(detectable, rec)
    assert not verdict.passed
    assert verdict.residual > 0.5


def _random_detectable(rec, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(3):
        f = rng.standard_normal((rec.dim, rec.dim)) + 1j * rng.standard_normal((rec.dim, rec.dim))
        parts.append(four_corners(f, rec.code).ll)
    return parts


@pytest.mark.parametrize("kind, eps", [(k, e) for k in "XYZ" for e in (1e-2, 1.0)] + [("random", 1.0)])
def test_correctability_matches_the_kronecker_oracle(repetition, kind, eps):
    # E then R on the d^2 codespace units, against the (D^2, D^2) product of their matrices.
    rec, _ = repetition
    if kind == "random":
        detectable = _random_detectable(rec, 11)
    else:
        detectable = [four_corners(f, rec.code).ll for f in pauli_miscalibration(kind, eps).fs]
    verdict = correctability_check(detectable, rec)
    constant, residual = dense_correctability(detectable, rec)
    assert abs(verdict.constant - constant) <= 1e-13 * abs(constant)
    assert abs(verdict.residual - residual) <= 1e-13  # each is already relative
    if kind == "random":
        assert residual > 0.1


@pytest.mark.parametrize("kind", "XYZ")
def test_cp_part_is_the_feed_through_with_its_anticommutator(repetition, kind):
    rec, lind = repetition
    study = Study(lind, pauli_miscalibration(kind, 1e-2))
    eff = study.closed
    want = frob(eff.cp_superop - 0.5 * anticommutator_superop(eff.cp_adjoint_identity))
    assert robustness_check(rec, study).cp_part_norm == pytest.approx(want, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("kind", ["X", "Z"])
def test_protected_miscalibrations(repetition, kind):
    rec, lind = repetition
    eps = 1e-2
    rep = robustness_check(rec, Study(lind, pauli_miscalibration(kind, eps)))
    assert rep.structure_ok
    assert rep.hypotheses_met
    assert rep.protected
    assert rep.l_eff_norm_general <= 1e-10 * rep.pert_norm ** 2
    assert rep.l_eff_norm <= 1e-10 * rep.pert_norm ** 2


def test_y_miscalibration_breaks_protection(repetition):
    rec, lind = repetition
    eps = 1e-2
    rep = robustness_check(rec, Study(lind, pauli_miscalibration("Y", eps)))
    assert not rep.hypotheses_met
    assert not rep.correctability.passed
    assert not rep.protected
    assert rep.l_eff_norm_general > 1e-5


def test_y_miscalibration_generator_value(repetition):
    # independent closed form: the recovered Y channel acts as 3 eps^2 Z rho Z
    # on the code, so L_eff = 3 eps^2 (Z . Z - id) in the code block
    rec, lind = repetition
    eps = 1e-2
    pert = pauli_miscalibration("Y", eps)
    block = effective_lindbladian_general(lind, pert)
    z = np.diag([1.0, -1.0]).astype(complex)
    want = 3 * eps ** 2 * (np.kron(z.T, z) - np.eye(4))
    assert frob(block - want) <= 1e-12


def test_hamiltonian_defeats_hypotheses(repetition):
    rec, _ = repetition
    h = np.zeros((8, 8), dtype=complex)
    bq = dense_dfs(rec.code).basis_c
    h += 0.2 * bq @ np.eye(6) @ dagger(bq)
    lind = structured_lindbladian(h, rec.kraus, rec.code, validate=False)
    rep = robustness_check(rec, Study(lind, pauli_miscalibration("X", 1e-2)))
    assert rep.hamiltonian_norm > 0
    assert not rep.hypotheses_met


def test_obstruction_table_pattern():
    eps = 1e-2
    table = hamiltonian_obstruction_demo(eps=eps, hamiltonian_scale=0.3, seed=7)
    assert len(table.cells) == 4
    floor = 1e-10 * eps ** 2
    assert table.cell(False, False).l_eff_norm <= floor
    assert table.cell(False, True).l_eff_norm <= floor
    assert table.cell(True, False).l_eff_norm <= floor
    obstruction = table.cell(True, True)
    assert obstruction.l_eff_norm > 1e-6
    assert obstruction.drive_applied
    # both routes see the same obstruction
    assert abs(obstruction.l_eff_norm - frob(obstruction.study.closed_block)) <= 1e-9


def test_obstruction_table_runs_no_closed_route(monkeypatch):
    # The table reads the general route alone; each cell's Study runs its
    # closed route only when read.
    def refuse(*args, **kwargs):
        raise AssertionError("the obstruction table ran the closed route")

    monkeypatch.setattr(ejof.effective, "effective_lindbladian_closed", refuse)
    table = hamiltonian_obstruction_demo()
    assert all("closed" not in vars(c.study) for c in table.cells)


def test_obstruction_cell_lookup_raises():
    table = hamiltonian_obstruction_demo(eps=1e-2)
    with pytest.raises(KeyError):
        table.cell(True, None)


def test_obstruction_takes_one_drazin_solve_per_generator(count_drazin_solves, repetition):
    _, lind = repetition
    widths = count_drazin_solves(lind)
    hamiltonian_obstruction_demo()
    assert widths == [2 * lind.dfs.d] * 2
