import dataclasses
import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ejof.dynamics
import ejof.effective
import ejof.lindblad
import ejof.operators
import ejof.qec
import ejof.scenarios
from ejof import cli
from ejof.cli import main
from ejof.operators import dagger, projector_frame
from ejof.qec import repetition_code_recovery
from oracles import (
    OrderedSchur,
    bordered_solve,
    compress_superop,
    dense_dfs,
    dfs_columns,
    perturbation_superops,
)


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix(rows):
    return [[pair(z) for z in row] for row in rows]


def unmatrix(m):
    """Inverse of :func:`matrix`."""
    return np.array([[complex(*z) for z in row] for row in m])


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def three_level_problem(tmp_path, delta=1.0, **extra):
    payload = {
        "version": 1,
        "scenario": {"name": "three-level", "delta": delta, "Gamma": 2.0, "gamma": 0.04},
    }
    payload.update(extra)
    return write_problem(tmp_path, payload)


def explicit_problem(tmp_path, **extra):
    gamma = 2.0
    h = np.zeros((3, 3), dtype=complex)
    h[2, 2] = 1.0
    f = np.zeros((3, 3), dtype=complex)
    f[0, 2] = np.sqrt(gamma)
    df = np.zeros((3, 3), dtype=complex)
    df[0, 1] = 0.2
    payload = {
        "version": 1,
        "hilbert_dim": 3,
        "dfs": [0, 1],
        "hamiltonian": matrix(h),
        "jumps": [matrix(f)],
        "perturbation": {"f": [matrix(df)]},
    }
    payload.update(extra)
    return write_problem(tmp_path, payload)


def load_report(path):
    return json.loads(path.read_text())


def test_effective_three_level(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["effective", three_level_problem(tmp_path), "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["verdicts"]["routes_agree"] is True
    assert report["verdicts"]["structure_ok"] is True
    # dressed jump entry sqrt(gamma) * delta/(delta - i Gamma/2)
    want = np.sqrt(0.04) * 1.0 / (1.0 - 1.0j)
    got = report["f_eff"][0][0][1]
    assert abs(complex(got[0], got[1]) - want) < 1e-11
    assert "pass" in capsys.readouterr().out


def test_effective_report_is_deterministic(tmp_path):
    problem = three_level_problem(tmp_path)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["effective", problem, "--out", str(out1)]) == 0
    assert main(["effective", problem, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # timing goes to stdout only, never into the report
    assert "done in" not in out1.read_text()


def test_effective_explicit_system(tmp_path):
    out = tmp_path / "report.json"
    code = main(["effective", explicit_problem(tmp_path), "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["verdicts"]["routes_agree"] is True
    assert report["equivalence"]["scaled_residual"] <= 1e-9
    assert len(report["f_eff"]) == 1


# The explicit system of the README.
README_SYSTEM = {
    "version": 1,
    "hilbert_dim": 3,
    "dfs": [0, 1],
    "hamiltonian": matrix(np.diag([0, 0, 1])),
    "jumps": [matrix([[0, 0, 1.4142], [0, 0, 0], [0, 0, 0]])],
    "perturbation": {"v": matrix(np.zeros((3, 3))),
                     "f": [matrix([[0, 0.2, 0], [0, 0, 0], [0, 0, 0]])]},
    "tol": 1e-9,
    "seed": 0,
}


def test_effective_is_covariant_under_a_rotated_problem_file(tmp_path):
    # Turn every matrix by a real orthogonal R and give the DFS as R P R^T. The
    # blocks are then related by T = conj(W) kron W, with W = B'† R B for the
    # DFS bases B of the file and B' = U[:, :d] of the rotated file.
    rot = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]

    def turn(m):
        return matrix(rot @ unmatrix(m) @ rot.T)

    pert = README_SYSTEM["perturbation"]
    rotated = dict(README_SYSTEM, dfs=matrix(rot @ np.diag([1, 1, 0]) @ rot.T),
                   hamiltonian=turn(README_SYSTEM["hamiltonian"]),
                   jumps=[turn(f) for f in README_SYSTEM["jumps"]],
                   perturbation={"v": turn(pert["v"]), "f": [turn(f) for f in pert["f"]]})
    reports = []
    for name, payload in (("plain", README_SYSTEM), ("rotated", rotated)):
        out = tmp_path / f"{name}.json"
        assert main(["effective", write_problem(tmp_path, payload, f"{name}-problem.json"),
                     "--out", str(out)]) == 0
        reports.append(load_report(out))
    plain, turned = reports
    assert turned["verdicts"] == plain["verdicts"]
    u, d = projector_frame(unmatrix(rotated["dfs"]))
    w = dagger(u[:, :d]) @ rot[:, :2]
    t = np.kron(w.conj(), w)
    for key in ("l_eff_general", "l_eff_closed"):
        want = t @ unmatrix(plain[key]) @ dagger(t)
        got = unmatrix(turned[key])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_dfs_matrix_that_is_not_a_projector_is_an_input_error(tmp_path, capsys):
    problem = write_problem(tmp_path, dict(README_SYSTEM, dfs=matrix(np.diag([2, 0, 0]))))
    assert main(["effective", problem]) == 2
    err = capsys.readouterr().err
    assert "dfs: projector is not idempotent" in err


def test_effective_dark_scenario_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["effective", three_level_problem(tmp_path, delta=0.0), "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["verdicts"]["effective_jump_vanishes"] is True


def test_effective_structure_failure(tmp_path, capsys):
    # a jump feeding the DFS into the decaying block breaks the normal form
    bad = np.zeros((3, 3), dtype=complex)
    bad[2, 0] = 1.0
    problem = write_problem(tmp_path, {
        "version": 1,
        "hilbert_dim": 3,
        "dfs": [0, 1],
        "jumps": [matrix(bad)],
    })
    code = main(["effective", problem])
    assert code == 2
    assert "structure check failed" in capsys.readouterr().err


# A steady DFS whose jump has an lr entry, |2><2|: a block check fails, and
# the coupled L_rr is factored whole.
LR_JUMP_SYSTEM = dict(README_SYSTEM, jumps=[matrix([[0, 0, 1.4142], [0, 0, 0], [0, 0, 0.5]])])


def two_rate_problem(fast, slow, v=()):
    """D = 4, DFS {0, 1}: level 2 decays into 0 at rate fast, level 3 into 1 at slow.

    v lists Hermitian perturbation entries (i, j, value).
    """
    f0, f1, pert = np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4))
    f0[0, 2], f1[1, 3] = np.sqrt(fast), np.sqrt(slow)
    for i, j, value in v:
        pert[i, j] = pert[j, i] = value
    return {"version": 1, "hilbert_dim": 4, "dfs": [0, 1], "jumps": [matrix(f0), matrix(f1)],
            "perturbation": {"v": matrix(pert)}}


def test_effective_force_skips_closed_route(tmp_path, capsys):
    problem = write_problem(tmp_path, LR_JUMP_SYSTEM)
    out = tmp_path / "forced.json"
    code = main(["effective", problem, "--force", "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["l_eff_closed"] is None
    assert report["verdicts"]["routes_agree"] is None
    assert report["structure"]["passed"] is False
    assert report["l_eff_general"] is not None
    # A jump that feeds the DFS into the decaying block leaves no steady DFS,
    # and H_22 = 1 + 0.5i (the only defect) is not Hermitian: --force waives
    # neither.
    bad = np.zeros((3, 3), dtype=complex)
    bad[2, 0] = 1.0
    refused = {
        "DFS is not steady": {"version": 1, "hilbert_dim": 3, "dfs": [0, 1], "jumps": [matrix(bad)]},
        "hamiltonian not Hermitian (residual 8.944e-01)":
            dict(README_SYSTEM, hamiltonian=matrix(np.diag([0, 0, 1 + 0.5j]))),
    }
    for failure, payload in refused.items():
        problem = write_problem(tmp_path, payload, "refused.json")
        capsys.readouterr()
        assert main(["effective", problem, "--force"]) == 2
        err = capsys.readouterr().err
        assert failure in err
        assert "--force" not in err


def _study_on_the_dense_oracle(problem, zero_tol=None):
    """The Study of a problem file, its factor replaced by the dense Schur form of L."""
    parsed = cli.load_problem(problem)
    lind = ejof.lindblad.structured_lindbladian(parsed.hamiltonian, parsed.jumps, parsed.dfs,
                                                validate=False)
    oracle = dataclasses.replace(lind, factor=OrderedSchur.of(lind.superop, zero_tol=zero_tol))
    return ejof.effective.Study(oracle, parsed.pert)


def test_forced_lr_jump_matches_the_dense_schur_route(tmp_path):
    problem = write_problem(tmp_path, LR_JUMP_SYSTEM)
    out = tmp_path / "forced.json"
    assert main(["effective", problem, "--force", "--out", str(out)]) == 0
    got = unmatrix(load_report(out)["l_eff_general"])
    want = _study_on_the_dense_oracle(problem).general
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_forced_separation_matches_the_oracle_and_the_closed_route(tmp_path):
    # Rates 1e4 and 1e-4 fail the multiplicity check (9 != 4) at the 1e-4 cut;
    # forced, L_eff is that of a Schur form cut at 1e-9 and of the closed route.
    problem = write_problem(tmp_path, two_rate_problem(1e4, 1e-4, [(0, 3, 0.1), (1, 2, 0.2)]))
    out = tmp_path / "forced.json"
    assert main(["effective", problem, "--force", "--out", str(out)]) == 0
    report = load_report(out)
    assert report["structure"]["zero_multiplicity"] == 9
    got = unmatrix(report["l_eff_general"])
    # The closed route reads no spectral factor, so the oracle's study has it too.
    study = _study_on_the_dense_oracle(problem, zero_tol=1e-9)
    for ref in (study.general, study.closed_block):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_forced_singular_rate_is_numerical_failure(tmp_path, capsys):
    # Rates 1 and 1e-15: the pivot ratio of L_rr's ll block is 1e-15.
    problem = write_problem(tmp_path, two_rate_problem(1.0, 1e-15))
    assert main(["effective", problem]) == 2
    capsys.readouterr()
    assert main(["effective", problem, "--force"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "|LU pivot| 1.000e-15" in err


def test_effective_defective_zero_is_refused(tmp_path, capsys):
    # A nilpotent (non-Hermitian) Hamiltonian |1><2| on the decaying block and
    # no dissipation: the DFS is steady, but L_rr's ll block, -i K_qq, has an
    # exactly zero pivot. A Hermitian H cannot give L a defective zero, and
    # --force does not waive Hermiticity, so the file exits 2 before any
    # solve; unvalidated, the corner factor refuses the pivot.
    h = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    problem = write_problem(tmp_path, {
        "version": 1,
        "hilbert_dim": 3,
        "dfs": [0],
        "hamiltonian": matrix(h),
        "jumps": [matrix(np.zeros((3, 3)))],
    })
    assert main(["effective", problem, "--force"]) == cli.EXIT_INPUT
    assert "hamiltonian not Hermitian" in capsys.readouterr().err
    lind = ejof.lindblad.structured_lindbladian(h, [np.zeros((3, 3))],
                                                cli.load_problem(problem).dfs, validate=False)
    with pytest.raises(ejof.lindblad.SingularBlockError, match=r"\|LU pivot\| 0"):
        _ = lind.drazin


@pytest.mark.parametrize("entry, path", [
    (float("nan"), "jumps[0][1][0]"),
    ([0.0, float("inf")], "jumps[0][1][0][1]"),
    ([float("-inf"), 0.0], "jumps[0][1][0][0]"),
])
def test_non_finite_entry_is_input_error(tmp_path, capsys, entry, path):
    # json.loads accepts NaN and Infinity; they must not reach the numerics.
    problem = write_problem(tmp_path, {
        "version": 1,
        "hilbert_dim": 2,
        "dfs": [0],
        "jumps": [[[pair(0), pair(1)], [entry, pair(0)]]],
    })
    assert main(["effective", problem]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "finite" in err


@pytest.mark.parametrize("entry", [1e300, 1e160, [0.0, -1e300]])
def test_overflowing_entry_is_input_error(tmp_path, capsys, entry):
    # A finite number whose square overflows used to end in a bogus
    # multiplicity failure; it must be named by its key path instead.
    _, lind = repetition_code_recovery()
    h = matrix(np.zeros((8, 8)))
    h[3][3] = entry
    problem = write_problem(tmp_path, {
        "version": 1,
        "hilbert_dim": 8,
        "dfs": [0, 7],
        "hamiltonian": h,
        "jumps": [matrix(f) for f in lind.jumps],
    })
    assert main(["effective", problem]) == 2
    err = capsys.readouterr().err
    assert "hamiltonian[3][3]" in err
    assert "overflows" in err
    assert "multiplicity" not in err


def test_non_finite_tol_is_input_error(tmp_path, capsys):
    assert main(["effective", three_level_problem(tmp_path, tol=float("nan"))]) == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [-1.0, 0.0])
@pytest.mark.parametrize("make", [
    lambda tmp, tol: ["scenario", "three-level", "--tol", str(tol)],
    lambda tmp, tol: ["verify", "--random", "2", "2", "1", "0", "--tol", str(tol)],
    lambda tmp, tol: ["qec", "repetition", "--miscal", "X", "--tol", str(tol)],
    lambda tmp, tol: ["effective", three_level_problem(tmp, tol=1e-3), "--tol", str(tol)],
    lambda tmp, tol: ["effective", three_level_problem(tmp, tol=tol)],
    lambda tmp, tol: ["evolve", explicit_problem(tmp, tol=tol), "--epsilons", "0.1"],
], ids=["scenario-flag", "verify-flag", "qec-flag", "effective-flag", "effective-file",
        "evolve-file"])
def test_nonpositive_tol_is_an_input_error(make, tol, tmp_path, capsys):
    # A tolerance at or below zero would fail every verdict; it is named, not run.
    argv = make(tmp_path, tol)
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == cli.EXIT_INPUT
    flag = "--tol" in argv
    err = capsys.readouterr().err
    assert ("error: --tol: must be positive" if flag else "error: tol: must be positive") in err
    assert not out.exists()


@pytest.mark.parametrize("value", [
    [[1, 2.5], [-3, 0.0]],
    [[[1, 0], [0, -2.5]], [[0.5, 0.5], [3, 4]]],
    [[1.0, [0, 1]], [[2, 0], 3]],
    [[[1, 2], [3, 4], [5, 6]]],
    [[True, 1.0]],
    [[[1.0, False]]],
    [[1.0, float("nan")]],
    [[[0.0, float("-inf")]]],
    [[1e300]],
    [[[0.0, -1e300]]],
    [[10 ** 400]],
    [[1, 2], [3]],
    [[1, 2], 3],
    [[]],
    [],
    [[[1, 2, 3]]],
    [[[[1, 2]]]],
    [["x"]],
    "x",
], ids=lambda value: repr(value)[:40])
def test_parse_matrix_matches_the_entry_walk(value):
    try:
        want = cli._parse_matrix_entries(value, "m")
    except (cli.ProblemFormatError, OverflowError) as err:
        with pytest.raises(type(err)) as got:
            cli.parse_matrix(value, "m")
        assert str(got.value) == str(err)
    else:
        got = cli.parse_matrix(value, "m")
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_malformed_matrix_reports_key_path(tmp_path, capsys):
    problem = write_problem(tmp_path, {
        "version": 1,
        "hilbert_dim": 2,
        "dfs": [0],
        "jumps": [[[pair(0), pair(0)], [pair(0), "x"]]],
    })
    code = main(["effective", problem])
    assert code == 2
    assert "jumps[0]" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path, capsys):
    code = main(["effective", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_negative_seed_in_a_problem_file_is_named_by_its_key(tmp_path, capsys):
    # numpy draws only from a nonnegative seed; the file's key is named, not numpy's message.
    problem = write_problem(tmp_path, {"version": 1, "scenario": {"name": "cancellation"},
                                       "seed": -1})
    assert main(["effective", problem]) == 2
    assert capsys.readouterr().err == "error: seed: must be nonnegative, got -1\n"


def test_unknown_key_rejected(tmp_path, capsys):
    problem = write_problem(tmp_path, {"version": 1, "scenari": {"name": "three-level"}})
    assert main(["effective", problem]) == 2
    assert "scenari" in capsys.readouterr().err


def test_system_and_scenario_exclusive(tmp_path, capsys):
    problem = write_problem(tmp_path, {
        "version": 1,
        "scenario": {"name": "three-level"},
        "jumps": [matrix(np.zeros((2, 2)))],
        "hilbert_dim": 2,
        "dfs": [0],
    })
    assert main(["effective", problem]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_verify_random_passes(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--random", "2", "2", "12", "5", "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["trials"] == 12
    assert report["all_passed"] is True
    assert any(r["defective_k"] for r in report["rows"])
    assert report["worst"]["equivalence_residual"] <= 1e-9


@pytest.mark.parametrize("batch", [["0", "2", "1", "0"], ["2", "0", "1", "0"], ["2", "3", "0", "0"],
                                   ["2", "3", "-1", "0"]],
                         ids=["dfs-dim-0", "decaying-dim-0", "zero-trials", "negative-trials"])
def test_verify_random_refuses_a_batch_it_cannot_draw(batch, capsys):
    # A batch of no trials checks nothing, so it cannot pass.
    assert main(["verify", "--random", *batch]) == 2
    err = capsys.readouterr().err
    assert err == "error: --random needs D >= 1, N >= 1, TRIALS >= 1\n"


def test_an_allocation_failure_is_a_numerical_failure(monkeypatch, capsys):
    # Exit 1 means a verdict failed; running out of memory decides none.
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.0 GiB for an array")

    monkeypatch.setattr(cli, "random_structured_instance", refuse)
    assert main(["verify", "--random", "2", "3", "1", "0"]) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 6.0 GiB for an array\n"
    assert "all passed" not in captured.out


def test_verify_needs_exactly_one_source(tmp_path, capsys):
    assert main(["verify"]) == 2
    problem = three_level_problem(tmp_path)
    assert main(["verify", problem, "--random", "2", "2", "1", "0"]) == 2


def test_verify_problem_file(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", explicit_problem(tmp_path), "--out", str(out)])
    assert code == 0
    assert load_report(out)["all_passed"] is True


def test_verify_route_disagreement_fails(tmp_path, monkeypatch):
    real = ejof.effective.effective_to_superop
    monkeypatch.setattr(ejof.effective, "effective_to_superop", lambda eff: (1 + 1e-6) * real(eff))
    out = tmp_path / "verify.json"
    assert main(["verify", explicit_problem(tmp_path), "--out", str(out)]) == 1
    row = load_report(out)["rows"][0]
    assert row["passed"] is False
    assert row["equivalence_residual"] > 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "three-level", "--delta", "1.5"],
        ["scenario", "three-level", "--delta", "0"],
        ["scenario", "cancellation"],
        ["scenario", "coherent-cancel"],
        ["scenario", "coherent-cancel", "--keep-induced-hamiltonian"],
        ["scenario", "universal"],
    ],
)
def test_scenarios_pass(argv, tmp_path):
    out = tmp_path / "scenario.json"
    assert main(argv + ["--out", str(out)]) == 0
    report = load_report(out)
    assert all(v is not False for v in report["verdicts"].values())


def test_scenario_unknown_name(capsys):
    assert main(["scenario", "warp-drive"]) == 2
    err = capsys.readouterr().err
    assert "three-level" in err and "universal" in err


def test_scenario_rejects_bad_param(tmp_path, capsys):
    assert main(["scenario", "three-level", "--Gamma", "-1"]) == 2


@pytest.mark.parametrize("argv, key", [
    (["universal", "--decaying-dim", "0"], "decaying_dim"),
    (["cancellation", "--dfs-dim", "0"], "dfs_dim"),
    (["cancellation", "--dfs-dim", "-1"], "dfs_dim"),
    (["universal", "--decaying-dim", "-2"], "decaying_dim"),
])
def test_scenario_dimension_below_one_is_an_input_error(argv, key, capsys):
    assert main(["scenario", *argv]) == 2
    err = capsys.readouterr().err
    assert f"scenario.{key}: must be at least 1" in err
    assert "Traceback" not in err


# A non-default value for every parameter of every scenario.
SCENARIO_PARAMS = {
    "three-level": {"delta": 0.5, "Gamma": 1.5, "gamma": 0.02},
    "cancellation": {"dfs_dim": 3, "blocks": [3, 3], "pert_scale": 0.5},
    "coherent-cancel": {"dfs_dim": 2, "blocks": [2, 2, 2], "pert_scale": 0.5,
                        "keep_induced_hamiltonian": True},
    "universal": {"targets": "pauli", "scale": 0.3, "decaying_dim": 4, "n_jumps": 4},
}


def scenario_flags(params):
    argv = []
    for key, value in params.items():
        argv.append("--" + key.replace("_", "-"))
        if isinstance(value, list):
            argv.append(",".join(map(str, value)))
        elif value is not True:
            argv.append(str(value))
    return argv


@pytest.mark.parametrize("name", sorted(SCENARIO_PARAMS))
def test_scenario_flags_match_problem_file(name, tmp_path):
    # The generated flags cover the spec and reach build_scenario exactly as
    # the same parameters in a problem file do.
    params = SCENARIO_PARAMS[name]
    assert set(params) == set(ejof.scenarios.PARAM_SPECS[name])
    flag_out = tmp_path / "scenario.json"
    assert main(["scenario", name, *scenario_flags(params), "--out", str(flag_out)]) == 0
    problem = write_problem(tmp_path, {"version": 1, "scenario": {"name": name, **params}})
    file_out = tmp_path / "effective.json"
    assert main(["effective", problem, "--out", str(file_out)]) == 0
    from_file = load_report(file_out)["scenario"]
    assert from_file.pop("name") == name
    assert load_report(flag_out)["details"] == from_file


def test_report_encoding_covers_numpy_and_complex_values():
    # Scenario details hand numpy values to the report writer as they are.
    text = cli.canonical_json({"m": np.eye(1), "z": np.complex128(1 - 2j), "c": 0.5j,
                               "b": np.bool_(True), "n": np.int64(3), "x": np.float64(0.1)})
    assert json.loads(text) == {"m": [[[1.0, 0.0]]], "z": [1.0, -2.0], "c": [0.0, 0.5],
                                "b": True, "n": 3, "x": 0.1}
    with pytest.raises(TypeError, match="set"):
        cli.canonical_json({"s": {1}})


_SCALARS = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2 ** 70, 2 ** 70)
            | st.booleans() | st.none() | st.text(max_size=8)
            | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 1e-17]))
_RECORDS = st.lists(st.dictionaries(st.text(max_size=6), _SCALARS, min_size=1, max_size=9),
                    max_size=12)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_RECORDS, _RECORDS, st.dictionaries(st.text(max_size=6), _SCALARS, max_size=4))
def test_records_encode_as_the_indenting_encoder_does(rows, other, rest):
    # A report with top-level lists of flat records, among other entries and
    # nested records the fast path leaves alone, byte for byte as json.dumps.
    report = {**rest, "rows": rows, "propagation": other, "fit": {"per_tau": rows}}
    want = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert cli.canonical_json(report) == want
    assert (cli._records_json(rows) is None) == (not rows)


def test_evolve_rows_take_the_one_pass_encoder():
    rows = [{"epsilon": 0.04, "tau": 0.5, "state_index": 0, "trace_distance": -0.0,
             "drift": 5e-324, "min_eig_full": 1e308, "flag": True, "none": None}] * 3
    text = cli._records_json(rows)
    assert text is not None
    assert f'{{\n  "rows": {text}\n}}\n' == json.dumps({"rows": rows}, sort_keys=True,
                                                         indent=2) + "\n"
    for value in ([], [{}], [rows[0], {}], [{"m": [1.0]}], [{"m": {"x": 1}}], [{1: 2.0}],
                  [{"z": 1j}], [{"x": np.float64(0.1)}], (rows[0],)):
        assert cli._records_json(value) is None, value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_records_raise_the_json_error(value):
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant: "):
        cli.canonical_json({"rows": [{"epsilon": 0.04, "trace_distance": value}]})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_evolve_exits_2_on_a_non_finite_cell(tmp_path, capsys, monkeypatch, value):
    sweep = cli.evolve_and_compare

    def poisoned(*args):
        table = sweep(*args)
        distance = table.trace_distance.copy()
        distance[0, 0, 0] = value
        return dataclasses.replace(table, trace_distance=distance)

    monkeypatch.setattr(cli, "evolve_and_compare", poisoned)
    out = tmp_path / "report.json"
    problem = explicit_problem(tmp_path)
    assert main(["evolve", problem, "--epsilons", "0.04", "--taus", "1.0",
                 "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        "error: Out of range float values are not JSON compliant: ")
    assert not out.exists()


def test_evolve_validates_each_initial_state_once(tmp_path, monkeypatch):
    calls = []
    check = ejof.dynamics.validate_initial_state

    def counting(rho, dfs, *args):
        calls.append(rho)
        return check(rho, dfs, *args)

    for module in (ejof.dynamics, cli):
        monkeypatch.setattr(module, "validate_initial_state", counting, raising=False)
    states = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.5, 0.5, 0.0])]
    problem = explicit_problem(tmp_path, initial_states=[matrix(rho) for rho in states])
    assert main(["evolve", problem, "--epsilons", "0.04,0.02", "--taus", "1.0"]) == 0
    assert len(calls) == len(states)


def test_scenario_rejects_flag_of_another_scenario(capsys):
    assert main(["scenario", "three-level", "--scale", "1"]) == 2
    assert "scenario.scale" in capsys.readouterr().err


SCENARIO_FLOAT_FLAGS = [
    "--" + key.replace("_", "-")
    for key, (kind, _, _) in cli._SCENARIO_FLAGS.items() if kind is float
]


@pytest.mark.parametrize("argv, flag", [
    (["evolve", "PROBLEM", "--epsilons", "0.04,nan"], "--epsilons"),
    (["evolve", "PROBLEM", "--taus", "inf"], "--taus"),
    (["effective", "PROBLEM", "--tol", "nan"], "--tol"),
    (["qec", "repetition", "--miscal", "X", "--eps", "nan"], "--eps"),
    (["qec", "repetition", "--miscal", "X", "--eps", "inf"], "--eps"),
    (["qec", "repetition", "--miscal", "X", "--eps", "1e200"], "--eps"),
    (["qec", "repetition", "--obstruction", "--hamiltonian-scale", "nan"],
     "--hamiltonian-scale"),
] + [(["scenario", "three-level", f"{flag}=-inf"], flag) for flag in SCENARIO_FLOAT_FLAGS] + [
    # numpy draws only from a nonnegative seed.
    (["scenario", "cancellation", "--seed", "-1"], "--seed"),
    (["verify", "--random", "2", "2", "1", "-1"], "--random"),
])
def test_non_finite_flag_exits_two(tmp_path, capsys, argv, flag):
    # argparse rejects the value before any numerics run, naming the flag.
    argv = [three_level_problem(tmp_path) if a == "PROBLEM" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err
    assert "done in" not in captured.out


@pytest.mark.parametrize("kind", ["X", "Z"])
def test_qec_protected_kinds(kind, tmp_path):
    out = tmp_path / "qec.json"
    code = main(["qec", "repetition", "--miscal", kind, "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["verdicts"]["hypotheses_met"] is True
    assert report["verdicts"]["protected"] is True


def test_qec_y_not_robust(tmp_path, capsys):
    out = tmp_path / "qec.json"
    code = main(["qec", "repetition", "--miscal", "Y", "--out", str(out)])
    assert code == 0  # hypotheses fail, so no protection claim is violated
    report = load_report(out)
    assert report["verdicts"]["hypotheses_met"] is False
    assert report["verdicts"]["protected"] is False
    assert report["correctability"]["passed"] is False
    assert "not robust" in capsys.readouterr().out


def test_qec_obstruction(tmp_path):
    out = tmp_path / "obstruction.json"
    code = main(["qec", "repetition", "--obstruction", "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["verdicts"]["zero_cells_vanish"] is True
    assert report["verdicts"]["obstruction_cell_nonzero"] is True
    cells = report["obstruction"]["cells"]
    assert len(cells) == 4
    zero_cells = [c for c in cells if c["zero_expected"]]
    assert len(zero_cells) == 3


@pytest.mark.parametrize("argv, failed", [
    (["qec", "repetition", "--obstruction", "--tol", "1e-300"], {"zero_cells_vanish"}),
    (["qec", "repetition", "--obstruction", "--tol", "1e6"], {"obstruction_cell_nonzero"}),
    (["scenario", "coherent-cancel", "--tol", "1e-300"],
     {"effective_jumps_vanish", "generator_vanishes"}),
], ids=["zero-cells", "obstruction-cell", "coherent-cancel"])
def test_a_verdict_fails_where_its_tolerance_cannot_be_met(argv, failed, tmp_path):
    # Each verdict compares a number of the report with tol: a tol below the
    # round-off of a vanishing norm, or above the obstruction's norm, fails it.
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == cli.EXIT_VERIFICATION
    verdicts = load_report(out)["verdicts"]
    assert {key for key, value in verdicts.items() if value is False} == failed


def test_qec_unknown_code(capsys):
    assert main(["qec", "surface"]) == 2
    assert "repetition" in capsys.readouterr().err


def test_qec_requires_mode(capsys):
    assert main(["qec", "repetition"]) == 2
    assert "--miscal" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["--obstruction", "--miscal", "X"], "--miscal"),
    (["--miscal", "X", "--hamiltonian-scale", "0.5"], "--hamiltonian-scale"),
], ids=["obstruction-miscal", "miscal-hamiltonian-scale"])
def test_qec_refuses_a_flag_its_mode_does_not_read(argv, flag, tmp_path, capsys):
    out = tmp_path / "qec.json"
    assert main(["qec", "repetition", *argv, "--out", str(out)]) == cli.EXIT_INPUT
    assert f"error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


QEC_MODES = {"obstruction": ["--obstruction"], "miscal": ["--miscal", "X"]}


@pytest.mark.parametrize("mode", QEC_MODES.values(), ids=QEC_MODES.keys())
def test_qec_refuses_a_zero_eps(mode, tmp_path, capsys):
    # At eps = 0 the obstruction cell reads FAIL and a miscalibration reads
    # "robust": neither says anything about the code.
    out = tmp_path / "qec.json"
    assert main(["qec", "repetition", *mode, "--eps", "0", "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: --eps: must be nonzero")
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e150", "1e-200", "-1.2e75", "1.2e-75"])
@pytest.mark.parametrize("mode", QEC_MODES.values(), ids=QEC_MODES.keys())
def test_qec_refuses_an_eps_whose_l_eff_norm_leaves_the_float_range(mode, eps, monkeypatch,
                                                                     tmp_path, capsys):
    # L_eff is O(eps^2) and its norm squares it: at 1e150 the norm overflows
    # to inf, at 1e-200 it underflows to 0 and the obstruction cell reads
    # FAIL. Both ends are refused before anything is computed.
    def computed(*args, **kwargs):
        raise AssertionError("computed with an eps out of range")

    monkeypatch.setattr(cli, "robustness_check", computed)
    monkeypatch.setattr(cli, "hamiltonian_obstruction_demo", computed)
    out = tmp_path / "qec.json"
    assert main(["qec", "repetition", *mode, f"--eps={eps}", "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: --eps: magnitude")
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1.1e75", "-1.3e-75"])
@pytest.mark.parametrize("mode", QEC_MODES.values(), ids=QEC_MODES.keys())
def test_qec_passes_just_inside_the_eps_range(mode, eps, tmp_path):
    out = tmp_path / "qec.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["qec", "repetition", *mode, f"--eps={eps}", "--out", str(out)]) == 0
    assert all(load_report(out)["verdicts"].values())


@pytest.mark.parametrize("mode", QEC_MODES.values(), ids=QEC_MODES.keys())
def test_qec_reads_a_negative_eps(mode):
    assert main(["qec", "repetition", *mode, "--eps", "-0.01"]) == cli.EXIT_OK


def test_qec_obstruction_default_hamiltonian_scale(tmp_path):
    # The default scale enters the report and its digest as the value it stands for.
    reports = []
    for extra in ([], ["--hamiltonian-scale", "0.3"]):
        out = tmp_path / f"obstruction{len(extra)}.json"
        assert main(["qec", "repetition", "--obstruction", *extra, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert load_report(tmp_path / "obstruction0.json")["obstruction"]["hamiltonian_scale"] == 0.3


def test_evolve_three_level(tmp_path, capsys):
    out = tmp_path / "evolve.json"
    plot_dir = tmp_path / "plots"
    code = main([
        "evolve", three_level_problem(tmp_path, delta=2.0),
        "--epsilons", "0.04,0.02", "--taus", "0.5,2.0",
        "--out", str(out), "--plot-data", str(plot_dir),
    ])
    assert code == 0
    report = load_report(out)
    assert report["fit"]["slope"] >= 0.7
    assert report["fit"]["monotone"] is True
    assert len(report["rows"]) == 2 * 2 * 3  # eps x tau x default states
    csv = (plot_dir / "sweep.csv").read_text().splitlines()
    assert csv[0] == "epsilon,tau,state_index,trace_distance"
    assert len(csv) == 1 + len(report["rows"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"report written to {out}"
    assert lines[1].startswith("fitted slope")


def test_evolve_reports_the_propagation_of_each_epsilon(tmp_path):
    out = tmp_path / "evolve.json"
    code = main([
        "evolve", three_level_problem(tmp_path, delta=2.0), "--epsilons", "0.04,0.02",
        "--taus", "0,1", "--out", str(out),
    ])
    assert code == 0
    rows = load_report(out)["propagation"]
    assert [row["epsilon"] for row in rows] == [0.04, 0.02]
    for row in rows:
        assert row["horizon"] > 0
        assert row["rank_ratio"] <= 1e-12 and row["invariance"] <= 1e-12
        assert row["dense_cells"] == 1  # tau = 0


@pytest.mark.parametrize("scenario", [
    {"name": "three-level", "delta": 2.0, "Gamma": 2.0, "gamma": 1.0},
    {"name": "universal", "scale": 0.3},
], ids=["three-level", "universal"])
def test_evolve_at_small_epsilons_has_no_propagation_floor(tmp_path, scenario):
    # t reaches 5e8 here. A dense exp(t L_full) carried round-off of about
    # t u ||L_full|| into every cell: three-level fitted a wrong slope and
    # universal, whose distances are round-off alone, rose to 1e-8.
    problem = write_problem(tmp_path, {"version": 1, "scenario": scenario})
    out = tmp_path / "evolve.json"
    assert main(["evolve", problem, "--epsilons", "4e-4,2e-4,1e-4", "--out", str(out)]) == 0
    fit = load_report(out)["fit"]
    assert fit["monotone"] is True
    if scenario["name"] == "three-level":
        assert 1.9 <= fit["slope"] <= 2.1
    else:
        assert max(d["distance"] for d in fit["max_distances"]) <= fit["floor"]


def test_evolve_single_epsilon_skips_fit(tmp_path):
    out = tmp_path / "evolve.json"
    code = main([
        "evolve", three_level_problem(tmp_path), "--epsilons", "0.02",
        "--taus", "1.0", "--out", str(out),
    ])
    assert code == 0
    assert load_report(out)["fit"] is None


def test_evolve_custom_initial_state(tmp_path):
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 1.0
    problem = explicit_problem(tmp_path, initial_states=[matrix(rho)])
    out = tmp_path / "evolve.json"
    code = main(["evolve", problem, "--epsilons", "0.04,0.02", "--taus", "1.0",
                 "--out", str(out)])
    assert code == 0
    assert load_report(out)["n_states"] == 1


def test_evolve_rejects_bad_initial_state(tmp_path, capsys):
    rho = np.zeros((3, 3), dtype=complex)
    rho[2, 2] = 1.0  # supported outside the DFS
    problem = explicit_problem(tmp_path, initial_states=[matrix(rho)])
    assert main(["evolve", problem, "--taus", "1.0"]) == 2
    assert "DFS" in capsys.readouterr().err


def test_initial_state_off_the_dfs_is_named_by_its_key(tmp_path, capsys):
    good = np.zeros((3, 3), dtype=complex)
    good[0, 0] = 1.0
    bad = np.zeros((3, 3), dtype=complex)
    bad[2, 2] = 1.0
    problem = explicit_problem(tmp_path, initial_states=[matrix(good), matrix(bad)])
    assert main(["evolve", problem, "--taus", "1.0"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: initial_states[1]: initial state is not supported on the DFS\n")


def test_non_hermitian_initial_state_is_named_by_its_key(tmp_path, capsys):
    # Its Hermitian part [[0.5, 0.5], [0.5, 0.5]] on the DFS is a state; rho is not.
    rho = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
    problem = explicit_problem(tmp_path, initial_states=[matrix(rho)])
    assert main(["evolve", problem, "--taus", "1.0"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: initial_states[0]: initial state is not Hermitian (residual 1.414e+00)\n")


@pytest.mark.parametrize("dfs", [[0, 1, 2], matrix(np.eye(3))], ids=["indices", "projector"])
def test_dfs_spanning_the_whole_space_is_named_by_its_key(tmp_path, capsys, dfs):
    problem = explicit_problem(tmp_path, dfs=dfs)
    assert main(["effective", problem]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: dfs: must be a proper subspace (nonempty decaying block)\n")


def test_evolve_rejects_bad_epsilons(tmp_path, capsys):
    problem = three_level_problem(tmp_path)
    assert main(["evolve", problem, "--epsilons", "0.04,-0.02"]) == 2


def test_evolve_rejects_duplicate_epsilons(tmp_path, capsys):
    problem = three_level_problem(tmp_path)
    assert main(["evolve", problem, "--epsilons", "0.04,0.04"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: epsilons must be distinct\n"


def test_argparse_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["effective"])  # missing the problem argument
    assert exc.value.code == 2


def test_file_tol_and_cli_tol(tmp_path):
    # a tolerance in the file applies; the command line overrides it
    problem = three_level_problem(tmp_path, tol=1e-3)
    out = tmp_path / "r.json"
    assert main(["effective", problem, "--out", str(out)]) == 0
    assert load_report(out)["tol"] == 1e-3
    assert main(["effective", problem, "--tol", "1e-7", "--out", str(out)]) == 0
    assert load_report(out)["tol"] == 1e-7


def test_tol_and_seed_resolve_flag_then_file_then_default(tmp_path):
    cancellation = {"version": 1, "scenario": {"name": "cancellation"}}
    plain = write_problem(tmp_path, cancellation, "plain.json")
    pinned = write_problem(tmp_path, dict(cancellation, tol=1e-8, seed=3), "pinned.json")

    def body(*argv):
        out = tmp_path / "r.json"
        assert main([*argv, "--out", str(out)]) == cli.EXIT_OK
        report = load_report(out)
        del report["input_digest"]
        return report

    default, from_file = body("effective", plain), body("effective", pinned)
    assert (default["tol"], from_file["tol"]) == (1e-9, 1e-8)
    assert default != from_file
    assert body("effective", plain, "--seed", "3", "--tol", "1e-8") == from_file
    assert body("effective", pinned, "--seed", "0", "--tol", "1e-9") == default


SEEDLESS_RUNS = {
    "explicit-system": lambda tmp: ["effective", explicit_problem(tmp)],
    "explicit-verify": lambda tmp: ["verify", explicit_problem(tmp)],
    "three-level-file": lambda tmp: ["evolve", three_level_problem(tmp), "--epsilons", "0.1"],
    "three-level": lambda tmp: ["scenario", "three-level"],
    "qec-miscal": lambda tmp: ["qec", "repetition", "--miscal", "X"],
    "verify-random": lambda tmp: ["verify", "--random", "2", "2", "1", "0"],
}


@pytest.mark.parametrize("make", SEEDLESS_RUNS.values(), ids=SEEDLESS_RUNS.keys())
def test_seed_is_refused_where_nothing_is_random(make, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*make(tmp_path), "--seed", "5", "--out", str(out)]) == cli.EXIT_INPUT
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


SEEDED_RUNS = {
    "scenario": lambda tmp: ["scenario", "cancellation"],
    "scenario-file": lambda tmp: ["effective", write_problem(
        tmp, {"version": 1, "scenario": {"name": "cancellation"}})],
    "obstruction": lambda tmp: ["qec", "repetition", "--obstruction"],
}


@pytest.mark.parametrize("make", SEEDED_RUNS.values(), ids=SEEDED_RUNS.keys())
def test_seed_changes_a_random_run(make, tmp_path):
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"report-{seed}.json"
        assert main([*make(tmp_path), "--seed", seed, "--out", str(out)]) == cli.EXIT_OK
        reports.append(load_report(out))
    assert reports[0] != reports[1]


ONE_FILE_RUNS = {
    "effective-seeded": lambda tmp: ["effective", write_problem(
        tmp, {"version": 1, "scenario": {"name": "cancellation"}}), "--seed", "3"],
    "verify": lambda tmp: ["verify", explicit_problem(tmp)],
    "evolve": lambda tmp: ["evolve", three_level_problem(tmp), "--epsilons", "0.04,0.02",
                           "--taus", "1"],
}


@pytest.mark.parametrize("make", ONE_FILE_RUNS.values(), ids=ONE_FILE_RUNS.keys())
def test_a_run_parses_its_problem_file_once(make, tmp_path, monkeypatch):
    # The --seed gate and the command read the same parsed problem.
    argv = make(tmp_path)
    calls = []
    load = cli.load_problem
    monkeypatch.setattr(cli, "load_problem", lambda path: calls.append(path) or load(path))
    assert main(argv) == cli.EXIT_OK
    assert calls == [argv[1]]


def test_no_command_embeds_an_effective_generator(tmp_path):
    # Effective generators live on the (d^2, d^2) DFS block only: the dense
    # block embedding is a test oracle, and no ejof module defines or binds it.
    for module in (cli, ejof.effective, ejof.dynamics, ejof.qec, ejof.scenarios, ejof.lindblad,
                   ejof.operators):
        assert not hasattr(module, "embed_superop"), module.__name__
    out = str(tmp_path / "report.json")
    runs = [
        ["effective", explicit_problem(tmp_path)],
        ["verify", "--random", "2", "3", "2", "0"],
        ["qec", "repetition", "--miscal", "Y"],
        ["evolve", three_level_problem(tmp_path), "--epsilons", "0.04,0.02", "--taus", "1"],
    ]
    for argv in runs:
        assert main([*argv, "--out", out]) == cli.EXIT_OK, argv


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_an_input_error(where, tmp_path, capsys):
    # Exit 1 means "a verdict failed"; a report that cannot be written is bad input.
    out = tmp_path / "no" / "such" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["scenario", "three-level", "--delta", "0", "--out", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot write {out}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["under-a-file", "csv-is-a-directory"])
def test_unwritable_plot_data_is_an_input_error(where, tmp_path, capsys):
    # The same rule as --out: plot data that cannot be written is bad input, not exit 1.
    problem = three_level_problem(tmp_path, delta=2.0)
    if where == "under-a-file":
        plot_dir = Path(problem) / "plots"
    else:
        plot_dir = tmp_path / "plots"
        (plot_dir / "sweep.csv").mkdir(parents=True)
    out = tmp_path / "r.json"
    code = main(["evolve", problem, "--epsilons", "0.04,0.02", "--taus", "1",
                 "--plot-data", str(plot_dir), "--out", str(out)])
    assert code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --plot-data: cannot write {plot_dir / 'sweep.csv'}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


GENERATOR_RUNS = {
    "three-level": ["scenario", "three-level"],
    "cancellation": ["scenario", "cancellation"],
    "coherent-cancel": ["scenario", "coherent-cancel"],
    "universal": ["scenario", "universal"],
    "qec-miscal": ["qec", "repetition", "--miscal", "X"],
}


@pytest.mark.parametrize("argv", GENERATOR_RUNS.values(), ids=GENERATOR_RUNS.keys())
def test_each_run_builds_its_generator_once(argv, monkeypatch):
    real = ejof.lindblad.structured_lindbladian
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ejof" and getattr(module, "structured_lindbladian", None) is real:
            monkeypatch.setattr(module, "structured_lindbladian", counted)
    assert main(argv) == cli.EXIT_OK
    assert len(calls) == 1


# (closed-route evaluations, rank-two L^D solves) per command. A study runs
# each route once: the general route is one solve and the corner-sensitivity
# batch one more, and the obstruction table takes both cells of a generator in
# one batch and runs no closed route.
ROUTE_RUNS = {
    "effective-explicit": (lambda tmp: ["effective", explicit_problem(tmp)], 1, 1),
    "effective-scenario-file": (lambda tmp: ["effective", three_level_problem(tmp)], 1, 1),
    "verify-explicit": (lambda tmp: ["verify", explicit_problem(tmp)], 1, 2),
    "verify-scenario-file": (lambda tmp: ["verify", three_level_problem(tmp)], 1, 2),
    "qec-obstruction": (lambda tmp: ["qec", "repetition", "--obstruction"], 0, 2),
    "scenario": (lambda tmp: ["scenario", "three-level"], 1, 1),
    "qec-miscal": (lambda tmp: ["qec", "repetition", "--miscal", "X"], 1, 1),
}


@pytest.mark.parametrize("make, closed, solves", ROUTE_RUNS.values(), ids=ROUTE_RUNS.keys())
def test_each_route_runs_once_per_study(make, closed, solves, tmp_path, monkeypatch):
    route = "effective_lindbladian_closed"
    real = getattr(ejof.effective, route)
    closed_calls, solve_calls = [], []

    def counted(*args, **kwargs):
        closed_calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ejof" and getattr(module, route, None) is real:
            monkeypatch.setattr(module, route, counted)
    def counting(self, c, original=ejof.lindblad.CornerFactor.solve_rank_two):
        solve_calls.append(c.shape[1])
        return original(self, c)

    monkeypatch.setattr(ejof.lindblad.CornerFactor, "solve_rank_two", counting)
    assert main(make(tmp_path)) == cli.EXIT_OK
    assert (len(closed_calls), len(solve_calls)) == (closed, solves)


def test_identity_check_reuses_the_closed_route_pieces(tmp_path, monkeypatch):
    # Study.identities reads Kinv and the coupling C off the closed route's
    # EffectiveGenerator instead of computing them a second time.
    calls = {"nh_hamiltonian_inverse": 0, "effective_coupling": 0}
    for name in calls:
        real = getattr(ejof.effective, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "ejof" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    assert main(["effective", three_level_problem(tmp_path)]) == cli.EXIT_OK
    assert calls == {"nh_hamiltonian_inverse": 1, "effective_coupling": 1}


def structured_draw_problem(tmp_path, d=4, n=16, n_jumps=5, seed=2):
    """A random normal-form draw and its perturbation, as a problem file."""
    lind, pert = ejof.effective.random_structured_instance(d, n, n_jumps, seed)
    return write_problem(tmp_path, {
        "version": 1, "hilbert_dim": d + n, "dfs": list(range(d)),
        "hamiltonian": cli.matrix_json(lind.h), "jumps": [cli.matrix_json(f) for f in lind.jumps],
        "perturbation": {"v": cli.matrix_json(pert.v),
                         "f": [cli.matrix_json(f) for f in pert.fs]},
    }, "draw.json")


def repetition_x_problem(tmp_path, eps=0.01):
    """The repetition code under an X miscalibration, as a problem file."""
    _, lind = repetition_code_recovery()
    pert = ejof.qec.pauli_miscalibration("X", eps)
    return write_problem(tmp_path, {
        "version": 1, "hilbert_dim": lind.dim, "dfs": lind.dfs.indices.tolist(),
        "jumps": [cli.matrix_json(f) for f in lind.jumps],
        "perturbation": {"f": [cli.matrix_json(f) for f in pert.fs]},
    }, "rep_x.json")


def spy_superop_sides(monkeypatch):
    """The side of the H each gksl_superop call gets, from every ejof namespace."""
    real, sides = ejof.operators.gksl_superop, []

    def spy(h, *args, **kwargs):
        sides.append(np.shape(h)[0])
        return real(h, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ejof" and getattr(module, "gksl_superop", None) is real:
            monkeypatch.setattr(module, "gksl_superop", spy)
    return sides


def largest_line_growth(argv, modules=("lindblad", "operators", "effective")):
    """Exit code of main(argv), and the largest tracemalloc growth over one traced source line.

    The lines of the named ejof modules are traced: each one's growth is the
    peak of traced memory while it runs (what it calls included), less the
    memory traced when it started. Entering these modules from other code
    starts afresh, so only their own lines are measured. An array allocated
    inside a line raises that line's growth by at least its size.
    """
    files = tuple(str(Path(ejof.operators.__file__).with_name(f"{m}.py")) for m in modules)
    worst, start = [0], [0]

    def checkpoint(record):
        if record:
            worst[0] = max(worst[0], tracemalloc.get_traced_memory()[1] - start[0])
        tracemalloc.reset_peak()
        start[0] = tracemalloc.get_traced_memory()[0]

    def step(frame, event, arg):
        checkpoint(True)
        return step

    def enter(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        checkpoint(frame.f_back is not None and frame.f_back.f_code.co_filename in files)
        return step

    tracemalloc.start()
    sys.settrace(enter)
    try:
        code = main(argv)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return code, worst[0]


def structured_draw_problem_d40(tmp_path):
    return structured_draw_problem(tmp_path, n=36, seed=3)


@pytest.mark.parametrize("command", ["effective", "verify"])
@pytest.mark.parametrize("make, dim, bound", [
    (structured_draw_problem, 20, 20 ** 4), (repetition_x_problem, 8, 8 ** 4),
    (structured_draw_problem_d40, 40, 36 ** 4 // 4)], ids=["draw-d20", "rep-x", "draw-d40"])
def test_effective_and_verify_build_no_full_space_superoperator(command, make, dim, bound,
                                                                 tmp_path, monkeypatch):
    # On a generator in normal form the corner factor solves the blocks of
    # L_rr by their structure, from K_qq and the jumps: L, with D^4 entries,
    # is never assembled, nor the lr block of L_rr, with n^4. verify's
    # largest line grows by 0.64 of a D^4 array at D = 8, where assembling L
    # grows one line by 2.0 of it, and by 0.50 of n^4 / 4 entries at D = 40.
    argv = [command, make(tmp_path), "--out", str(tmp_path / "report.json")]
    sides = spy_superop_sides(monkeypatch)
    code, growth = largest_line_growth(argv)
    assert code == (1 if make is repetition_x_problem and command == "verify" else 0)
    assert sides and dim not in sides
    assert growth < bound * np.dtype(complex).itemsize


def test_a_corrupted_k_moves_the_closed_route_only(tmp_path, monkeypatch):
    # The corner factor forms K_qq from H and the jumps, never from lind.k.
    # K corrupted by 1e-6 on its lr block leaves the general route as it is,
    # moves the closed route, which reads lind.k, and fails verify.
    problem = structured_draw_problem(tmp_path)
    parsed = cli.load_problem(problem)
    rng = np.random.default_rng(0)
    lr = np.ix_(parsed.dfs.rest, parsed.dfs.rest)
    noise = np.zeros(parsed.hamiltonian.shape, dtype=complex)
    noise[lr] = 1e-6 * (rng.standard_normal(noise[lr].shape)
                        + 1j * rng.standard_normal(noise[lr].shape))

    def corrupted(*args, **kwargs):
        lind = ejof.lindblad.structured_lindbladian(*args, **kwargs)
        lind.k = lind.k + noise
        return lind

    def study(build):
        return ejof.effective.Study(build(parsed.hamiltonian, parsed.jumps, parsed.dfs), parsed.pert)

    want, got = study(ejof.lindblad.structured_lindbladian), study(corrupted)
    monkeypatch.setattr(cli, "structured_lindbladian", corrupted)
    assert np.linalg.norm(got.general - want.general) <= 1e-14 * np.linalg.norm(want.general)
    moved = np.linalg.norm(got.closed_block - want.closed_block)
    assert moved > 1e-9 * np.linalg.norm(want.closed_block)
    assert main(["verify", problem]) == 1


# H couples the DFS to the decaying level by 1e-12, below the structure tolerance.
LEAKY_SYSTEM = dict(README_SYSTEM, hamiltonian=matrix([[0, 0, 1e-12], [0, 0, 0], [1e-12, 0, 1]]))


@pytest.mark.parametrize("payload, flags", [(LEAKY_SYSTEM, []), (LR_JUMP_SYSTEM, ["--force"])],
                         ids=["leaky", "lr-jump-force"])
def test_a_leaky_generator_factors_l_rr_whole_from_l(payload, flags, tmp_path, monkeypatch):
    # An H or jump entry off its corner couples the blocks of L_rr: the
    # factor assembles L once, on first use, and factors L_rr whole.
    problem = write_problem(tmp_path, payload)
    out = tmp_path / "report.json"
    sides = spy_superop_sides(monkeypatch)
    lus = []
    real = ejof.lindblad.zgetrf
    monkeypatch.setattr(ejof.lindblad, "zgetrf",
                        lambda a, *args, **kwargs: lus.append(a.shape[0]) or real(a, *args, **kwargs))
    assert main(["effective", problem, *flags, "--out", str(out)]) == 0
    assert sides.count(3) == 1
    assert lus == [3 ** 2 - 2 ** 2]
    # The dense resolvent formula on the bordered solve, which the factor is.
    parsed = cli.load_problem(problem)
    lind = ejof.lindblad.structured_lindbladian(parsed.hamiltonian, parsed.jumps, parsed.dfs,
                                                validate=False)
    basis = dense_dfs(lind.dfs).basis
    drazin, proj = bordered_solve(lind.superop, dfs_columns(basis))
    o1, o2 = perturbation_superops(lind, parsed.pert)
    want = compress_superop(proj @ (o1 + o2 - o1 @ drazin @ o1) @ proj, basis)
    got = unmatrix(load_report(out)["l_eff_general"])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def spy_stacked_path(monkeypatch):
    """Counts of the stacked general route's calls: the D x D x D second O1 and the L^D solve."""
    calls = {"_apply_o1": 0, "apply_drazin": 0}
    real_o1, real_drazin = ejof.effective._apply_o1, ejof.lindblad.CornerFactor.apply_drazin

    def o1(*args, **kwargs):
        calls["_apply_o1"] += 1
        return real_o1(*args, **kwargs)

    def drazin(self, y):
        calls["apply_drazin"] += 1
        return real_drazin(self, y)

    monkeypatch.setattr(ejof.effective, "_apply_o1", o1)
    monkeypatch.setattr(ejof.lindblad.CornerFactor, "apply_drazin", drazin)
    return calls


def _evolve_explicit(tmp_path):
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 1.0
    return ["evolve", explicit_problem(tmp_path, initial_states=[matrix(rho)]),
            "--epsilons", "0.04,0.02", "--taus", "1.0"]


NORMAL_FORM_RUNS = {
    "effective": lambda tmp: ["effective", explicit_problem(tmp)],
    "verify": lambda tmp: ["verify", explicit_problem(tmp)],
    "verify-draw": lambda tmp: ["verify", structured_draw_problem(tmp)],
    "evolve": _evolve_explicit,
    "qec-miscal": lambda tmp: ["qec", "repetition", "--miscal", "X"],
    "qec-obstruction": lambda tmp: ["qec", "repetition", "--obstruction"],
    "scenario": lambda tmp: ["scenario", "three-level"],
}


@pytest.mark.parametrize("make", NORMAL_FORM_RUNS.values(), ids=NORMAL_FORM_RUNS.keys())
def test_normal_form_runs_take_no_stacked_product_and_no_drazin_solve(make, tmp_path,
                                                                       monkeypatch):
    # On a generator in normal form L^D O1 E is read off the factor's two
    # n x n LUs, and the second O1 acts on DFS columns.
    calls = spy_stacked_path(monkeypatch)
    assert main([*make(tmp_path), "--out", str(tmp_path / "report.json")]) == cli.EXIT_OK
    assert calls == {"_apply_o1": 0, "apply_drazin": 0}


@pytest.mark.parametrize("command", ["effective", "verify"])
def test_a_leaky_generator_keeps_the_stacked_path(command, tmp_path, monkeypatch):
    # A jump or H entry off its corner: F_l b_i need not vanish, and the
    # stacked path, the only exact one there, runs.
    calls = spy_stacked_path(monkeypatch)
    problem = write_problem(tmp_path, LEAKY_SYSTEM)
    assert main([command, problem, "--out", str(tmp_path / "report.json")]) == cli.EXIT_OK
    assert calls["_apply_o1"] > 0 and calls["apply_drazin"] > 0
