import json

import numpy as np
import pytest

import ejof.effective
from ejof.cli import main
from ejof.qec import repetition_code_recovery


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix(rows):
    return [[pair(z) for z in row] for row in rows]


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


def test_effective_force_skips_closed_route(tmp_path):
    bad = np.zeros((3, 3), dtype=complex)
    bad[2, 0] = 1.0
    problem = write_problem(tmp_path, {
        "version": 1,
        "hilbert_dim": 3,
        "dfs": [0, 1],
        "jumps": [matrix(bad)],
    })
    out = tmp_path / "forced.json"
    code = main(["effective", problem, "--force", "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["l_eff_closed"] is None
    assert report["verdicts"]["routes_agree"] is None
    assert report["structure"]["passed"] is False
    assert report["l_eff_general"] is not None


def test_effective_defective_zero_is_numerical_failure(tmp_path, capsys):
    # nilpotent (non-Hermitian) Hamiltonian with no dissipation: structure
    # checks fail, and under --force the generator's zero eigenvalue carries
    # a Jordan block that the resolvent route rejects
    problem = write_problem(tmp_path, {
        "version": 1,
        "hilbert_dim": 2,
        "dfs": [0],
        "hamiltonian": [[pair(0), pair(1)], [pair(0), pair(0)]],
        "jumps": [matrix(np.zeros((2, 2)))],
    })
    code = main(["effective", problem, "--force"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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


def test_verify_zero_trials(tmp_path):
    assert main(["verify", "--random", "2", "2", "0", "1"]) == 0


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


def test_qec_unknown_code(capsys):
    assert main(["qec", "surface"]) == 2
    assert "repetition" in capsys.readouterr().err


def test_qec_requires_mode(capsys):
    assert main(["qec", "repetition"]) == 2
    assert "--miscal" in capsys.readouterr().err


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
    assert "fitted slope" in capsys.readouterr().out


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


def test_evolve_rejects_bad_epsilons(tmp_path, capsys):
    problem = three_level_problem(tmp_path)
    assert main(["evolve", problem, "--epsilons", "0.04,-0.02"]) == 2


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
