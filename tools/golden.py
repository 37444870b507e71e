"""Golden gate: run a fixed set of `ejof` commands against two source trees and compare.

    python tools/golden.py OLD_SRC NEW_SRC

Each tree is a directory that holds the `ejof` package (for example `src`).
Every command runs in a fresh interpreter with that tree first on
PYTHONPATH, one BLAS thread, and a working directory of its own, into which
the same problem files are written for both trees. The gate compares, per
command:

* the exit code;
* stderr, with the tree's path replaced by `<src>`;
* stdout, with the `done in ... s` timing line masked;
* the `--out` report, byte for byte;
* the `--plot-data` CSV, byte for byte.

For each report that differs, it prints how many numbers differ and the
largest relative difference, over all numbers and over those whose magnitude
exceeds NONVANISHING. It then sorts the commands that differ into three
lists: those whose exit code or a verdict line of stdout (`name: pass|FAIL`,
`all passed: ...`) differs; those that differ only in numbers; and the rest.
It exits 0 when every command matches on every count, and 1 otherwise. Run
with the same tree on both sides, it is a cross-process determinism check on
the reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# Numbers at or below this magnitude are read as vanishing (round-off).
NONVANISHING = 1e-12
TIMEOUT_S = 600
DONE_LINE = re.compile(r"^done in [0-9.]+ s$", re.MULTILINE)
RUNNER = "import sys; from ejof.cli import main; sys.exit(main(sys.argv[1:]))"
VERDICT_LINE = re.compile(r"^(?:[\w .-]+: (?:pass|FAIL|skipped)|all passed: .*)$", re.MULTILINE)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
                    r"|\b(?:NaN|nan|inf|Infinity)\b")


# ---------------------------------------------------------------------------
# Problem files


def _matrix(dim: int, entries: dict) -> list:
    """dim x dim matrix as [re, im] pairs, zero except the given (i, j) -> value."""
    values = [[complex(entries.get((i, j), 0)) for j in range(dim)] for i in range(dim)]
    return [[[z.real, z.imag] for z in row] for row in values]


def _repetition(kind: str, eps: float, with_states: bool = False) -> dict:
    """Three-qubit repetition code: DFS |000>, |111>, jumps P X_l, deformations eps Pauli_l."""
    jumps, fs = [], []
    for qubit in range(3):
        bit = 1 << (2 - qubit)  # qubit 0 is the most significant bit
        jumps.append(_matrix(8, {(0, bit): 1, (7, 7 ^ bit): 1}))
        if kind == "X":
            fs.append(_matrix(8, {(i, i ^ bit): eps for i in range(8)}))
        else:
            fs.append(_matrix(8, {(i, i): -eps if i & bit else eps for i in range(8)}))
    problem = {"version": 1, "hilbert_dim": 8, "dfs": [0, 7], "jumps": jumps,
               "perturbation": {"f": fs}}
    if with_states:
        plus = {(0, 0): 0.5, (0, 7): 0.5, (7, 0): 0.5, (7, 7): 0.5}
        problem["initial_states"] = [_matrix(8, {(0, 0): 1}), _matrix(8, plus)]
    return problem


def _two_rates(fast: float, slow: float, f: float, v: dict | None = None) -> dict:
    """D = 4, DFS {0, 1}: level 2 decays into 0 at rate fast, level 3 into 1 at slow.

    v gives the upper entries of a Hermitian perturbation V.
    """
    pert = {"f": [_matrix(4, {(0, 1): f})]}
    if v is not None:
        pert["v"] = _matrix(4, {**v, **{(j, i): x for (i, j), x in v.items()}})
    return {"version": 1, "hilbert_dim": 4, "dfs": [0, 1],
            "jumps": [_matrix(4, {(0, 2): fast ** 0.5}), _matrix(4, {(1, 3): slow ** 0.5})],
            "perturbation": pert}


def _scenario(name: str, **params) -> dict:
    return {"version": 1, "scenario": {"name": name, **params}}


def _explicit(hamiltonian: dict, with_states: bool = False) -> dict:
    """The explicit system of the README, with the given Hamiltonian entries."""
    problem = {
        "version": 1, "hilbert_dim": 3, "dfs": [0, 1],
        "hamiltonian": _matrix(3, hamiltonian),
        "jumps": [_matrix(3, {(0, 2): 1.4142})],
        "perturbation": {"v": _matrix(3, {}), "f": [_matrix(3, {(0, 1): 0.2})]},
        "tol": 1e-9, "seed": 0,
    }
    if with_states:
        plus = {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
        problem["initial_states"] = [_matrix(3, {(1, 1): 1}), _matrix(3, plus)]
    return problem


def _rotated(problem: dict) -> dict:
    """The same system in a basis turned by a fixed real rotation.

    Every matrix, initial states included, becomes R A R^T, and the DFS is
    given as the projector R P R^T, so its basis and that of the decaying
    block are dense.
    """
    c1, s1, c2, s2 = math.cos(0.3), math.sin(0.3), math.cos(1.1), math.sin(1.1)
    rot = [[c1, -s1 * c2, s1 * s2], [s1, c1 * c2, -c1 * s2], [0.0, s2, c2]]

    def turn(m: list) -> list:
        a = [[complex(*z) for z in row] for row in m]
        out = [[sum(rot[i][k] * a[k][l] * rot[j][l] for k in range(3) for l in range(3))
                for j in range(3)] for i in range(3)]
        return [[[z.real, z.imag] for z in row] for row in out]

    dfs = _matrix(3, {(i, i): 1 for i in problem["dfs"]})
    pert = problem["perturbation"]
    turned = dict(problem, dfs=turn(dfs), hamiltonian=turn(problem["hamiltonian"]),
                  jumps=[turn(f) for f in problem["jumps"]],
                  perturbation={"v": turn(pert["v"]), "f": [turn(f) for f in pert["f"]]})
    if "initial_states" in problem:
        turned["initial_states"] = [turn(rho) for rho in problem["initial_states"]]
    return turned


PROBLEMS = {
    "explicit.json": _explicit({(2, 2): 1}),
    # The README system with its DFS as a dense projector matrix.
    "rotated.json": _rotated(_explicit({(2, 2): 1})),
    "rotated_states.json": _rotated(_explicit({(2, 2): 1}, with_states=True)),
    # H couples the DFS to the decaying level: the structure check fails.
    "rotated_leak.json": _rotated(_explicit({(2, 2): 1, (0, 2): 0.1, (2, 0): 0.1})),
    "not_projector.json": dict(_explicit({(2, 2): 1}), dfs=_matrix(3, {(0, 0): 2})),
    # H couples the DFS to the decaying level by 1e-12, below the structure tolerance.
    "leaky.json": _explicit({(2, 2): 1, (0, 2): 1e-12, (2, 0): 1e-12}),
    "rep_x.json": _repetition("X", 0.01),
    "rep_z.json": _repetition("Z", 0.01),
    "rep_evolve.json": _repetition("Z", 1.0, with_states=True),
    "three_level.json": _scenario("three-level", delta=2.0, Gamma=2.0, gamma=1.0),
    "cancellation.json": _scenario("cancellation"),
    "coherent.json": _scenario("coherent-cancel"),
    "universal.json": _scenario("universal", scale=0.3),
    # Rates 1e4 and 1e-4: the structure check fails on this generator.
    "separation.json": _two_rates(1e4, 1e-4, 0.0),
    # The same rates with a V that couples each DFS level to the other's
    # decaying level: forced, L_eff is nonzero.
    "separation_v.json": _two_rates(1e4, 1e-4, 0.0, v={(0, 3): 0.1, (1, 2): 0.2}),
    # Rates 1 and 1e-15: L_rr is numerically singular (pivot ratio 1e-15).
    "singular.json": _two_rates(1.0, 1e-15, 0.1),
    # A steady DFS whose jump has an lr entry |2><2|: a block check fails.
    "lr_jump.json": dict(_explicit({(2, 2): 1}), jumps=[_matrix(3, {(0, 2): 1.4142, (2, 2): 0.5})]),
    # Gaps within 100x of the zero cut: L^D warns.
    "gap_f1.json": _two_rates(1.0, 2e-7, 0.1),
    "gap_f002.json": _two_rates(0.02, 2e-7, 0.1),
    # A tolerance no verdict can meet: an input error.
    "zero_tol.json": dict(_explicit({(2, 2): 1}), tol=0),
    # H_22 = 1 + 0.5i is the only defect: H is not Hermitian.
    "non_hermitian_h.json": _explicit({(2, 2): 1 + 0.5j}),
    # An initial state whose Hermitian part is a DFS state, but which is not Hermitian.
    "skew_state.json": dict(_explicit({(2, 2): 1}),
                            initial_states=[_matrix(3, {(0, 0): 0.5, (0, 1): 1, (1, 1): 0.5})]),
}

GRID = ["--epsilons", "0.04,0.02,0.01", "--taus", "0.5,1,2,5"]

# name -> argv. Every command but --help gets `--out reports/NAME.json`.
COMMANDS = {
    "effective-explicit": ["effective", "explicit.json"],
    "verify-explicit": ["verify", "explicit.json"],
    "effective-rotated": ["effective", "rotated.json"],
    "verify-rotated": ["verify", "rotated.json"],
    "evolve-rotated": ["evolve", "rotated_states.json", *GRID],
    "effective-rotated-leak-force": ["effective", "rotated_leak.json", "--force"],
    "effective-not-projector": ["effective", "not_projector.json"],
    "effective-leaky": ["effective", "leaky.json"],
    "verify-leaky": ["verify", "leaky.json"],
    "effective-rep-x": ["effective", "rep_x.json"],
    "effective-rep-z": ["effective", "rep_z.json"],
    "verify-rep-x": ["verify", "rep_x.json"],
    "verify-rep-z": ["verify", "rep_z.json"],
    "effective-three-level": ["effective", "three_level.json"],
    "verify-three-level": ["verify", "three_level.json"],
    "effective-cancellation": ["effective", "cancellation.json"],
    "verify-cancellation": ["verify", "cancellation.json"],
    "effective-coherent": ["effective", "coherent.json"],
    "verify-coherent": ["verify", "coherent.json"],
    "effective-universal": ["effective", "universal.json", "--seed", "2"],
    "verify-universal": ["verify", "universal.json"],
    "verify-random-2-3": ["verify", "--random", "2", "3", "20", "0"],
    "verify-random-4-16": ["verify", "--random", "4", "16", "1", "0"],
    "verify-random-1-2": ["verify", "--random", "1", "2", "5", "0"],
    "verify-random-2-12": ["verify", "--random", "2", "12", "2", "3"],
    "scenario-three-level": ["scenario", "three-level", "--delta", "1"],
    "scenario-three-level-dark": ["scenario", "three-level", "--delta", "0"],
    "scenario-three-level-flags": ["scenario", "three-level", "--delta", "1.5", "--Gamma", "3",
                                   "--gamma", "0.1"],
    "scenario-cancellation": ["scenario", "cancellation"],
    "scenario-cancellation-blocks": ["scenario", "cancellation", "--blocks", "2,2,2",
                                     "--pert-scale", "0.5"],
    "scenario-cancellation-bad-blocks": ["scenario", "cancellation", "--blocks", "2,3"],
    "scenario-coherent": ["scenario", "coherent-cancel"],
    "scenario-coherent-keep": ["scenario", "coherent-cancel", "--keep-induced-hamiltonian"],
    "scenario-universal": ["scenario", "universal"],
    "scenario-universal-flags": ["scenario", "universal", "--scale", "0.3", "--decaying-dim", "4",
                                 "--n-jumps", "4", "--seed", "5"],
    "scenario-universal-targets": ["scenario", "universal", "--targets", "foo"],
    "scenario-universal-two-jumps": ["scenario", "universal", "--n-jumps", "2"],
    "scenario-universal-wide": ["scenario", "universal", "--decaying-dim", "12"],
    "scenario-unknown": ["scenario", "warp-drive"],
    "scenario-foreign-flag": ["scenario", "three-level", "--blocks", "2,2"],
    "scenario-negative-tol": ["scenario", "three-level", "--tol", "-1"],
    "qec-x": ["qec", "repetition", "--miscal", "X"],
    "qec-y": ["qec", "repetition", "--miscal", "Y"],
    "qec-z": ["qec", "repetition", "--miscal", "Z"],
    "qec-obstruction": ["qec", "repetition", "--obstruction"],
    "qec-obstruction-flags": ["qec", "repetition", "--obstruction", "--seed", "3",
                              "--hamiltonian-scale", "0.5"],
    # Flags the mode does not read are input errors.
    "qec-obstruction-miscal": ["qec", "repetition", "--obstruction", "--miscal", "X"],
    "qec-miscal-hamiltonian-scale": ["qec", "repetition", "--miscal", "X",
                                     "--hamiltonian-scale", "0.5"],
    # A zero miscalibration is an input error in both modes.
    "qec-obstruction-zero-eps": ["qec", "repetition", "--obstruction", "--eps", "0"],
    "qec-miscal-zero-eps": ["qec", "repetition", "--miscal", "X", "--eps", "0"],
    # So is an eps whose L_eff norm would overflow or underflow.
    "qec-miscal-huge-eps": ["qec", "repetition", "--miscal", "X", "--eps", "1e150"],
    "qec-obstruction-tiny-eps": ["qec", "repetition", "--obstruction", "--eps", "1e-200"],
    "evolve-three-level": ["evolve", "three_level.json", *GRID,
                           "--plot-data", "plots/evolve-three-level"],
    "evolve-rep": ["evolve", "rep_evolve.json", *GRID, "--plot-data", "plots/evolve-rep"],
    # t up to 5e8: the slow-subspace propagator, far below the dense round-off floor.
    "evolve-three-level-small-eps": ["evolve", "three_level.json", "--epsilons", "4e-4,2e-4,1e-4",
                                     "--taus", "0.5,1,2,5"],
    # t = tau/eps starts below the horizon: dense and slow cells in one sweep.
    "evolve-first-order": ["evolve", "three_level.json", *GRID, "--mode", "first-order"],
    "evolve-unwritable-plot-data": ["evolve", "three_level.json", "--epsilons", "0.04,0.02",
                                    "--taus", "1", "--plot-data", "/dev/null/x"],
    "effective-separation": ["effective", "separation.json"],
    "effective-separation-force": ["effective", "separation.json", "--force"],
    "effective-separation-v-force": ["effective", "separation_v.json", "--force"],
    "effective-singular-force": ["effective", "singular.json", "--force"],
    "effective-lr-jump-force": ["effective", "lr_jump.json", "--force"],
    # --force waives neither a non-Hermitian H nor does evolve take a non-Hermitian state.
    "effective-non-hermitian-h-force": ["effective", "non_hermitian_h.json", "--force"],
    "evolve-skew-state": ["evolve", "skew_state.json", "--taus", "1"],
    "effective-gap-f1": ["effective", "gap_f1.json"],
    "effective-gap-f002": ["effective", "gap_f002.json"],
    "effective-unread-seed": ["effective", "three_level.json", "--seed", "5"],
    # The runner's input gate and its tol and seed resolution: flag, then file, then default.
    "verify-file-and-random": ["verify", "rep_x.json", "--random", "2", "2", "1", "0"],
    "verify-random-seed": ["verify", "--random", "2", "2", "1", "0", "--seed", "1"],
    "effective-cancellation-seed-tol": ["effective", "cancellation.json", "--seed", "3",
                                        "--tol", "1e-8"],
    "effective-zero-tol": ["effective", "zero_tol.json"],
    "verify-missing-file": ["verify", "no_such_file.json"],
    "help": ["--help"],
    "help-scenario": ["scenario", "--help"],
    "help-qec": ["qec", "--help"],
    "help-evolve": ["evolve", "--help"],
}


# ---------------------------------------------------------------------------
# Running and comparing


def run_tree(src: Path, work: Path) -> dict:
    """Run every command against the tree src in work; name -> (code, stdout, stderr)."""
    work.mkdir(parents=True)
    for name, problem in PROBLEMS.items():
        (work / name).write_text(json.dumps(problem))
    (work / "reports").mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    for name, argv in COMMANDS.items():
        if "--help" not in argv:
            argv = [*argv, "--out", f"reports/{name}.json"]
        proc = subprocess.run([sys.executable, "-c", RUNNER, *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        stdout = DONE_LINE.sub("done in <s> s", proc.stdout)
        results[name] = (proc.returncode, stdout, proc.stderr.replace(str(src), "<src>"))
    return results


def _numbers(a, b, path=""):
    """Yield (path, x, y) for each pair of numbers at the same place in two JSON trees.

    Raises ValueError at the first place where the trees differ in shape.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise ValueError(f"{path or '/'}: keys differ")
        for key in a:
            yield from _numbers(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(f"{path}: lengths {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _numbers(x, y, f"{path}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        yield path, a, b
    elif a != b:
        raise ValueError(f"{path}: {a!r} != {b!r}")


def report_difference(old: bytes, new: bytes) -> str:
    """One line on how two reports differ: structure, or the largest relative differences."""
    try:
        pairs = [(p, x, y) for p, x, y in _numbers(json.loads(old), json.loads(new)) if x != y]
    except ValueError as err:
        return f"structure differs at {err}"
    if not pairs:
        return "same values, different text"

    def worst(candidates):
        path, x, y = max(candidates, key=lambda c: abs(c[1] - c[2]) / max(abs(c[1]), abs(c[2])))
        return f"{abs(x - y) / max(abs(x), abs(y)):.2e} at {path} ({x!r} -> {y!r})"

    line = f"{len(pairs)} numbers differ; largest relative {worst(pairs)}"
    big = [c for c in pairs if max(abs(c[1]), abs(c[2])) > NONVANISHING]
    return line + (f"; on a value above {NONVANISHING:g}: {worst(big)}" if big
                   else f"; none above {NONVANISHING:g}")


def _numbers_only(old: bytes, new: bytes, rel: Path) -> bool:
    """Whether two outputs differ in their numbers alone."""
    if rel.suffix == ".json":
        try:
            list(_numbers(json.loads(old), json.loads(new)))
        except ValueError:
            return False
        return True
    return NUMBER.sub("#", old.decode()) == NUMBER.sub("#", new.decode())


def compare(old_work: Path, new_work: Path, old: dict, new: dict) -> tuple[list[str], dict]:
    """Lines naming every difference between the two runs, and the kind of each differing command.

    The kind is "verdict" when the exit code or a verdict line differs,
    "numbers" when only numbers differ, and "other" otherwise.
    """
    lines, kinds = [], {}
    for name in COMMANDS:
        (code_a, out_a, err_a), (code_b, out_b, err_b) = old[name], new[name]
        found, numeric = len(lines), True
        if code_a != code_b:
            lines.append(f"{name}: exit code {code_a} -> {code_b}")
        if err_a != err_b:
            lines.append(f"{name}: stderr differs:\n  old: {err_a!r}\n  new: {err_b!r}")
            numeric &= _numbers_only(err_a.encode(), err_b.encode(), Path("stderr"))
        if out_a != out_b:
            lines.append(f"{name}: stdout differs:\n  old: {out_a!r}\n  new: {out_b!r}")
            numeric &= _numbers_only(out_a.encode(), out_b.encode(), Path("stdout"))
        outputs = [Path("reports") / f"{name}.json"]
        outputs += [p.relative_to(old_work) for p in (old_work / "plots" / name).glob("*.csv")]
        for rel in outputs:
            a, b = old_work / rel, new_work / rel
            if a.exists() != b.exists():
                lines.append(f"{name}: {rel} written on one side only")
                numeric = False
            elif a.exists() and a.read_bytes() != b.read_bytes():
                detail = (report_difference(a.read_bytes(), b.read_bytes())
                          if rel.suffix == ".json" else "bytes differ")
                lines.append(f"{name}: {rel}: {detail}")
                numeric &= _numbers_only(a.read_bytes(), b.read_bytes(), rel)
        if code_a != code_b or VERDICT_LINE.findall(out_a) != VERDICT_LINE.findall(out_b):
            kinds[name] = "verdict"
        elif len(lines) > found:
            kinds[name] = "numbers" if numeric else "other"
    return lines, kinds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree holding the ejof package")
    parser.add_argument("new", type=Path, help="source tree to compare against it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ejof-golden-") as tmp:
        work = Path(tmp)
        runs = {side: run_tree(tree.resolve(), work / side)
                for side, tree in (("old", args.old), ("new", args.new))}
        lines, kinds = compare(work / "old", work / "new", runs["old"], runs["new"])
        written = len(list((work / "old" / "reports").glob("*.json")))
    for line in lines:
        print(line)
    print(f"{len(COMMANDS)} commands, {written} reports written on the old side, "
          f"{len(lines)} differences")
    for kind, title in (("verdict", "exit code or verdict line changed"),
                        ("numbers", "numbers only"), ("other", "other differences")):
        names = [name for name, k in kinds.items() if k == kind]
        print(f"{title} ({len(names)}): {', '.join(names) or 'none'}")
    if not any(k == "verdict" for k in kinds.values()):
        print("no verdict changed")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
