"""Import hygiene: no unused imports, no unreferenced public function, and no
costly import a small run does not need.

The unused-import and unreferenced-function checks are stdlib stand-ins for a
linter's rules. ``__init__`` is skipped: its imports are the package's
re-exports, and a re-export is not a use.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ejof

MODULES = sorted(p for p in Path(ejof.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        "line 1: os", "line 2: dumps",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source: str) -> set[str]:
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unreferenced_functions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Public top-level functions of the named module sources that no module or reader names."""
    used = set().union(*map(referenced_names, [*modules.values(), *readers]))
    return [f"{name}: {node.name}" for name, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in used]


def test_detects_an_unreferenced_function():
    modules = {
        "a.py": "def called():\n    pass\n\ndef benched():\n    pass\n\n"
                "def dead():\n    pass\n\ndef _private():\n    pass\n",
        "b.py": "from .a import called\n\ndef run():\n    return called()\n",
    }
    bench = "from ejof import a, b\na.benched()\nb.run()\n"
    assert unreferenced_functions(modules, [bench]) == ["a.py: dead"]
    assert unreferenced_functions(modules, []) == ["a.py: benched", "a.py: dead", "b.py: run"]


BENCH = sorted((Path(ejof.__file__).parents[2] / "bench").glob("*.py"))


def test_every_public_function_is_referenced_by_the_package_or_the_benchmark():
    # Oracles and helpers that only tests call live in tests/oracles.py.
    assert BENCH, "bench/*.py not found next to the package source"
    modules = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_functions(modules, [path.read_text() for path in BENCH]) == []


def unset_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the public top-level functions of the module sources that no call sets.

    A call in a module or a caller sets a parameter by keyword or by
    position; a ``*`` argument sets every positional parameter, and a ``**``
    argument every parameter. Calls are matched by the name of the callee,
    whatever object it is read from.
    """
    calls = {}  # callee name -> [(positional count, keyword names or None for **)]
    for source in [*modules.values(), *callers]:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append((math.inf if starred else len(node.args),
                                               None if None in keywords else keywords))
    out = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = [(i, a.arg) for i, a in enumerate(positional)][len(positional) - len(args.defaults):]
            defaulted += [(math.inf, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for index, param in defaulted:
                if not any(count > index or keywords is None or param in keywords
                           for count, keywords in calls.get(node.name, [])):
                    out.append(f"{module}: {node.name}({param})")
    return out


def test_detects_a_default_no_call_sets():
    modules = {"a.py": "def f(x, y=1, z=2, *, k=3, m=4):\n    pass\n\n"
                       "def g(a=1):\n    pass\n\ndef _h(b=1):\n    pass\n"}
    caller = "from a import f\nf(0, 5)\nf(0, m=1)\nobj.g(*args)\n"
    assert unset_defaults(modules, [caller]) == ["a.py: f(z)", "a.py: f(k)"]
    assert unset_defaults(modules, [caller, "f(**options)\n"]) == []
    assert unset_defaults(modules, []) == ["a.py: f(y)", "a.py: f(z)", "a.py: f(k)", "a.py: f(m)",
                                           "a.py: g(a)"]


CALLERS = sorted(path for folder in ("bench", "tests", "tools")
                 for path in (Path(ejof.__file__).parents[2] / folder).glob("*.py"))


def test_every_default_of_a_public_function_is_set_by_some_call():
    # A default that no call in the package, the benchmark, the tests or the
    # tools overrides is a constant: it belongs in the body, named.
    assert CALLERS, "bench/, tests/ and tools/ not found next to the package source"
    modules = {path.name: path.read_text() for path in MODULES}
    assert unset_defaults(modules, [path.read_text() for path in CALLERS]) == []


def imports_cli(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "ejof.cli" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".cli", "ejof.cli") or (
                    module in (".", "ejof") and any(a.name == "cli" for a in node.names)):
                return True
    return False


def test_detects_a_cli_import():
    assert all(imports_cli(src) for src in (
        "from .cli import main\n", "from . import cli\n", "import ejof.cli\n",
        "from ejof.cli import main\n", "from ejof import cli\n"))
    assert not imports_cli("from .scenarios import cli\nfrom .clifford import x\n")


LIBRARY = [p for p in MODULES if p.name != "cli.py"]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_only_cli_imports_cli(path):
    # The report format and the command line sit on top: the library never reaches up.
    assert not imports_cli(path.read_text())


def test_cli_run_does_not_import_scipy_sparse():
    # Nothing in ejof needs scipy.sparse, so no run pays for importing it: not
    # a small scenario, nor a wide verify draw (n^2 = 256 decaying columns).
    code = ("import sys\n"
            "from ejof.cli import main\n"
            "assert main(['scenario', 'three-level', '--delta', '0']) == 0\n"
            "assert main(['verify', '--random', '4', '16', '1', '0']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ejof.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


ROUTE_FUNCTIONS = {"effective_lindbladian_general", "effective_lindbladian_closed",
                   "effective_to_superop", "_general_blocks", "_rank_two_blocks",
                   "_stacked_blocks", "verify_equivalence", "identity_suite",
                   "corner_sensitivity"}


@pytest.mark.parametrize("name", ["cli.py", "scenarios.py"])
def test_commands_and_scenarios_read_the_routes_through_a_study(name):
    # A Study runs each route and check once per (generator, perturbation);
    # a direct call here would run one again.
    tree = ast.parse((Path(ejof.__file__).parent / name).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & ROUTE_FUNCTIONS
