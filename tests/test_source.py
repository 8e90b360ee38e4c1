"""Source-level checks: every module parses at the oldest Python that
pyproject.toml admits, its console script enters the CLI through run(),
the package states its runtime invariants as raised errors, which
python -O cannot strip, not as assert statements, and importing the CLI
loads no process-pool machinery."""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_required_python_floor():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml states no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert ROOT / "src" / "alphax" / "cli.py" in paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_console_script_enters_through_run():
    # cli.run, like python -m alphax.cli, flushes and leaves through
    # os._exit; main() alone would skip both
    script = re.search(r'^alphax = "([\w.:]+)"$', (ROOT / "pyproject.toml").read_text(),
                       re.MULTILINE)
    assert script and script[1] == "alphax.cli:run"


def test_package_has_no_assert_statement():
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(ROOT.glob("src/alphax/**/*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_import_loads_no_process_pool_machinery():
    # the CLI forks its workers itself; concurrent.futures and
    # multiprocessing would add their import to every run's fixed cost
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    machinery = "sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules))"
    out = subprocess.run([sys.executable, "-c", f"import sys, alphax.cli; print({machinery})"],
                         env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    assert out == "[]\n"


def test_no_unused_imports():
    # no linter is among the test dependencies, so an import that its
    # module never reads again is caught here; an attribute chain such as
    # np.zeros reads its root name
    found = []
    paths = [p for p in ROOT.glob("src/alphax/*.py") if p.name != "__init__.py"]
    for path in sorted([*paths, *ROOT.glob("tests/*.py")]):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                  for alias in node.names
                  if (alias.asname or alias.name).split(".")[0] not in read]
    assert found == []
