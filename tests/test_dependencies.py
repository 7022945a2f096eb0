"""The package imports only the standard library and numpy.

scipy and other packages may be installed where the tests run, so an
import of one would work here and fail where only the declared
dependencies are.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reludyn"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "reludyn"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_declared_dependencies(path):
    assert _imported_roots(path) - ALLOWED == set()


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package mapped to the package modules its
    relative imports name."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update([node.module] if node.module
                             else (alias.name for alias in node.names))
        graph[path.stem] = names
    return graph


def test_package_imports_form_no_cycle():
    graph = _package_imports()
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_only_the_entry_points_import_experiments():
    # the runners' modules stay below the dispatcher, so a new runner
    # does not rebuild one module that every other one imports
    importers = {name for name, deps in _package_imports().items()
                 if "experiments" in deps}
    assert importers == {"cli", "__init__"}


def test_cli_import_loads_no_jsonschema():
    # jsonschema is installed for the tests, so only a fresh interpreter
    # shows what the package itself loads
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import reludyn.cli, sys; print('jsonschema' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout == "False\n"
