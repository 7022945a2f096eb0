"""The package imports only the standard library, numpy and jsonschema.

scipy and other packages may be installed where the tests run, so an
import of one would work here and fail where only the declared
dependencies are.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reludyn"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "jsonschema", "reludyn"}


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
