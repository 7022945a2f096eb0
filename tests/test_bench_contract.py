"""The names bench/child.py reaches inside reludyn must exist.

The benchmark wraps functions by (module, name) and rebinds every
reludyn module attribute bound to them, so a renamed or deleted function
breaks the benchmark, not this suite.  bench/child.py is read as text:
importing it would rewrite the BLAS environment variables.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def _child_tree() -> ast.Module:
    return ast.parse(CHILD.read_text(encoding="utf-8"))


def _resolves(mod_name: str, fn_name: str) -> bool:
    module = importlib.import_module(f"reludyn.{mod_name}")
    return callable(getattr(module, fn_name, None))


def test_bench_traced_functions_resolve():
    (traced,) = [
        ast.literal_eval(node.value) for node in _child_tree().body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    ]
    assert traced
    missing = [f"{m}.{f}" for m, f in traced if not _resolves(m, f)]
    assert not missing, f"bench/child.py traces missing functions: {missing}"


def test_bench_capture_targets_resolve():
    targets = {
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(_child_tree())
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "Capture"
    }
    assert {("dynamics", "gate_moments"), ("dynamics", "act_moments"),
            ("net", "backward")} <= targets
    missing = [f"{m}.{f}" for m, f in sorted(targets) if not _resolves(m, f)]
    assert not missing, f"bench/child.py captures missing functions: {missing}"
