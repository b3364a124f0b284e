"""Properties of the package source itself."""

import ast
from pathlib import Path

import dlwlab

SOURCES = sorted(Path(dlwlab.__file__).parent.glob("*.py"))


def test_no_module_calls_eval_or_exec():
    """Generated code is never run through ``eval``: every numeric use of an
    expression tree goes through the closure compiler in ``analytic``."""
    assert SOURCES
    calls = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("eval", "exec")
    ]
    assert calls == []
