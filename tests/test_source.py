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


def test_jet_kernel_has_no_float_and_divides_only_fractions():
    """The jet kernel keeps integer numerators, where a stray ``/`` would
    silently make a float: ``jet.py`` holds no float literal and no
    ``float`` name, and the left operand of every true division is a
    ``Fraction(...)`` call."""
    path = Path(dlwlab.__file__).parent / "jet.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    floats = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert floats == []
    divisions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions
    bare = [
        node.lineno
        for node in divisions
        if not (
            isinstance(node, ast.BinOp)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "Fraction"
        )
    ]
    assert bare == []
