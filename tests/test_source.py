"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import dlwlab
from dlwlab.systems import physical_system, potential_system

SOURCES = sorted(Path(dlwlab.__file__).parent.glob("*.py"))


def test_no_module_calls_eval_or_exec():
    """Generated code is never run through ``eval``: every numeric use of an
    expression tree goes through the program compiler in ``analytic``."""
    assert SOURCES
    calls = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("eval", "exec")
    ]
    assert calls == []


def test_every_module_parses_at_the_oldest_supported_python():
    """``requires-python`` is ">=3.10": every module parses with Python
    3.10's grammar, so no later syntax slips in."""
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_only_systems_builds_an_evolution_system():
    """The pairs are built once per process in ``systems``; no other module
    calls ``EvolutionSystem(``, so none rebuilds a pair per call."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "EvolutionSystem" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert {c.split(":")[0] for c in calls} == {"systems.py"}, calls


def test_only_systems_spells_out_the_field_names():
    """The field names come from a system's ``deps``: no module but
    ``systems`` holds a tuple literal of dependent-variable names such as
    ``("u", "v")`` or ``("q", "r")``, so none types the pair out again."""
    names = {*physical_system().deps, *potential_system().deps}
    literals = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Tuple)
        and node.elts
        and all(isinstance(e, ast.Constant) and e.value in names for e in node.elts)
    ]
    assert {c.split(":")[0] for c in literals} == {"systems.py"}, literals


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


def test_jet_keys_hash_and_compare_as_tuples():
    """``JetVar`` and ``JetMonomial`` are the dict keys of every polynomial;
    they are namedtuples so that their hash, ``==`` and ``<`` run in C.
    ``jet.py`` defines none of those methods on them, in the class body or
    by assignment afterwards, and caches no ``_hash``."""
    from dlwlab.jet import JetMonomial, JetVar

    path = Path(dlwlab.__file__).parent / "jet.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    banned = {"__hash__", "__eq__", "__lt__", "_hash"}
    for name in ("JetVar", "JetMonomial"):
        cls = classes[name]
        (base,) = cls.bases
        assert isinstance(base, ast.Call) and isinstance(base.func, ast.Name) and base.func.id == "namedtuple"
        defined = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute):
                defined.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                defined.add(node.value)
        assert defined & banned == set(), name
    patched = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("JetVar", "JetMonomial")
    ]
    assert patched == []
    for cls in (JetVar, JetMonomial):
        assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__ and cls.__lt__ is tuple.__lt__


def _load_tracer():
    """The benchmark's tracer module, loaded from its file by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_after_import():
    """Every ``(module, attribute)`` that the benchmark's tracer wraps
    (``TRACED_FUNCTIONS``) or counts (``COUNTED_METHODS``) exists once the
    tracer has imported the package, so a deletion or rename that would
    break only the traced benchmark run fails here."""
    tracing = _load_tracer()
    tracing.import_package()
    assert tracing.TRACED_FUNCTIONS and tracing.COUNTED_METHODS
    for mod_name, attr in tracing.TRACED_FUNCTIONS.values():
        assert callable(getattr(sys.modules[mod_name], attr, None)), (mod_name, attr)
    for mod_name, cls_name, method in tracing.COUNTED_METHODS.values():
        cls = getattr(sys.modules[mod_name], cls_name, None)
        assert callable(getattr(cls, method, None)), (mod_name, cls_name, method)


def test_benchmark_import_surface_resolves():
    """Every other name the benchmark calls exists, so a deletion that
    would break its workloads fails here rather than only there."""
    from fractions import Fraction

    import numpy as np

    from dlwlab import analytic, jet, report, sim, solutions
    from dlwlab.solutions import family_registry

    assert callable(sim.compile_expr)
    # as the benchmark's rhs probe samples the kink
    x = np.linspace(-20.0, 20.0, 16)
    u = analytic.compile_expr(family_registry()["eq93"].u_expr, {"mu": 1.0})(x, 0.0)
    assert u.shape == x.shape and np.isfinite(u).all()
    # one call of each constructor and entry point the workloads build their
    # inputs and checks with, called as they call it
    m = jet.JetMonomial.make({jet.JetVar("u", 1, 0): 2, jet.JetVar("v", 0, 1): 1}, 1, 0)
    p = jet.JetPoly({m: Fraction(-3, 2)})
    op = jet.LinearDiffOp(((((jet.OpTerm(p, 1, 0),),),)))
    assert jet.apply_op(op, (jet.JetPoly.var("v"),)) == (jet.total_derivative(jet.JetPoly.var("v"), "x") * p,)
    grid = sim.Grid1D(-20.0, 20.0, 128)
    sim.SimConfig(
        grid=grid,
        t_end=grid.dx**3,
        dt=0.2 * grid.dx**3,
        boundary="exact",
        family="eq93",
        binding={"mu": 1.0},
        monitors=("eq32", "eq33"),
        output_stride=20,
    )
    records = solutions.scan_family("eq93", n_samples=2, seed=0)
    fields = {"family", "passes", "samples_used", "samples_skipped", "max_residual", "per_equation"}
    assert records and all(fields <= set(rec) for rec in records)
    assert report.report_to_json_text(report.run_suite("symmetry")).startswith("{")


def test_every_public_name_exists():
    for path in SOURCES:
        if path.stem == "__main__":  # running it runs the command line
            continue
        module = importlib.import_module(f"dlwlab.{path.stem}" if path.stem != "__init__" else "dlwlab")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], path.name


def test_run_suite_calls_the_traced_entry_points(monkeypatch):
    """The benchmark times the catalog suites by wrapping the report's
    entry points as module attributes, so ``run_suite`` must look them up
    when it is called, not bind them at import."""
    from dlwlab import report

    traced = sorted(
        attr for mod_name, attr in _load_tracer().TRACED_FUNCTIONS.values() if mod_name == "dlwlab.report"
    )
    assert traced == ["adjoint_suite", "conslaw_suite", "symmetry_suite"]
    calls = []
    for attr in traced:

        def wrapped(*args, _attr=attr, _fn=getattr(report, attr), **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(report, attr, wrapped)
    for suite in ("symmetry", "adjoint", "conslaw"):
        calls.clear()
        report.run_suite(suite)
        assert calls == [f"{suite}_suite"]
    calls.clear()
    report.run_suite("all")
    assert sorted(calls) == traced


def test_no_numpy_at_import():
    """numpy is imported where a field is first evaluated, never by
    importing the command line, the report or the analytic layer, so that
    start-up does not pay for it."""
    code = "import sys, dlwlab.cli, dlwlab.report, dlwlab.solutions, dlwlab.analytic; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    src = str(Path(dlwlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
