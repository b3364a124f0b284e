"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of ``dlwlab`` from outside the
package: each wrapped call records a span (name, start, end, parent span)
and adds its duration and self time, which is the duration minus the time
covered by its direct child spans, to the statistics of the current pass.
Modules bind imported names at import time, so a function is replaced in
every ``dlwlab`` module that holds it. ``uninstall`` restores every
original.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

# span name -> (module, attribute) of the traced public function
TRACED_FUNCTIONS = {
    "jet.total_derivative": ("dlwlab.jet", "total_derivative"),
    "jet.euler_operator": ("dlwlab.jet", "euler_operator"),
    "jet.reduce_on_shell": ("dlwlab.jet", "reduce_on_shell"),
    "jet.apply_op": ("dlwlab.jet", "apply_op"),
    "jet.formal_adjoint": ("dlwlab.jet", "formal_adjoint"),
    "report.symmetry": ("dlwlab.report", "symmetry_suite"),
    "report.adjoint": ("dlwlab.report", "adjoint_suite"),
    "report.conslaw": ("dlwlab.report", "conslaw_suite"),
    "adjoint.action1": ("dlwlab.adjoint", "action1"),
    "adjoint.lift_onshell_operator": ("dlwlab.adjoint", "lift_onshell_operator"),
    "adjoint.decompose_components": ("dlwlab.adjoint", "decompose_components"),
    "adjoint.build_action_table": ("dlwlab.adjoint", "build_action_table"),
    "adjoint.sq_bracket": ("dlwlab.adjoint", "sq_bracket"),
    "symmetry.frechet_derivative": ("dlwlab.symmetry", "frechet_derivative"),
    "conslaw.divergence_residual": ("dlwlab.conslaw", "divergence_residual"),
    "linalg.solve_exact": ("dlwlab.linalg", "solve_exact"),
    "analytic.residual_max": ("dlwlab.analytic", "residual_max"),
    "analytic.system_residual_exprs": ("dlwlab.analytic", "system_residual_exprs"),
    "analytic.evaluate": ("dlwlab.analytic", "evaluate"),
    "solutions.family_registry": ("dlwlab.solutions", "family_registry"),
    "sim.integrate": ("dlwlab.sim", "integrate"),
    "sim.rhs": ("dlwlab.sim", "rhs"),
}

# counter name -> (module, class, method) whose calls are counted
COUNTED_METHODS = {
    "jet.poly_mul": ("dlwlab.jet", "JetPoly", "__mul__"),
    "jet.poly_add": ("dlwlab.jet", "JetPoly", "__add__"),
}

GHOST_SPAN = "sim.ghost_eval"


def import_package() -> list:
    """Import every ``dlwlab`` module, so that each binding of a traced
    name exists before it is patched."""
    import dlwlab

    for info in pkgutil.iter_modules(dlwlab.__path__):
        if not info.name.startswith("__"):
            importlib.import_module(f"dlwlab.{info.name}")
    return [m for name, m in sys.modules.items() if name == "dlwlab" or name.startswith("dlwlab.")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self._stack: list[list] = []  # [span id, time covered by child spans]
        # per pass: span name -> [calls, total seconds, self seconds]
        self.passes: list[dict[str, list[float]]] = []
        self.counts: list[Counter] = []
        self.max_terms = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_pass(self) -> None:
        self.passes.append({})
        self.counts.append(Counter())

    def count(self, name: str, n: float = 1) -> None:
        self.counts[-1][name] += n

    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def wrap(self, fn: Callable, name: str, on_result: Callable | None = None) -> Callable:
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_pass.append(len(self.passes) - 1)
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_end[sid] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = self.passes[-1].setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _note_terms(self, result) -> None:
        from dlwlab.jet import JetPoly

        polys = result if isinstance(result, tuple) else (result,)
        for p in polys:
            if isinstance(p, JetPoly) and len(p) > self.max_terms:
                self.max_terms = len(p)

    def _note_samples(self, rep) -> None:
        self.count("analytic.samples_used", rep.samples_used)
        self.count("analytic.samples_skipped", rep.samples_skipped)

    def _note_steps(self, res) -> None:
        self.count("sim.steps", res.steps)

    # -- patching ----------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules: list, attr: str, original: object, value: object) -> None:
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._set(mod, attr, value)

    def install(self) -> None:
        modules = import_package()
        hooks = {
            "analytic.residual_max": self._note_samples,
            "sim.integrate": self._note_steps,
        }
        for name, (mod_name, attr) in TRACED_FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            hook = hooks.get(name, self._note_terms if name.startswith("jet.") else None)
            self._replace_everywhere(modules, attr, original, self.wrap(original, name, hook))

        for name, (mod_name, cls_name, method) in COUNTED_METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, method, self._counting(getattr(cls, method), name))

        # the ghost callables are made per integrate call by compile_expr
        sim = sys.modules["dlwlab.sim"]
        compile_expr = sim.compile_expr

        def compile_traced(*args, **kwargs):
            return self.wrap(compile_expr(*args, **kwargs), GHOST_SPAN)

        self._set(sim, "compile_expr", compile_traced)

    def _counting(self, method: Callable, name: str) -> Callable:
        def counted(*args, **kwargs):
            self.counts[-1][name] += 1
            return method(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def per_pass(self, name: str, field: str) -> list[float]:
        """One value per traced pass: ``calls``, ``s`` (total span time),
        ``self_s``, or ``count`` for a counter."""
        if field == "count":
            return [c.get(name, 0) for c in self.counts]
        index = {"calls": 0, "s": 1, "self_s": 2}[field]
        return [p.get(name, [0, 0.0, 0.0])[index] for p in self.passes]

    def dump(self, path: Path) -> None:
        """Write every span as columns: name id, pass, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "pass": self.span_pass.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }
        path.write_text(json.dumps(data, separators=(",", ":")), encoding="utf-8")
