"""Unoptimized reference versions of the analytic evaluators, kept as test
oracles.

``evaluate`` walks the expression tree once per sample point with ``math``
and raises ``DomainError`` at the first guard it trips; ``residual_max``
calls it per sample and equation. ``compile_expr`` emits the tree as the
source of a numpy lambda and runs it through ``eval``, with no guards. The
closure compiler in ``dlwlab.analytic`` must agree with them: bit for bit
for ``compile_expr``, in the skipped samples and within rounding for the
residual scans.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from dlwlab.analytic import (
    SINGULARITY_GUARD,
    Add,
    AnalyticError,
    Const,
    Coord,
    Div,
    DomainError,
    Exp,
    Expr,
    Mul,
    Param,
    Pow,
    ResidualReport,
    Sech,
    SqrtConst,
    Tanh,
    UnboundParameter,
    system_residual_exprs,
)
from dlwlab.jet import EvolutionSystem


def evaluate(e: Expr, x: float, t: float, binding: Mapping[str, float | Fraction]) -> float:
    """Guarded double-precision evaluation; all free parameters must be
    bound. Near-zero denominators and non-finite intermediates raise
    DomainError so residual scans never silently average over a pole."""
    val = _eval(e, x, t, binding)
    if not math.isfinite(val):
        raise DomainError("non-finite value")
    return val


def _eval(e: Expr, x: float, t: float, b: Mapping[str, float | Fraction]) -> float:
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, SqrtConst):
        return math.sqrt(float(e.value))
    if isinstance(e, Coord):
        return x if e.name == "x" else t
    if isinstance(e, Param):
        try:
            return float(b[e.name])
        except KeyError:
            raise UnboundParameter(e.name) from None
    if isinstance(e, Add):
        return sum(_eval(a, x, t, b) for a in e.args)
    if isinstance(e, Mul):
        out = 1.0
        for a in e.args:
            out *= _eval(a, x, t, b)
        return out
    if isinstance(e, Div):
        den = _eval(e.den, x, t, b)
        if abs(den) < SINGULARITY_GUARD:
            raise DomainError("denominator below guard")
        return _eval(e.num, x, t, b) / den
    if isinstance(e, Pow):
        base = _eval(e.base, x, t, b)
        if e.exponent < 0 and abs(base) < SINGULARITY_GUARD:
            raise DomainError("negative power of near-zero base")
        try:
            return base**e.exponent
        except OverflowError:
            raise DomainError("overflow in power") from None
    if isinstance(e, Exp):
        arg = _eval(e.arg, x, t, b)
        if arg > 700.0:
            raise DomainError("exp overflow")
        return math.exp(arg)
    if isinstance(e, Tanh):
        return math.tanh(_eval(e.arg, x, t, b))
    if isinstance(e, Sech):
        return 1.0 / math.cosh(_eval(e.arg, x, t, b))
    raise AnalyticError(f"unknown node {type(e).__name__}")


def compile_expr(e: Expr, binding: Mapping[str, float | Fraction]) -> Callable:
    """Compile to a vectorizable ``f(x, t)`` with parameters baked in.
    No singularity guards; intended for pole-free fields inside the
    finite-difference solver."""
    import numpy as np

    def emit(node: Expr) -> str:
        if isinstance(node, Const):
            return repr(float(node.value))
        if isinstance(node, SqrtConst):
            return repr(math.sqrt(float(node.value)))
        if isinstance(node, Coord):
            return node.name
        if isinstance(node, Param):
            if node.name not in binding:
                raise UnboundParameter(node.name)
            return repr(float(binding[node.name]))
        if isinstance(node, Add):
            return "(" + "+".join(emit(a) for a in node.args) + ")"
        if isinstance(node, Mul):
            return "(" + "*".join(emit(a) for a in node.args) + ")"
        if isinstance(node, Div):
            return f"({emit(node.num)}/{emit(node.den)})"
        if isinstance(node, Pow):
            return f"({emit(node.base)}**{node.exponent})"
        if isinstance(node, Exp):
            return f"_np.exp({emit(node.arg)})"
        if isinstance(node, Tanh):
            return f"_np.tanh({emit(node.arg)})"
        if isinstance(node, Sech):
            return f"(1.0/_np.cosh({emit(node.arg)}))"
        raise AnalyticError(f"unknown node {type(node).__name__}")

    code = f"lambda x, t: ({emit(e)}) + 0.0*x"
    return eval(code, {"_np": np})  # noqa: S307 (generated from our own AST)


def residual_max(
    sys: EvolutionSystem,
    candidate: Sequence[Expr],
    binding: Mapping[str, float | Fraction],
    samples: Iterable[tuple[float, float]],
) -> ResidualReport:
    """Max absolute residual of the candidate over the samples and over
    all equations; singular samples are skipped and counted."""
    residuals = system_residual_exprs(sys, candidate)
    worst = [0.0] * len(residuals)
    used = 0
    skipped = 0
    for x, t in samples:
        try:
            vals = [abs(evaluate(r, x, t, binding)) for r in residuals]
        except DomainError:
            skipped += 1
            continue
        used += 1
        for k, v in enumerate(vals):
            worst[k] = max(worst[k], v)
    return ResidualReport(
        max_residual=max(worst) if used else math.nan,
        per_equation=tuple(worst),
        samples_used=used,
        samples_skipped=skipped,
    )
