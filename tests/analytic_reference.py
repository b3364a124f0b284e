"""Unoptimized reference versions of the analytic evaluators, kept as test
oracles.

``evaluate`` walks the expression tree once per sample point with ``math``
and raises ``DomainError`` at the first guard it trips; ``residual_max``
calls it per sample and equation. ``compile_expr`` emits the tree as the
source of a numpy lambda and runs it through ``eval``, with no guards.
``closure_compile`` turns the tree into nested numpy closures, one per
node, evaluated afresh for every repeat of a subtree; ``evaluate_samples``
runs it over sample arrays. The program compiler in ``dlwlab.analytic``
must agree with them: bit for bit with ``compile_expr`` and with the
values and skip masks of ``evaluate_samples``, in the skipped samples and
within rounding with the scalar ``residual_max``.

``system_residual_exprs`` substitutes a candidate into the system by its
own memoized recursion over the field derivatives, as the analytic layer
did before it took them from ``jet.derivative_table``; the two must build
equal trees.

``scan_family`` is the residual scan as it was before the samples were
drawn once per family and the pair built once per process: each binding
draws its own samples with ``rng.uniform`` and gets a fresh pair from
``physical_pair``. ``dlwlab.solutions.scan_family`` must give the same
records bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
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
    T,
    Tanh,
    UnboundParameter,
    X,
    add,
    diff,
    mul,
    pow_,
)
from dlwlab.analytic import residual_max as program_residual_max
from dlwlab.jet import EvolutionSystem, JetPoly
from dlwlab.solutions import RESIDUAL_SAMPLES, RESIDUAL_TOL, family_registry


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


def closure_compile(expr: Expr, binding: Mapping[str, float | Fraction]) -> Callable:
    """Compile to ``f(x, t, mask)`` over numpy sample arrays, parameters
    baked in. Each guard sets the samples it trips in the boolean ``mask``
    (none is tested if it is None): a denominator, or the base of a
    negative power, below SINGULARITY_GUARD in magnitude; an exp argument
    above 700; a power that overflows. A subtree free of x and t is folded
    here to a Python float, by the same operations in the tree's order; a
    guard it trips would trip at every sample, so it raises DomainError."""
    import numpy as np

    def binary(op: Callable, a, b):
        if isinstance(a, float):
            return op(a, b) if isinstance(b, float) else lambda x, t, mask: op(a, b(x, t, mask))
        if isinstance(b, float):
            return lambda x, t, mask: op(a(x, t, mask), b)
        return lambda x, t, mask: op(a(x, t, mask), b(x, t, mask))

    def unary(fn: Callable, arg, trips: Callable | None = None):
        """``fn(arg)``; ``trips(arg, value)`` is true where a guard trips."""
        if isinstance(arg, float):
            with np.errstate(all="ignore"):
                out = fn(np.float64(arg))
            if trips and trips(arg, out):
                raise DomainError(f"a guard trips at every sample, at {arg!r}")
            return float(out)
        if not trips:
            return lambda x, t, mask: fn(arg(x, t, mask))

        def apply(x, t, mask):
            a = arg(x, t, mask)
            out = fn(a)
            if mask is not None:
                mask |= trips(a, out)
            return out

        return apply

    def node(e: Expr):  # a float when e is free of x and t
        if isinstance(e, Const):
            return float(e.value)
        if isinstance(e, SqrtConst):
            return math.sqrt(float(e.value))
        if isinstance(e, Coord):
            return (lambda x, t, mask: x) if e.name == "x" else (lambda x, t, mask: t)
        if isinstance(e, Param):
            if e.name not in binding:
                raise UnboundParameter(e.name)
            return float(binding[e.name])
        if isinstance(e, (Add, Mul)):  # a left fold, as the tree reads
            op = operator.add if isinstance(e, Add) else operator.mul
            return functools.reduce(functools.partial(binary, op), map(node, e.args))
        if isinstance(e, Div):
            den = unary(lambda d: d, node(e.den), lambda d, _: abs(d) < SINGULARITY_GUARD)
            return binary(operator.truediv, node(e.num), den)
        if isinstance(e, Pow):
            n, pole = e.exponent, SINGULARITY_GUARD if e.exponent < 0 else 0.0
            trips = lambda b, out: (abs(b) < pole) | (np.isinf(out) & np.isfinite(b))  # noqa: E731
            return unary(lambda b: b**n, node(e.base), trips)
        if isinstance(e, Exp):
            return unary(np.exp, node(e.arg), lambda a, _: a > 700.0)
        if isinstance(e, Tanh):
            return unary(np.tanh, node(e.arg))
        if isinstance(e, Sech):
            return unary(lambda a: 1.0 / np.cosh(a), node(e.arg))
        raise AnalyticError(f"unknown node {type(e).__name__}")

    f = node(expr)
    return f if callable(f) else lambda x, t, mask: f


def evaluate_samples(
    exprs: Sequence[Expr], samples: Iterable[tuple[float, float]], binding: Mapping[str, float | Fraction]
) -> tuple:
    """``dlwlab.analytic.evaluate_samples`` through ``closure_compile``:
    the values, one row per expression, and the samples to skip."""
    import numpy as np

    xt = np.array(list(samples), dtype=float).reshape(-1, 2)
    skip = np.zeros(len(xt), dtype=bool)
    with np.errstate(all="ignore"):
        try:
            fns = [closure_compile(e, binding) for e in exprs]
        except DomainError:  # tripped in a constant subtree: every sample
            return np.full((len(exprs), len(xt)), np.nan), ~skip
        vals = np.array([np.broadcast_to(f(xt[:, 0], xt[:, 1], skip), skip.shape) for f in fns])
    skip |= ~np.isfinite(vals).all(axis=0)
    return vals, skip


def system_residual_exprs(sys: EvolutionSystem, candidate: Sequence[Expr]) -> tuple[Expr, ...]:
    if len(candidate) != sys.width:
        raise AnalyticError("candidate width does not match the system")
    index = {name: k for k, name in enumerate(sys.deps)}
    deriv_cache: dict[tuple[str, int, int], Expr] = {}

    def field_derivative(name: str, dx: int, dt: int) -> Expr:
        key = (name, dx, dt)
        got = deriv_cache.get(key)
        if got is None:
            if dt > 0:
                got = diff(field_derivative(name, dx, dt - 1), "t")
            elif dx > 0:
                got = diff(field_derivative(name, dx - 1, 0), "x")
            else:
                got = candidate[index[name]]
            deriv_cache[key] = got
        return got

    def poly_to_expr(p: JetPoly) -> Expr:
        terms = []
        for m, c in p.items():
            factors: list[Expr] = [Const(c)]
            for v, e in m.jet:
                factors.append(pow_(field_derivative(v.name, v.dx, v.dt), e))
            if m.xpow:
                factors.append(pow_(X, m.xpow))
            if m.tpow:
                factors.append(pow_(T, m.tpow))
            for n, e in m.params:
                factors.append(pow_(Param(n), e))
            terms.append(mul(*factors))
        return add(*terms)

    return tuple(poly_to_expr(g) for g in sys.equation_polys())


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


def physical_pair() -> EvolutionSystem:
    """The pair u_t = -(u u_x + v_x), v_t = -(u_x v + u v_x + u_xxx/3),
    built afresh on every call."""
    u = lambda dx=0: JetPoly.var("u", dx, 0)  # noqa: E731
    v = lambda dx=0: JetPoly.var("v", dx, 0)  # noqa: E731
    g1 = u() * u(1) + v(1)
    g2 = u(1) * v() + u() * v(1) + u(3) * Fraction(1, 3)
    return EvolutionSystem(deps=("u", "v"), rhs=(g1, g2), lead_dx=0)


def scan_family(family_id: str, n_samples: int = RESIDUAL_SAMPLES, seed: int = 0) -> list[dict]:
    """One record per default binding, each with its own draw of the
    samples and its own pair."""
    import random

    fam = family_registry()[family_id]
    x0, x1, t0, t1 = fam.domain
    out = []
    for binding in fam.default_grid:
        rng = random.Random(seed)
        samples = [(rng.uniform(x0, x1), rng.uniform(t0, t1)) for _ in range(n_samples)]
        rep = program_residual_max(physical_pair(), (fam.u_expr, fam.v_expr), binding, samples)
        out.append(
            {
                "family": family_id,
                "params": dict(binding),
                "max_residual": rep.max_residual,
                "per_equation": list(rep.per_equation),
                "samples_used": rep.samples_used,
                "samples_skipped": rep.samples_skipped,
                "passes": rep.samples_used > 0 and rep.max_residual < RESIDUAL_TOL,
            }
        )
    return out
