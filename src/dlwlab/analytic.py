"""Closed-form expression trees over elementary functions of affine
phases: exact differentiation, guarded numeric evaluation, and residual
oracles for candidate solutions.

The node set (rational constants, square roots of positive rationals,
the coordinates x and t, named parameters, sums, products, quotients,
integer powers, exp, tanh, sech) is closed under d/dx and d/dt, so every
residual can be formed symbolically and only the final evaluation is
floating point. That evaluation has one compiler, from a tree to numpy
operations over sample arrays: guarded per sample for the residual scans
and profiles (``evaluate_samples``), unguarded for the solver's exact
boundary data (``compile_expr``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .jet import EvolutionSystem, JetPoly

__all__ = [
    "AnalyticError",
    "DomainError",
    "UnboundParameter",
    "Expr",
    "Const",
    "SqrtConst",
    "Coord",
    "Param",
    "Add",
    "Mul",
    "Div",
    "Pow",
    "Exp",
    "Tanh",
    "Sech",
    "const",
    "sqrt_const",
    "X",
    "T",
    "param",
    "add",
    "mul",
    "div",
    "neg",
    "sub",
    "pow_",
    "exp",
    "tanh",
    "sech",
    "diff",
    "free_params",
    "evaluate",
    "evaluate_samples",
    "compile_expr",
    "system_residual_exprs",
    "residual_max",
    "ResidualReport",
]

SINGULARITY_GUARD = 1e-8


class AnalyticError(Exception):
    pass


class DomainError(AnalyticError):
    """Evaluation hit a (near-)singular denominator or overflowed."""


class UnboundParameter(AnalyticError):
    pass


# ---------------------------------------------------------------------------
# nodes


class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True, slots=True)
class SqrtConst(Expr):
    value: Fraction  # the radicand; must be positive

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise AnalyticError("square roots of positive rationals only")


@dataclass(frozen=True, slots=True)
class Coord(Expr):
    name: str  # "x" or "t"

    def __post_init__(self) -> None:
        if self.name not in ("x", "t"):
            raise AnalyticError("coordinates are x and t")


@dataclass(frozen=True, slots=True)
class Param(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Tanh(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Sech(Expr):
    arg: Expr


# ---------------------------------------------------------------------------
# smart constructors

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
X = Coord("x")
T = Coord("t")


def const(v: int | Fraction | str) -> Const:
    return Const(Fraction(v))


def sqrt_const(v: int | Fraction | str) -> Expr:
    f = Fraction(v)
    root = math.isqrt(f.numerator)
    if root * root == f.numerator and f.denominator == 1:
        return Const(Fraction(root))
    return SqrtConst(f)


def param(name: str) -> Param:
    return Param(name)


def add(*args: Expr) -> Expr:
    flat: list[Expr] = []
    acc = Fraction(0)
    for a in args:
        if isinstance(a, Add):
            sub = a.args
        else:
            sub = (a,)
        for s in sub:
            if isinstance(s, Const):
                acc += s.value
            else:
                flat.append(s)
    if acc != 0:
        flat.insert(0, Const(acc))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*args: Expr) -> Expr:
    flat: list[Expr] = []
    acc = Fraction(1)
    for a in args:
        sub = a.args if isinstance(a, Mul) else (a,)
        for s in sub:
            if isinstance(s, Const):
                acc *= s.value
            else:
                flat.append(s)
    if acc == 0:
        return ZERO
    if acc != 1:
        flat.insert(0, Const(acc))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def div(num: Expr, den: Expr) -> Expr:
    if isinstance(num, Const) and num.value == 0:
        return ZERO
    if isinstance(den, Const):
        if den.value == 0:
            raise AnalyticError("division by the zero constant")
        if den.value == 1:
            return num
        if isinstance(num, Const):
            return Const(num.value / den.value)
    return Div(num, den)


def pow_(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise AnalyticError("zero to a negative power")
        return Const(base.value**exponent)
    return Pow(base, exponent)


def exp(arg: Expr) -> Expr:
    if isinstance(arg, Const) and arg.value == 0:
        return ONE
    return Exp(arg)


def tanh(arg: Expr) -> Expr:
    if isinstance(arg, Const) and arg.value == 0:
        return ZERO
    return Tanh(arg)


def sech(arg: Expr) -> Expr:
    if isinstance(arg, Const) and arg.value == 0:
        return ONE
    return Sech(arg)


def neg(e: Expr) -> Expr:
    return mul(Const(Fraction(-1)), e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, var: str) -> Expr:
    """Exact derivative with respect to coordinate ``x`` or ``t``."""
    if var not in ("x", "t"):
        raise AnalyticError("differentiate with respect to x or t")
    if isinstance(e, (Const, SqrtConst, Param)):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return add(*(diff(a, var) for a in e.args))
    if isinstance(e, Mul):
        terms = []
        for i, a in enumerate(e.args):
            da = diff(a, var)
            if da is ZERO or (isinstance(da, Const) and da.value == 0):
                continue
            rest = e.args[:i] + e.args[i + 1 :]
            terms.append(mul(da, *rest))
        return add(*terms)
    if isinstance(e, Div):
        dn = diff(e.num, var)
        dd = diff(e.den, var)
        return div(sub(mul(dn, e.den), mul(e.num, dd)), pow_(e.den, 2))
    if isinstance(e, Pow):
        return mul(Const(Fraction(e.exponent)), pow_(e.base, e.exponent - 1), diff(e.base, var))
    if isinstance(e, Exp):
        return mul(e, diff(e.arg, var))
    if isinstance(e, Tanh):
        return mul(pow_(sech(e.arg), 2), diff(e.arg, var))
    if isinstance(e, Sech):
        return mul(Const(Fraction(-1)), sech(e.arg), tanh(e.arg), diff(e.arg, var))
    raise AnalyticError(f"unknown node {type(e).__name__}")


def free_params(e: Expr) -> set[str]:
    if isinstance(e, Param):
        return {e.name}
    if isinstance(e, Add) or isinstance(e, Mul):
        out: set[str] = set()
        for a in e.args:
            out |= free_params(a)
        return out
    if isinstance(e, Div):
        return free_params(e.num) | free_params(e.den)
    if isinstance(e, Pow):
        return free_params(e.base)
    if isinstance(e, (Exp, Tanh, Sech)):
        return free_params(e.arg)
    return set()


# ---------------------------------------------------------------------------
# evaluation


def _compile(expr: Expr, binding: Mapping[str, float | Fraction]) -> Callable:
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
    """Guarded evaluation of each expression at every sample (x, t); all
    free parameters must be bound. Returns the values, one row per
    expression, and a boolean array of the samples to skip: a guard
    tripped there in some expression, or some value is not finite."""
    import numpy as np

    xt = np.array(list(samples), dtype=float).reshape(-1, 2)
    skip = np.zeros(len(xt), dtype=bool)
    with np.errstate(all="ignore"):
        try:
            fns = [_compile(e, binding) for e in exprs]
        except DomainError:  # tripped in a constant subtree: every sample
            return np.full((len(exprs), len(xt)), np.nan), ~skip
        vals = np.array([np.broadcast_to(f(xt[:, 0], xt[:, 1], skip), skip.shape) for f in fns])
    skip |= ~np.isfinite(vals).all(axis=0)
    return vals, skip


def evaluate(e: Expr, x: float, t: float, binding: Mapping[str, float | Fraction]) -> float:
    """Guarded double-precision evaluation at one point; all free
    parameters must be bound. A tripped guard (see ``_compile``) or a
    non-finite value raises DomainError."""
    vals, skip = evaluate_samples((e,), [(x, t)], binding)
    if skip[0]:
        raise DomainError(f"guard tripped or non-finite value at x={x!r}, t={t!r}")
    return float(vals[0, 0])


def compile_expr(e: Expr, binding: Mapping[str, float | Fraction]) -> Callable:
    """Compile to a vectorizable ``f(x, t)`` with parameters baked in,
    broadcast to the shape of ``x``. No singularity guards at the samples;
    intended for pole-free fields inside the finite-difference solver. A
    guard tripped in a subtree free of x and t raises DomainError here."""
    f = _compile(e, binding)
    return lambda x, t: f(x, t, None) + 0.0 * x


# ---------------------------------------------------------------------------
# residual oracle


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    per_equation: tuple[float, ...]
    samples_used: int
    samples_skipped: int


def system_residual_exprs(
    sys: EvolutionSystem, candidate: Sequence[Expr]
) -> tuple[Expr, ...]:
    """Substitute a candidate field tuple into each equation of the
    system, taking every derivative symbolically."""
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
    vals, skip = evaluate_samples(residuals, samples, binding)
    kept = abs(vals[:, ~skip])
    used = kept.shape[1]
    worst = tuple(map(float, kept.max(axis=1))) if used else (0.0,) * len(residuals)
    return ResidualReport(
        max_residual=max(worst) if used else math.nan,
        per_equation=worst,
        samples_used=used,
        samples_skipped=len(skip) - used,
    )
