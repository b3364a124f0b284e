"""Closed-form expression trees over elementary functions of affine
phases: exact differentiation, guarded numeric evaluation, and residual
oracles for candidate solutions.

The node set (rational constants, square roots of positive rationals,
the coordinates x and t, named parameters, sums, products, quotients,
integer powers, exp, tanh, sech) is closed under d/dx and d/dt, so every
residual can be formed symbolically and only the final evaluation is
floating point. A coordinate may also be a jet coordinate ("u[1,0]"), a
value handed in beside x and t, with no derivative. The program
compiler, ``_program``, compiles expressions into one flat program with
a slot per distinct subexpression, split into the instructions free of
the coordinates, folded to floats once per binding, and the rest, run
once over numpy arrays. The folded values that differ between bindings
are stacked into (B, 1) columns, so one run evaluates B bindings at
every sample, as a (B, samples) grid with one guard mask. It produces
the residuals of the scans and the profiles, guarded per sample, and
unguarded the solver's exact boundary data (``compile_expr``, u and v in
one program) and the values of its monitored densities and fluxes
(``poly_program``, jet polynomials at the stencil values);
``residual_max``, ``evaluate_samples``, ``evaluate`` and
``compile_expr`` are its one-binding case. The solver's slopes, the
right sides of the pair at every cell of an RK4 stage, come from the
other compiler, ``sim._stage_plan``, which plans them as in-place numpy
ufunc calls. The residual program of a candidate is derived and compiled
once per process (``_residual_program``, a bounded cache keyed by the
system and the candidate), as are the program of each expression tuple
that ``compile_expr`` binds (``_expr_program``) and the bound program of
each polynomial tuple (``poly_program``). A lookup walks no tree: the
system and the families are built once per process, and every node keeps
its hash once computed. So ``solutions.scan_family`` draws its samples
once per family, folds the parameters of each binding, and runs the
program once over all of them (``_residual_reports``).

The residuals themselves are the system's equations with every jet
coordinate replaced by a derivative of the candidate, taken by ``diff``
from one ``jet.derivative_table`` per field, the tower that the jet
layer's total derivatives and ansatz substitutions also use."""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .jet import EvolutionSystem, JetPoly, JetVar, derivative_table

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
    "poly_to_expr",
    "poly_program",
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
    """A node of an expression tree. Its hash is computed on first use and
    kept, so hashing a tree again is one call, not a walk of the tree:
    every scan and ``residual_max`` call looks its candidate up in the
    residual-program cache."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((type(self), *map(self.__getattribute__, self.__match_args__)))
            object.__setattr__(self, "_hash", h)
            return h


def _node(cls: type) -> type:
    """``cls`` as a frozen slotted dataclass that keeps ``Expr.__hash__``
    (``dataclass`` would otherwise hash the fields on every call)."""
    cls.__hash__ = Expr.__hash__
    return dataclass(frozen=True, slots=True)(cls)


@_node
class Const(Expr):
    value: Fraction


@_node
class SqrtConst(Expr):
    value: Fraction  # the radicand; must be positive

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise AnalyticError("square roots of positive rationals only")


@_node
class Coord(Expr):
    name: str  # "x", "t" or a jet coordinate, named as str(jet.JetVar) does: "u[1,0]"

    def __post_init__(self) -> None:
        if self.name not in ("x", "t") and not re.fullmatch(r"[A-Za-z_]\w*\[\d+,\d+\]", self.name):
            raise AnalyticError("coordinates are x, t and jet coordinates such as u[1,0]")


@_node
class Param(Expr):
    name: str


@_node
class Add(Expr):
    args: tuple[Expr, ...]


@_node
class Mul(Expr):
    args: tuple[Expr, ...]


@_node
class Div(Expr):
    num: Expr
    den: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: int


@_node
class Exp(Expr):
    arg: Expr


@_node
class Tanh(Expr):
    arg: Expr


@_node
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
        if e.name not in ("x", "t"):
            raise AnalyticError(f"the jet coordinate {e.name} has no derivative in {var}")
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
# evaluation: one program of distinct subexpressions

_UNARY, _BINARY, _FOLD = range(3)  # instruction kinds


def _den_trips(d):
    return abs(d) < SINGULARITY_GUARD


class _Program(NamedTuple):
    """Expressions compiled to one flat program over numbered slots, one
    slot per distinct subexpression. A node is keyed by its class and the
    slots of its operands (a constant by its Fraction, a parameter by its
    name, never by a float), so a subtree repeated anywhere in the
    expressions is computed once.

    An instruction ``(out, kind, fn, arg, trips)`` writes slot ``out``:
    ``fn`` of the slot ``arg``; the binary ``fn`` of the two slots
    ``arg``; or a left fold of the binary ``fn`` over the slots ``arg``, as
    a sum or product of three or more terms in the tree reads. Where
    ``trips`` is not None it is true where a guard trips: ``trips(operand,
    value)`` of a unary node, ``trips(right operand)`` of a quotient. The
    guards: a denominator, or the base of a negative power, below
    SINGULARITY_GUARD in magnitude; an exp argument above 700; a power
    that overflows.

    ``fold`` holds the instructions free of the coordinates, each after its
    operands; ``bind`` folds them to Python floats per binding, by the
    operations of the tree. A guard tripped there would trip at every
    sample, so it raises DomainError for that binding, as does a
    denominator free of them (``den_checks``) of a quotient in ``run``.
    Of the folded slots, those that ``run`` or an output reads
    (``columns``) and that differ between the bindings are stacked into
    (B, 1) columns. ``execute`` then runs ``run`` once, over the
    coordinates broadcast against those columns: every binding of a scan at every
    sample in one pass of the instruction list, each guard setting the
    (binding, sample) cells it trips in ``mask``. One binding is the case
    B = 1, whose slots all stay Python floats."""

    base: tuple  # the value of each constant slot, None elsewhere
    params: tuple[tuple[str, int], ...]  # (name, slot), in program order
    coords: tuple[tuple[str, int], ...]
    fold: tuple
    run: tuple
    den_checks: tuple[int, ...]
    outputs: tuple[int, ...]
    columns: tuple[int, ...]  # parameter and folded slots read by run or output

    def bind(self, bindings: Sequence[Mapping[str, float | Fraction]]) -> tuple[list | None, list]:
        """The slots free of the coordinates under the bindings, as one
        slot list for ``execute``, and per binding the DomainError its fold
        raised, or None. Every parameter of every binding is checked to be bound
        before anything is folded: the first one missing raises
        UnboundParameter. A slot of ``columns`` that differs, bit for bit,
        between the bindings that folded is the (B, 1) column of its
        values, in their order. The slot list is None if none folded."""
        for binding in bindings:
            for name, _ in self.params:
                if name not in binding:
                    raise UnboundParameter(name)
        folded, errors = [], []
        for binding in bindings:
            try:
                folded.append(self._fold(binding))
                errors.append(None)
            except DomainError as e:
                errors.append(e)
        if len(folded) < 2:
            return (folded[0] if folded else None), errors
        import numpy as np

        v = folded[0]
        if self.columns:
            cols = np.array([[f[s] for f in folded] for s in self.columns])
            bits = cols.view(np.int64)
            for k in np.flatnonzero((bits != bits[:, :1]).any(axis=1)).tolist():
                v[self.columns[k]] = cols[k, :, None]
        return v, errors

    def _fold(self, binding: Mapping[str, float | Fraction]) -> list:
        """The slots free of the coordinates under one binding, as Python floats."""
        import numpy as np

        v = list(self.base)
        for name, s in self.params:
            v[s] = float(binding[name])
        with np.errstate(all="ignore"):
            for out, kind, fn, arg, trips in self.fold:
                if kind == _UNARY:
                    a = v[arg]
                    r = fn(np.float64(a))
                    if trips is not None and trips(a, r):
                        raise DomainError(f"a guard trips at every sample, at {a!r}")
                    r = float(r)
                elif kind == _BINARY:
                    a, b = v[arg[0]], v[arg[1]]
                    if trips is not None and trips(b):
                        raise DomainError(f"a guard trips at every sample, at {b!r}")
                    r = fn(a, b)
                else:
                    r = functools.reduce(fn, map(v.__getitem__, arg))
                v[out] = r
        for s in self.den_checks:
            if _den_trips(v[s]):
                raise DomainError(f"a guard trips at every sample, at {v[s]!r}")
        return v

    def execute(self, slots: list, values: Mapping, mask) -> list:
        """Every slot from the slots ``bind`` returned, each coordinate read
        from ``values`` by name and broadcast against the columns; each guard
        ORs the cells it trips into the boolean ``mask`` (if not None)."""
        v = slots.copy()
        for name, s in self.coords:
            v[s] = values[name]
        guarded = mask is not None
        for out, kind, fn, arg, trips in self.run:
            if kind == _UNARY:
                a = v[arg]
                r = fn(a)
                if guarded and trips is not None:
                    mask |= trips(a, r)
            elif kind == _BINARY:
                a, b = v[arg[0]], v[arg[1]]
                if guarded and trips is not None:
                    mask |= trips(b)
                r = fn(a, b)
            else:
                r = functools.reduce(fn, map(v.__getitem__, arg))
            v[out] = r
        return v

    def evaluate(
        self, samples: Iterable[tuple[float, float]], bindings: Sequence[Mapping[str, float | Fraction]]
    ) -> tuple:
        """Guarded evaluation of every output under every binding at every
        sample, by one ``execute``: the values as an (outputs, bindings,
        samples) array and the (bindings, samples) boolean array of the
        samples to skip, where a guard tripped in some output or some value
        is not finite. A binding whose fold raised DomainError has NaN
        values and every sample skipped."""
        import numpy as np

        xt = _pairs(samples)
        slots, errors = self.bind(bindings)
        ok = [k for k, e in enumerate(errors) if e is None]
        skip = np.zeros((len(ok), len(xt)), dtype=bool)
        if ok:
            with np.errstate(all="ignore"):
                v = self.execute(slots, {"x": xt[:, 0], "t": xt[:, 1]}, skip)
                vals = np.array([np.broadcast_to(v[s], skip.shape) for s in self.outputs])
            skip |= ~np.isfinite(vals).all(axis=0)
        else:
            vals = np.empty((len(self.outputs), *skip.shape))
        if len(ok) == len(bindings):  # the common case, without a copy
            return vals, skip
        every_vals = np.full((len(self.outputs), len(bindings), len(xt)), np.nan)
        every_skip = np.ones((len(bindings), len(xt)), dtype=bool)
        every_vals[:, ok], every_skip[ok] = vals, skip
        return every_vals, every_skip


def _pairs(samples: Iterable[tuple[float, float]]):
    """The samples as an (n, 2) float array of (x, t) pairs; anything else
    raises AnalyticError naming the shape it has."""
    import numpy as np

    try:
        xt = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    except (TypeError, ValueError) as e:
        raise AnalyticError(f"samples must be (x, t) pairs: {e}") from None
    if xt.shape == (0,):
        return xt.reshape(0, 2)
    if xt.ndim != 2 or xt.shape[1] != 2:
        raise AnalyticError(f"samples must be n (x, t) pairs, an (n, 2) array; got shape {xt.shape}")
    return xt


def _program(exprs: Sequence[Expr]) -> _Program:
    """Compile the expressions into one ``_Program``, an instruction for
    each distinct subexpression, operands first."""
    import numpy as np

    slots: dict[tuple, int] = {}  # structural key -> slot
    seen: dict[int, int] = {}  # id of a node already compiled -> its slot
    base: list = []
    varies: list[bool] = []  # whether the slot depends on x or t
    params: list[tuple[str, int]] = []
    coords: list[tuple[str, int]] = []
    fold: list[tuple] = []
    run: list[tuple] = []
    den_checks: list[int] = []

    def slot(e: Expr) -> int:
        s = seen.get(id(e))
        if s is not None:
            return s
        value = instr = None
        if isinstance(e, Const):
            key, value = (Const, e.value), float(e.value)
        elif isinstance(e, SqrtConst):
            key, value = (SqrtConst, e.value), math.sqrt(float(e.value))
        elif isinstance(e, (Coord, Param)):
            key = (type(e), e.name)
        elif isinstance(e, (Add, Mul)):
            args = tuple(map(slot, e.args))
            key = (type(e), args)
            instr = (_BINARY if len(args) == 2 else _FOLD, operator.add if isinstance(e, Add) else operator.mul, args, None)
        elif isinstance(e, Div):
            args = (slot(e.num), slot(e.den))
            key = (Div, args)
            instr = (_BINARY, operator.truediv, args, _den_trips)
        elif isinstance(e, Pow):
            n, pole = e.exponent, SINGULARITY_GUARD if e.exponent < 0 else 0.0
            arg = slot(e.base)
            key = (Pow, n, arg)
            trips = lambda b, out: (abs(b) < pole) | (np.isinf(out) & np.isfinite(b))  # noqa: E731
            instr = (_UNARY, lambda b: b**n, arg, trips)
        elif isinstance(e, Exp):
            arg = slot(e.arg)
            key = (Exp, arg)
            instr = (_UNARY, np.exp, arg, lambda a, _: a > 700.0)
        elif isinstance(e, Tanh):
            arg = slot(e.arg)
            key = (Tanh, arg)
            instr = (_UNARY, np.tanh, arg, None)
        elif isinstance(e, Sech):
            arg = slot(e.arg)
            key = (Sech, arg)
            instr = (_UNARY, lambda a: 1.0 / np.cosh(a), arg, None)
        else:
            raise AnalyticError(f"unknown node {type(e).__name__}")
        s = slots.get(key)
        if s is None:
            s = slots[key] = len(base)
            base.append(value)
            if instr is None:
                varies.append(isinstance(e, Coord))
                if isinstance(e, Param):
                    params.append((e.name, s))
                elif isinstance(e, Coord):
                    coords.append((e.name, s))
            else:
                kind, fn, arg, trips = instr
                vary = any(varies[o] for o in arg) if kind != _UNARY else varies[arg]
                varies.append(vary)
                if trips is _den_trips and vary and not varies[arg[1]]:
                    den_checks.append(arg[1])
                    trips = None
                (run if vary else fold).append((s, kind, fn, arg, trips))
        seen[id(e)] = s
        return s

    outputs = tuple(map(slot, exprs))
    read = {*outputs}
    for _, kind, _, arg, _ in run:
        read.update((arg,) if kind == _UNARY else arg)
    columns = tuple(sorted(s for s in read if not varies[s] and base[s] is None))
    return _Program(
        tuple(base), tuple(params), tuple(coords), tuple(fold), tuple(run), tuple(den_checks), outputs, columns
    )


def evaluate_samples(
    exprs: Sequence[Expr], samples: Iterable[tuple[float, float]], binding: Mapping[str, float | Fraction]
) -> tuple:
    """Guarded evaluation of each expression at every sample (x, t), given
    as pairs or as an (n, 2) float array; all free parameters must be
    bound. Returns the values, one row per expression, and a boolean array
    of the samples to skip: a guard tripped there in some expression, or
    some value is not finite. Samples that are not (x, t) pairs raise
    AnalyticError."""
    vals, skip = _program(exprs).evaluate(samples, (binding,))
    return vals[:, 0], skip[0]


def evaluate(e: Expr, x: float, t: float, binding: Mapping[str, float | Fraction]) -> float:
    """Guarded double-precision evaluation at one point; all free
    parameters must be bound. A tripped guard (see ``_Program``) or a
    non-finite value raises DomainError."""
    vals, skip = evaluate_samples((e,), [(x, t)], binding)
    if skip[0]:
        raise DomainError(f"guard tripped or non-finite value at x={x!r}, t={t!r}")
    return float(vals[0, 0])


@functools.lru_cache(maxsize=64)
def _expr_program(exprs: tuple[Expr, ...]) -> _Program:
    """The expressions compiled into one program once per process, keyed
    by value like ``_residual_program``; ``compile_expr`` binds it per call."""
    return _program(exprs)


def compile_expr(e: Expr | Sequence[Expr], binding: Mapping[str, float | Fraction]) -> Callable:
    """Compile to a vectorizable ``f(x, t)`` with parameters baked in,
    broadcast to the shape of ``x``. A sequence of expressions compiles into
    one program, bound once per call, whose ``f`` returns one array per
    expression. The program itself is compiled once per expression tuple
    (``_expr_program``), so a new binding costs only its fold.
    No singularity guards at the samples; intended for pole-free fields
    inside the finite-difference solver. A guard tripped in a subtree free
    of x and t raises DomainError here."""
    single = isinstance(e, Expr)
    prog = _expr_program((e,) if single else tuple(e))
    slots, (error,) = prog.bind((binding,))
    if error is not None:
        raise error

    def fields(x, t):
        v, zero = prog.execute(slots, {"x": x, "t": t}, None), 0.0 * x
        out = tuple(v[s] + zero for s in prog.outputs)
        return out[0] if single else out

    return fields


# ---------------------------------------------------------------------------
# residual oracle


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    per_equation: tuple[float, ...]
    samples_used: int
    samples_skipped: int


def poly_to_expr(p: JetPoly, image: Callable[[JetVar], Expr] = lambda v: Coord(str(v))) -> Expr:
    """``p`` as an expression, each jet coordinate replaced by its
    ``image`` (by default the coordinate itself, ``Coord("u[1,0]")``). A
    term is its coefficient times its jet factors in ``m.jet`` order, then
    its powers of x, t and the parameters; the terms add in ``p``'s order."""
    return add(*(
        mul(Const(c), *(pow_(image(v), e) for v, e in m.jet), pow_(X, m.xpow), pow_(T, m.tpow),
            *(pow_(Param(n), e) for n, e in m.params))
        for m, c in p.items()
    ))


def system_residual_exprs(
    sys: EvolutionSystem, candidate: Sequence[Expr]
) -> tuple[Expr, ...]:
    """Substitute a candidate field tuple into each equation of the
    system, taking every derivative symbolically: each derivative of a
    field comes from one ``jet.derivative_table`` of it, with ``diff`` in
    x and t as the maps."""
    if len(candidate) != sys.width:
        raise AnalyticError("candidate width does not match the system")
    tables = {
        name: derivative_table(e, lambda f: diff(f, "x"), lambda f: diff(f, "t"))
        for name, e in zip(sys.deps, candidate)
    }
    image = lambda v: tables[v.name](v.dx, v.dt)  # noqa: E731
    return tuple(poly_to_expr(g, image) for g in sys.equation_polys())


@functools.lru_cache(maxsize=64)
def poly_program(polys: tuple[JetPoly, ...]) -> Callable:
    """The polynomials, free of parameters, compiled into one program and
    bound once per process: ``f(values)`` reads each jet coordinate by its
    name (``"u[1,0]"``), and x and t, from ``values`` and returns one
    unguarded value per polynomial."""
    prog = _program(tuple(map(poly_to_expr, polys)))
    slots, _ = prog.bind(({},))  # constants alone trip no guard

    def run(values: Mapping) -> tuple:
        v = prog.execute(slots, values, None)
        return tuple(v[s] for s in prog.outputs)

    return run


@functools.lru_cache(maxsize=64)
def _residual_program(sys: EvolutionSystem, candidate: tuple[Expr, ...]) -> _Program:
    """The residuals of ``candidate`` on ``sys``, derived and compiled once
    per process; the scans then fold each binding's parameters into it.
    The cache is keyed by value, and a lookup costs no walk of the trees:
    the pair is the one object ``systems`` builds per process, and each
    ``Expr`` keeps its hash once computed. An equal candidate built anew
    hits the same entry."""
    return _program(system_residual_exprs(sys, candidate))


def residual_max(
    sys: EvolutionSystem,
    candidate: Sequence[Expr],
    binding: Mapping[str, float | Fraction],
    samples: Iterable[tuple[float, float]],
) -> ResidualReport:
    """Max absolute residual of the candidate over the samples and over
    all equations; singular samples are skipped and counted."""
    return _residual_reports(sys, candidate, (binding,), samples)[0]


def _residual_reports(
    sys: EvolutionSystem,
    candidate: Sequence[Expr],
    bindings: Sequence[Mapping[str, float | Fraction]],
    samples: Iterable[tuple[float, float]],
) -> list[ResidualReport]:
    """The ``residual_max`` report of each binding, from one run of the
    candidate's residual program over the (bindings x samples) grid. Every
    parameter of every binding is checked to be bound before anything is
    evaluated."""
    import numpy as np

    vals, skip = _residual_program(sys, tuple(candidate)).evaluate(samples, bindings)
    # residuals are >= 0, so 0 in the skipped cells leaves each max as it is
    worst = np.where(skip, 0.0, np.abs(vals)).max(axis=2, initial=0.0)  # (equations, bindings)
    n = skip.shape[1]
    return [
        ResidualReport(
            max_residual=max(w) if u else math.nan,
            per_equation=tuple(w),
            samples_used=u,
            samples_skipped=n - u,
        )
        for w, u in zip(worst.T.tolist(), (n - skip.sum(axis=1)).tolist())
    ]
