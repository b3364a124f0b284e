"""Unoptimized reference versions of the jet kernel, kept as test oracles.

Two references, each following the definitions directly:

* ``total_derivative`` goes through the generic Leibniz ``derive`` below
  (one partial derivative per coordinate, times its lifted coordinate),
  and ``euler_operator`` sums (-1)^(dx+dt) D_x^dx D_t^dt of every slot's
  partial derivative separately. Both run on ``JetPoly``'s own arithmetic.
  ``derive``, ``substitute``, ``apply_op`` and ``formal_adjoint`` are the
  kernel's sums of products as they were before they went through
  ``jet.sum_of_products``: one ``+`` and one ``*`` per term (per factor,
  in ``substitute``), and every derivative D_x^a D_t^b taken from scratch
  by the reference ``total_derivative_n`` here, not the kernel's.
* The ``frac_*`` functions share no code with ``JetPoly`` at all: they work
  on plain ``{JetMonomial: Fraction}`` dicts, build every monomial through
  the validating ``JetMonomial.make`` from ``(JetVar, exponent)`` pairs and
  drop zero coefficients explicitly. They are the oracle for the kernel's
  integer arithmetic and for its integer-coded keys: no ``frac_*``
  function reads a code.

The kernel in ``dlwlab.jet`` must agree with both structurally.

A third reference is for the kernel's key types: ``JetVar`` and
``JetMonomial`` below are the frozen dataclasses the kernel used before its
coordinates and monomials became tuples, copied as they were, less the
monomial product (which ``frac_mul`` covers). The tuple types must
compare, order, print, pickle and reject bad fields as these do, and a
``JetVar`` must hash as its dataclass; a kernel monomial hashes as its
coded fields instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

from dlwlab import jet as kernel
from dlwlab.jet import RESERVED_NAMES, JetError, JetPoly, LinearDiffOp, OpTerm


def derive(
    p: JetPoly,
    var_image: Callable[[kernel.JetVar], JetPoly],
    x_image: JetPoly | None = None,
    t_image: JetPoly | None = None,
    param_image: Callable[[str], JetPoly | None] | None = None,
) -> JetPoly:
    out = JetPoly.zero()
    for v in p.jet_vars():
        img = var_image(v)
        if img:
            out = out + p.partial(v) * img
    if x_image is not None and x_image:
        out = out + p.partial_explicit("x") * x_image
    if t_image is not None and t_image:
        out = out + p.partial_explicit("t") * t_image
    if param_image is not None:
        for name in p.param_names():
            img = param_image(name)
            if img:
                out = out + p.partial_param(name) * img
    return out


def total_derivative(p: JetPoly, axis: str) -> JetPoly:
    if axis not in ("x", "t"):
        raise JetError(f"unknown axis {axis!r}")
    one = JetPoly.one()
    return derive(
        p,
        lambda v: JetPoly.from_var(v.lifted(axis)),
        x_image=one if axis == "x" else None,
        t_image=one if axis == "t" else None,
    )


def total_derivative_n(p: JetPoly, dx: int = 0, dt: int = 0) -> JetPoly:
    for _ in range(dx):
        p = total_derivative(p, "x")
    for _ in range(dt):
        p = total_derivative(p, "t")
    return p


def euler_operator(p: JetPoly, dep: str, x_only: bool = False) -> JetPoly:
    """``x_only`` keeps only the t-derivative-free slots, the variant that
    ``conslaw_reference.law_multipliers`` reads multipliers with."""
    out = JetPoly.zero()
    for v in p.jet_vars():
        if v.name != dep or (x_only and v.dt):
            continue
        sign = -1 if (v.dx + v.dt) % 2 else 1
        out = out + total_derivative_n(p.partial(v), v.dx, v.dt) * sign
    return out


def substitute(p: JetPoly, image: Callable[[kernel.JetVar], JetPoly | None]) -> JetPoly:
    """Each term rebuilt as a polynomial, times each factor's image raised
    to its exponent, and added to the sum."""
    out = JetPoly.zero()
    for m, c in p.items():
        term = JetPoly({kernel.JetMonomial((), m.xpow, m.tpow, m.params): c})
        for v, e in m.jet:
            rep = image(v)
            factor = JetPoly.from_var(v) if rep is None else rep
            term = term * factor**e
        out = out + term
    return out


def apply_op(op: LinearDiffOp, w: Sequence[JetPoly]) -> tuple[JetPoly, ...]:
    out = []
    for row in op.entries:
        acc = JetPoly.zero()
        for entry, comp in zip(row, w):
            for term in entry:
                acc = acc + term.coeff * total_derivative_n(comp, term.dx, term.dt)
        out.append(acc)
    return tuple(out)


def formal_adjoint(op: LinearDiffOp) -> LinearDiffOp:
    n = op.size
    rows: list[list[list[OpTerm]]] = [[[] for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(op.entries):
        for j, entry in enumerate(row):
            for term in entry:
                sign = -1 if (term.dx + term.dt) % 2 else 1
                for k in range(term.dx + 1):
                    for l in range(term.dt + 1):
                        coeff = (
                            total_derivative_n(term.coeff, k, l)
                            * (comb(term.dx, k) * comb(term.dt, l) * sign)
                        )
                        if not coeff.is_zero():
                            rows[j][i].append(OpTerm(coeff, term.dx - k, term.dt - l))
    return LinearDiffOp.from_lists(rows).canonical()


# ---------------------------------------------------------------------------
# {JetMonomial: Fraction} dicts


FracTerms = dict[kernel.JetMonomial, Fraction]


def _accumulate(out: FracTerms, m: kernel.JetMonomial, c: Fraction) -> None:
    out[m] = out.get(m, Fraction(0)) + c


def _clean(out: FracTerms) -> FracTerms:
    return {m: c for m, c in out.items() if c != 0}


def _with_jet_power(m: kernel.JetMonomial, v: kernel.JetVar, delta: int) -> kernel.JetMonomial:
    jet = dict(m.jet)
    jet[v] = jet.get(v, 0) + delta
    return kernel.JetMonomial.make(jet, m.xpow, m.tpow, dict(m.params))


def frac_add(a: FracTerms, b: FracTerms) -> FracTerms:
    out = dict(a)
    for m, c in b.items():
        _accumulate(out, m, c)
    return _clean(out)


def frac_neg(a: FracTerms) -> FracTerms:
    return {m: -c for m, c in a.items()}


def frac_sub(a: FracTerms, b: FracTerms) -> FracTerms:
    return frac_add(a, frac_neg(b))


def frac_scale(a: FracTerms, c: Fraction) -> FracTerms:
    return _clean({m: cm * c for m, cm in a.items()})


def frac_mul(a: FracTerms, b: FracTerms) -> FracTerms:
    out: FracTerms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            jet = dict(m1.jet)
            for v, e in m2.jet:
                jet[v] = jet.get(v, 0) + e
            params = dict(m1.params)
            for n, e in m2.params:
                params[n] = params.get(n, 0) + e
            m = kernel.JetMonomial.make(jet, m1.xpow + m2.xpow, m1.tpow + m2.tpow, params)
            _accumulate(out, m, c1 * c2)
    return _clean(out)


def frac_pow(a: FracTerms, n: int) -> FracTerms:
    """``a`` multiplied in n times, one factor at a time, from the constant 1."""
    out: FracTerms = {kernel.JetMonomial.make({}): Fraction(1)}
    for _ in range(n):
        out = frac_mul(out, a)
    return out


def frac_partial(a: FracTerms, v: kernel.JetVar) -> FracTerms:
    out: FracTerms = {}
    for m, c in a.items():
        e = dict(m.jet).get(v, 0)
        if e:
            _accumulate(out, _with_jet_power(m, v, -1), c * e)
    return _clean(out)


def frac_total_derivative(a: FracTerms, axis: str) -> FracTerms:
    """Leibniz rule term by term: D(x^i t^j prod v^e) differentiates the
    explicit power and each coordinate v -> its lift."""
    out: FracTerms = {}
    for m, c in a.items():
        for v, e in m.jet:
            lifted = v.lifted(axis)
            moved = _with_jet_power(_with_jet_power(m, v, -1), lifted, 1)
            _accumulate(out, moved, c * e)
        k = m.xpow if axis == "x" else m.tpow
        if k:
            lower = kernel.JetMonomial.make(
                dict(m.jet),
                m.xpow - (axis == "x"),
                m.tpow - (axis == "t"),
                dict(m.params),
            )
            _accumulate(out, lower, c * k)
    return _clean(out)


def frac_euler_operator(a: FracTerms, dep: str) -> FracTerms:
    """The sum over coordinates dep[i,j] of (-1)^(i+j) D_x^i D_t^j of the
    partial derivative, each slot taken separately."""
    out: FracTerms = {}
    slots = {v for m in a for v, _ in m.jet if v.name == dep}
    for v in slots:
        term = frac_partial(a, v)
        for _ in range(v.dx):
            term = frac_total_derivative(term, "x")
        for _ in range(v.dt):
            term = frac_total_derivative(term, "t")
        if (v.dx + v.dt) % 2:
            term = frac_neg(term)
        out = frac_add(out, term)
    return out


# ---------------------------------------------------------------------------
# the dataclass key types


@dataclass(frozen=True, slots=True, order=True)
class JetVar:
    """A single jet coordinate: dependent variable ``name`` with ``dx``
    x-derivatives and ``dt`` t-derivatives. ``(name, 0, 0)`` is the
    undifferentiated variable."""

    name: str
    dx: int = 0
    dt: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.name in RESERVED_NAMES:
            raise JetError(f"{self.name!r} is reserved for an explicit coordinate")
        if self.dx < 0 or self.dt < 0:
            raise JetError("derivative counts must be nonnegative")
        object.__setattr__(self, "_hash", hash((self.name, self.dx, self.dt)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (JetVar, (self.name, self.dx, self.dt))

    @property
    def order(self) -> int:
        return self.dx + self.dt

    def lifted(self, axis: str) -> "JetVar":
        """The coordinate one total derivative further along ``axis``."""
        if axis == "x":
            return JetVar(self.name, self.dx + 1, self.dt)
        if axis == "t":
            return JetVar(self.name, self.dx, self.dt + 1)
        raise JetError(f"unknown axis {axis!r}")

    def __str__(self) -> str:
        return f"{self.name}[{self.dx},{self.dt}]"


@dataclass(frozen=True, slots=True)
class JetMonomial:
    """Canonical power product of jet coordinates, explicit x/t powers and
    parameter powers. Keys are stored sorted so equality is structural.
    Parameter exponents may be negative (Laurent); x/t powers may not."""

    jet: tuple[tuple[JetVar, int], ...] = ()
    xpow: int = 0
    tpow: int = 0
    params: tuple[tuple[str, int], ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.xpow < 0 or self.tpow < 0:
            raise JetError("explicit coordinate powers must be nonnegative")
        if any(e <= 0 for _, e in self.jet):
            raise JetError("jet exponents must be positive")
        if any(e == 0 for _, e in self.params):
            raise JetError("zero parameter exponents must not be stored")
        object.__setattr__(self, "_hash", hash((self.jet, self.xpow, self.tpow, self.params)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (JetMonomial, (self.jet, self.xpow, self.tpow, self.params))

    @staticmethod
    def make(
        jet: Mapping[JetVar, int] | Iterable[tuple[JetVar, int]] = (),
        xpow: int = 0,
        tpow: int = 0,
        params: Mapping[str, int] | Iterable[tuple[str, int]] = (),
    ) -> "JetMonomial":
        jet_items = dict(jet)
        par_items = dict(params)
        jet_t = tuple(sorted((v, e) for v, e in jet_items.items() if e != 0))
        par_t = tuple(sorted((n, e) for n, e in par_items.items() if e != 0))
        return JetMonomial(jet_t, xpow, tpow, par_t)

    @property
    def degree(self) -> int:
        return (
            sum(e for _, e in self.jet)
            + self.xpow
            + self.tpow
            + sum(abs(e) for _, e in self.params)
        )

    @property
    def max_order(self) -> int:
        return max((v.order for v, _ in self.jet), default=0)

    def sort_key(self):
        jet_key = tuple((v.name, v.dx, v.dt, e) for v, e in self.jet)
        return (self.degree, jet_key, self.xpow, self.tpow, self.params)
