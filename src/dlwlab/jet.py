"""Exact differential-polynomial arithmetic on jet coordinates.

Everything downstream (symmetry verification, adjoint symmetries,
conservation laws, traveling-wave integrals) is built on one currency: a
polynomial with exact rational coefficients in

* jet coordinates ``name[dx,dt]`` (a dependent variable differentiated
  ``dx`` times in x and ``dt`` times in t),
* the explicit independent variables ``x`` and ``t``,
* named scalar parameters (wave speeds, ansatz coefficients), which may
  carry negative exponents.

All operations are pure; no floating point ever enters. Divergence-type
identities are therefore decided by structural equality, not tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "JetError",
    "ReductionError",
    "DimensionMismatch",
    "ParseError",
    "JetVar",
    "JetMonomial",
    "JetPoly",
    "OpTerm",
    "LinearDiffOp",
    "EvolutionSystem",
    "SolvedSystem",
    "total_derivative",
    "reduce_on_shell",
    "euler_operator",
    "apply_op",
    "formal_adjoint",
    "format_poly",
    "parse_poly",
    "DEFAULT_MAX_ORDER",
]

RESERVED_NAMES = ("x", "t")

#: Highest jet order the on-shell reduction tables will prolong to before
#: assuming a runaway substitution. Sixth order covers every identity in
#: the bundled catalogs (fourth-order potential equations differentiated
#: twice during divergence checks).
DEFAULT_MAX_ORDER = 6


class JetError(Exception):
    """Base class for jet-arithmetic failures."""


class ReductionError(JetError):
    """On-shell substitution failed to make progress or exceeded bounds."""


class DimensionMismatch(JetError):
    """Operator and operand shapes disagree."""


class ParseError(JetError):
    """Canonical text form could not be parsed."""


def _frac(value: int | Fraction | str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


# ---------------------------------------------------------------------------
# coordinates and monomials


# JetVar and JetMonomial are dict keys in every polynomial, so each computes
# its hash once, at construction. The value equals the dataclass default
# (the hash of the field tuple). ``str`` hashes differ between processes, so
# the cached hash is left out of the pickled state and recomputed on load.


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

    def __mul__(self, other: "JetMonomial") -> "JetMonomial":
        jet = dict(self.jet)
        for v, e in other.jet:
            jet[v] = jet.get(v, 0) + e
        params = dict(self.params)
        for n, e in other.params:
            params[n] = params.get(n, 0) + e
        return JetMonomial.make(jet, self.xpow + other.xpow, self.tpow + other.tpow, params)


_ONE_MONOMIAL = JetMonomial()


def _lower_power(jet: tuple, i: int) -> tuple:
    """``jet`` with one power of its ``i``-th coordinate removed."""
    v, e = jet[i]
    if e > 1:
        return jet[:i] + ((v, e - 1),) + jet[i + 1 :]
    return jet[:i] + jet[i + 1 :]


def _lift_power(jet: tuple, i: int, w: JetVar) -> tuple:
    """``jet`` with one power of its ``i``-th coordinate moved to ``w``,
    a coordinate that sorts after it; the result stays sorted."""
    head = _lower_power(jet[: i + 1], i)
    j, n = i + 1, len(jet)
    while j < n and jet[j][0] < w:
        j += 1
    if j < n and jet[j][0] == w:
        return head + jet[i + 1 : j] + ((w, jet[j][1] + 1),) + jet[j + 1 :]
    return head + jet[i + 1 : j] + ((w, 1),) + jet[j:]


# ---------------------------------------------------------------------------
# polynomials


class JetPoly:
    """Immutable sparse polynomial ``{monomial: nonzero Fraction}``.

    Construct through the factory classmethods or arithmetic; treat
    instances as frozen values. ``p - p`` is the empty polynomial and
    equality is structural.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[JetMonomial, Fraction] | None = None):
        clean: dict[JetMonomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = _frac(c)
                if c != 0:
                    clean[m] = c
        self._terms = clean
        self._hash: int | None = None

    @staticmethod
    def _of(terms: dict[JetMonomial, Fraction]) -> "JetPoly":
        """Trusted constructor for arithmetic results: ``terms`` is a new
        dict whose coefficients are nonzero Fractions, taken over as is."""
        p = object.__new__(JetPoly)
        p._terms = terms
        p._hash = None
        return p

    def __reduce__(self):
        # the cached hash is process-specific, so it is not pickled
        return (JetPoly, (self._terms,))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "JetPoly":
        return _ZERO

    @classmethod
    def const(cls, value: int | Fraction | str) -> "JetPoly":
        v = _frac(value)
        if v == 0:
            return _ZERO
        return cls({_ONE_MONOMIAL: v})

    @classmethod
    def one(cls) -> "JetPoly":
        return cls.const(1)

    @classmethod
    def var(cls, name: str, dx: int = 0, dt: int = 0) -> "JetPoly":
        return cls({JetMonomial.make({JetVar(name, dx, dt): 1}): Fraction(1)})

    @classmethod
    def from_var(cls, v: JetVar) -> "JetPoly":
        return cls({JetMonomial.make({v: 1}): Fraction(1)})

    @classmethod
    def x(cls, power: int = 1) -> "JetPoly":
        return cls({JetMonomial.make(xpow=power): Fraction(1)})

    @classmethod
    def t(cls, power: int = 1) -> "JetPoly":
        return cls({JetMonomial.make(tpow=power): Fraction(1)})

    @classmethod
    def param(cls, name: str, power: int = 1) -> "JetPoly":
        if name in RESERVED_NAMES:
            raise JetError(f"{name!r} is reserved")
        return cls({JetMonomial.make(params={name: power}): Fraction(1)})

    # -- basic protocol -------------------------------------------------

    @property
    def terms(self) -> Mapping[JetMonomial, Fraction]:
        return self._terms

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JetPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == JetPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"JetPoly({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "JetPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, negate=False)

    __radd__ = __add__

    def __neg__(self) -> "JetPoly":
        return JetPoly._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "JetPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, negate=True)

    def __rsub__(self, other) -> "JetPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, negate=True)

    def _plus(self, other: "JetPoly", negate: bool) -> "JetPoly":
        """``self + other``, or ``self - other`` when ``negate``."""
        if not other._terms:
            return self
        if not self._terms:
            return -other if negate else other
        out = dict(self._terms)
        for m, c in other._terms.items():
            if negate:
                c = -c
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s += c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return JetPoly._of(out)

    def __mul__(self, other) -> "JetPoly":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return _ZERO
            return JetPoly._of({m: cc * c for m, cc in self._terms.items()})
        if not isinstance(other, JetPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        out: dict[JetMonomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return JetPoly._of(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "JetPoly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _frac(other))
        return NotImplemented

    def __pow__(self, n: int) -> "JetPoly":
        if not isinstance(n, int) or n < 0:
            raise JetError("only nonnegative integer powers of polynomials")
        out = JetPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    @staticmethod
    def _coerce(other) -> "JetPoly":
        if isinstance(other, JetPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return JetPoly.const(other)
        return NotImplemented

    # -- structure queries ----------------------------------------------

    def jet_vars(self) -> set[JetVar]:
        out: set[JetVar] = set()
        for m in self._terms:
            out.update(v for v, _ in m.jet)
        return out

    def param_names(self) -> set[str]:
        out: set[str] = set()
        for m in self._terms:
            out.update(n for n, _ in m.params)
        return out

    def max_order(self) -> int:
        return max((m.max_order for m in self._terms), default=0)

    def has_explicit_xt(self) -> bool:
        return any(m.xpow or m.tpow for m in self._terms)

    # -- partial derivatives ----------------------------------------------

    # Distinct monomials have distinct quotients by one generator, so the
    # partial derivatives below never combine two terms.

    def partial(self, v: JetVar) -> "JetPoly":
        """Partial derivative with respect to one jet coordinate."""
        out: dict[JetMonomial, Fraction] = {}
        for m, c in self._terms.items():
            for i, (w, e) in enumerate(m.jet):
                if w == v:
                    key = JetMonomial(_lower_power(m.jet, i), m.xpow, m.tpow, m.params)
                    out[key] = c * e if e > 1 else c
                    break
        return JetPoly._of(out)

    def partial_explicit(self, axis: str) -> "JetPoly":
        """Partial derivative with respect to explicit ``x`` or ``t``."""
        if axis not in ("x", "t"):
            raise JetError(f"unknown axis {axis!r}")
        out: dict[JetMonomial, Fraction] = {}
        for m, c in self._terms.items():
            p = m.xpow if axis == "x" else m.tpow
            if p == 0:
                continue
            key = JetMonomial(
                m.jet,
                m.xpow - 1 if axis == "x" else m.xpow,
                m.tpow - 1 if axis == "t" else m.tpow,
                m.params,
            )
            out[key] = c * p
        return JetPoly._of(out)

    def partial_param(self, name: str) -> "JetPoly":
        out: dict[JetMonomial, Fraction] = {}
        for m, c in self._terms.items():
            params = dict(m.params)
            e = params.get(name)
            if not e:
                continue
            params[name] = e - 1
            out[JetMonomial.make(m.jet, m.xpow, m.tpow, params)] = c * e
        return JetPoly._of(out)

    # -- generic derivation ------------------------------------------------

    def derive(
        self,
        var_image: Callable[[JetVar], "JetPoly"],
        x_image: "JetPoly | None" = None,
        t_image: "JetPoly | None" = None,
        param_image: Callable[[str], "JetPoly"] | None = None,
    ) -> "JetPoly":
        """Apply a derivation defined by its action on generators.

        ``var_image(v)`` is the derivative of coordinate ``v``; ``x_image``
        / ``t_image`` are the derivatives of the explicit coordinates
        (``None`` means zero); ``param_image(name)`` likewise for
        parameters. Extended to products by the Leibniz rule.
        """
        out = JetPoly.zero()
        for v in self.jet_vars():
            img = var_image(v)
            if img:
                out = out + self.partial(v) * img
        if x_image is not None and x_image:
            out = out + self.partial_explicit("x") * x_image
        if t_image is not None and t_image:
            out = out + self.partial_explicit("t") * t_image
        if param_image is not None:
            for name in self.param_names():
                img = param_image(name)
                if img:
                    out = out + self.partial_param(name) * img
        return out

    # -- substitution -------------------------------------------------------

    def substitute(self, image: Callable[[JetVar], "JetPoly | None"]) -> "JetPoly":
        """Replace jet coordinates by polynomials (``None`` keeps a
        coordinate). Explicit coordinates and parameters pass through."""
        cache: dict[JetVar, JetPoly | None] = {}

        def img(v: JetVar) -> JetPoly | None:
            if v not in cache:
                cache[v] = image(v)
            return cache[v]

        out = JetPoly.zero()
        for m, c in self._terms.items():
            term = JetPoly._of({JetMonomial((), m.xpow, m.tpow, m.params): c})
            for v, e in m.jet:
                rep = img(v)
                factor = JetPoly.from_var(v) if rep is None else rep
                term = term * factor**e
                if term.is_zero():
                    break
            out = out + term
        return out

    def remap_vars(self, fn: Callable[[JetVar], JetVar]) -> "JetPoly":
        """Rename/shift jet coordinates one-for-one (used for the
        cross-family maps such as w -> u or u -> q_x)."""
        out: dict[JetMonomial, Fraction] = {}
        for m, c in self._terms.items():
            jet: dict[JetVar, int] = {}
            for v, e in m.jet:
                w = fn(v)
                jet[w] = jet.get(w, 0) + e
            key = JetMonomial.make(jet, m.xpow, m.tpow, m.params)
            s = out.get(key)
            out[key] = c if s is None else s + c
        return JetPoly._of(_nonzero(out))


_ZERO = JetPoly()


def _nonzero(terms: dict[JetMonomial, Fraction]) -> dict[JetMonomial, Fraction]:
    """``terms`` without the coefficients that summed to zero."""
    if all(terms.values()):
        return terms
    return {m: c for m, c in terms.items() if c}


# ---------------------------------------------------------------------------
# total derivatives


def total_derivative(p: JetPoly, axis: str) -> JetPoly:
    """Total derivative D_x or D_t: explicit powers differentiate as
    ordinary monomials, jet coordinates lift their derivative counts.

    One pass over the terms: each coordinate of a monomial gives the
    monomial with one power of it moved to the lifted coordinate, times
    its exponent."""
    if axis not in ("x", "t"):
        raise JetError(f"unknown axis {axis!r}")
    dx, dt = (1, 0) if axis == "x" else (0, 1)
    lifts: dict[JetVar, JetVar] = {}
    out: dict[JetMonomial, Fraction] = {}
    for m, c in p._terms.items():
        jet = m.jet
        for i, (v, e) in enumerate(jet):
            w = lifts.get(v)
            if w is None:
                w = lifts[v] = v.lifted(axis)
            key = JetMonomial(_lift_power(jet, i, w), m.xpow, m.tpow, m.params)
            ce = c * e if e > 1 else c
            s = out.get(key)
            out[key] = ce if s is None else s + ce
        k = m.xpow if dx else m.tpow
        if k:
            key = JetMonomial(jet, m.xpow - dx, m.tpow - dt, m.params)
            s = out.get(key)
            out[key] = c * k if s is None else s + c * k
    return JetPoly._of(_nonzero(out))


def total_derivative_n(p: JetPoly, dx: int = 0, dt: int = 0) -> JetPoly:
    out = p
    for _ in range(dx):
        out = total_derivative(out, "x")
    for _ in range(dt):
        out = total_derivative(out, "t")
    return out


# ---------------------------------------------------------------------------
# solved systems and on-shell reduction


@dataclass(frozen=True)
class SolvedSystem:
    """Differential system in solved form: each rule maps a leading jet
    coordinate to the expression it equals. A coordinate is reducible when
    it is a prolongation (componentwise >= in dx, dt) of a leading one.
    """

    rules: tuple[tuple[JetVar, JetPoly], ...]
    max_order: int = DEFAULT_MAX_ORDER

    def __post_init__(self) -> None:
        names = [v.name for v, _ in self.rules]
        if len(set(names)) != len(names):
            raise JetError("one solved rule per dependent variable")

    def leading_for(self, v: JetVar) -> tuple[JetVar, JetPoly] | None:
        for lead, rhs in self.rules:
            if v.name == lead.name and v.dx >= lead.dx and v.dt >= lead.dt:
                return lead, rhs
        return None

    def is_reducible(self, v: JetVar) -> bool:
        return self.leading_for(v) is not None


@dataclass(frozen=True)
class EvolutionSystem:
    """Evolution system u^j_t = -rhs^j in Cauchy-Kovalevskaya solved form.

    ``lead_dx = 0`` solves for the plain t-derivatives; ``lead_dx = 1``
    solves for the mixed leaders q_xt, r_xt of the potential family, in
    which case pure t-derivatives are irreducible and retained.
    """

    deps: tuple[str, ...]
    rhs: tuple[JetPoly, ...]
    lead_dx: int = 0
    max_order: int = DEFAULT_MAX_ORDER

    def __post_init__(self) -> None:
        if len(self.deps) != len(self.rhs):
            raise DimensionMismatch("one right side per dependent variable")
        for g in self.rhs:
            if any(v.dt for v in g.jet_vars()):
                raise JetError("solved form requires t-derivative-free right sides")

    @property
    def width(self) -> int:
        return len(self.deps)

    def equation_polys(self) -> tuple[JetPoly, ...]:
        """The defining polynomials G^j = leading derivative + rhs^j."""
        out = []
        for name, g in zip(self.deps, self.rhs):
            out.append(JetPoly.var(name, self.lead_dx, 1) + g)
        return tuple(out)

    def solved(self) -> SolvedSystem:
        rules = tuple(
            (JetVar(name, self.lead_dx, 1), -g) for name, g in zip(self.deps, self.rhs)
        )
        return SolvedSystem(rules, self.max_order)


class _Reducer:
    """Memoized substitution engine for a solved system."""

    def __init__(self, sys: SolvedSystem):
        self.sys = sys
        self.images: dict[JetVar, JetPoly] = {}
        self._in_progress: set[JetVar] = set()

    def image(self, v: JetVar) -> JetPoly:
        got = self.images.get(v)
        if got is not None:
            return got
        if v in self._in_progress:
            raise ReductionError(
                f"cyclic substitution: the solved form of {v} depends on itself"
            )
        self._in_progress.add(v)
        try:
            return self._compute_image(v)
        finally:
            self._in_progress.discard(v)

    def _compute_image(self, v: JetVar) -> JetPoly:
        hit = self.sys.leading_for(v)
        if hit is None:
            raise ReductionError(f"{v} is not reducible")
        lead, rhs = hit
        if v.order > self.sys.max_order:
            raise ReductionError(
                f"reduction would prolong past order {self.sys.max_order}: {v}"
            )
        if v == lead:
            out = self.reduce(rhs)
        elif v.dx > lead.dx:
            out = self.reduce(total_derivative(self.image(JetVar(v.name, v.dx - 1, v.dt)), "x"))
        else:
            out = self.reduce(total_derivative(self.image(JetVar(v.name, v.dx, v.dt - 1)), "t"))
        self.images[v] = out
        return out

    def reduce(self, p: JetPoly) -> JetPoly:
        current = p
        previous_count: int | None = None
        while True:
            reducible = {v for v in current.jet_vars() if self.sys.is_reducible(v)}
            if not reducible:
                return current
            if previous_count is not None and len(reducible) >= previous_count:
                raise ReductionError(
                    "substitution pass did not decrease the reducible-variable count"
                )
            previous_count = len(reducible)
            # Resolve highest t-derivatives first so the measure decreases.
            for v in sorted(reducible, key=lambda w: (w.dt, w.dx), reverse=True):
                self.image(v)
            current = current.substitute(
                lambda v: self.images.get(v) if self.sys.is_reducible(v) else None
            )


_REDUCERS: dict[int, tuple[SolvedSystem, _Reducer]] = {}


def _reducer(sys: SolvedSystem | EvolutionSystem) -> _Reducer:
    solved = sys.solved() if isinstance(sys, EvolutionSystem) else sys
    key = hash(solved)
    hit = _REDUCERS.get(key)
    if hit is not None and hit[0] == solved:
        return hit[1]
    red = _Reducer(solved)
    _REDUCERS[key] = (solved, red)
    return red


def reduce_on_shell(p: JetPoly, sys: SolvedSystem | EvolutionSystem) -> JetPoly:
    """Eliminate every reducible derivative using the solved form and its
    prolongations, substituting highest t-derivatives first."""
    return _reducer(sys).reduce(p)


# ---------------------------------------------------------------------------
# Euler operators


def euler_operator(p: JetPoly, dep: str, x_only: bool = False) -> JetPoly:
    """Full variational derivative with respect to dependent variable
    ``dep``: the sum over jet slots (a, b) of (-D_x)^a (-D_t)^b applied to
    the partial derivative P_ab in ``dep[a,b]``, taken in Horner form

        E = R_0 - D_t(R_1 - D_t(R_2 - ...)),
        R_b = P_0b - D_x(P_1b - D_x(P_2b - ...)),

    which applies max(b) t-derivatives and max(a) x-derivatives per row
    instead of a + b per slot (Olver, *Applications of Lie Groups to
    Differential Equations*, sec. 4.1). ``x_only`` keeps only the row
    b = 0 of t-derivative-free slots (the multiplier-extraction variant)."""
    # rows[b][a] holds the terms of P_ab, all found in one pass over p
    rows: dict[int, dict[int, dict[JetMonomial, Fraction]]] = {}
    for m, c in p._terms.items():
        for i, (v, e) in enumerate(m.jet):
            if v.name != dep or (x_only and v.dt):
                continue
            slot = rows.setdefault(v.dt, {}).setdefault(v.dx, {})
            slot[JetMonomial(_lower_power(m.jet, i), m.xpow, m.tpow, m.params)] = (
                c * e if e > 1 else c
            )
    out = _ZERO
    for b in range(max(rows, default=-1), -1, -1):
        row = rows.get(b, {})
        acc = _ZERO
        for a in range(max(row, default=-1), -1, -1):
            part = JetPoly._of(row[a]) if a in row else _ZERO
            acc = part - total_derivative(acc, "x") if acc else part
        out = acc - total_derivative(out, "t") if out else acc
    return out


# ---------------------------------------------------------------------------
# linear differential operators


@dataclass(frozen=True)
class OpTerm:
    """coeff * D_x^dx * D_t^dt acting on one slot of a tuple."""

    coeff: JetPoly
    dx: int = 0
    dt: int = 0

    def __post_init__(self) -> None:
        if self.dx < 0 or self.dt < 0:
            raise JetError("operator orders must be nonnegative")


@dataclass(frozen=True)
class LinearDiffOp:
    """Matrix of finite sums of ``coeff * D_x^a D_t^b`` terms."""

    entries: tuple[tuple[tuple[OpTerm, ...], ...], ...]

    @staticmethod
    def from_lists(entries: Sequence[Sequence[Sequence[OpTerm]]]) -> "LinearDiffOp":
        return LinearDiffOp(tuple(tuple(tuple(e) for e in row) for row in entries))

    @staticmethod
    def zero(n: int) -> "LinearDiffOp":
        return LinearDiffOp(tuple(tuple(() for _ in range(n)) for _ in range(n)))

    @staticmethod
    def identity(n: int) -> "LinearDiffOp":
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                row.append((OpTerm(JetPoly.one()),) if i == j else ())
            rows.append(tuple(row))
        return LinearDiffOp(tuple(rows))

    @property
    def size(self) -> int:
        return len(self.entries)

    def canonical(self) -> "LinearDiffOp":
        """Combine like-order terms and drop zero coefficients, sorting
        terms by (dx, dt) so equal operators compare equal."""
        rows = []
        for row in self.entries:
            new_row = []
            for entry in row:
                acc: dict[tuple[int, int], JetPoly] = {}
                for term in entry:
                    key = (term.dx, term.dt)
                    acc[key] = acc.get(key, JetPoly.zero()) + term.coeff
                terms = tuple(
                    OpTerm(c, a, b)
                    for (a, b), c in sorted(acc.items())
                    if not c.is_zero()
                )
                new_row.append(terms)
            rows.append(tuple(new_row))
        return LinearDiffOp(tuple(rows))

    def __neg__(self) -> "LinearDiffOp":
        rows = []
        for row in self.entries:
            rows.append(
                tuple(tuple(OpTerm(-t.coeff, t.dx, t.dt) for t in entry) for entry in row)
            )
        return LinearDiffOp(tuple(rows))

    def __add__(self, other: "LinearDiffOp") -> "LinearDiffOp":
        if self.size != other.size:
            raise DimensionMismatch("operator sizes differ")
        rows = []
        for r1, r2 in zip(self.entries, other.entries):
            rows.append(tuple(e1 + e2 for e1, e2 in zip(r1, r2)))
        return LinearDiffOp(tuple(rows)).canonical()


def apply_op(op: LinearDiffOp, w: Sequence[JetPoly]) -> tuple[JetPoly, ...]:
    """Matrix-vector action; each entry term contributes
    coeff * D_x^a D_t^b (component)."""
    if len(w) != op.size:
        raise DimensionMismatch(f"operator width {op.size}, tuple length {len(w)}")
    out = []
    for row in op.entries:
        acc = JetPoly.zero()
        for entry, comp in zip(row, w):
            for term in entry:
                acc = acc + term.coeff * total_derivative_n(comp, term.dx, term.dt)
        out.append(acc)
    return tuple(out)


def formal_adjoint(op: LinearDiffOp) -> LinearDiffOp:
    """Formal adjoint: entry (i,j) with term c*D_x^a*D_t^b transposes to
    entry (j,i) carrying (-1)^(a+b) D_x^a D_t^b composed on the left with
    c, expanded back to coeff*D form by the Leibniz rule."""
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
# canonical text form


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return f"({c.numerator})"
    return f"({c.numerator}/{c.denominator})"


def _format_monomial(m: JetMonomial) -> str:
    parts = []
    for v, e in m.jet:
        s = str(v)
        parts.append(s if e == 1 else f"{s}^{e}")
    if m.xpow:
        parts.append("x" if m.xpow == 1 else f"x^{m.xpow}")
    if m.tpow:
        parts.append("t" if m.tpow == 1 else f"t^{m.tpow}")
    for n, e in m.params:
        parts.append(n if e == 1 else f"{n}^{e}")
    return "*".join(parts)


def format_poly(p: JetPoly) -> str:
    """Canonical text form, e.g. ``(-1/3)*u[3,0] + u[0,0]*v[1,0]``.
    Deterministic: monomials in graded-lexicographic order."""
    if p.is_zero():
        return "0"
    chunks = []
    for m in sorted(p.terms, key=JetMonomial.sort_key):
        c = p.terms[m]
        mono = _format_monomial(m)
        if not mono:
            chunks.append(_format_coeff(c))
        elif c == 1:
            chunks.append(mono)
        else:
            chunks.append(f"{_format_coeff(c)}*{mono}")
    return " + ".join(chunks)


_NAME_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


def _parse_factor(tok: str) -> tuple[str, object, int]:
    """Returns ('jet', JetVar, exp) | ('x'|'t', None, exp) | ('param', name, exp)."""
    tok = tok.strip()
    exp = 1
    if "^" in tok:
        base, _, etxt = tok.rpartition("^")
        # a jet var like u[1,0]^2 or param mu^-1
        try:
            exp = int(etxt)
        except ValueError as err:
            raise ParseError(f"bad exponent in {tok!r}") from err
        tok = base
    if "[" in tok:
        name, _, rest = tok.partition("[")
        if not rest.endswith("]"):
            raise ParseError(f"unterminated jet index in {tok!r}")
        nums = rest[:-1].split(",")
        if len(nums) != 2:
            raise ParseError(f"jet index must be [dx,dt]: {tok!r}")
        try:
            dx, dt = int(nums[0]), int(nums[1])
        except ValueError as err:
            raise ParseError(f"bad jet index in {tok!r}") from err
        return ("jet", JetVar(name, dx, dt), exp)
    if tok == "x":
        return ("x", None, exp)
    if tok == "t":
        return ("t", None, exp)
    if tok and all(ch in _NAME_CHARS for ch in tok) and not tok[0].isdigit():
        return ("param", tok, exp)
    raise ParseError(f"unrecognized factor {tok!r}")


def parse_poly(text: str) -> JetPoly:
    """Parse the canonical text form back to a polynomial (bit-exact
    round-trip with :func:`format_poly`). Also accepts '-' separators."""
    text = text.strip()
    if not text:
        raise ParseError("empty input")
    if text == "0":
        return JetPoly.zero()
    # Split into signed terms at top level (no nested parens beyond coeffs).
    terms: list[tuple[int, str]] = []
    sign = 1
    buf = []
    depth = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and i > 0 and text[i - 1] == " " and i + 1 < len(text) and text[i + 1] == " ":
            terms.append((sign, "".join(buf).strip()))
            sign = 1 if ch == "+" else -1
            buf = []
            i += 2
            continue
        buf.append(ch)
        i += 1
    terms.append((sign, "".join(buf).strip()))

    out = JetPoly.zero()
    for sgn, chunk in terms:
        if not chunk:
            raise ParseError("empty term")
        coeff = Fraction(sgn)
        mono_jet: dict[JetVar, int] = {}
        xpow = tpow = 0
        params: dict[str, int] = {}
        for raw in chunk.split("*"):
            raw = raw.strip()
            if not raw:
                raise ParseError(f"empty factor in {chunk!r}")
            if raw.startswith("("):
                if not raw.endswith(")"):
                    raise ParseError(f"unbalanced coefficient in {raw!r}")
                coeff *= Fraction(raw[1:-1])
                continue
            if raw[0].isdigit() or raw[0] == "-":
                coeff *= Fraction(raw)
                continue
            kind, payload, exp = _parse_factor(raw)
            if kind == "jet":
                v = payload  # type: ignore[assignment]
                mono_jet[v] = mono_jet.get(v, 0) + exp
            elif kind == "x":
                xpow += exp
            elif kind == "t":
                tpow += exp
            else:
                params[payload] = params.get(payload, 0) + exp  # type: ignore[index]
        out = out + JetPoly({JetMonomial.make(mono_jet, xpow, tpow, params): coeff})
    return out
