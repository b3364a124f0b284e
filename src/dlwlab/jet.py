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

Every reduction of the pair by an ansatz (invariant solutions, traveling
waves, the tanh kink) goes through ``substitute_ansatz``: it replaces
each coordinate by the derivatives of the ansatz's image, taken with the
caller's total derivatives in the reduced variables.

A :class:`JetPoly` stores integer numerators ``{monomial: nonzero int}``
over one positive denominator ``den``, in canonical form:
``gcd(den, *numerators) == 1``, and ``den == 1`` for the zero polynomial.
Equal polynomials therefore have equal (numerators, den). The kernel works
on integers only (``*``, ``+``, ``//``) and normalizes each result with a
single ``gcd``, skipped when ``den == 1``. ``Fraction`` appears only at
the edges: the public constructor, scalar operands, and ``.terms`` /
``.items()``, which present the coefficients as ``Fraction``s.

A sum of products (an adjoint action, a Frechet derivative, a
substitution) goes through ``sum_of_products``, which adds every product
into one integer accumulator and normalizes once. ``derivative_table`` is
the one memoized tower of derivatives d_x^a d_t^b: each D_x^a D_t^b of an
operand, each image of an ansatz and each derivative of an analytic
candidate comes from a table. A table of the total derivatives D_x and
D_t lives as long as the innermost ``shared_towers()`` scope, which holds
one tower per polynomial; outside any scope it lives for the call. A
table with maps of its own is always made for the call.

``reduce_on_shell`` is one substitution of every reducible coordinate by
its image under a solved system. Each image is built on first use from
the one below it, reduced before it is stored, and kept by the system's
own reducer, so it lives as long as the system does.

The dict keys, :class:`JetVar` and :class:`JetMonomial`, are namedtuples,
so every hash, equality test and ordering of keys runs in C. A monomial
stores its jet as ``codes``: the sorted tuple of the integer codes of its
coordinates, one per power. The code of ``name[dx,dt]`` is ``(id << 2K) |
(dx << K) | dt``, with ``id`` the process-wide number of ``name``. So a
product merges two sorted int tuples, and a total derivative adds
``1 << K`` (D_x) or 1 (D_t) to one code. ``JetVar`` rejects counts of
``2**(K-1)`` or more: a coordinate reaches a neighbouring field only after
``2**(K-1)`` further total derivatives, and the Euler operator at most
doubles a count. This is the only key format of the kernel.

Names are numbered in the order a process first codes them, so codes are
process-local: a monomial pickles as its ``(JetVar, exponent)`` pairs, and
the decoded view ``m.jet`` lists those pairs sorted by coordinate. No
output depends on code order: text sorts by ``sort_key`` on the decoded
view. Monomials derived from valid ones (a power removed or lifted, an
explicit power differentiated, a generator removed, a product) are built
by the trusted constructor ``_monomial``, one ``tuple.__new__`` that skips
the checks of ``JetMonomial(...)``; each derivation keeps the codes sorted,
the parameter tuple sorted by name without zero exponents, and explicit
powers nonnegative.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from operator import index
from threading import Lock
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

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
    "substitute_ansatz",
    "sum_of_products",
    "derivative_table",
    "shared_towers",
    "reduce_on_shell",
    "euler_operator",
    "apply_op",
    "formal_adjoint",
    "format_poly",
    "parse_poly",
    "DEFAULT_MAX_ORDER",
]

RESERVED_NAMES = ("x", "t")

_T = TypeVar("_T")

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


# JetVar and JetMonomial are the dict keys of every polynomial, so both are
# tuples underneath: hashing, ``==`` and ``<`` are those of the field tuple
# and run in C, and fields are read through namedtuple's C getters.

_tuple_new = tuple.__new__
# namedtuple's _make, and with it _replace, would skip the checks of __new__
_checked_make = classmethod(lambda cls, fields: cls(*fields))

# bits per derivative count in a coordinate's code
_K = 32
_MASK = (1 << _K) - 1
_MAX_COUNT = 1 << (_K - 1)
# each name's id, and the names by id; a name is listed before its id is
# handed out, and the lock keeps two new names from one id
_NAME_IDS: dict[str, int] = {}
_NAMES: list[str] = []
_NAMES_LOCK = Lock()


def _no_sequence_arithmetic(self, other):
    return NotImplemented


class JetVar(namedtuple("JetVar", "name dx dt")):
    """A single jet coordinate: dependent variable ``name`` with ``dx``
    x-derivatives and ``dt`` t-derivatives. ``(name, 0, 0)`` is the
    undifferentiated variable. Counts are below ``2**(K-1)``.

    A JetVar is the tuple ``(name, dx, dt)``: it hashes, compares and
    orders as that tuple, so it also equals a plain tuple with the same
    fields. It supports no sequence arithmetic: ``+`` and ``*`` raise."""

    __slots__ = ()

    def __new__(cls, name: str, dx: int = 0, dt: int = 0) -> "JetVar":
        if name in RESERVED_NAMES:
            raise JetError(f"{name!r} is reserved for an explicit coordinate")
        try:  # a numpy count becomes a Python int, which the code's shifts need
            dx, dt = index(dx), index(dt)
        except TypeError:
            raise JetError(f"derivative counts must be integers, got dx={dx!r}, dt={dt!r}") from None
        if dx < 0 or dt < 0:
            raise JetError("derivative counts must be nonnegative")
        if dx >= _MAX_COUNT or dt >= _MAX_COUNT:
            raise JetError(f"derivative counts must be below 2**{_K - 1}, got dx={dx}, dt={dt}")
        return _tuple_new(cls, (name, dx, dt))

    _make = _checked_make
    __add__ = __radd__ = __mul__ = __rmul__ = _no_sequence_arithmetic

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


def _code(v: JetVar) -> int:
    """The code of ``v``, numbering its name if this process has not yet."""
    i = _NAME_IDS.get(v.name)
    if i is None:
        with _NAMES_LOCK:
            i = _NAME_IDS.get(v.name)
            if i is None:
                _NAMES.append(v.name)
                i = _NAME_IDS[v.name] = len(_NAMES) - 1
    return (i << 2 * _K) | (v.dx << _K) | v.dt


def _var(k: int) -> JetVar:
    """The coordinate of code ``k``."""
    return _tuple_new(JetVar, (_NAMES[k >> 2 * _K], (k >> _K) & _MASK, k & _MASK))


def _powers(codes: tuple) -> dict[int, int]:
    """``{code: exponent}`` of a jet, in code order."""
    out: dict[int, int] = {}
    for k in codes:
        out[k] = out.get(k, 0) + 1
    return out


class JetMonomial(namedtuple("JetMonomial", "codes xpow tpow params")):
    """Canonical power product of jet coordinates, explicit x/t powers and
    parameter powers. ``codes`` holds the jet as the sorted codes of its
    coordinates, one per power; ``jet`` is the same jet as ``(JetVar,
    exponent)`` pairs sorted by coordinate. ``params`` is a sorted tuple of
    ``(name, exponent)`` pairs. Parameter exponents may be negative
    (Laurent); x/t powers may not.

    The constructor, ``_make``, ``_replace`` and pickles all take the jet as
    pairs. A JetMonomial hashes and compares as the tuple ``(codes, xpow,
    tpow, params)``. ``*`` is the monomial product; ``+`` and
    multiplication by an int raise. Output order is ``sort_key``, not the
    tuple order."""

    __slots__ = ()

    def __new__(
        cls,
        jet: tuple[tuple[JetVar, int], ...] = (),
        xpow: int = 0,
        tpow: int = 0,
        params: tuple[tuple[str, int], ...] = (),
    ) -> "JetMonomial":
        if xpow < 0 or tpow < 0:
            raise JetError("explicit coordinate powers must be nonnegative")
        if any(e <= 0 for _, e in jet):
            raise JetError("jet exponents must be positive")
        if any(e == 0 for _, e in params):
            raise JetError("zero parameter exponents must not be stored")
        codes = tuple(sorted(k for v, e in jet for k in (_code(v),) * e))
        return _tuple_new(cls, (codes, xpow, tpow, params))

    _make = _checked_make
    __add__ = __radd__ = __rmul__ = _no_sequence_arithmetic

    def _replace(self, **fields) -> "JetMonomial":
        old = {"jet": self.jet, "xpow": self.xpow, "tpow": self.tpow, "params": self.params}
        return JetMonomial(**{**old, **fields})

    def __reduce__(self):
        # codes are process-local, so a pickle carries the coordinates
        return (JetMonomial, (self.jet, self.xpow, self.tpow, self.params))

    def __repr__(self) -> str:
        return f"JetMonomial(jet={self.jet!r}, xpow={self.xpow!r}, tpow={self.tpow!r}, params={self.params!r})"

    @staticmethod
    def make(
        jet: Mapping[JetVar, int] | Iterable[tuple[JetVar, int]] = (),
        xpow: int = 0,
        tpow: int = 0,
        params: Mapping[str, int] | Iterable[tuple[str, int]] = (),
    ) -> "JetMonomial":
        jet_t = tuple((v, e) for v, e in dict(jet).items() if e != 0)
        par_t = tuple(sorted((n, e) for n, e in dict(params).items() if e != 0))
        return JetMonomial(jet_t, xpow, tpow, par_t)

    @property
    def jet(self) -> tuple[tuple[JetVar, int], ...]:
        return tuple(sorted((_var(k), e) for k, e in _powers(self.codes).items()))

    @property
    def degree(self) -> int:
        return len(self.codes) + self.xpow + self.tpow + sum(abs(e) for _, e in self.params)

    def sort_key(self):
        jet_key = tuple((v.name, v.dx, v.dt, e) for v, e in self.jet)
        return (self.degree, jet_key, self.xpow, self.tpow, self.params)

    def __mul__(self, other: "JetMonomial") -> "JetMonomial":
        if not isinstance(other, JetMonomial):
            return NotImplemented
        return _monomial_product(self, other)


_ONE_MONOMIAL = JetMonomial()


def _monomial_product(a: JetMonomial, b: JetMonomial) -> JetMonomial:
    """``a * b`` for two monomials, without the operand check."""
    params = b.params
    if a.params:
        params = _merge_params(a.params, params) if params else a.params
    codes = b.codes
    if a.codes:
        codes = tuple(sorted(a.codes + codes)) if codes else a.codes
    return _tuple_new(JetMonomial, (codes, a.xpow + b.xpow, a.tpow + b.tpow, params))


def _monomial(codes: tuple, xpow: int, tpow: int, params: tuple) -> JetMonomial:
    """Trusted constructor for a monomial derived from valid ones: ``codes``
    is sorted, ``params`` sorted without zero exponents, and both powers
    are nonnegative. Skips the checks of ``JetMonomial(...)``."""
    return _tuple_new(JetMonomial, (codes, xpow, tpow, params))


def _merge_params(a: tuple, b: tuple) -> tuple:
    """The product of two sorted parameter tuples; exponents that sum to
    zero are dropped."""
    merged = dict(a)
    for n, e in b:
        merged[n] = merged.get(n, 0) + e
    return tuple(sorted((n, e) for n, e in merged.items() if e))


# ---------------------------------------------------------------------------
# polynomials


class JetPoly:
    """Immutable sparse polynomial with exact rational coefficients.

    Stored as integer numerators ``{monomial: nonzero int}`` over one
    positive denominator, in canonical form: ``gcd(den, *numerators) == 1``
    and ``den == 1`` for the zero polynomial, so equality is structural.
    ``.terms`` and ``.items()`` present the coefficients as ``Fraction``s,
    built once per polynomial.

    Construct through the factory classmethods or arithmetic; treat
    instances as frozen values. ``p - p`` is the empty polynomial.
    """

    __slots__ = ("_num", "_den", "_fracs", "_hash")

    def __init__(self, terms: Mapping[JetMonomial, Fraction] | None = None):
        fracs: dict[JetMonomial, Fraction] = {}
        num: dict[JetMonomial, int] = {}
        dens: list[int] = []
        if terms:
            for m, c in terms.items():
                c = _frac(c)
                n = c.numerator
                if n:
                    fracs[m] = c
                    num[m] = n
                    dens.append(c.denominator)
        # over the lcm of reduced denominators the form is canonical
        den = lcm(*dens)
        if den != 1:
            num = {m: n * (den // d) for (m, n), d in zip(num.items(), dens)}
        self._num = num
        self._den = den
        self._fracs = fracs
        self._hash: int | None = None

    @staticmethod
    def _of(num: dict[JetMonomial, int], den: int = 1) -> "JetPoly":
        """Trusted constructor for arithmetic results: ``num`` is a new dict
        of nonzero int numerators over the positive ``den``, taken over as
        is and brought to canonical form by one ``gcd`` when ``den != 1``."""
        if den != 1:
            if not num:
                den = 1
            else:
                g = gcd(den, *num.values())
                if g != 1:
                    den //= g
                    num = {m: c // g for m, c in num.items()}
        p = object.__new__(JetPoly)
        p._num = num
        p._den = den
        p._fracs = None
        p._hash = None
        return p

    def __reduce__(self):
        # the cached hash is process-specific, so it is not pickled
        return (JetPoly, (self.terms,))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "JetPoly":
        return _ZERO

    @classmethod
    def const(cls, value: int | Fraction | str) -> "JetPoly":
        v = _frac(value)
        if v == 0:
            return _ZERO
        return JetPoly._of({_ONE_MONOMIAL: v.numerator}, v.denominator)

    @classmethod
    def one(cls) -> "JetPoly":
        return cls.const(1)

    @classmethod
    def var(cls, name: str, dx: int = 0, dt: int = 0) -> "JetPoly":
        return JetPoly._of({JetMonomial.make({JetVar(name, dx, dt): 1}): 1})

    @classmethod
    def from_var(cls, v: JetVar) -> "JetPoly":
        return JetPoly._of({JetMonomial.make({v: 1}): 1})

    @classmethod
    def x(cls, power: int = 1) -> "JetPoly":
        return JetPoly._of({JetMonomial.make(xpow=power): 1})

    @classmethod
    def t(cls, power: int = 1) -> "JetPoly":
        return JetPoly._of({JetMonomial.make(tpow=power): 1})

    @classmethod
    def param(cls, name: str, power: int = 1) -> "JetPoly":
        if name in RESERVED_NAMES:
            raise JetError(f"{name!r} is reserved")
        return JetPoly._of({JetMonomial.make(params={name: power}): 1})

    # -- basic protocol -------------------------------------------------

    @property
    def terms(self) -> Mapping[JetMonomial, Fraction]:
        fracs = self._fracs
        if fracs is None:
            den = self._den
            fracs = self._fracs = {m: Fraction(c, den) for m, c in self._num.items()}
        return fracs

    def items(self):
        return self.terms.items()

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JetPoly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == JetPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._num.items()), self._den))
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
        return JetPoly._of({m: -c for m, c in self._num.items()}, self._den)

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
        """``self + other``, or ``self - other`` when ``negate``, over the
        lcm of the two denominators."""
        if not other._num:
            return self
        if not self._num:
            return -other if negate else other
        d1, d2 = self._den, other._den
        if d1 == d2:
            out = dict(self._num)
            f = 1
        else:
            g = gcd(d1, d2)
            f1, f = d2 // g, d1 // g
            out = {m: c * f1 for m, c in self._num.items()}
            d1 *= f1
        if negate:
            f = -f
        for m, c in other._num.items():
            if f != 1:
                c *= f
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s += c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return JetPoly._of(out, d1)

    def __mul__(self, other) -> "JetPoly":
        if isinstance(other, (int, Fraction)):
            a = other.numerator
            if not a:
                return _ZERO
            return JetPoly._of({m: n * a for m, n in self._num.items()}, self._den * other.denominator)
        if not isinstance(other, JetPoly):
            return NotImplemented
        if not self._num or not other._num:
            return _ZERO
        out: dict[JetMonomial, int] = {}
        _add_product(out, self._num, other._num)
        return JetPoly._of(_nonzero(out), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "JetPoly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _frac(other))
        return NotImplemented

    def __pow__(self, n: int) -> "JetPoly":
        if not isinstance(n, int) or n < 0:
            raise JetError("only nonnegative integer powers of polynomials")
        if n < 2:  # substitute raises most factors to the power 1
            return self if n else JetPoly.one()
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
        return set(map(_var, {k for m in self._num for k in m.codes}))

    def param_names(self) -> set[str]:
        out: set[str] = set()
        for m in self._num:
            out.update(n for n, _ in m.params)
        return out

    def has_explicit_xt(self) -> bool:
        return any(m.xpow or m.tpow for m in self._num)

    # -- partial derivatives ----------------------------------------------

    # Distinct monomials have distinct quotients by one generator, so the
    # partial derivatives below never combine two terms.

    def partial(self, v: JetVar) -> "JetPoly":
        """Partial derivative with respect to one jet coordinate."""
        k = _code(v)
        out: dict[JetMonomial, int] = {}
        for m, c in self._num.items():
            codes = m.codes
            if k in codes:
                i = codes.index(k)
                out[_monomial(codes[:i] + codes[i + 1 :], m.xpow, m.tpow, m.params)] = c * codes.count(k)
        return JetPoly._of(out, self._den)

    def partial_explicit(self, axis: str) -> "JetPoly":
        """Partial derivative with respect to explicit ``x`` or ``t``."""
        if axis not in ("x", "t"):
            raise JetError(f"unknown axis {axis!r}")
        dx, dt = (1, 0) if axis == "x" else (0, 1)
        out: dict[JetMonomial, int] = {}
        for m, c in self._num.items():
            p = m.xpow if dx else m.tpow
            if p:
                out[_monomial(m.codes, m.xpow - dx, m.tpow - dt, m.params)] = c * p
        return JetPoly._of(out, self._den)

    def partial_param(self, name: str) -> "JetPoly":
        out: dict[JetMonomial, int] = {}
        for m, c in self._num.items():
            params = dict(m.params)
            e = params.get(name)
            if not e:
                continue
            params[name] = e - 1
            out[_monomial(m.codes, m.xpow, m.tpow, tuple((n, f) for n, f in params.items() if f))] = c * e
        return JetPoly._of(out, self._den)

    def coefficients_in(self, gen: JetVar | str) -> dict[int, "JetPoly"]:
        """``{k: a_k}`` with ``self = sum_k a_k gen^k``, for ``gen`` a jet
        coordinate or a parameter name; each ``a_k`` is nonzero and free of
        ``gen``. Removing one generator keeps distinct monomials distinct."""
        in_params = isinstance(gen, str)
        code = None if in_params else _code(gen)
        out: dict[int, dict[JetMonomial, int]] = {}
        for m, c in self._num.items():
            codes, params = m.codes, m.params
            e = 0
            if in_params:
                for i, (n, f) in enumerate(params):
                    if n == gen:
                        e = f
                        params = params[:i] + params[i + 1 :]
                        break
            elif code in codes:
                i = codes.index(code)
                e = codes.count(code)
                codes = codes[:i] + codes[i + e :]
            out.setdefault(e, {})[_monomial(codes, m.xpow, m.tpow, params)] = c
        return {e: JetPoly._of(num, self._den) for e, num in out.items()}

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
        parameters. Extended to products by the Leibniz rule, as one
        :func:`sum_of_products` of each image with its partial derivative.
        """
        pairs = [(self.partial(v), img) for v in self.jet_vars() if (img := var_image(v))]
        if x_image:
            pairs.append((self.partial_explicit("x"), x_image))
        if t_image:
            pairs.append((self.partial_explicit("t"), t_image))
        if param_image is not None:
            images = ((n, param_image(n)) for n in self.param_names())
            pairs += [(self.partial_param(n), img) for n, img in images if img]
        return sum_of_products(pairs)

    # -- substitution -------------------------------------------------------

    def substitute(self, image: Callable[[JetVar], "JetPoly | None"]) -> "JetPoly":
        """Replace jet coordinates by polynomials (``None`` keeps a
        coordinate). Explicit coordinates and parameters pass through.

        ``image`` is asked once per coordinate, in term order, and each
        power of an image is built once per call; if every image is None
        the result is ``self``, not a copy. A term is its kept monomial
        times the powers of the images of its other coordinates, expanded
        on integer numerators, with no polynomial per term. Substitution
        is linear, so the sum is divided by the denominators, self's
        included, and normalized once."""
        codes = dict.fromkeys(k for m in self._num for k in m.codes)
        images = {k: image(_var(k)) for k in codes}
        if all(f is None for f in images.values()):
            return self
        powers: dict[tuple[int, int], JetPoly | None] = {}
        sums: dict[int, dict[JetMonomial, int]] = {}
        for m, c in self._num.items():
            kept: tuple = ()
            factors = []
            den = 1
            for pair in _powers(m.codes).items():
                if pair not in powers:
                    k, e = pair
                    powers[pair] = None if images[k] is None else images[k] ** e
                f = powers[pair]
                if f is None:
                    kept += (pair[0],) * pair[1]
                else:
                    factors.append(f._num)
                    den *= f._den
            if not all(factors):  # an image is zero
                continue
            out = sums.get(den)
            if out is None:
                out = sums[den] = {}
            if not factors:
                s = out.get(m)
                out[m] = c if s is None else s + c
                continue
            num = {_monomial(kept, m.xpow, m.tpow, m.params): c}
            for f in factors[:-1]:
                step: dict[JetMonomial, int] = {}
                _add_product(step, num, f)
                num = step
            _add_product(out, num, factors[-1])
        return _over_common_denominator(sums, self._den)

    def remap_vars(self, fn: Callable[[JetVar], JetVar]) -> "JetPoly":
        """Rename/shift jet coordinates one-for-one (used for the
        cross-family maps such as w -> u or u -> q_x)."""
        out: dict[JetMonomial, int] = {}
        for m, c in self._num.items():
            codes = tuple(sorted(_code(fn(_var(k))) for k in m.codes))
            key = _monomial(codes, m.xpow, m.tpow, m.params)
            s = out.get(key)
            out[key] = c if s is None else s + c
        return JetPoly._of(_nonzero(out), self._den)


def substitute_ansatz(
    p: JetPoly,
    base: Mapping[str, JetPoly],
    dx: Callable[[JetPoly], JetPoly],
    dt: Callable[[JetPoly], JetPoly],
) -> JetPoly:
    """``p`` with each coordinate ``name[a,b]`` replaced by
    ``dt^b(dx^a(base[name]))``: the ansatz ``base`` for the dependent
    variables, with ``dx`` and ``dt`` the total derivatives in its own
    variables. The images of each name come from one
    :func:`derivative_table` of its ansatz, so each is built once per call,
    from the one below it. Explicit x, t and parameters pass through; a
    coordinate whose name ``base`` lacks raises JetError."""
    tables = {name: derivative_table(img, dx, dt) for name, img in base.items()}

    def image(var: JetVar) -> JetPoly:
        if var.name not in tables:
            raise JetError(f"the ansatz gives no image of {var.name!r}")
        return tables[var.name](var.dx, var.dt)

    return p.substitute(image)


_ZERO = JetPoly()


def _nonzero(num: dict[JetMonomial, int]) -> dict[JetMonomial, int]:
    """``num`` without the numerators that summed to zero."""
    if all(num.values()):
        return num
    return {m: c for m, c in num.items() if c}


# ---------------------------------------------------------------------------
# sums of products


def _add_product(out: dict[JetMonomial, int], a: dict[JetMonomial, int], b: dict[JetMonomial, int]) -> None:
    """``out += a * b`` on integer numerators, in place. Terms that cancel
    stay as 0 until ``_nonzero``."""
    product = _monomial_product
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = product(m1, m2)
            s = get(m)
            out[m] = c1 * c2 if s is None else s + c1 * c2


def _over_common_denominator(sums: dict[int, dict[JetMonomial, int]], den: int = 1) -> JetPoly:
    """The polynomial ``sum(num / d for d, num in sums.items()) / den``:
    the numerators brought to the lcm of the ``d`` and normalized once."""
    if len(sums) == 1:
        ((d, num),) = sums.items()
        return JetPoly._of(_nonzero(num), d * den)
    common = lcm(*sums)
    out: dict[JetMonomial, int] = {}
    for d, num in sums.items():
        f = common // d
        for m, c in num.items():
            s = out.get(m)
            out[m] = c * f if s is None else s + c * f
    return JetPoly._of(_nonzero(out), common * den)


def sum_of_products(pairs: Iterable[tuple[JetPoly, JetPoly]]) -> JetPoly:
    """``sum(a * b for a, b in pairs)``, exact and canonical.

    Every product is added up on integer numerators, in one sum per
    product of the two denominators; the sums are brought to their lcm
    and normalized once at the end. No polynomial is built per product
    and no accumulator is copied per term (Olver, *Applications of Lie
    Groups to Differential Equations*, sec. 5.2: adjoint actions,
    formal adjoints and Frechet derivatives are all sums of this form)."""
    sums: dict[int, dict[JetMonomial, int]] = {}
    for a, b in pairs:
        if a._num and b._num:
            den = a._den * b._den
            out = sums.get(den)
            if out is None:
                out = sums[den] = {}
            _add_product(out, a._num, b._num)
    return _over_common_denominator(sums)


def _d_x(p: JetPoly) -> JetPoly:
    return total_derivative(p, "x")


def _d_t(p: JetPoly) -> JetPoly:
    return total_derivative(p, "t")


# one tower per polynomial for the innermost shared_towers() scope, or None
_TOWERS: ContextVar[dict | None] = ContextVar("jet_towers", default=None)


@contextmanager
def shared_towers() -> Iterator[None]:
    """A scope in which every :func:`derivative_table` of D_x and D_t
    shares one tower per polynomial: a table asked for a polynomial equal
    to one seen before in the scope returns that table, with every entry
    built so far. The towers are dropped when the scope ends, and a nested
    scope starts with none. The scope is a context variable, so a thread
    started inside it sees no scope."""
    token = _TOWERS.set({})
    try:
        yield
    finally:
        _TOWERS.reset(token)


def derivative_table(
    p: _T,
    dx: Callable[[_T], _T] = _d_x,
    dt: Callable[[_T], _T] = _d_t,
) -> Callable[[int, int], _T]:
    """``d(a, b) = dx^a dt^b p``, each entry built once per table by one
    map of the entry one order below it (``dt`` if ``b``, else ``dx``).
    The maps default to the total derivatives D_x and D_t; any pair of
    commuting derivations of ``p``'s type will do. With the default maps
    inside a :func:`shared_towers` scope, the table is the scope's tower
    of ``p``, made on first use; otherwise it is new, so nothing is kept
    past the caller's hold on it."""
    towers = _TOWERS.get() if dx is _d_x and dt is _d_t else None
    if towers is None:
        return _table(p, dx, dt)
    d = towers.get(p)
    if d is None:
        d = towers[p] = _table(p, dx, dt)
    return d


def _table(p: _T, dx: Callable[[_T], _T], dt: Callable[[_T], _T]) -> Callable[[int, int], _T]:
    table = {(0, 0): p}

    # d builds the entries below (a, b) by a loop, not by calling itself:
    # a closure that names itself is a reference cycle, which a tower kept
    # for a whole run would leave to the cyclic collector
    def d(a: int, b: int) -> _T:
        got = table.get((a, b))
        if got is None:
            if a < 0 or b < 0:
                raise JetError(f"total derivative orders must be nonnegative, got dx={a}, dt={b}")
            missing = []
            key = (a, b)
            while key not in table:
                missing.append(key)
                key = (key[0], key[1] - 1) if key[1] else (key[0] - 1, 0)
            got = table[key]
            for key in reversed(missing):
                got = table[key] = dt(got) if key[1] else dx(got)
        return got

    return d


# ---------------------------------------------------------------------------
# total derivatives


def total_derivative(p: JetPoly, axis: str) -> JetPoly:
    """Total derivative D_x or D_t: explicit powers differentiate as
    ordinary monomials, jet coordinates lift their derivative counts.
    One pass of ``_add_derivative`` over the terms; the denominator
    carries over."""
    if axis not in ("x", "t"):
        raise JetError(f"unknown axis {axis!r}")
    return _of_keys(_add_derivative({}, p._num, in_t=axis == "t", negate=False), p._den)


def _add_derivative(out: dict, terms: dict, in_t: bool, negate: bool) -> dict:
    """``out + D(terms)``, or ``out - D(terms)`` when ``negate``, in place,
    with D = D_t if ``in_t`` else D_x, on keys ``(codes, xpow, tpow,
    params)``, plain tuples or monomials. Each power of a coordinate gives the key with its code
    lifted by 1 (D_t) or ``1 << K`` (D_x) and placed by ``bisect``, so a
    power e lifts to one key at its e places; the explicit power lowers.
    Numerators that cancelled to 0 are skipped."""
    step = 1 if in_t else 1 << _K
    get = out.get
    for (codes, xpow, tpow, params), c in terms.items():
        if not c:
            continue
        if negate:
            c = -c
        for i, k in enumerate(codes):
            lifted = k + step
            j = bisect_right(codes, lifted, i + 1)
            key = (codes[:i] + codes[i + 1 : j] + (lifted,) + codes[j:], xpow, tpow, params)
            out[key] = get(key, 0) + c
        power = tpow if in_t else xpow
        if power:
            key = (codes, xpow, tpow - 1, params) if in_t else (codes, xpow - 1, tpow, params)
            out[key] = get(key, 0) + c * power
    return out


def _of_keys(out: dict, den: int) -> JetPoly:
    """The polynomial of the nonzero numerators of ``out``, over ``den``,
    its plain-tuple keys made monomials."""
    return JetPoly._of({_tuple_new(JetMonomial, key): c for key, c in out.items() if c}, den)


# ---------------------------------------------------------------------------
# solved systems and on-shell reduction


@dataclass(frozen=True)
class SolvedSystem:
    """Differential system in solved form: each rule maps a leading jet
    coordinate to the expression it equals. A coordinate is reducible when
    it is a prolongation (componentwise >= in dx, dt) of a leading one.
    Each system builds its own on-shell reducer, which keeps the images
    of its reducible coordinates for as long as the system lives.
    """

    rules: tuple[tuple[JetVar, JetPoly], ...]
    max_order: int = DEFAULT_MAX_ORDER
    _on_shell: "_Reducer" = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = [v.name for v, _ in self.rules]
        if len(set(names)) != len(names):
            raise JetError("one solved rule per dependent variable")
        object.__setattr__(self, "_on_shell", _Reducer(self))

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
    # built once here, so every reduction on this system shares one reducer
    _solved: SolvedSystem = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.deps) != len(self.rhs):
            raise DimensionMismatch("one right side per dependent variable")
        for g in self.rhs:
            if any(v.dt for v in g.jet_vars()):
                raise JetError("solved form requires t-derivative-free right sides")
        rules = tuple(
            (JetVar(name, self.lead_dx, 1), -g) for name, g in zip(self.deps, self.rhs)
        )
        object.__setattr__(self, "_solved", SolvedSystem(rules, self.max_order))

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
        return self._solved


class _Reducer:
    """The on-shell images of one solved system's reducible coordinates.
    Each image is built on first use, from the rule or from the image one
    order below it, and is reduced before it is stored, so a reduction is
    one substitution."""

    def __init__(self, sys: SolvedSystem):
        self.sys = sys
        self.images: dict[JetVar, JetPoly] = {}
        self._in_progress: set[JetVar] = set()

    def image(self, v: JetVar) -> JetPoly | None:
        """The reduced image of ``v``, or None when ``v`` is irreducible."""
        got = self.images.get(v)
        if got is not None:
            return got
        hit = self.sys.leading_for(v)
        if hit is None:
            return None
        if v in self._in_progress:
            raise ReductionError(
                f"cyclic substitution: the solved form of {v} depends on itself"
            )
        if v.order > self.sys.max_order:
            raise ReductionError(
                f"reduction would prolong past order {self.sys.max_order}: {v}"
            )
        lead, rhs = hit
        self._in_progress.add(v)
        try:
            if v == lead:
                got = self.reduce(rhs)
            elif v.dx > lead.dx:
                got = self.reduce(total_derivative(self.image(JetVar(v.name, v.dx - 1, v.dt)), "x"))
            else:
                got = self.reduce(total_derivative(self.image(JetVar(v.name, v.dx, v.dt - 1)), "t"))
        finally:
            self._in_progress.discard(v)
        self.images[v] = got
        return got

    def reduce(self, p: JetPoly) -> JetPoly:
        return p.substitute(self.image)


def reduce_on_shell(p: JetPoly, sys: SolvedSystem | EvolutionSystem) -> JetPoly:
    """Eliminate every reducible derivative using the solved form and its
    prolongations: one substitution of each reducible coordinate by its
    reduced image. The images are kept by the system's own reducer, built
    on first use and shared by every later reduction on that system."""
    solved = sys.solved() if isinstance(sys, EvolutionSystem) else sys
    return solved._on_shell.reduce(p)


# ---------------------------------------------------------------------------
# Euler operators


def euler_operator(p: JetPoly, dep: str) -> JetPoly:
    """Full variational derivative with respect to dependent variable
    ``dep``: the sum over jet slots (a, b) of (-D_x)^a (-D_t)^b applied to
    the partial derivative P_ab in ``dep[a,b]``, taken in Horner form

        E = R_0 - D_t(R_1 - D_t(R_2 - ...)),
        R_b = P_0b - D_x(P_1b - D_x(P_2b - ...)),

    which applies max(b) t-derivatives and max(a) x-derivatives per row
    instead of a + b per slot (Olver, *Applications of Lie Groups to
    Differential Equations*, sec. 4.1).

    The Horner form runs on the coded keys, as plain tuples, through the
    lift of ``_add_derivative``, shared with ``total_derivative``. A row
    takes at most max(a) or max(b) steps, so no count exceeds twice the
    highest in p, below ``2**K``. The nonzero numerators become monomials
    once, over p's denominator, and are normalized once. ``dep`` "x" or
    "t" raises JetError."""
    if dep in RESERVED_NAMES:
        raise JetError(f"{dep!r} is reserved for an explicit coordinate")
    dep_id = _NAME_IDS.get(dep)
    # rows[b][a]: P_ab, to which a power e of dep[a,b] adds c at e places
    rows: dict[int, dict[int, dict[tuple, int]]] = {}
    for m, c in p._num.items():
        codes = m.codes
        for i, k in enumerate(codes):
            if k >> 2 * _K == dep_id:
                slot = rows.setdefault(k & _MASK, {}).setdefault((k >> _K) & _MASK, {})
                key = (codes[:i] + codes[i + 1 :], m.xpow, m.tpow, m.params)
                slot[key] = slot.get(key, 0) + c
    out: dict[tuple, int] = {}
    for b in range(max(rows, default=-1), -1, -1):
        row = rows.get(b, {})
        acc: dict[tuple, int] = {}
        for a in range(max(row, default=-1), -1, -1):
            acc = _add_derivative(row.get(a, {}), acc, in_t=False, negate=True)
        out = _add_derivative(acc, out, in_t=True, negate=True)
    return _of_keys(out, p._den)


# ---------------------------------------------------------------------------
# linear differential operators


@dataclass(frozen=True)
class OpTerm:
    """coeff * D_x^dx * D_t^dt acting on one slot of a tuple."""

    coeff: JetPoly
    dx: int = 0
    dt: int = 0

    def __post_init__(self) -> None:
        try:
            dx, dt = index(self.dx), index(self.dt)
        except TypeError:
            raise JetError(f"operator orders must be integers, got dx={self.dx!r}, dt={self.dt!r}") from None
        if dx < 0 or dt < 0:
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
    coeff * D_x^a D_t^b (component). Each distinct derivative of a
    component is taken once per tower, from one :func:`derivative_table`
    per component shared by every row, and each row is one
    :func:`sum_of_products`."""
    if len(w) != op.size:
        raise DimensionMismatch(f"operator width {op.size}, tuple length {len(w)}")
    tables = [derivative_table(comp) for comp in w]
    return tuple(
        sum_of_products(
            (term.coeff, d(term.dx, term.dt)) for entry, d in zip(row, tables) for term in entry
        )
        for row in op.entries
    )


def formal_adjoint(op: LinearDiffOp) -> LinearDiffOp:
    """Formal adjoint: entry (i,j) with term c*D_x^a*D_t^b transposes to
    entry (j,i) carrying (-1)^(a+b) D_x^a D_t^b composed on the left with
    c, expanded back to coeff*D form by the Leibniz rule. The derivatives
    D_x^k D_t^l c for k <= a, l <= b come from one
    :func:`derivative_table` of c: (a+1)(b+1)-1 total derivatives."""
    n = op.size
    rows: list[list[list[OpTerm]]] = [[[] for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(op.entries):
        for j, entry in enumerate(row):
            for term in entry:
                a, b = term.dx, term.dt
                sign = -1 if (a + b) % 2 else 1
                d = derivative_table(term.coeff)
                for k in range(a + 1):
                    for l in range(b + 1):
                        coeff = d(k, l) * (comb(a, k) * comb(b, l) * sign)
                        if coeff:
                            rows[j][i].append(OpTerm(coeff, a - k, b - l))
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
        try:
            return ("jet", JetVar(name, dx, dt), exp)
        except JetError as err:
            raise ParseError(f"bad jet coordinate {tok!r}: {err}") from err
    if tok == "x":
        return ("x", None, exp)
    if tok == "t":
        return ("t", None, exp)
    if tok and all(ch in _NAME_CHARS for ch in tok) and not tok[0].isdigit():
        return ("param", tok, exp)
    raise ParseError(f"unrecognized factor {tok!r}")


def _parse_coeff(text: str, chunk: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad coefficient {text!r} in {chunk!r}") from err


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
                coeff *= _parse_coeff(raw[1:-1], chunk)
                continue
            if raw[0].isdigit() or raw[0] == "-":
                coeff *= _parse_coeff(raw, chunk)
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
        try:
            mono = JetMonomial.make(mono_jet, xpow, tpow, params)
        except JetError as err:
            raise ParseError(f"bad monomial in {chunk!r}: {err}") from err
        out = out + JetPoly({mono: coeff})
    return out
