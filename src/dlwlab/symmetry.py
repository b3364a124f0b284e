"""Point-symmetry machinery: determining residuals, vector-field and
evolutionary brackets, and the classification of the one-dimensional
subalgebras of the four-generator algebra by a complete invariant of its
adjoint action.

A :class:`PointSymmetry` is a field on any evolution system: it carries
one eta per dependent variable, keyed by name in the system's ``deps``
order, and everything here is computed from those pairs, so the same
code checks a scalar equation such as Burgers or KdV, the potential
pair (q, r) and the physical pair (u, v). The catalog generators of the
physical pair are

    X1 = d/dt,  X2 = d/dx,  X3 = t d/dx + d/du,
    X4 = (x/2) d/dx + t d/dt - (u/2) d/du - v d/dv.

Nothing here prolongs a field. A field is checked through its
characteristic Q_dep = eta_dep - xi1 dep_t - xi2 dep_x and the Frechet
derivative of the equations, the one linearization that the adjoint
and conservation-law layers share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import linalg
from .jet import (
    DimensionMismatch,
    EvolutionSystem,
    JetError,
    JetPoly,
    JetVar,
    derivative_table,
    reduce_on_shell,
    substitute_ansatz,
    sum_of_products,
)
from .systems import physical_system

__all__ = [
    "PointSymmetry",
    "Characteristic",
    "point_symmetries",
    "characteristic",
    "determining_residual",
    "lie_bracket",
    "frechet_derivative",
    "char_bracket",
    "characteristics",
    "structure_constants",
    "char_structure_constants",
    "printed_generator_matrices",
    "optimal_class",
    "OPTIMAL_CLASSES",
    "similarity_reduction_checks",
]


@dataclass(frozen=True)
class PointSymmetry:
    """Vector field xi1 d/dt + xi2 d/dx + sum_dep eta_dep d/d(dep) on the
    fields of one system. ``eta`` holds one (dependent variable, eta) pair
    per field, in the system's ``deps`` order, and every coefficient is a
    function of t, x and those fields only: no derivative coordinates and
    no other field. ``coeffs()`` is (xi1, xi2, eta...) in that order."""

    xi1: JetPoly
    xi2: JetPoly
    eta: tuple[tuple[str, JetPoly], ...]
    name: str = ""

    def __post_init__(self) -> None:
        deps = self.deps
        for coeff in self.coeffs():
            for v in coeff.jet_vars():
                if v.order > 0:
                    raise JetError("point symmetry coefficients must be order-0")
                if v.name not in deps:
                    raise JetError(f"point symmetry coefficient reads {v.name!r}, which is not one of its fields {deps}")

    @property
    def deps(self) -> tuple[str, ...]:
        return tuple(dep for dep, _ in self.eta)

    def coeffs(self) -> tuple[JetPoly, ...]:
        return (self.xi1, self.xi2, *(eta for _, eta in self.eta))

    def _with_coeffs(self, coeffs: Iterable[JetPoly]) -> "PointSymmetry":
        """The field on the same dependent variables with ``coeffs`` in
        ``coeffs()`` order."""
        xi1, xi2, *etas = coeffs
        return PointSymmetry(xi1, xi2, tuple(zip(self.deps, etas)))

    def _zip(self, other: "PointSymmetry") -> Iterable[tuple[JetPoly, JetPoly]]:
        if self.deps != other.deps:
            raise JetError(f"fields on {self.deps} and on {other.deps} do not combine")
        return zip(self.coeffs(), other.coeffs())

    def apply_to(self, f: JetPoly) -> JetPoly:
        """First-order action on a function of t, x and the fields."""
        return sum_of_products(
            (
                (self.xi1, f.partial_explicit("t")),
                (self.xi2, f.partial_explicit("x")),
                *((eta, f.partial(JetVar(dep))) for dep, eta in self.eta),
            )
        )

    def scaled(self, c: Fraction | int) -> "PointSymmetry":
        c = Fraction(c)
        return self._with_coeffs(k * c for k in self.coeffs())

    def __add__(self, other: "PointSymmetry") -> "PointSymmetry":
        return self._with_coeffs(a + b for a, b in self._zip(other))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs())


@dataclass(frozen=True)
class Characteristic:
    """Evolutionary form of a symmetry: one flow component per dependent
    variable, P = eta - xi1 * u_t - xi2 * u_x componentwise."""

    comp: tuple[JetPoly, ...]
    name: str = ""

    def __iter__(self):
        return iter(self.comp)

    def scaled(self, c: Fraction | int) -> "Characteristic":
        c = Fraction(c)
        return Characteristic(tuple(p * c for p in self.comp))

    def __add__(self, other: "Characteristic") -> "Characteristic":
        return Characteristic(tuple(a + b for a, b in zip(self.comp, other.comp)))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.comp)


def point_symmetries() -> tuple[PointSymmetry, ...]:
    """The four generators admitted by the physical pair, in catalog order
    X1..X4."""
    deps = physical_system().deps
    zero, one, t = JetPoly.zero(), JetPoly.one(), JetPoly.t()
    u, v = (JetPoly.var(dep) for dep in deps)
    fields = (
        ("X1", one, zero, zero, zero),
        ("X2", zero, one, zero, zero),
        ("X3", zero, t, one, zero),
        ("X4", t, JetPoly.x() * Fraction(1, 2), u * Fraction(-1, 2), -v),
    )
    return tuple(PointSymmetry(xi1, xi2, tuple(zip(deps, etas)), name) for name, xi1, xi2, *etas in fields)


def characteristic(x: PointSymmetry, name: str = "") -> Characteristic:
    """Evolutionary representative of a point symmetry: one component
    Q_dep = eta_dep - xi1 dep_t - xi2 dep_x per dependent variable, in
    the field's order."""
    comp = tuple(eta - x.xi1 * JetPoly.var(dep, 0, 1) - x.xi2 * JetPoly.var(dep, 1, 0) for dep, eta in x.eta)
    return Characteristic(comp, name=name or (x.name and f"P{x.name[1:]}"))


def characteristics() -> tuple[Characteristic, ...]:
    return tuple(characteristic(x) for x in point_symmetries())


def determining_residual(
    x: PointSymmetry, sys: EvolutionSystem
) -> tuple[JetPoly, ...]:
    """The linearized equations G'[Q] in the direction of the field's
    characteristic Q, reduced on shell; the zero tuple certifies a
    symmetry. JetError if the field is not on the system's ``deps``.

    This is the prolonged field applied to the equations: pr X(G) =
    G'[Q] + xi1 D_t G + xi2 D_x G (Olver, *Applications of Lie Groups to
    Differential Equations*, GTM 107, Sec. 5.1), and ``reduce_on_shell``
    is one substitution, a ring homomorphism that sends every D_J G to
    0, so both sides reduce to the same polynomial for any field."""
    if x.deps != sys.deps:
        raise JetError(f"a field on {x.deps} is not a field of the system on {sys.deps}")
    return tuple(
        reduce_on_shell(r, sys)
        for r in frechet_derivative(sys.equation_polys(), characteristic(x).comp, sys.deps)
    )


# ---------------------------------------------------------------------------
# brackets


def lie_bracket(x: PointSymmetry, y: PointSymmetry) -> PointSymmetry:
    """Coefficient-wise commutator [X, Y] = X(Y coeffs) - Y(X coeffs)."""
    return x._with_coeffs(x.apply_to(b) - y.apply_to(a) for a, b in x._zip(y))


def frechet_derivative(
    q: Sequence[JetPoly], p: Sequence[JetPoly], deps: Sequence[str]
) -> tuple[JetPoly, ...]:
    """Directional derivative Q'(P): differentiate each component of Q
    through every jet slot of the listed dependent variables in the
    direction of the prolonged tuple P, one component of P per name in
    ``deps``; fields outside ``deps`` are constants. Each component is one
    :func:`sum_of_products`, and each derivative D_x^a D_t^b of a
    component of P comes from its :func:`derivative_table`, so it is
    taken once per call, or once per run inside ``jet.shared_towers()``.
    Raises DimensionMismatch if P and ``deps`` differ in width."""
    if len(p) != len(deps):
        raise DimensionMismatch(f"a direction of width {len(p)} on {len(deps)} dependent variables {tuple(deps)}")
    index = {name: k for k, name in enumerate(deps)}
    tables = [derivative_table(c) for c in p]
    return tuple(
        sum_of_products(
            (comp.partial(v), tables[index[v.name]](v.dx, v.dt))
            for v in comp.jet_vars()
            if v.name in index
        )
        for comp in q
    )


def char_bracket(
    p: Characteristic, q: Characteristic, sys: EvolutionSystem
) -> Characteristic:
    """Evolutionary bracket [P, Q] = Q'(P) - P'(Q), reduced on shell."""
    qp = frechet_derivative(q.comp, p.comp, sys.deps)
    pq = frechet_derivative(p.comp, q.comp, sys.deps)
    return Characteristic(
        tuple(reduce_on_shell(a - b, sys) for a, b in zip(qp, pq))
    )


def structure_constants() -> tuple[
    dict[tuple[int, int, int], Fraction], list[list[list[Fraction]]]
]:
    """Structure constants c[i][j][k] with [X_i, X_j] = sum_k c^k_ij X_k
    (1-based keys), plus the induced generator matrices E_i acting on
    subalgebra coefficient vectors: E_i[k][j] = c^k_ij."""
    xs = point_symmetries()
    basis = linalg.Basis([x.coeffs() for x in xs])
    c: dict[tuple[int, int, int], Fraction] = {}
    for i in range(4):
        for j in range(4):
            coords = basis.coords(lie_bracket(xs[i], xs[j]).coeffs())
            if coords is None:
                raise JetError("bracket left the span of the generators")
            for k, val in enumerate(coords):
                if val != 0:
                    c[(i + 1, j + 1, k + 1)] = val
    mats: list[list[list[Fraction]]] = []
    for i in range(1, 5):
        mat = [[Fraction(0)] * 4 for _ in range(4)]
        for (ii, j, k), val in c.items():
            if ii == i:
                mat[k - 1][j - 1] = val
        mats.append(mat)
    return c, mats


def char_structure_constants(
    chars: Sequence[Characteristic], sys: EvolutionSystem
) -> dict[tuple[int, int], tuple[Fraction, ...] | None]:
    """The characteristic analogue of :func:`structure_constants`: for
    0-based i < j, the coordinates of char_bracket(P_i, P_j) over the
    on-shell-reduced characteristics, or None when the bracket leaves
    their span. [P_j, P_i] = -[P_i, P_j] and [P_i, P_i] = 0 give the rest
    of the table."""
    basis = linalg.Basis([tuple(reduce_on_shell(c, sys) for c in p.comp) for p in chars])
    table: dict[tuple[int, int], tuple[Fraction, ...] | None] = {}
    for i in range(len(chars)):
        for j in range(i + 1, len(chars)):
            coords = basis.coords(char_bracket(chars[i], chars[j], sys).comp)
            table[(i, j)] = None if coords is None else tuple(coords)
    return table


def printed_generator_matrices() -> list[list[list[Fraction]]]:
    """The generator matrices as printed in the source catalog, kept for
    the comparison report (two entries disagree with the bracket table)."""
    z = Fraction(0)
    e1 = [[z, z, z, Fraction(1)], [z, z, Fraction(1), z], [z] * 4, [z] * 4]
    e2 = [[z] * 4, [z, z, z, Fraction(1, 2)], [z] * 4, [z] * 4]
    e3 = [[z] * 4, [Fraction(-1), z, z, z], [z] * 4, [z] * 4]
    e4 = [
        [Fraction(-1), z, z, z],
        [z, Fraction(-1, 2), z, z],
        [z, z, Fraction(-1, 2), z],
        [z] * 4,
    ]
    return [e1, e2, e3, e4]


# ---------------------------------------------------------------------------
# optimal system of one-dimensional subalgebras, by a complete invariant
#
# span{X1, X2, X3} is the derived algebra and span{X2, X3} an ideal (see
# structure_constants()), so the adjoint action keeps "l4 = 0" and, on it,
# "l1 = 0". On l4 = 0 the shifts exp(eps E1..E3) fix l1 and l3, and the
# scaling multiplies l1 * l3 by a positive factor, as does a projective
# factor c (by c**2). The zeros of l4, l1 and l3 and the sign of l1 * l3
# therefore name the class (Olver, GTM 107, sec. 3.3).

OPTIMAL_CLASSES = ("X1", "X2", "X3", "X4", "X1+X3", "X1-X3")


def optimal_class(vec: Sequence[Fraction | int]) -> str:
    """The class of the subalgebra spanned by l1 X1 + ... + l4 X4.

    The entries are ints or Fractions. The class depends only on the ray
    of ``vec``, so any nonzero multiple of it, for instance the entries
    times the lcm of their denominators, gives the same class.
    """
    if len(vec) != 4:
        raise JetError("subalgebra vectors have four components")
    l1, _, l3, l4 = vec
    if l4:
        return "X4"
    if l1:
        return "X1" if not l3 else ("X1+X3" if l1 * l3 > 0 else "X1-X3")
    if l3:
        return "X3"
    if vec[1]:
        return "X2"
    raise JetError("the zero vector spans no subalgebra")


# ---------------------------------------------------------------------------
# similarity reductions of the two composite generators


def _ansatz_reduction(
    sys: EvolutionSystem,
    base: Mapping[str, JetPoly],
    dx: Callable[[JetPoly], JetPoly],
    dt: Callable[[JetPoly], JetPoly],
    scale: tuple[JetPoly | int, JetPoly | int],
    expected: tuple[JetPoly, JetPoly],
) -> dict:
    """Substitute an invariant ansatz into the system and compare with the
    expected reduced pair. ``base`` gives the images of u and v; ``dx`` and
    ``dt`` are the total derivatives in the reduced variables, applied
    through ``substitute_ansatz``; each substituted equation is multiplied
    by its ``scale`` before the comparison."""
    computed = tuple(
        substitute_ansatz(eq, base, dx, dt) * k for eq, k in zip(sys.equation_polys(), scale)
    )
    return {"computed": computed, "expected": expected, "match": computed == expected}


def _chain(dz: JetPoly, **explicit) -> Callable[[JetPoly], JetPoly]:
    """Total derivative along one axis in the reduced variables: f^(k)
    maps to dz * f^(k+1), with dz the axis derivative of the invariant;
    ``explicit`` passes the images of x, t and parameters to ``derive``."""
    return lambda p: p.derive(lambda v: dz * JetPoly.var(v.name, v.dx + 1), **explicit)


def similarity_reduction_checks(sys: EvolutionSystem) -> dict[str, dict]:
    """Reproduce the reduced ODE systems of the two composite-generator
    invariant ansatzes as exact polynomial identities.

    For X1+X3 the invariant variable is Q = t^2/2 - x with u = t + f(Q),
    v = g(Q); for X2+X4 it is R = (x+2)/sqrt(t) with u = f(R)/sqrt(t),
    v = g(R)/t (verified after clearing the sqrt(t) prefactors).
    """
    f = lambda k=0: JetPoly.var("f", k)
    g = lambda k=0: JetPoly.var("g", k)
    rt = lambda k=1: JetPoly.param("rt", k)  # rt = sqrt(t)
    R = JetPoly.param("R")
    dR_dt = R * rt(-2) * Fraction(-1, 2)
    return {
        "X1+X3": _ansatz_reduction(
            sys,
            {"u": JetPoly.t() + f(), "v": g()},
            _chain(-JetPoly.one()),
            _chain(JetPoly.t(), t_image=JetPoly.one()),
            (1, 1),
            (JetPoly.one() - f() * f(1) - g(1), -f(1) * g() - f() * g(1) - f(3) / 3),
        ),
        "X2+X4": _ansatz_reduction(
            sys,
            {"u": rt(-1) * f(), "v": rt(-2) * g()},
            _chain(rt(-1), param_image={"R": rt(-1)}.get),
            _chain(dR_dt, param_image={"R": dR_dt, "rt": rt(-1) * Fraction(1, 2)}.get),
            (rt(3), rt(4)),
            (
                -R * f(1) / 2 - f() / 2 + f() * f(1) + g(1),
                -g() - R * g(1) / 2 + f(1) * g() + f() * g(1) + f(3) / 3,
            ),
        ),
    }
