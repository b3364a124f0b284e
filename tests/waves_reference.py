"""Earlier forms of the traveling-wave layer, kept as test oracles.

``Root3`` is exact arithmetic in a + b sqrt(3) and ``evaluate_at_tanh_point``
evaluates a tanh coefficient equation at a point of that field, keeping
the speed mu symbolic. They are the versions that the parameter form
s = sqrt(3) in ``dlwlab.waves`` replaced; both must decide the same
equations.

``traveling_substitute`` maps each coordinate term by term, and
``traveling_solved_system`` and ``tanh_ansatz_system`` type the reduced
and the substituted equations of the pair out by hand. ``dlwlab.waves``
derives all three from ``physical_system()`` through
``jet.substitute_ansatz`` and must return the same polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from dlwlab.jet import JetError, JetMonomial, JetPoly, JetVar, SolvedSystem
from dlwlab.waves import MU, ExplicitCoordinateError

_TRAVELING_NAME = {"u": "U", "v": "V"}


def traveling_substitute(p: JetPoly, mu: JetPoly | Fraction | int = MU) -> JetPoly:
    """Substitute u -> U(xi), v -> V(xi): the coordinate (dep, a, b) maps
    to (-mu)^b * dep[a+b], one term at a time."""
    mu_poly = mu if isinstance(mu, JetPoly) else JetPoly.const(Fraction(mu))
    if p.has_explicit_xt():
        raise ExplicitCoordinateError("expression depends on explicit x or t")

    out = JetPoly.zero()
    for m, c in p.items():
        term = JetPoly({JetMonomial((), 0, 0, m.params): c})
        for v, e in m.jet:
            name = _TRAVELING_NAME.get(v.name)
            if name is None:
                raise JetError(f"unexpected dependent variable {v.name!r}")
            factor = JetPoly.var(name, v.dx + v.dt) * (-mu_poly) ** v.dt
            term = term * factor**e
        out = out + term
    return out


def traveling_solved_system(mu: JetPoly | Fraction | int = MU) -> SolvedSystem:
    """The reduced system in solved form, typed out: V' = (mu - U) U' and
    U''' = 3 (mu - U)^2 U' - 3 V U'."""
    mu_poly = mu if isinstance(mu, JetPoly) else JetPoly.const(Fraction(mu))
    u, u1 = JetPoly.var("U"), JetPoly.var("U", 1)
    v = JetPoly.var("V")
    v1_rhs = (mu_poly - u) * u1
    u3_rhs = (mu_poly - u) ** 2 * u1 * 3 - v * u1 * 3
    return SolvedSystem(rules=((JetVar("V", 1, 0), v1_rhs), (JetVar("U", 3, 0), u3_rhs)))


def tanh_ansatz_system() -> list[JetPoly]:
    """Coefficient system of u = a0 + a1 T, v = b0 + b1 T + b2 T^2 with
    T = tanh(x - mu t), both equations written out by hand."""
    a0, a1 = JetPoly.param("a0"), JetPoly.param("a1")
    b0, b1, b2 = JetPoly.param("b0"), JetPoly.param("b1"), JetPoly.param("b2")
    mu = MU
    T = JetPoly.param("T")

    def ddxi(p: JetPoly) -> JetPoly:
        return p.partial_param("T") * (JetPoly.one() - T**2)

    u = a0 + a1 * T
    v = b0 + b1 * T + b2 * T**2
    ux, vx = ddxi(u), ddxi(v)
    ut, vt = -mu * ux, -mu * vx
    uxxx = ddxi(ddxi(ux))
    eq1 = ut + u * ux + vx
    eq2 = vt + ux * v + u * vx + uxxx * Fraction(1, 3)

    system: list[JetPoly] = []
    for eq in (eq1, eq2):
        by_power = eq.coefficients_in("T")
        system.extend(by_power[k] for k in sorted(by_power))
    return system


@dataclass(frozen=True)
class Root3:
    """Exact arithmetic in the quadratic field a + b*sqrt(3)."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __add__(self, other: "Root3") -> "Root3":
        return Root3(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "Root3") -> "Root3":
        return Root3(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __pow__(self, n: int) -> "Root3":
        out = Root3(Fraction(1))
        base = self
        for _ in range(n):
            out = out * base
        return out

    def scale(self, c: Fraction) -> "Root3":
        return Root3(self.a * c, self.b * c)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def tanh_solution_point() -> dict[str, Root3]:
    """The kink coefficients: a1 = 2 sqrt(3)/3, b0 = 2/3, b1 = 0,
    b2 = -2/3, with a0 identified with the free speed mu."""
    return {
        "a1": Root3(Fraction(0), Fraction(2, 3)),
        "b0": Root3(Fraction(2, 3)),
        "b1": Root3(),
        "b2": Root3(Fraction(-2, 3)),
    }


def evaluate_at_tanh_point(
    eq: JetPoly, binding: Mapping[str, Root3], identify: Mapping[str, str] = {"a0": "mu"}
) -> dict[int, Root3]:
    """Evaluate a coefficient equation at a quadratic-field point,
    keeping unbound parameters symbolic (after identifying parameters per
    ``identify``, e.g. a0 = mu). Returns {mu exponent: value}; the point
    satisfies the equation iff every value is zero."""
    acc: dict[int, Root3] = {}
    for m, c in eq.items():
        if m.jet or m.xpow or m.tpow:
            raise JetError("coefficient equations must be pure parameter polynomials")
        val = Root3(Fraction(1))
        mu_exp = 0
        for name, e in m.params:
            name = identify.get(name, name)
            if name == "mu":
                mu_exp += e
            elif name in binding:
                val = val * binding[name] ** e
            else:
                raise JetError(f"parameter {name} not bound")
        val = val.scale(c)
        cur = acc.get(mu_exp, Root3())
        acc[mu_exp] = cur + val
    return {k: v for k, v in acc.items() if not v.is_zero()} or {0: Root3()}
