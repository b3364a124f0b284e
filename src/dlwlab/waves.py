"""Traveling-wave reduction U(xi), V(xi) with xi = x - mu t, first
integrals induced by x,t-free conservation laws, and the hyperbolic-
tangent ansatz whose coefficient system certifies the kink family.

Both reductions substitute their ansatz into the equations of
``systems.physical_system()`` through ``jet.substitute_ansatz``, and the
solved form of the reduced pair is read off the substituted equations,
so no equation of the pair is restated here.

The wave speed mu is carried symbolically (an exact parameter), so the
"constant along the reduced flow" statements are polynomial identities
in mu, not spot checks. The kink's coefficients lie in Q(sqrt 3); they
are jet polynomials in a parameter s that stands for sqrt(3), and
``evaluate_at_point`` reduces by s^2 = 3, so the coefficient system is
decided exactly in the jet layer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .conslaw import ConservationLaw
from .jet import (
    EvolutionSystem,
    JetError,
    JetMonomial,
    JetPoly,
    JetVar,
    SolvedSystem,
    reduce_on_shell,
    substitute_ansatz,
    sum_of_products,
    total_derivative,
)
from .systems import physical_system

__all__ = [
    "ExplicitCoordinateError",
    "TravelingWaveODE",
    "FirstIntegral",
    "MU",
    "traveling_substitute",
    "reduce_traveling",
    "traveling_solved_system",
    "first_integral",
    "first_integral_derivative",
    "printed_first_integrals",
    "tanh_ansatz_system",
    "tanh_solution_point",
    "ROOT3",
    "evaluate_at_point",
]


class ExplicitCoordinateError(JetError):
    """The law depends on explicit x or t and induces no first integral."""


MU = JetPoly.param("mu")

#: The parameter s that stands for sqrt(3); see ``evaluate_at_point``.
ROOT3 = JetPoly.param("s")


@dataclass(frozen=True)
class TravelingWaveODE:
    """Reduced system in the one-variable family (U, V); derivative
    counts live in the dx slot and the speed enters as the parameter mu."""

    equations: tuple[JetPoly, JetPoly]


@dataclass(frozen=True)
class FirstIntegral:
    """flux - mu * density of a conserved pair, written in the traveling
    profile variables; constant along the reduced flow."""

    expr: JetPoly
    source_label: str


def traveling_substitute(p: JetPoly, mu: JetPoly | Fraction | int = MU) -> JetPoly:
    """Substitute u -> U(xi), v -> V(xi): D_x becomes d/dxi and D_t
    becomes -mu d/dxi, so the coordinate (dep, a, b) maps to
    (-mu)^b * dep[a+b]."""
    mu_poly = mu if isinstance(mu, JetPoly) else JetPoly.const(Fraction(mu))
    if p.has_explicit_xt():
        raise ExplicitCoordinateError("expression depends on explicit x or t")
    return substitute_ansatz(
        p,
        {"u": JetPoly.var("U"), "v": JetPoly.var("V")},
        lambda q: total_derivative(q, "x"),
        lambda q: -mu_poly * total_derivative(q, "x"),
    )


def reduce_traveling(sys: EvolutionSystem, mu: JetPoly | Fraction | int = MU) -> TravelingWaveODE:
    """Apply the traveling substitution to both equations."""
    eqs = tuple(traveling_substitute(g, mu) for g in sys.equation_polys())
    return TravelingWaveODE(equations=eqs)  # type: ignore[arg-type]


def _solve_for(eq: JetPoly, lead: JetVar) -> JetPoly:
    """The value of ``lead`` on ``eq = 0``, for ``eq`` linear in ``lead``
    with a nonzero rational coefficient."""
    parts = eq.coefficients_in(lead)
    coeff = parts.get(1, JetPoly.zero())
    c = coeff.terms.get(JetMonomial())
    if c is None or coeff != c or parts.keys() - {0, 1}:
        raise JetError(f"{lead} does not enter linearly with a rational coefficient")
    return -parts.get(0, JetPoly.zero()) / c


def traveling_solved_system(mu: JetPoly | Fraction | int = MU) -> SolvedSystem:
    """The reduced system in solved form: V' from the first equation and
    U''' from the second with V' eliminated."""
    return _solved_system(mu, physical_system())


# Keyed on the pair itself, so a replaced ``physical_system()`` gets its
# own entry; bounded, since each speed is a key.
@functools.lru_cache(maxsize=16)
def _solved_system(mu: JetPoly | Fraction | int, pair: EvolutionSystem) -> SolvedSystem:
    eq1, eq2 = reduce_traveling(pair, mu).equations
    v1, u3 = JetVar("V", 1, 0), JetVar("U", 3, 0)
    v1_rhs = _solve_for(eq1, v1)
    u3_rhs = _solve_for(eq2.substitute(lambda w: v1_rhs if w == v1 else None), u3)
    return SolvedSystem(rules=((v1, v1_rhs), (u3, u3_rhs)))


def first_integral(
    cl: ConservationLaw, mu: JetPoly | Fraction | int = MU
) -> FirstIntegral:
    """flux - mu * density in the traveling variables. Raises
    ExplicitCoordinateError when the law carries explicit x or t."""
    if cl.density.has_explicit_xt() or cl.flux.has_explicit_xt():
        raise ExplicitCoordinateError(f"law {cl.label or '?'} depends on x or t")
    mu_poly = mu if isinstance(mu, JetPoly) else JetPoly.const(Fraction(mu))
    expr = traveling_substitute(cl.flux, mu_poly) - mu_poly * traveling_substitute(
        cl.density, mu_poly
    )
    return FirstIntegral(expr=expr, source_label=cl.label)


def first_integral_derivative(
    fi: FirstIntegral, mu: JetPoly | Fraction | int = MU
) -> JetPoly:
    """d/dxi of the integral reduced modulo the traveling system; zero
    certifies constancy along the reduced flow."""
    return reduce_on_shell(total_derivative(fi.expr, "x"), traveling_solved_system(mu))


def printed_first_integrals() -> dict[str, JetPoly]:
    """The printed constant expressions keyed by catalog id (the first
    one is reconstructed by the verifier instead; its printed display is
    not well formed)."""
    f = Fraction
    U, V = JetPoly.var("U"), JetPoly.var("V")
    U1, U2 = JetPoly.var("U", 1), JetPoly.var("U", 2)
    V1 = JetPoly.var("V", 1)
    mu = MU
    c2 = (
        U**3 * V * f(1, 2)
        - U**2 * V * mu * f(1, 2)
        + U**2 * U2 * f(1, 6)
        + V**2 * U
        - V**2 * mu * f(1, 2)
        - mu * U1**2 * f(1, 6)
        + V * U2 * f(1, 3)
    )
    c3 = V**2 * f(1, 2) + U**2 * V + U * U2 * f(1, 3) - U1**2 * f(1, 6) - mu * U * V
    c4 = U * V + U2 * f(1, 3) + U**2 * f(1, 2) + V - mu * U - mu * V
    return {"eq79": c2, "eq80": c3, "eq81": c4}


# ---------------------------------------------------------------------------
# hyperbolic-tangent ansatz


def tanh_ansatz_system() -> list[JetPoly]:
    """Coefficient system of the ansatz u = a0 + a1 T, v = b0 + b1 T +
    b2 T^2 with T = tanh(xi), dT/dxi = 1 - T^2, xi = x - mu t.

    Substituting into both equations of ``physical_system()`` and
    collecting powers of T yields polynomial equations in (a0, a1, b0,
    b1, b2, mu); the returned list concatenates the nonzero coefficients
    of both equations.
    """
    a0, a1 = JetPoly.param("a0"), JetPoly.param("a1")
    b0, b1, b2 = JetPoly.param("b0"), JetPoly.param("b1"), JetPoly.param("b2")
    T = JetPoly.param("T")

    def ddxi(p: JetPoly) -> JetPoly:
        return p.partial_param("T") * (JetPoly.one() - T**2)

    base = {"u": a0 + a1 * T, "v": b0 + b1 * T + b2 * T**2}
    system: list[JetPoly] = []
    for eq in physical_system().equation_polys():
        by_power = substitute_ansatz(eq, base, ddxi, lambda p: -MU * ddxi(p)).coefficients_in("T")
        system.extend(by_power[k] for k in sorted(by_power))
    return system


def tanh_solution_point() -> dict[str, JetPoly]:
    """The kink coefficients a0 = mu (the free speed), a1 = 2 s/3,
    b0 = 2/3, b1 = 0, b2 = -2/3, in the parameter s = sqrt(3)."""
    return {
        "a0": MU,
        "a1": ROOT3 * Fraction(2, 3),
        "b0": JetPoly.const(Fraction(2, 3)),
        "b1": JetPoly.zero(),
        "b2": JetPoly.const(Fraction(-2, 3)),
    }


def evaluate_at_point(eq: JetPoly, point: Mapping[str, JetPoly]) -> JetPoly:
    """``eq`` with each parameter named in ``point`` replaced by its value,
    reduced by s^2 = 3 to the form A + B s with A, B free of s. Since
    sqrt(3) is irrational, the result is zero iff ``eq`` vanishes at the
    point with s = sqrt(3), for every value of the parameters left free."""
    for name, value in point.items():
        eq = sum_of_products((c, value**k) for k, c in eq.coefficients_in(name).items())
    return sum_of_products(
        (c * 3 ** (k // 2), ROOT3 ** (k % 2)) for k, c in eq.coefficients_in("s").items()
    )
