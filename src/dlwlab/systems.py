"""The two concrete evolution systems and the maps between their jet
families.

Physical family (u, v):

    u_t = -(u u_x + v_x)
    v_t = -(u_x v + u v_x + u_xxx/3)

Potential family (q, r), obtained by writing u = q_x, v = r_x and
integrating each equation once in x; the solved leaders are the mixed
derivatives q_xt, r_xt, so pure t-derivatives of q and r stay as
irreducible coordinates:

    q_xt = -(q_x q_xx + r_xx)
    r_xt = -(q_xx r_x + q_x r_xx + q_xxxx/3)

The solver integrates ``physical_system().rhs`` itself: ``sim`` plans its
RK4 stage from these polynomials, so the system the report verifies is
the one the solver runs.

Each system is a frozen value built once per process: every caller gets
the same object, so a cache keyed by a system (the reducers, the
residual programs, the traveling-wave solved form) finds its entry
without rebuilding the pair or comparing a new one by value.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .jet import EvolutionSystem, JetError, JetPoly, JetVar

__all__ = [
    "physical_system",
    "potential_system",
    "physical_to_potential",
    "potential_to_physical",
    "substitute_dependent",
]


def _u(dx: int = 0, dt: int = 0) -> JetPoly:
    return JetPoly.var("u", dx, dt)


def _v(dx: int = 0, dt: int = 0) -> JetPoly:
    return JetPoly.var("v", dx, dt)


@functools.cache
def physical_system() -> EvolutionSystem:
    """The water-wave pair in solved evolution form."""
    g1 = _u() * _u(1) + _v(1)
    g2 = _u(1) * _v() + _u() * _v(1) + _u(3) * Fraction(1, 3)
    return EvolutionSystem(deps=("u", "v"), rhs=(g1, g2), lead_dx=0)


@functools.cache
def potential_system() -> EvolutionSystem:
    """The once-integrated pair in the potential variables q, r."""
    q = lambda dx=0, dt=0: JetPoly.var("q", dx, dt)
    r = lambda dx=0, dt=0: JetPoly.var("r", dx, dt)
    g1 = q(1) * q(2) + r(2)
    g2 = q(2) * r(1) + q(1) * r(2) + q(4) * Fraction(1, 3)
    return EvolutionSystem(deps=("q", "r"), rhs=(g1, g2), lead_dx=1)


_PHYS_TO_POT = {"u": "q", "v": "r"}
_POT_TO_PHYS = {"q": "u", "r": "v"}


def physical_to_potential(p: JetPoly) -> JetPoly:
    """Explicit cross-family substitution u -> q_x, v -> r_x."""

    def fn(var: JetVar) -> JetVar:
        if var.name in _PHYS_TO_POT:
            return JetVar(_PHYS_TO_POT[var.name], var.dx + 1, var.dt)
        return var

    return p.remap_vars(fn)


def potential_to_physical(p: JetPoly) -> JetPoly:
    """Push a potential-family expression forward through u = q_x,
    v = r_x. Fails on bare (underived-in-x) q or r, which have no
    physical image."""

    def fn(var: JetVar) -> JetVar:
        if var.name in _POT_TO_PHYS:
            if var.dx < 1:
                raise JetError(f"{var} has no image under q_x -> u, r_x -> v")
            return JetVar(_POT_TO_PHYS[var.name], var.dx - 1, var.dt)
        return var

    return p.remap_vars(fn)


def substitute_dependent(p: JetPoly, renames: dict[str, str]) -> JetPoly:
    """Rename dependent variables slot-for-slot (e.g. the auxiliary
    multiplier variables w1 -> u, w2 -> v)."""

    def fn(var: JetVar) -> JetVar:
        if var.name in renames:
            return JetVar(renames[var.name], var.dx, var.dt)
        return var

    return p.remap_vars(fn)
