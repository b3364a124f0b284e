"""The two concrete evolution systems and the maps between their jet
families.

Physical family (u, v):

    u_t = -(u u_x + v_x)
    v_t = -(u_x v + u v_x + u_xxx/3)

Potential family (q, r), obtained by writing u = q_x, v = r_x and
integrating each equation once in x, so its right sides are the
physical ones under that substitution; the solved leaders are the mixed
derivatives q_xt, r_xt, so pure t-derivatives of q and r stay as
irreducible coordinates:

    q_xt = -(q_x q_xx + r_xx)
    r_xt = -(q_xx r_x + q_x r_xx + q_xxxx/3)

Each system's ``deps`` is the one source of its field names: every
other module reads the names, their order and their number from it, and
the maps between the families below pair the two ``deps`` slot for
slot.

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
from typing import Mapping

from .jet import EvolutionSystem, JetError, JetPoly, JetVar

__all__ = [
    "physical_system",
    "potential_system",
    "physical_to_potential",
    "potential_to_physical",
    "substitute_dependent",
]


@functools.cache
def physical_system() -> EvolutionSystem:
    """The water-wave pair in solved evolution form."""
    u = lambda dx=0: JetPoly.var("u", dx)
    v = lambda dx=0: JetPoly.var("v", dx)
    g1 = u() * u(1) + v(1)
    g2 = u(1) * v() + u() * v(1) + u(3) * Fraction(1, 3)
    return EvolutionSystem(deps=("u", "v"), rhs=(g1, g2), lead_dx=0)


#: The potential family's field names, declared here once: the map below
#: reads them, and ``potential_system`` is built through that map.
_POTENTIAL_DEPS = ("q", "r")


@functools.cache
def potential_system() -> EvolutionSystem:
    """The once-integrated pair in the potential variables q, r: the
    physical right sides under u -> q_x, v -> r_x."""
    rhs = tuple(physical_to_potential(g) for g in physical_system().rhs)
    return EvolutionSystem(deps=_POTENTIAL_DEPS, rhs=rhs, lead_dx=1)


def _rename(p: JetPoly, renames: Mapping[str, str], shift: int = 0) -> JetPoly:
    """Rename the dependent variables in ``renames`` slot for slot and add
    ``shift`` to their x-order; JetError for a slot left with none."""

    def fn(var: JetVar) -> JetVar:
        if var.name not in renames:
            return var
        if var.dx + shift < 0:
            raise JetError(f"{var} has no image under {var.name} -> {renames[var.name]} with x-order {shift:+d}")
        return JetVar(renames[var.name], var.dx + shift, var.dt)

    return p.remap_vars(fn)


def physical_to_potential(p: JetPoly) -> JetPoly:
    """Explicit cross-family substitution u -> q_x, v -> r_x."""
    return _rename(p, dict(zip(physical_system().deps, _POTENTIAL_DEPS)), 1)


def potential_to_physical(p: JetPoly) -> JetPoly:
    """Push a potential-family expression forward through u = q_x,
    v = r_x. Fails on bare (underived-in-x) q or r, which have no
    physical image."""
    return _rename(p, dict(zip(_POTENTIAL_DEPS, physical_system().deps)), -1)


def substitute_dependent(p: JetPoly, renames: Mapping[str, str]) -> JetPoly:
    """Rename dependent variables slot-for-slot (e.g. the auxiliary
    multiplier variables w1 -> u, w2 -> v)."""
    return _rename(p, renames)
