"""Hand-specialised boundary currents kept as test oracles.

``noether_W`` is the closed form of the Noether current for the potential
Lagrangian's slots (q_x, q_xx, r_x, r_t), integrated by parts by hand.
``ibragimov_flow`` assembles the formal-Lagrangian current slot by slot
and accepts only slots first order in t or pure-x up to third order.
Both are the versions that ``dlwlab.conslaw.boundary_current`` replaced;
on the catalog generators the general routine must agree with them
structurally.

``boundary_current`` is the general routine as it was before its sums
went through ``jet.sum_of_products``: one ``+`` and one ``*`` per slot
term, and every derivative of a component taken from scratch by
``jet_reference.total_derivative_n``, not by the kernel's derivative
table. The kernel's version must equal it on every
density and field.

``law_multipliers`` reads the characteristics of a law off its density;
nothing in the package calls it, and ``test_multiplier_extraction`` keeps
it as the check that the catalog laws have the printed multipliers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from dlwlab.conslaw import ConservationLaw, Lagrangian, formal_lagrangian, ibragimov_labels
from dlwlab.jet import (
    EvolutionSystem,
    JetError,
    JetPoly,
    reduce_on_shell,
    total_derivative,
)
from dlwlab.symmetry import Characteristic, PointSymmetry, characteristic
from dlwlab.systems import substitute_dependent
from jet_reference import euler_operator, total_derivative_n


def _p(name: str, dx: int = 0, dt: int = 0) -> JetPoly:
    return JetPoly.var(name, dx, dt)


def noether_W(v: Characteristic, lag: Lagrangian) -> tuple[JetPoly, JetPoly]:
    """Boundary terms (W1, W2) with
    pr V (L) = E_q(L) eta1 + E_r(L) eta2 + D_x W1 + D_t W2,
    in the closed form obtained by integrating the prolonged action by
    parts for this Lagrangian's slots."""
    eta1, eta2 = v.comp
    qx, qxx, qxxx = _p("q", 1), _p("q", 2), _p("q", 3)
    rx, rt = _p("r", 1), _p("r", 0, 1)
    w1 = (
        -eta1 * rt
        - rx * eta2
        - qx**2 * eta2 * Fraction(1, 2)
        - qx * rx * eta1
        - eta1 * qxxx * Fraction(1, 3)
        + qxx * total_derivative(eta1, "x") * Fraction(1, 3)
    )
    w2 = -qx * eta2
    return (w1, w2)


def ibragimov_flow(x: PointSymmetry, sys: EvolutionSystem) -> ConservationLaw:
    """Conserved pair generated by a verified point symmetry through the
    formal Lagrangian: assemble the boundary currents with the auxiliary
    variables kept independent, then substitute w1 = u, w2 = v.

    Supports Lagrangians whose derivative slots are first order in t and
    pure-x up to third order, which covers the one built here.
    """
    lf = formal_lagrangian(sys).density
    w = {dep: comp for dep, comp in zip(sys.deps, characteristic(x).comp)}

    c_t = x.xi1 * lf
    c_x = x.xi2 * lf
    for dep in sys.deps:
        for var in sorted(lf.jet_vars()):
            if var.name != dep:
                continue
            partial = lf.partial(var)
            if var.dx and var.dt:
                raise JetError("mixed derivative slots are not supported")
            if var.dt > 1 or var.dx > 3:
                raise JetError("slot order outside the supported range")
            if var.dt == 1:
                c_t = c_t + w[dep] * partial
            elif var.dx >= 1:
                a = var.dx
                for k in range(a):
                    sign = -1 if (a - 1 - k) % 2 else 1
                    c_x = c_x + (
                        total_derivative_n(w[dep], k, 0)
                        * total_derivative_n(partial, a - 1 - k, 0)
                        * sign
                    )
    sub = {"w1": "u", "w2": "v"}
    return ConservationLaw(
        density=substitute_dependent(c_t, sub),
        flux=substitute_dependent(c_x, sub),
        label=ibragimov_labels()[x.name] if x.name in ibragimov_labels() else "",
    )


def boundary_current(density: JetPoly, w: Mapping[str, JetPoly]) -> tuple[JetPoly, JetPoly]:
    """Currents (C_x, C_t) with pr W(L) = sum_a E_a(L) W^a + D_x C_x + D_t C_t,
    each slot term f D_x^i D_t^j W^a integrated by parts in t, then in x."""
    c_x = c_t = JetPoly.zero()
    for var in sorted(density.jet_vars()):
        wa = w.get(var.name)
        if wa is None or not (var.dx or var.dt):
            continue
        f = density.partial(var)
        for k in range(var.dt):
            if k:
                f = -total_derivative(f, "t")
            c_t = c_t + f * total_derivative_n(wa, var.dx, var.dt - 1 - k)
        if var.dt and var.dx:
            f = -total_derivative(f, "t")
        for k in range(var.dx):
            if k:
                f = -total_derivative(f, "x")
            c_x = c_x + f * total_derivative_n(wa, var.dx - 1 - k)
    return c_x, c_t


def law_multipliers(cl: ConservationLaw, sys: EvolutionSystem) -> tuple[JetPoly, ...]:
    """Characteristics of a law: the x-restricted Euler operators of the
    on-shell-reduced density, themselves reduced on shell."""
    density = reduce_on_shell(cl.density, sys)
    return tuple(
        reduce_on_shell(euler_operator(density, dep, x_only=True), sys)
        for dep in sys.deps
    )
