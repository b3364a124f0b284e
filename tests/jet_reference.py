"""Unoptimized reference versions of the jet kernel, kept as test oracles.

``total_derivative`` goes through the generic Leibniz ``JetPoly.derive``
(one partial derivative per coordinate, times its lifted coordinate), and
``euler_operator`` sums (-1)^(dx+dt) D_x^dx D_t^dt of every slot's partial
derivative separately. Both follow the definitions directly; the kernel in
``dlwlab.jet`` must agree with them structurally.
"""

from __future__ import annotations

from dlwlab.jet import JetError, JetPoly


def total_derivative(p: JetPoly, axis: str) -> JetPoly:
    if axis not in ("x", "t"):
        raise JetError(f"unknown axis {axis!r}")
    one = JetPoly.one()
    return p.derive(
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
    out = JetPoly.zero()
    for v in p.jet_vars():
        if v.name != dep or (x_only and v.dt):
            continue
        sign = -1 if (v.dx + v.dt) % 2 else 1
        out = out + total_derivative_n(p.partial(v), v.dx, v.dt) * sign
    return out
