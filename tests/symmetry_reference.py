"""Unoptimized references for the symmetry layer, kept as test oracles.

``optimal_reduce`` here is the one oracle of the subalgebra
classification. It wraps every entry in ``Fraction`` and applies the
coefficient-space maps T1-T3 to the rational vector step by step, so its
log replays to its normalized vector. ``dlwlab.symmetry.optimal_class``
reads the class from a complete invariant instead, and must give the
reference's class for every nonzero vector and every nonzero multiple.

``optimal_draw`` draws the optimal block's samples through
``random.Random.randint``; ``dlwlab.report._optimal_draw`` reads the same
bits with ``getrandbits`` and must draw the same pairs and leave the
generator in the same state.

``ansatz_reduction`` substitutes an invariant ansatz by its own recursion
over the derivative coordinates; ``dlwlab.symmetry`` goes through
``jet.substitute_ansatz`` and must compute the same reduced pairs.

``prolongation_coefficient`` and ``apply_prolonged`` prolong a field by
plain recursion, one ``+`` and one ``*`` per term. The package prolongs
nothing: ``dlwlab.symmetry.determining_residual`` linearizes the
equations in the direction of the characteristic, and must equal
``apply_prolonged`` on each equation once both are reduced on shell.
``frechet_derivative`` is the Frechet derivative as it was before it went
through ``jet.sum_of_products``, every derivative D_x^a D_t^b taken from
scratch by ``jet_reference.total_derivative_n``; the package's version
must equal it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from dlwlab.jet import (
    EvolutionSystem,
    JetError,
    JetPoly,
    JetVar,
    total_derivative,
)
from dlwlab.symmetry import PointSymmetry
from jet_reference import total_derivative_n

Vec4 = tuple[Fraction, Fraction, Fraction, Fraction]

OPTIMAL_CLASSES = ("X1", "X2", "X3", "X4", "X1+X3", "X1-X3")


def _vec(l: Sequence[Fraction | int]) -> Vec4:
    if len(l) != 4:
        raise JetError("subalgebra vectors have four components")
    return tuple(Fraction(v) for v in l)  # type: ignore[return-value]


def _t1(l: Vec4, a: Fraction) -> Vec4:
    return (l[0] + a * l[3], l[1] + a * l[2], l[2], l[3])


def _t2(l: Vec4, a: Fraction) -> Vec4:
    return (l[0], l[1] + a * l[3] / 2, l[2], l[3])


def _t3(l: Vec4, a: Fraction) -> Vec4:
    return (l[0], l[1] - a * l[0], l[2] - a * l[3] / 2, l[3])


_TRANSFORMS = {"T1": _t1, "T2": _t2, "T3": _t3}


def _normalize(l: Vec4) -> tuple[Vec4, Fraction]:
    lead = next((v for v in l if v != 0), None)
    if lead is None:
        raise JetError("zero vector")
    return tuple(v / lead for v in l), lead  # type: ignore[return-value]


def optimal_reduce(
    l: Sequence[Fraction | int],
) -> tuple[str, Vec4, list[tuple[str, Fraction]]]:
    """Reduce a nonzero coefficient vector to its subalgebra class.

    Returns (class id, final normalized vector, transformation log); the
    log lists (map name, parameter) applications in order, with "scale"
    recording the final projective normalization divisor. Branches on
    l1 != 0, then l4, then l3. Vectors with a nonzero scaling component
    always land on X4: the shift maps absorb every other slot there.
    """
    cur = _vec(l)
    if all(v == 0 for v in cur):
        raise JetError("the zero vector spans no subalgebra")
    log: list[tuple[str, Fraction]] = []

    def apply(name: str, param: Fraction) -> None:
        nonlocal cur
        cur = _TRANSFORMS[name](cur, param)
        log.append((name, param))

    for _ in range(3):  # the T1 step in the l1 == 0 branch may reopen case 1
        if cur[0] != 0:
            if cur[1] != 0:
                apply("T3", cur[1] / cur[0])
            if cur[3] != 0:
                if cur[2] != 0:
                    apply("T3", 2 * cur[2] / cur[3])
                if cur[1] != 0:
                    apply("T2", -2 * cur[1] / cur[3])
                apply("T1", -cur[0] / cur[3])
            break
        if cur[2] != 0:
            if cur[1] != 0:
                apply("T1", -cur[1] / cur[2])
            if cur[0] != 0:
                continue
            if cur[3] != 0:
                apply("T3", 2 * cur[2] / cur[3])
            break
        if cur[3] != 0 and cur[1] != 0:
            apply("T2", -2 * cur[1] / cur[3])
        break

    norm, lead = _normalize(cur)
    log.append(("scale", lead))
    if norm[0] != 0:
        cls = "X1" if norm[2] == 0 else ("X1+X3" if norm[2] > 0 else "X1-X3")
    elif norm[3] != 0:
        cls = "X4"
    elif norm[2] != 0:
        cls = "X3"
    else:
        cls = "X2"
    if cls not in OPTIMAL_CLASSES:
        raise JetError(f"reduction produced an unlisted class {cls}")
    return cls, norm, log


def optimal_draw(rng: random.Random) -> list[tuple[int, int]]:
    """One sample of the optimal block as four (n, d) pairs, each n by
    ``randint(-9, 9)`` before its d by ``randint(1, 5)``; an all-zero draw
    sets the entry at ``randrange(4)`` to (1, 1)."""
    pairs = [(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
    if not any(n for n, _ in pairs):
        pairs[rng.randrange(4)] = (1, 1)
    return pairs


def ansatz_reduction(
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
    recursively for derivative coordinates; each substituted equation is
    multiplied by its ``scale`` before the comparison."""
    images: dict[JetVar, JetPoly] = {}

    def image(var: JetVar) -> JetPoly:
        got = images.get(var)
        if got is None:
            if var.dt > 0:
                got = dt(image(JetVar(var.name, var.dx, var.dt - 1)))
            elif var.dx > 0:
                got = dx(image(JetVar(var.name, var.dx - 1, 0)))
            else:
                got = base[var.name]
            images[var] = got
        return got

    computed = tuple(eq.substitute(image) * k for eq, k in zip(sys.equation_polys(), scale))
    return {"computed": computed, "expected": expected, "match": computed == expected}


def prolongation_coefficient(x: PointSymmetry, dep: str, dx: int, dt: int) -> JetPoly:
    if dx == 0 and dt == 0:
        return dict(x.eta)[dep]
    if dt > 0:
        prev_dx, prev_dt, axis = dx, dt - 1, "t"
    else:
        prev_dx, prev_dt, axis = dx - 1, 0, "x"
    prev = prolongation_coefficient(x, dep, prev_dx, prev_dt)
    out = total_derivative(prev, axis)
    out = out - total_derivative(x.xi1, axis) * JetPoly.var(dep, prev_dx, prev_dt + 1)
    out = out - total_derivative(x.xi2, axis) * JetPoly.var(dep, prev_dx + 1, prev_dt)
    return out


def apply_prolonged(x: PointSymmetry, g: JetPoly) -> JetPoly:
    out = x.xi1 * g.partial_explicit("t") + x.xi2 * g.partial_explicit("x")
    for v in g.jet_vars():
        out = out + prolongation_coefficient(x, v.name, v.dx, v.dt) * g.partial(v)
    return out


def frechet_derivative(
    q: Sequence[JetPoly], p: Sequence[JetPoly], deps: Sequence[str] = ("u", "v")
) -> tuple[JetPoly, ...]:
    index = {name: k for k, name in enumerate(deps)}
    out = []
    for comp in q:
        acc = JetPoly.zero()
        for v in comp.jet_vars():
            k = index.get(v.name)
            if k is None:
                continue
            acc = acc + comp.partial(v) * total_derivative_n(p[k], v.dx, v.dt)
        out.append(acc)
    return tuple(out)
