"""Quadratic-field arithmetic kept as a test oracle.

``Root3`` is exact arithmetic in a + b sqrt(3) and ``evaluate_at_tanh_point``
evaluates a tanh coefficient equation at a point of that field, keeping
the speed mu symbolic. They are the versions that the parameter form
s = sqrt(3) in ``dlwlab.waves`` replaced; both must decide the same
equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from dlwlab.jet import JetError, JetPoly


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
