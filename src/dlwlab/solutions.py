"""Registry of closed-form candidate solution families and the residual
verifier that exercises them.

Families are registered under catalog ids (eq19, eq22, eq82, eq83,
eq86..eq90, eq93, eq96). Each record carries the expression pair, whose
parameters are the family's free parameters, default parameter grids for
scanning, a sampling domain that avoids known poles, and the expected
verdict class:

* "exact"  - residual vanishes to roundoff for every admissible binding;
* "flagged" - a known defect is quantified (eq19 leaves the constant c1
  in the second equation);
* "scan"   - undetermined printed constants; the verifier records the
  outcome per grid binding without asserting success.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .analytic import (
    Expr,
    ResidualReport,
    X,
    T,
    _residual_reports,
    add,
    const,
    div,
    evaluate_samples,
    exp,
    free_params,
    mul,
    neg,
    param,
    pow_,
    residual_max,
    sqrt_const,
    sub,
    tanh,
)
from .jet import JetError
from .systems import physical_system

__all__ = [
    "SolitonFamily",
    "UnknownFamily",
    "family_registry",
    "family",
    "verify_family",
    "scan_family",
    "profile_rows",
]

#: Residual samples per binding when the caller names no count.
RESIDUAL_SAMPLES = 50
#: The largest residual at which a family verifies as an exact solution.
RESIDUAL_TOL = 1e-8


class UnknownFamily(JetError):
    pass


@dataclass(frozen=True)
class SolitonFamily:
    """One registered family: the expression trees of u and v, the
    bindings scanned by default, the sampling domain and the expected
    verdict. Its free parameters are read off the two trees."""

    id: str
    u_expr: Expr
    v_expr: Expr
    default_grid: tuple[Mapping[str, float], ...]
    domain: tuple[float, float, float, float] = (-5.0, 5.0, 0.0, 2.0)
    expected: str = "exact"
    note: str = ""

    @functools.cached_property
    def free_params(self) -> frozenset[str]:
        return frozenset(free_params(self.u_expr) | free_params(self.v_expr))


def _block_P(xi: Expr) -> Expr:
    """(R2 + R1 exp(R1 xi + xi0)) / R1, the recurring exponential block
    of the rational-exponential families."""
    r1, r2 = param("R1"), param("R2")
    return div(add(r2, mul(r1, exp(add(mul(r1, xi), param("xi0"))))), r1)


def _phase(kappa: str, omega: str) -> Expr:
    return add(mul(param(kappa), X), mul(param(omega), T))


@functools.cache
def family_registry() -> Mapping[str, SolitonFamily]:
    """Every family keyed by catalog id, built once per process; the
    mapping is read-only."""
    f = Fraction
    mu = param("mu")
    xi_wave = sub(X, mul(mu, T))  # x - mu t

    reg: dict[str, SolitonFamily] = {}

    # ---- invariant solutions ------------------------------------------
    reg["eq19"] = SolitonFamily(
        id="eq19",
        u_expr=add(T, param("c1")),
        v_expr=add(mul(const(f(1, 2)), pow_(T, 2)), neg(X), param("c2")),
        default_grid=({"c1": 1.0, "c2": 0.5},),
        expected="flagged",
        note="second equation leaves the constant -c1; quantified, not hidden",
    )
    reg["eq22"] = SolitonFamily(
        id="eq22",
        u_expr=div(add(X, const(2)), T),
        v_expr=div(param("c1"), T),
        default_grid=({"c1": 2.0},),
        domain=(-5.0, 5.0, 0.5, 2.0),
        expected="exact",
    )

    # ---- line solitons from the first integrals ------------------------
    s3 = sqrt_const(3)
    big_b = exp(mul(s3, mu, param("C1")))
    big_e = exp(mul(s3, mu, xi_wave))
    reg["eq82"] = SolitonFamily(
        id="eq82",
        u_expr=div(mul(const(2), mu, big_b), sub(big_b, big_e)),
        v_expr=neg(
            div(
                mul(const(2), pow_(mu, 2), big_b, big_e),
                pow_(sub(big_b, big_e), 2),
            )
        ),
        default_grid=(
            {"mu": 0.5, "C1": 0.0},
            {"mu": 1.0, "C1": 0.0},
            {"mu": 1.0, "C1": 0.7},
        ),
        expected="scan",
        note="pole along x - mu t = C1; singular samples are skipped",
    )
    reg["eq83"] = SolitonFamily(
        id="eq83",
        u_expr=div(mul(const(2), mu, big_e), sub(big_e, big_b)),
        v_expr=neg(
            div(
                mul(const(2), pow_(mu, 2), big_b, big_e),
                pow_(sub(big_b, big_e), 2),
            )
        ),
        default_grid=(
            {"mu": 0.5, "C1": 0.0},
            {"mu": 1.0, "C1": 0.0},
            {"mu": 1.0, "C1": 0.7},
        ),
        expected="scan",
        note="mirror of eq82",
    )

    # ---- rational-exponential scan families ----------------------------
    xi86 = _phase("k1", "w1")
    eta86 = _phase("k2", "w2")
    P = _block_P(xi86)
    a0, A0, C1 = param("a0"), param("A0"), param("C1")
    slope = div(mul(C1, add(mul(A0, param("k1")), param("w1"))), param("k1"))
    reg["eq86"] = SolitonFamily(
        id="eq86",
        u_expr=add(A0, mul(C1, P)),
        v_expr=add(a0, neg(mul(slope, P)), mul(param("c2"), pow_(P, 2))),
        default_grid=(
            {"A0": 0.3, "C1": 0.5, "a0": 0.1, "c2": 0.2, "R1": 1.0, "R2": 0.5, "xi0": 0.0, "k1": 1.0, "w1": -0.8},
            {"A0": 0.0, "C1": 1.0, "a0": 0.0, "c2": -0.4, "R1": 0.7, "R2": 1.0, "xi0": 0.3, "k1": 0.9, "w1": 0.4},
        ),
        expected="scan",
        note="printed constants are underdetermined; outcome recorded per binding",
    )
    lin87 = add(mul(div(mul(param("R2"), param("c1"), param("k1")), mul(param("b1"), param("k2"))), eta86), param("eta0"))
    reg["eq87"] = SolitonFamily(
        id="eq87",
        u_expr=A0,
        v_expr=add(
            a0,
            mul(param("b1"), lin87),
            mul(param("c1"), P),
            mul(param("c2"), pow_(P, 2)),
        ),
        default_grid=(
            {"A0": 0.5, "a0": 0.0, "b1": 1.0, "c1": 0.3, "c2": 0.1, "R1": 1.0, "R2": 0.4, "xi0": 0.0, "eta0": 0.2, "k1": 1.0, "w1": -0.5, "k2": 0.8, "w2": 0.6},
        ),
        expected="scan",
    )
    tanh88 = tanh(add(mul(div(param("sm"), const(2)), eta86), param("eta0")))
    bracket88 = div(
        mul(const(2), param("S2")),
        sub(div(mul(C1, param("R2"), param("k1")), param("w2")), mul(param("sm"), tanh88)),
    )
    reg["eq88"] = SolitonFamily(
        id="eq88",
        u_expr=add(A0, mul(C1, P)),
        v_expr=add(a0, mul(param("b1"), bracket88), neg(mul(slope, P)), mul(param("c2"), pow_(P, 2))),
        default_grid=(
            {"A0": 0.2, "C1": 0.6, "a0": 0.0, "b1": 0.5, "c2": 0.1, "S2": 1.0, "sm": 1.0, "R1": 1.0, "R2": 0.4, "xi0": 0.0, "eta0": 0.1, "k1": 1.0, "w1": -0.5, "k2": 0.8, "w2": 0.6},
        ),
        expected="scan",
        note="the tanh slope parameter enters through its square root sm",
    )
    lin89 = add(mul(div(mul(param("R2"), C1, param("w1")), mul(param("b1"), param("k2"))), eta86), param("eta0"))
    reg["eq89"] = SolitonFamily(
        id="eq89",
        u_expr=add(A0, mul(C1, P)),
        v_expr=add(a0, mul(param("b1"), lin89), mul(param("c1"), P), mul(param("c2"), pow_(P, 2))),
        default_grid=(
            {"A0": 0.1, "C1": 0.5, "a0": 0.2, "b1": 0.7, "c1": 0.3, "c2": 0.1, "R1": 1.0, "R2": 0.5, "xi0": 0.0, "eta0": 0.4, "k1": 1.1, "w1": -0.3, "k2": 0.9, "w2": 0.5},
        ),
        expected="scan",
    )
    lin90 = add(mul(div(mul(param("R2"), param("c1"), param("k1")), mul(param("a01"), param("k2"))), eta86), param("eta0"))
    reg["eq90"] = SolitonFamily(
        id="eq90",
        u_expr=A0,
        v_expr=add(
            a0,
            neg(div(param("a01"), lin90)),
            mul(param("c1"), P),
            mul(param("c2"), pow_(P, 2)),
        ),
        default_grid=(
            {"A0": 0.4, "a0": 0.0, "a01": 1.0, "c1": 0.2, "c2": 0.1, "R1": 1.0, "R2": 0.6, "xi0": 0.0, "eta0": 0.5, "k1": 1.0, "w1": -0.4, "k2": 0.7, "w2": 0.8},
        ),
        expected="scan",
    )

    # ---- hyperbolic-tangent kink ---------------------------------------
    arg93 = sub(mul(mu, T), X)  # mu t - x
    reg["eq93"] = SolitonFamily(
        id="eq93",
        u_expr=add(mu, neg(mul(div(mul(const(2), s3), const(3)), tanh(arg93)))),
        v_expr=add(const(f(2, 3)), neg(mul(const(f(2, 3)), pow_(tanh(arg93), 2)))),
        default_grid=({"mu": 0.5}, {"mu": 1.0}, {"mu": 2.0}),
        expected="exact",
        note="speed is a free parameter",
    )

    # ---- rational exponential kink --------------------------------------
    speed96 = add(a0, div(s3, const(3)))
    xi96 = sub(X, mul(speed96, T))
    one_plus = add(const(1), exp(xi96))
    reg["eq96"] = SolitonFamily(
        id="eq96",
        u_expr=add(a0, div(mul(const(2), s3), mul(const(3), one_plus))),
        v_expr=add(
            div(const(2), mul(const(3), one_plus)),
            neg(div(const(2), mul(const(3), pow_(one_plus, 2)))),
        ),
        default_grid=({"a0": 0.0}, {"a0": 1.0}),
        expected="exact",
        note="speed locked to a0 + sqrt(3)/3 by the exponent",
    )
    return MappingProxyType(reg)


def _samples(domain: tuple[float, float, float, float], n: int, seed: int):
    """``n`` points (x, t) of the domain as an (n, 2) float array, drawn as
    ``random.Random(seed).uniform`` draws them, x then t per point: by
    ``uniform``'s own arithmetic, so each is the same float. The array is
    read-only, as the bindings of a scan share it."""
    import numpy as np

    draw = random.Random(seed).random
    x0, x1, t0, t1 = domain
    points = [(x0 + (x1 - x0) * draw(), t0 + (t1 - t0) * draw()) for _ in range(n)]
    out = np.array(points, dtype=float).reshape(-1, 2)
    out.flags.writeable = False
    return out


def family(family_id: str, binding: Mapping[str, float] | None = None) -> SolitonFamily:
    """The registered family of a catalog id; an unknown id raises
    ``UnknownFamily`` naming it and every known id. With a ``binding``,
    a name in it that is not a parameter of the family, or a parameter
    it leaves out, raises ``JetError`` naming them; None is a lookup
    only."""
    reg = family_registry()
    fam = reg.get(family_id)
    if fam is None:
        raise UnknownFamily(f"unknown family {family_id!r}; known: {', '.join(sorted(reg))}")
    if binding is None:
        return fam
    unknown = set(binding) - fam.free_params
    if unknown:
        known = ", ".join(sorted(fam.free_params))
        raise JetError(f"unknown parameter(s) {sorted(unknown)} for {family_id}; its parameters: {known}")
    missing = fam.free_params - set(binding)
    if missing:
        raise JetError(f"unbound parameters for {family_id}: {sorted(missing)}")
    return fam


def verify_family(
    family_id: str, binding: Mapping[str, float], n_samples: int = RESIDUAL_SAMPLES, seed: int = 0
) -> ResidualReport:
    """Residual scan of one family at one binding on the physical pair;
    unknown ids raise."""
    fam = family(family_id, binding)
    samples = _samples(fam.domain, n_samples, seed)
    return residual_max(physical_system(), (fam.u_expr, fam.v_expr), binding, samples)


def scan_family(family_id: str, n_samples: int = RESIDUAL_SAMPLES, seed: int = 0) -> list[dict]:
    """Run the family's default grid; one record per binding. The samples
    depend only on the domain, the count and the seed, so they are drawn
    once, and every binding is checked to be complete before one run of
    the family's residual program evaluates the whole (bindings x samples)
    grid. Each record is the one ``verify_family`` gives for its binding."""
    fam = family(family_id)
    for binding in fam.default_grid:
        family(family_id, binding)
    samples = _samples(fam.domain, n_samples, seed)
    reports = _residual_reports(physical_system(), (fam.u_expr, fam.v_expr), fam.default_grid, samples)
    return [
        {
            "family": family_id,
            "params": dict(binding),
            "max_residual": rep.max_residual,
            "per_equation": list(rep.per_equation),
            "samples_used": rep.samples_used,
            "samples_skipped": rep.samples_skipped,
            "passes": rep.samples_used > 0 and rep.max_residual < RESIDUAL_TOL,
        }
        for binding, rep in zip(fam.default_grid, reports)
    ]


def profile_rows(
    family_id: str,
    binding: Mapping[str, float],
    xi_min: float = -10.0,
    xi_max: float = 10.0,
    n: int = 201,
) -> list[tuple[float, float, float]]:
    """(xi, U, V) samples of the family at t = 0 for plotting dumps; the
    rows where a guard trips in U or V are left out."""
    fam = family(family_id, binding)
    xis = [xi_min + (xi_max - xi_min) * k / (n - 1) for k in range(n)]
    (u, v), skip = evaluate_samples((fam.u_expr, fam.v_expr), [(xi, 0.0) for xi in xis], binding)
    return [(xi, float(u[k]), float(v[k])) for k, xi in enumerate(xis) if not skip[k]]
