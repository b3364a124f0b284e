"""Shared fixtures, hypothesis strategies over jet polynomials, and a
sympy bridge used as an independent oracle for the derivation operators."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from dlwlab.jet import JetMonomial, JetPoly, JetVar
from dlwlab.systems import physical_system, potential_system


@pytest.fixture(scope="session")
def phys():
    return physical_system()


@pytest.fixture(scope="session")
def pot():
    return potential_system()


# ---------------------------------------------------------------------------
# strategies

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=4),
)


def jet_vars(deps=("u", "v"), max_dx=3, max_dt=0):
    return st.builds(
        JetVar,
        st.sampled_from(deps),
        st.integers(min_value=0, max_value=max_dx),
        st.integers(min_value=0, max_value=max_dt),
    )


@st.composite
def jet_monomials(
    draw, deps=("u", "v"), max_dx=3, max_dt=0, max_factors=3, allow_xt=True, params=()
):
    """``params`` names parameters that may appear with exponent -1..2."""
    n = draw(st.integers(min_value=0, max_value=max_factors))
    powers: dict[JetVar, int] = {}
    for _ in range(n):
        v = draw(jet_vars(deps, max_dx, max_dt))
        powers[v] = powers.get(v, 0) + 1
    xpow = draw(st.integers(min_value=0, max_value=2)) if allow_xt else 0
    tpow = draw(st.integers(min_value=0, max_value=2)) if allow_xt else 0
    par = {name: draw(st.integers(min_value=-1, max_value=2)) for name in params}
    return JetMonomial.make(powers, xpow, tpow, par)


@st.composite
def jet_polys(draw, deps=("u", "v"), max_dx=3, max_dt=0, max_terms=4, allow_xt=True, params=()):
    n = draw(st.integers(min_value=1, max_value=max_terms))
    poly = JetPoly.zero()
    for _ in range(n):
        m = draw(jet_monomials(deps, max_dx, max_dt, allow_xt=allow_xt, params=params))
        c = draw(small_fractions)
        poly = poly + JetPoly({m: c})
    return poly


# ---------------------------------------------------------------------------
# sympy bridge


def to_sympy(poly: JetPoly, funcs=None):
    """Translate a jet polynomial into a sympy expression over functions
    of (x, t); jet coordinates become Derivative objects."""
    import sympy as sp

    x, t = sp.symbols("x t")
    cache: dict[str, object] = {} if funcs is None else dict(funcs)
    out = sp.Integer(0)
    for m, c in poly.items():
        term = sp.Rational(c.numerator, c.denominator)
        for v, e in m.jet:
            if v.name not in cache:
                cache[v.name] = sp.Function(v.name)(x, t)
            f = cache[v.name]
            d = f.diff(x, v.dx, t, v.dt) if (v.dx or v.dt) else f
            term *= d**e
        term *= x**m.xpow * t**m.tpow
        for name, e in m.params:
            term *= sp.Symbol(name) ** e
        out += term
    return out
