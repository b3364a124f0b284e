"""Exact linear algebra: ``solve_exact``, ``nullspace_exact``, the null
combinations of an eliminated ``Basis`` and the decomposition of
component tuples over it agree structurally with the Gauss-Jordan
reference kept in ``linalg_reference.py`` and with sympy's
``Matrix.nullspace`` and ``Matrix.gauss_jordan_solve``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlwlab import linalg
from dlwlab.jet import JetPoly

import linalg_reference
from conftest import jet_polys

# zero-heavy entries, so that rank deficiency and sparse rows are common;
# ints and Fractions mixed, as the callers pass both
entries = st.sampled_from(
    [0, 0, 0, Fraction(0), 1, -1, 2, Fraction(1), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)]
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    """Small rational matrices; some rows are zero, some duplicate or
    scale an earlier row."""
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    nrows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy", "scaled"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind in ("copy", "scaled") and rows:
            src = draw(st.sampled_from(rows))
            factor = Fraction(-2, 3) if kind == "scaled" else 1
            rows.append([v * factor for v in src])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows


def _same(got, want) -> bool:
    """Equal, with every scalar a Fraction on both sides."""
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, type(want))
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, Fraction):
        return type(got) is Fraction and got == want
    return got == want


@given(a=matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_matches_reference(a):
    assert _same(linalg.nullspace_exact(a), linalg_reference.nullspace_exact(a))


@given(a=matrices(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_solve_matches_reference(a, data):
    kind = data.draw(st.sampled_from(["random", "in-range", "zero"]))
    if kind == "random":  # often inconsistent when a is rank deficient
        b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    elif kind == "in-range":
        x = data.draw(st.lists(entries, min_size=len(a[0]), max_size=len(a[0])))
        b = [sum((Fraction(p) * q for p, q in zip(row, x)), Fraction(0)) for row in a]
    else:
        b = [0] * len(a)
    got = linalg.solve_exact(a, b)
    assert _same(got, linalg_reference.solve_exact(a, b))
    if kind != "random":
        assert got is not None


def test_inconsistent_system_has_no_solution():
    a = [[1, 2], [2, 4], [0, 0]]
    assert linalg.solve_exact(a, [1, 3, 0]) is None
    assert linalg.solve_exact([[0, 0]], [1]) is None
    assert linalg_reference.solve_exact([[0, 0]], [1]) is None


def test_empty_matrix():
    for impl in (linalg, linalg_reference):
        assert impl.nullspace_exact([]) == []
        assert impl.solve_exact([], []) == []
        assert impl.solve_exact([], [0, 0]) == []
        assert impl.solve_exact([], [1]) is None


def test_all_zero_system_solves_to_zero():
    got = linalg.solve_exact([[0, 0, 0], [0, 0, 0]], [0, 0])
    assert _same(got, [Fraction(0)] * 3)
    assert _same(got, linalg_reference.solve_exact([[0, 0, 0], [0, 0, 0]], [0, 0]))


def test_input_is_not_modified():
    a = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    before = [row[:] for row in a]
    linalg.nullspace_exact(a)
    linalg.solve_exact(a, [Fraction(1), Fraction(1)])
    assert a == before


def _sympy_matrix(rows):
    import sympy as sp

    return sp.Matrix([[sp.Rational(Fraction(v).numerator, Fraction(v).denominator) for v in row] for row in rows])


def _from_sympy(column) -> list[Fraction]:
    return [Fraction(int(v.p), int(v.q)) for v in column]


@given(a=matrices(max_rows=4, max_cols=4))
@settings(max_examples=40, deadline=None)
def test_nullspace_matches_sympy(a):
    want = [_from_sympy(vec) for vec in _sympy_matrix(a).nullspace()]
    assert _same(linalg.nullspace_exact(a), want)


@given(a=matrices(max_rows=4, max_cols=4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_solve_matches_sympy(a, data):
    """sympy's solution with every free parameter set to 0, or None where
    it finds the system inconsistent."""
    b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    try:
        sol, params = _sympy_matrix(a).gauss_jordan_solve(_sympy_matrix([[v] for v in b]))
    except ValueError:  # "Linear system has no solution"
        want = None
    else:
        want = _from_sympy(sol.subs({p: 0 for p in params}))
    assert _same(linalg.solve_exact(a, b), want)


class _Comp:
    """A component: ``terms`` maps monomials to coefficients, zeros kept."""

    def __init__(self, terms):
        self.terms = terms


_MONOMIALS = ("a", "b", "c", "d")


def _tuple_sum(pairs, nslots):
    """sum of c * vec over (c, vec) pairs, one terms dict per slot."""
    out = [{} for _ in range(nslots)]
    for c, vec in pairs:
        for slot, comp in enumerate(vec):
            for m, v in comp.terms.items():
                out[slot][m] = out[slot].get(m, 0) + c * v
    return tuple(_Comp(t) for t in out)


@st.composite
def decompositions(draw):
    """A sparse basis of 0 to 5 tuples of 1 to 3 slots, some zero, copied,
    scaled or the sum of two earlier ones, and 1 to 4 targets: inside the
    span, zero, random (mostly outside it), or inside it plus a monomial
    that no basis tuple has."""
    nslots = draw(st.integers(min_value=1, max_value=3))
    comp = st.dictionaries(st.sampled_from(_MONOMIALS), entries, max_size=3).map(_Comp)
    basis = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy", "scaled", "sum"]))
        if kind == "zero":
            basis.append(tuple(_Comp({}) for _ in range(nslots)))
        elif kind in ("copy", "scaled") and basis:
            factor = Fraction(-2, 3) if kind == "scaled" else 1
            basis.append(_tuple_sum([(factor, draw(st.sampled_from(basis)))], nslots))
        elif kind == "sum" and len(basis) >= 2:
            two = draw(st.lists(st.sampled_from(basis), min_size=2, max_size=2))
            basis.append(_tuple_sum([(1, two[0]), (Fraction(1, 2), two[1])], nslots))
        else:
            basis.append(tuple(draw(comp) for _ in range(nslots)))
    targets = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["span", "span", "zero", "random", "stray"]))
        if kind == "random":
            targets.append(tuple(draw(comp) for _ in range(nslots)))
            continue
        coeffs = draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
        target = _tuple_sum([(c, b) for c, b in zip(coeffs, basis) if kind != "zero"], nslots)
        if kind == "stray":
            target[draw(st.integers(min_value=0, max_value=nslots - 1))].terms["e"] = Fraction(1, 7)
        targets.append(target)
    return basis, targets


@given(case=decompositions())
@settings(max_examples=400, deadline=None)
def test_basis_coords_match_reference_decomposition(case):
    basis, targets = case
    eliminated = linalg.Basis(basis)
    for target in targets:
        want = linalg_reference.decompose_components(target, basis)
        assert _same(eliminated.coords(target), want)
        assert _same(linalg.decompose_components(target, basis), want)


def test_basis_rejects_a_slot_count_mismatch():
    one, two = (_Comp({"a": 1}),), (_Comp({"a": 1}), _Comp({}))
    with pytest.raises(ValueError, match="slots"):
        linalg.Basis([one, two])
    with pytest.raises(ValueError, match="slots"):
        linalg.Basis([one]).coords(two)


@st.composite
def jet_tuple_bases(draw):
    """0 to 5 tuples of 1 to 3 jet polynomials, some zero, copied, scaled
    or the sum of two earlier ones."""
    nslots = draw(st.integers(min_value=1, max_value=3))
    basis = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy", "scaled", "sum"]))
        if kind == "zero":
            basis.append((JetPoly.zero(),) * nslots)
        elif kind in ("copy", "scaled") and basis:
            factor = Fraction(-2, 3) if kind == "scaled" else 1
            basis.append(tuple(p * factor for p in draw(st.sampled_from(basis))))
        elif kind == "sum" and len(basis) >= 2:
            one, two = draw(st.lists(st.sampled_from(basis), min_size=2, max_size=2))
            basis.append(tuple(p + q * Fraction(1, 2) for p, q in zip(one, two)))
        else:
            basis.append(tuple(draw(jet_polys(max_dx=2, max_terms=3)) for _ in range(nslots)))
    return basis


@given(basis=jet_tuple_bases())
@settings(max_examples=200, deadline=None)
def test_basis_null_combinations_match_reference_nullspace(basis):
    """The coefficient matrix has a row per (slot, monomial) that some
    tuple uses and a column per tuple; a basis of zero tuples has one zero
    row, so that every column is free."""
    keys = list(dict.fromkeys((slot, m) for vec in basis for slot, p in enumerate(vec) for m in p.terms))
    rows = [[vec[slot].terms.get(m, 0) for vec in basis] for slot, m in keys]
    if basis and not rows:
        rows = [[0] * len(basis)]
    assert _same(linalg.Basis(basis).null, linalg_reference.nullspace_exact(rows))
