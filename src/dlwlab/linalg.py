"""Tiny exact linear algebra over Fraction, enough for decomposing
polynomials in small catalog bases and extracting operator kernels.

The systems are sparse (a decomposition has one row per monomial, most of
them zero in most basis columns), so elimination works on the nonzero
entries only: entries that are already a ``Fraction`` are not wrapped
again, ``solve_exact`` drops all-zero rows, a row update touches only the
pivot row's nonzero columns and a pivot of 1 divides nothing. The reduced
row echelon form is unique, so every result equals that of the plain
Gauss-Jordan elimination kept in ``tests/linalg_reference.py``."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["solve_exact", "nullspace_exact", "rref", "decompose_components"]

Matrix = list[list[Fraction]]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    return _eliminate([_fractions(r) for r in rows])


def _fractions(row: Iterable) -> list[Fraction]:
    return [v if isinstance(v, Fraction) else Fraction(v) for v in row]


def _eliminate(m: Matrix) -> tuple[Matrix, list[int]]:
    """Bring ``m`` to reduced row echelon form in place. Entries left of
    the current column are already zero in every candidate pivot row, so
    an update touches only the pivot row's nonzero columns at or right of
    it."""
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        pv = prow[c]
        if pv != 1:
            prow = m[r] = [val / pv for val in prow]
        nonzero = [(k, prow[k]) for k in range(c, ncols) if prow[k]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                for k, b in nonzero:
                    row[k] -= f * b
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_exact(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """One solution of A x = b with free variables set to zero, or None
    if the system is inconsistent. All-zero rows of the augmented system
    are dropped before elimination."""
    if not a:
        return [] if all(v == 0 for v in b) else None
    ncols = len(a[0])
    aug = [row for row in (_fractions([*r, v]) for r, v in zip(a, b)) if any(row)]
    m, pivots = _eliminate(aug)
    if pivots and pivots[-1] == ncols:  # a row 0 = nonzero
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return x


def nullspace_exact(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the nullspace of A (one vector per free column)."""
    if not a:
        return []
    m, pivots = rref(a)
    ncols = len(a[0])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def decompose_components(
    target: Sequence, basis: Sequence[Sequence]
) -> list[Fraction] | None:
    """Exact coordinates of a component tuple in the span of basis
    tuples, matching monomial coefficients slot by slot; None if the
    target leaves the span. Components are polynomials whose ``terms``
    map monomials to coefficients (``JetPoly`` tuples, or the coefficient
    slots of a point symmetry)."""
    keys: list[tuple[int, object]] = []
    seen = set()
    for slot in range(len(target)):
        for p in [b[slot] for b in basis] + [target[slot]]:
            for m in p.terms:
                if (slot, m) not in seen:
                    seen.add((slot, m))
                    keys.append((slot, m))
    zero = Fraction(0)
    rows = [[b[slot].terms.get(m, zero) for b in basis] for slot, m in keys]
    rhs = [target[slot].terms.get(m, zero) for slot, m in keys]
    return solve_exact(rows, rhs)
