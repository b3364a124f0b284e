"""Tiny exact linear algebra over Fraction, enough for decomposing
polynomials in small catalog bases and extracting operator kernels.

The systems are sparse (a decomposition has one row per monomial, most of
them zero in most basis columns), so elimination works on the nonzero
entries only: entries that are already a ``Fraction`` are not wrapped
again, ``solve_exact`` drops all-zero rows, a row update touches only the
pivot row's nonzero columns and a pivot of 1 divides nothing. The reduced
row echelon form is unique, so every result equals that of the plain
Gauss-Jordan elimination kept in ``tests/linalg_reference.py``.

A decomposition basis is eliminated once, by :class:`Basis`, and every
target is then decomposed against it: the catalog decomposes many images
(action-table cells, brackets) over each of a few bases.
``decompose_components`` is the one-target case."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = ["solve_exact", "nullspace_exact", "rref", "Basis", "decompose_components"]

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


class Basis:
    """Basis tuples eliminated once, to decompose many targets against.

    A tuple holds components whose ``terms`` map monomials to
    coefficients (``JetPoly`` tuples, or the coefficient slots of a point
    symmetry); one coordinate is a (slot, monomial) key. Each vector is
    reduced against the pivots of the vectors before it and gets a pivot
    key only if something is left, so the pivots are the leftmost
    independent vectors: those of ``solve_exact`` on the per-target
    system, where a dependent vector's coordinate is 0. The reduced
    vectors are 1 at their own key and 0 at every other pivot key, so a
    target in the span is the sum of its value at each key times that
    key's reduced vector; each pivot keeps its key and its reduced
    vector's combination of the basis vectors."""

    def __init__(self, vectors: Sequence[Sequence]):
        self.vectors = [tuple(v) for v in vectors]
        self.slots = len(self.vectors[0]) if self.vectors else None
        # per pivot: its key, its reduced vector and that vector's
        # combination of the basis (column index -> coefficient)
        rows: list[tuple[tuple[int, object], dict, dict[int, Fraction]]] = []
        for j, vec in enumerate(self.vectors):
            if len(vec) != self.slots:
                raise ValueError(f"basis vector {j} has {len(vec)} slots, not {self.slots}")
            w = {(slot, m): c for slot, p in enumerate(vec) for m, c in p.terms.items() if c}
            comb = {j: Fraction(1)}
            for key, r, rc in rows:
                f = w.get(key)
                if f:
                    _subtract(w, f, r)
                    _subtract(comb, f, rc)
            if not w:
                continue
            key = next(iter(w))
            f = Fraction(w[key])  # the entries may be ints
            r = {k: v / f for k, v in w.items()}
            comb = {c: v / f for c, v in comb.items()}
            for _, r_i, rc_i in rows:
                g = r_i.get(key)
                if g:
                    _subtract(r_i, g, r)
                    _subtract(rc_i, g, comb)
            rows.append((key, r, comb))
        self._pivots = [(key, list(comb.items())) for key, _, comb in rows]

    def coords(self, target: Sequence) -> list[Fraction] | None:
        """Exact coordinates of ``target`` over the basis vectors, or None
        if it leaves their span. The target is read at the pivot keys, the
        reduced vectors' combinations give the coordinates, and the
        target must then equal the sum of coordinate times vector on
        every (slot, monomial)."""
        if self.slots is not None and len(target) != self.slots:
            raise ValueError(f"target has {len(target)} slots, the basis {self.slots}")
        x = [Fraction(0)] * len(self.vectors)
        for (slot, m), comb in self._pivots:
            t = target[slot].terms.get(m)
            if t:
                for c, v in comb:
                    x[c] += t * v
        used = [(c, xc) for c, xc in enumerate(x) if xc]
        for slot, p in enumerate(target):
            left = dict(p.terms)
            for c, xc in used:
                _subtract(left, xc, self.vectors[c][slot].terms)
            if any(left.values()):
                return None
        return x


def _subtract(w: dict, f: Fraction, r: Mapping) -> None:
    """w -= f * r in place, dropping the entries that cancel."""
    for k, v in r.items():
        val = w.get(k, 0) - f * v
        if val:
            w[k] = val
        else:
            w.pop(k, None)


def decompose_components(
    target: Sequence, basis: Sequence[Sequence]
) -> list[Fraction] | None:
    """Exact coordinates of a component tuple in the span of basis
    tuples, matching monomial coefficients slot by slot; None if the
    target leaves the span. The one-target case of :class:`Basis`."""
    return Basis(basis).coords(target)
