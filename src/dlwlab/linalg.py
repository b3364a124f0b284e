"""Tiny exact linear algebra over Fraction, enough for decomposing
polynomials in small catalog bases and extracting operator kernels.

There is one elimination, :class:`Basis`: a list of vectors is eliminated
once, and every target is then decomposed against it. The catalog
decomposes many images (action-table cells, brackets) over each of a few
bases; ``decompose_components`` is the one-target case. ``solve_exact``
and ``nullspace_exact`` are queries on a basis of the columns of a
matrix. Each vector is flattened at the boundary to one map from keys
to nonzero coefficients, a (slot, monomial) of a component tuple or the
row index of a matrix column, so the elimination touches only nonzero
entries. The plain Gauss-Jordan elimination lives only in
``tests/linalg_reference.py``, as the oracle every result must equal."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

__all__ = ["solve_exact", "nullspace_exact", "Basis", "decompose_components"]


class Basis:
    """Basis tuples eliminated once, to decompose many targets against.

    A tuple holds components whose ``terms`` map monomials to
    coefficients (``JetPoly`` tuples, or the coefficient slots of a point
    symmetry); one coordinate is a (slot, monomial) key. Each vector is
    reduced against the pivots of the vectors before it and gets a pivot
    key only if something is left, so the pivots are the leftmost
    independent vectors: the pivot columns of the reduced row echelon
    form of the matrix whose columns are the vectors. The reduced
    vectors are 1 at their own key and 0 at every other pivot key, so a
    target in the span is the sum of its value at each key times that
    key's reduced vector; each pivot keeps its key and its reduced
    vector's combination of the basis vectors.

    A vector left with nothing is dependent, and its combination is a
    null combination of the vectors: 1 at its own index, the rest at
    earlier pivots. ``null`` holds one per dependent vector, in order,
    which is the nullspace basis of the echelon form (one vector per
    free column)."""

    def __init__(self, vectors: Sequence[Sequence]):
        self.vectors = [tuple(v) for v in vectors]
        self.slots = len(self.vectors[0]) if self.vectors else None
        for j, vec in enumerate(self.vectors):
            if len(vec) != self.slots:
                raise ValueError(f"basis vector {j} has {len(vec)} slots, not {self.slots}")
        self._maps = [self._flat(v) for v in self.vectors]
        zero = Fraction(0)
        self.null: list[list[Fraction]] = []
        # per pivot: its key, its reduced vector and that vector's
        # combination of the basis (vector index -> coefficient)
        rows: list[tuple[object, dict, dict[int, Fraction]]] = []
        for j, vec in enumerate(self._maps):
            w = dict(vec)
            comb = {j: Fraction(1)}
            for key, r, rc in rows:
                f = w.get(key)
                if f:
                    _subtract(w, f, r)
                    _subtract(comb, f, rc)
            if not w:
                self.null.append([comb.get(c, zero) for c in range(len(self._maps))])
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

    @staticmethod
    def _flat(vec: Sequence) -> dict:
        """The nonzero coefficients of a component tuple by (slot, monomial)."""
        return {(slot, m): c for slot, p in enumerate(vec) for m, c in p.terms.items() if c}

    def coords(self, target: Sequence) -> list[Fraction] | None:
        """Exact coordinates of ``target`` over the basis vectors, or None
        if it leaves their span. The target is read at the pivot keys, the
        reduced vectors' combinations give the coordinates, which are 0 at
        every dependent vector, and the target must then equal the sum of
        coordinate times vector at every key."""
        if self.slots is not None and len(target) != self.slots:
            raise ValueError(f"target has {len(target)} slots, the basis {self.slots}")
        left = self._flat(target)
        x = [Fraction(0)] * len(self.vectors)
        for key, comb in self._pivots:
            t = left.get(key)
            if t:
                for c, v in comb:
                    x[c] += t * v
        for c, xc in enumerate(x):
            if xc:
                _subtract(left, xc, self._maps[c])
        return None if left else x


class _Columns(Basis):
    """The columns of a matrix as a basis; a column's slots are its rows,
    and a key is a row index."""

    @staticmethod
    def _flat(vec: Sequence) -> dict:
        return {i: v for i, v in enumerate(vec) if v}


def _subtract(w: dict, f: Fraction, r: Mapping) -> None:
    """w -= f * r in place, dropping the entries that cancel."""
    for k, v in r.items():
        val = w.get(k, 0) - f * v
        if val:
            w[k] = val
        else:
            w.pop(k, None)


def solve_exact(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """One solution of A x = b with free variables set to zero, or None
    if the system is inconsistent: the coordinates of b over the columns
    of A."""
    if not a:
        return [] if all(v == 0 for v in b) else None
    return _Columns(list(zip(*a))).coords(b)


def nullspace_exact(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the nullspace of A (one vector per free column): the null
    combinations of its columns."""
    if not a:
        return []
    return _Columns(list(zip(*a))).null


def decompose_components(
    target: Sequence, basis: Sequence[Sequence]
) -> list[Fraction] | None:
    """Exact coordinates of a component tuple in the span of basis
    tuples, matching monomial coefficients slot by slot; None if the
    target leaves the span. The one-target case of :class:`Basis`."""
    return Basis(basis).coords(target)
