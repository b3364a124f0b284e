"""Unoptimized reference versions of the exact linear algebra, kept as
test oracles.

``rref`` wraps every entry in ``Fraction``, divides the pivot row even when
the pivot is 1 and updates every column of every row; ``solve_exact``
eliminates the augmented system with its all-zero rows. The reduced row
echelon form is unique, so ``dlwlab.linalg`` must agree with these
structurally: same matrices, same pivots, same solutions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [val / pv for val in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_exact(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction] | None:
    """One solution of A x = b with free variables set to zero, or None
    if the system is inconsistent."""
    if not a:
        return [] if all(v == 0 for v in b) else None
    aug = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(a, b)]
    m, pivots = rref(aug)
    ncols = len(a[0])
    for row in m:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = m[r][-1]
    return x


def nullspace_exact(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the nullspace of A (one vector per free column)."""
    if not a:
        return []
    m, pivots = rref(a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
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
    """Coordinates of a component tuple over basis tuples, from one
    system per target: a row per (slot, monomial) that the basis or the
    target uses, in order of first appearance, solved by the reference
    ``solve_exact``; None off the span. Where neither the basis nor the
    target has a monomial the system has no rows, so ``solve_exact``
    cannot know its column count; the coordinates are then one 0 per
    basis tuple."""
    keys: list[tuple[int, object]] = []
    for slot in range(len(target)):
        for p in [b[slot] for b in basis] + [target[slot]]:
            for m in p.terms:
                if (slot, m) not in keys:
                    keys.append((slot, m))
    zero = Fraction(0)
    rows = [[b[slot].terms.get(m, zero) for b in basis] for slot, m in keys]
    if not rows:
        return [zero] * len(basis)
    rhs = [target[slot].terms.get(m, zero) for slot, m in keys]
    return solve_exact(rows, rhs)
