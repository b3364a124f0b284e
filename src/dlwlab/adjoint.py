"""Adjoint symmetries, the multiplier test, symmetry actions on the
adjoint-symmetry space, and the induced bilinear bracket.

For an evolution system G = 0 the linearization G' acts on symmetry
characteristics and its formal adjoint G'* on adjoint symmetries Q. Both
G'(P) and G'*(Q) vanish on shell, so each can be rewritten exactly as a
linear differential operator applied to the equation tuple; those lifted
operators (R_P and R_Q) drive the two symmetry actions

    action1: Q -> Q'(P) + R_P*(Q)
    action2: Q -> R_P*(Q) - R_Q*(P)

which agree for this system and close on the six-dimensional catalog
space, reproducing the published action table up to flagged cells.

The formal adjoints G'*, R_P* and R_Q* are held by a :class:`LiftMemo`,
keyed by (components, system), so each is lifted and adjoined once per
memo. A memo lives for one run: the report's run context makes one per
suite run and hands it to the determining-system checks and to
:func:`build_action_table`, whose :class:`ActionTable` carries it on to
``action2``, the closure check and :func:`sq_bracket`. Called without a
memo, the public functions make a fresh one, so nothing is kept between
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

from . import linalg
from .jet import (
    EvolutionSystem,
    JetError,
    JetPoly,
    LinearDiffOp,
    OpTerm,
    apply_op,
    derivative_table,
    euler_operator,
    formal_adjoint,
    reduce_on_shell,
    sum_of_products,
)
from .linalg import decompose_components  # re-exported: the one-target decomposition
from .symmetry import (
    Characteristic,
    char_bracket,
    char_structure_constants,
    frechet_derivative,
)

__all__ = [
    "AdjointSymmetry",
    "DecompositionError",
    "NotInRange",
    "AmbiguousPreimage",
    "NotOnShell",
    "adjoint_symmetries",
    "printed_q3",
    "linearization",
    "adjoint_determining_residual",
    "multiplier_test",
    "lift_onshell_operator",
    "LiftMemo",
    "symmetry_operator",
    "adjoint_symmetry_operator",
    "action1",
    "action2",
    "ActionTable",
    "build_action_table",
    "decompose_components",
    "sq_bracket",
    "PRINTED_ACTION_TABLE",
    "PRINTED_BRACKET_CONSTANTS",
]


class DecompositionError(JetError):
    """A tuple left the span of the catalog basis."""


class NotInRange(JetError):
    """No preimage exists under the fixed symmetry action."""


class AmbiguousPreimage(JetError):
    """The kernel quotient cannot be resolved canonically."""


class NotOnShell(JetError):
    """A tuple expected to vanish on solutions does not."""


@dataclass(frozen=True)
class AdjointSymmetry:
    """Candidate solution of the adjoint linearization system: one
    component per equation."""

    comp: tuple[JetPoly, ...]
    name: str = ""

    def __iter__(self):
        return iter(self.comp)

    def scaled(self, c: Fraction | int) -> "AdjointSymmetry":
        c = Fraction(c)
        return AdjointSymmetry(tuple(p * c for p in self.comp))

    def __add__(self, other: "AdjointSymmetry") -> "AdjointSymmetry":
        return AdjointSymmetry(tuple(a + b for a, b in zip(self.comp, other.comp)))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.comp)


def _p(name: str, dx: int = 0, dt: int = 0) -> JetPoly:
    return JetPoly.var(name, dx, dt)


def adjoint_symmetries() -> tuple[AdjointSymmetry, ...]:
    """The six catalog adjoint symmetries Q1..Q6.

    Q3 is stored as the gradient pair (u v + u_xx/3, u^2/2 + v); the
    printed first component duplicates Q2's and fails the determining
    system (see :func:`printed_q3` and the flagged report entry).
    """
    u, v = _p("u"), _p("v")
    q1 = AdjointSymmetry(
        (
            _p("v", 2)
            + v**2 * Fraction(9, 4)
            + u**2 * v * Fraction(9, 4)
            + u * _p("u", 2) * Fraction(3, 2)
            + _p("u", 1) ** 2 * Fraction(3, 4),
            _p("u", 2) + u**3 * Fraction(3, 4) + u * v * Fraction(9, 2),
        ),
        name="Q1",
    )
    q2 = AdjointSymmetry((JetPoly.t() * v, JetPoly.t() * u - JetPoly.x()), name="Q2")
    q3 = AdjointSymmetry(
        (u * v + _p("u", 2) * Fraction(1, 3), u**2 * Fraction(1, 2) + v), name="Q3"
    )
    q4 = AdjointSymmetry((v, u), name="Q4")
    q5 = AdjointSymmetry((JetPoly.one(), JetPoly.zero()), name="Q5")
    q6 = AdjointSymmetry((JetPoly.zero(), JetPoly.one()), name="Q6")
    return (q1, q2, q3, q4, q5, q6)


def printed_q3() -> AdjointSymmetry:
    """The third catalog entry exactly as printed (first component tv)."""
    return AdjointSymmetry(
        (JetPoly.t() * _p("v"), _p("u") ** 2 * Fraction(1, 2) + _p("v")),
        name="Q3-printed",
    )


# ---------------------------------------------------------------------------
# linearization and its adjoint


def linearization(sys: EvolutionSystem) -> LinearDiffOp:
    """Frechet derivative of the system map as an operator matrix:
    entry (i, j) collects (d G^i / d u^j_[a,b]) * D_x^a D_t^b."""
    rows = []
    for g in sys.equation_polys():
        row = []
        for dep in sys.deps:
            terms = []
            for v in sorted(g.jet_vars()):
                if v.name != dep:
                    continue
                coeff = g.partial(v)
                if not coeff.is_zero():
                    terms.append(OpTerm(coeff, v.dx, v.dt))
            row.append(tuple(terms))
        rows.append(tuple(row))
    return LinearDiffOp(tuple(rows)).canonical()


def adjoint_determining_residual(
    q: AdjointSymmetry | Sequence[JetPoly],
    sys: EvolutionSystem,
    lifts: LiftMemo | None = None,
) -> tuple[JetPoly, ...]:
    """G'*(Q) reduced on shell; the zero tuple certifies an adjoint
    symmetry."""
    if lifts is None:
        lifts = LiftMemo()
    comp = tuple(q.comp if isinstance(q, AdjointSymmetry) else q)
    out = apply_op(lifts.linearization_adjoint(sys), comp)
    return tuple(reduce_on_shell(p, sys) for p in out)


def multiplier_test(q: AdjointSymmetry | Sequence[JetPoly], sys: EvolutionSystem) -> bool:
    """True iff every Euler operator annihilates sum_j G^j Q_j
    identically off shell, i.e. the pairing is a total divergence."""
    comp = tuple(q.comp if isinstance(q, AdjointSymmetry) else q)
    paired = sum_of_products(zip(sys.equation_polys(), comp))
    return all(euler_operator(paired, dep).is_zero() for dep in sys.deps)


# ---------------------------------------------------------------------------
# lifting on-shell-vanishing tuples to operators on the equations


def lift_onshell_operator(
    rho: Sequence[JetPoly], sys: EvolutionSystem
) -> LinearDiffOp:
    """Express a tuple that vanishes on shell as an operator applied to
    the equation tuple: returns M with M(G) = rho identically.

    Works leading-derivative by leading-derivative: each reducible
    coordinate w equals the prolonged equation minus lower-order terms,
    so polynomial division by that prolonged equation eliminates w while
    recording the quotient as the operator coefficient. Raises NotOnShell
    if a nonzero remainder survives with no reducible coordinate left.
    """
    eqs = sys.equation_polys()
    # each prolonged equation is taken once per tower
    prolonged = [derivative_table(g) for g in eqs]
    dep_index = {name: k for k, name in enumerate(sys.deps)}
    solved = sys.solved()
    n = len(eqs)
    entries: list[list[list[OpTerm]]] = [[[] for _ in range(n)] for _ in range(n)]
    for i, rho_i in enumerate(rho):
        current = rho_i
        while True:
            reducible = [v for v in current.jet_vars() if solved.is_reducible(v)]
            if not reducible:
                break
            w = max(reducible, key=lambda v: (v.dt, v.dx))
            j = dep_index[w.name]
            wpoly = JetPoly.from_var(w)
            lower = prolonged[j](w.dx - sys.lead_dx, w.dt - 1) - wpoly  # strictly smaller dt
            coeffs = current.coefficients_in(w)
            degree = max(coeffs)
            # synthetic division of current by (w - root), root = -lower
            root = -lower
            quotient: dict[int, JetPoly] = {}
            carry = JetPoly.zero()
            for k in range(degree, 0, -1):
                b = coeffs.get(k, JetPoly.zero()) + carry
                quotient[k - 1] = b
                carry = root * b
            remainder = coeffs.get(0, JetPoly.zero()) + carry
            qpoly = sum_of_products((b, wpoly**k) for k, b in quotient.items())
            if not qpoly.is_zero():
                entries[i][j].append(
                    OpTerm(reduce_on_shell(qpoly, sys), w.dx - sys.lead_dx, w.dt - 1)
                )
            current = remainder
        if not current.is_zero():
            raise NotOnShell(
                f"component {i} does not vanish on shell (remainder {current})"
            )
    return LinearDiffOp.from_lists(entries).canonical()


def symmetry_operator(p: Characteristic, sys: EvolutionSystem) -> LinearDiffOp:
    """R_P with R_P(G) = G'(P), lifted from the linearization applied to
    the characteristic."""
    gp = frechet_derivative(sys.equation_polys(), tuple(p.comp), sys.deps)
    return lift_onshell_operator(gp, sys)


def adjoint_symmetry_operator(
    q: AdjointSymmetry, sys: EvolutionSystem, lifts: LiftMemo | None = None
) -> LinearDiffOp:
    """R_Q with R_Q(G) = G'*(Q), lifted from the adjoint linearization
    applied to the adjoint symmetry."""
    if lifts is None:
        lifts = LiftMemo()
    gq = apply_op(lifts.linearization_adjoint(sys), tuple(q.comp))
    return lift_onshell_operator(gq, sys)


class LiftMemo:
    """The formal adjoints G'*, R_P* and R_Q* of one run, each computed
    on first use and keyed by (components, system)."""

    def __init__(self) -> None:
        self._ops: dict[Hashable, LinearDiffOp] = {}

    def _get(self, key: Hashable, make: Callable[[], LinearDiffOp]) -> LinearDiffOp:
        op = self._ops.get(key)
        if op is None:
            op = self._ops[key] = make()
        return op

    def linearization_adjoint(self, sys: EvolutionSystem) -> LinearDiffOp:
        """G'*."""
        return self._get(("G'*", sys), lambda: formal_adjoint(linearization(sys)))

    def symmetry_adjoint(self, p: Characteristic, sys: EvolutionSystem) -> LinearDiffOp:
        """R_P*."""
        return self._get(
            ("R_P*", tuple(p.comp), sys),
            lambda: formal_adjoint(symmetry_operator(p, sys)),
        )

    def adjoint_symmetry_adjoint(self, q: AdjointSymmetry, sys: EvolutionSystem) -> LinearDiffOp:
        """R_Q*."""
        return self._get(
            ("R_Q*", tuple(q.comp), sys),
            lambda: formal_adjoint(adjoint_symmetry_operator(q, sys, self)),
        )


# ---------------------------------------------------------------------------
# the two symmetry actions


def action1(
    p: Characteristic,
    q: AdjointSymmetry,
    sys: EvolutionSystem,
    lifts: LiftMemo | None = None,
) -> tuple[JetPoly, ...]:
    """First action: Q'(P) + R_P*(Q), reduced on shell."""
    if lifts is None:
        lifts = LiftMemo()
    qp = frechet_derivative(tuple(q.comp), tuple(p.comp), sys.deps)
    extra = apply_op(lifts.symmetry_adjoint(p, sys), tuple(q.comp))
    return tuple(reduce_on_shell(a + b, sys) for a, b in zip(qp, extra))


def action2(
    p: Characteristic,
    q: AdjointSymmetry,
    sys: EvolutionSystem,
    lifts: LiftMemo | None = None,
) -> tuple[JetPoly, ...]:
    """Second action: R_P*(Q) - R_Q*(P), reduced on shell."""
    if lifts is None:
        lifts = LiftMemo()
    first = apply_op(lifts.symmetry_adjoint(p, sys), tuple(q.comp))
    second = apply_op(lifts.adjoint_symmetry_adjoint(q, sys), tuple(p.comp))
    return tuple(reduce_on_shell(a - b, sys) for a, b in zip(first, second))


# ---------------------------------------------------------------------------
# the action table


@dataclass(frozen=True)
class ActionTable:
    """images[(qi, pj)] (1-based) holds action1(P_j, Q_i) and
    entries[(qi, pj)] its exact coordinates in the catalog
    adjoint-symmetry basis. ``basis`` is that basis, the on-shell-reduced
    Q_i eliminated once, ``lifts`` the memo the images were built with
    and ``char_brackets`` the characteristic bracket table
    (:func:`~dlwlab.symmetry.char_structure_constants`, 0-based keys),
    all for the checks and brackets of the same run."""

    entries: Mapping[tuple[int, int], tuple[Fraction, ...]]
    images: Mapping[tuple[int, int], tuple[JetPoly, ...]]
    basis: linalg.Basis = field(compare=False, repr=False)
    lifts: LiftMemo = field(compare=False, repr=False)
    char_brackets: Mapping[tuple[int, int], tuple[Fraction, ...] | None] = field(repr=False)

    def coeff(self, qi: int, pj: int) -> tuple[Fraction, ...]:
        return self.entries[(qi, pj)]


def build_action_table(
    chars: Sequence[Characteristic],
    adjoints: Sequence[AdjointSymmetry],
    sys: EvolutionSystem,
    lifts: LiftMemo | None = None,
) -> ActionTable:
    """All action1 images decomposed exactly over the adjoint catalog,
    and the characteristics' bracket table; an unmatched residue raises
    DecompositionError."""
    if lifts is None:
        lifts = LiftMemo()
    basis = linalg.Basis([tuple(reduce_on_shell(c, sys) for c in q.comp) for q in adjoints])
    entries: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    images: dict[tuple[int, int], tuple[JetPoly, ...]] = {}
    for qi, q in enumerate(adjoints, start=1):
        for pj, p in enumerate(chars, start=1):
            image = images[(qi, pj)] = action1(p, q, sys, lifts)
            coords = basis.coords(image)
            if coords is None:
                raise DecompositionError(
                    f"action of P{pj} on Q{qi} left the catalog span: "
                    f"({', '.join(str(c) for c in image)})"
                )
            entries[(qi, pj)] = tuple(coords)
    return ActionTable(entries, images, basis, lifts, char_structure_constants(chars, sys))


#: Cell values as printed in the source catalog (basis coordinates over
#: Q1..Q6); the engine's computed table disagrees only at (Q6, P4).
PRINTED_ACTION_TABLE: dict[tuple[int, int], dict[int, Fraction]] = {
    (1, 3): {3: Fraction(9, 2)},
    (1, 4): {1: Fraction(-2)},
    (2, 1): {4: Fraction(1)},
    (2, 2): {6: Fraction(-1)},
    (3, 3): {4: Fraction(1)},
    (3, 4): {3: Fraction(-3, 2)},
    (4, 3): {6: Fraction(1)},
    (4, 4): {4: Fraction(-1)},
}

#: Bracket constants as printed: fixing Q1, Q3, Q4 respectively.
PRINTED_BRACKET_CONSTANTS = {
    (1, 1, 3): (3, Fraction(-1, 4)),  # fix Q1: [Q1,Q3] = -Q3/4
    (3, 3, 4): (4, Fraction(1, 3)),  # fix Q3: [Q3,Q4] = +Q4/3
    (4, 4, 6): (6, Fraction(1, 2)),  # fix Q4: [Q4,Q6] = +Q6/2
}


# ---------------------------------------------------------------------------
# the induced bracket on the range of a fixed action


def _char_combination(
    coords: Sequence[Fraction], chars: Sequence[Characteristic]
) -> Characteristic:
    """sum_k coords[k] chars[k], each component one sum of products."""
    slots = zip(*(p.comp for p in chars))
    return Characteristic(
        tuple(sum_of_products((JetPoly.const(c), q) for c, q in zip(coords, slot) if c) for slot in slots)
    )


def sq_bracket(
    fix: int,
    a: AdjointSymmetry | Sequence[JetPoly],
    b: AdjointSymmetry | Sequence[JetPoly],
    chars: Sequence[Characteristic],
    adjoints: Sequence[AdjointSymmetry],
    sys: EvolutionSystem,
    table: ActionTable | None = None,
) -> tuple[AdjointSymmetry, tuple[Fraction, ...]]:
    """Bilinear bracket on the range of S_Q for the fixed catalog entry:
    map both arguments back through S_Q (canonical preimage with zero
    kernel components), bracket the characteristics, and push forward.

    S_Q is one :class:`~dlwlab.linalg.Basis` of the images
    action1(P_j, Q_fix) that ``table`` holds. Its null combinations span
    the kernel, which is spanned by basis directions exactly when each
    dependent image is zero, and the coordinates of an on-shell argument
    over it are the canonical preimage. Requires the kernel of S_Q to be
    an ideal of the symmetry algebra; raises NotInRange when an argument
    has no preimage and AmbiguousPreimage when the kernel is not spanned
    by basis directions (the canonical-complement choice then has no
    meaning). The ideal check reads the characteristic bracket table
    that ``table`` carries, so the brackets of the basis are computed
    once per table and shared by every call with it. The bracket image
    is decomposed against the table's eliminated adjoint basis and
    lifted with the table's memo. Without ``table`` the call builds its
    own.
    """
    if table is None:
        table = build_action_table(chars, adjoints, sys)
    s_q = linalg.Basis([table.images[(fix, pj)] for pj in range(1, len(chars) + 1)])
    # canonical complement needs the kernel to be coordinate-spanned
    for vec in s_q.null:
        if sum(1 for v in vec if v != 0) != 1:
            raise AmbiguousPreimage("kernel is not spanned by basis directions")
    # ideal check: bracketing a kernel generator with any generator must
    # stay in the kernel; [P_j, P_i] = -[P_i, P_j] has the same zero
    # coordinates and [P_i, P_i] = 0
    kernel_cols = {next(i for i, v in enumerate(vec) if v != 0) for vec in s_q.null}
    for i in kernel_cols:
        for j in range(len(chars)):
            if i == j:
                continue
            coords = table.char_brackets[(min(i, j), max(i, j))]
            if coords is None:
                raise DecompositionError("bracket left the symmetry span")
            if any(c != 0 for k, c in enumerate(coords) if k not in kernel_cols):
                raise AmbiguousPreimage("kernel of the fixed action is not an ideal")

    def preimage(arg: AdjointSymmetry | Sequence[JetPoly]) -> list[Fraction]:
        comp = tuple(arg.comp if isinstance(arg, AdjointSymmetry) else arg)
        pre = s_q.coords(tuple(reduce_on_shell(c, sys) for c in comp))
        if pre is None:
            raise NotInRange("argument is outside the range of the fixed action")
        return pre

    pa = preimage(a)
    pb = preimage(b)
    bracket = char_bracket(
        _char_combination(pa, chars), _char_combination(pb, chars), sys
    )
    image = action1(Characteristic(tuple(bracket.comp)), adjoints[fix - 1], sys, table.lifts)
    coords = table.basis.coords(image)
    if coords is None:
        raise DecompositionError("bracket image left the adjoint catalog span")
    return AdjointSymmetry(tuple(image)), tuple(coords)
