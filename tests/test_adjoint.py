"""Adjoint symmetries, multiplier tests, operator lifting, the action
table, and the induced bracket."""

import dataclasses
from fractions import Fraction

import pytest

import linalg_reference
from dlwlab import linalg
from dlwlab.adjoint import (
    AdjointSymmetry,
    AmbiguousPreimage,
    DecompositionError,
    LiftMemo,
    NotInRange,
    NotOnShell,
    PRINTED_ACTION_TABLE,
    PRINTED_BRACKET_CONSTANTS,
    action1,
    action2,
    adjoint_determining_residual,
    adjoint_symmetries,
    build_action_table,
    decompose_components,
    lift_onshell_operator,
    linearization,
    multiplier_test,
    printed_q3,
    sq_bracket,
    symmetry_operator,
)
from dlwlab.jet import JetPoly, OpTerm, apply_op, reduce_on_shell
from dlwlab.report import adjoint_suite
from dlwlab.symmetry import Characteristic, char_bracket, char_structure_constants, characteristics

u = JetPoly.var("u")
v = JetPoly.var("v")


@pytest.fixture(scope="module")
def qs():
    return adjoint_symmetries()


@pytest.fixture(scope="module")
def ps():
    return characteristics()


class TestLinearization:
    def test_on_symmetry_characteristic(self, phys, ps):
        out = apply_op(linearization(phys), tuple(ps[1].comp))
        assert all(reduce_on_shell(p, phys).is_zero() for p in out)

    def test_unit_probe(self, phys):
        out = apply_op(linearization(phys), (JetPoly.one(), JetPoly.zero()))
        assert out[0] == JetPoly.var("u", 1)

    def test_zero_probe(self, phys):
        out = apply_op(linearization(phys), (JetPoly.zero(), JetPoly.zero()))
        assert all(p.is_zero() for p in out)

    def test_directional_derivative_probe(self, phys):
        # G'(P) agrees with the first-order expansion through each slot
        from dlwlab.symmetry import frechet_derivative

        probe = (u * v, JetPoly.var("u", 1) ** 2)
        direct = frechet_derivative(phys.equation_polys(), probe, phys.deps)
        via_op = apply_op(linearization(phys), probe)
        assert tuple(direct) == tuple(via_op)


class TestDetermining:
    def test_constant_pair(self, phys, qs):
        assert all(r.is_zero() for r in adjoint_determining_residual(qs[4], phys))

    def test_gradient_pair(self, phys, qs):
        assert all(r.is_zero() for r in adjoint_determining_residual(qs[3], phys))

    def test_all_catalog_entries(self, phys, qs):
        for q in qs:
            res = adjoint_determining_residual(q, phys)
            assert all(r.is_zero() for r in res), q.name

    def test_printed_q3_fails(self, phys):
        res = adjoint_determining_residual(printed_q3(), phys)
        assert any(not r.is_zero() for r in res)

    def test_control_fails(self, phys):
        ctrl = AdjointSymmetry((u, JetPoly.zero()))
        res = adjoint_determining_residual(ctrl, phys)
        assert any(not r.is_zero() for r in res)


class TestMultiplier:
    def test_catalog_entries_are_multipliers(self, phys, qs):
        for q in qs:
            assert multiplier_test(q, phys), q.name

    def test_sum_pair(self, phys, qs):
        q56 = AdjointSymmetry(tuple(a + b for a, b in zip(qs[4].comp, qs[5].comp)))
        assert multiplier_test(q56, phys)

    def test_derivative_control_fails(self, phys):
        bad = AdjointSymmetry((JetPoly.var("u", 1), JetPoly.zero()))
        assert not multiplier_test(bad, phys)


class TestOperatorLifting:
    def test_translation_operators(self, phys, ps):
        # R for the two translations: minus a single total derivative on
        # the diagonal
        for idx, (dx, dt) in ((0, (0, 1)), (1, (1, 0))):
            op = symmetry_operator(ps[idx], phys)
            for i in range(2):
                for j in range(2):
                    entry = op.entries[i][j]
                    if i == j:
                        assert len(entry) == 1
                        assert entry[0].coeff == JetPoly.const(-1)
                        assert (entry[0].dx, entry[0].dt) == (dx, dt)
                    else:
                        assert entry == ()

    def test_scaling_operator(self, phys, ps):
        op = symmetry_operator(ps[3], phys)
        by_order = {
            (t.dx, t.dt): t.coeff for t in op.entries[0][0]
        }
        assert by_order[(0, 0)] == JetPoly.const(Fraction(-3, 2))
        assert by_order[(0, 1)] == -JetPoly.t()
        assert by_order[(1, 0)] == -JetPoly.x() * Fraction(1, 2)
        by_order2 = {(t.dx, t.dt): t.coeff for t in op.entries[1][1]}
        assert by_order2[(0, 0)] == JetPoly.const(-2)

    def test_lift_reproduces_input(self, phys, ps):
        from dlwlab.symmetry import frechet_derivative

        for p in ps:
            gp = frechet_derivative(phys.equation_polys(), tuple(p.comp), phys.deps)
            op = lift_onshell_operator(gp, phys)
            back = apply_op(op, phys.equation_polys())
            assert all(
                reduce_on_shell(a - b, phys).is_zero() for a, b in zip(back, gp)
            )
            # and exactly, not just on shell
            assert tuple(back) == tuple(gp)

    def test_off_shell_tuple_rejected(self, phys):
        with pytest.raises(NotOnShell):
            lift_onshell_operator((u, JetPoly.zero()), phys)


class TestActions:
    def test_rotation_into_gradient(self, phys, ps, qs):
        # acting on the Galilean-boost multiplier with the tilt symmetry
        # produces the pair (v, u)
        out = action1(ps[2], qs[2], phys)
        assert tuple(out) == tuple(qs[3].comp)

    def test_scaling_eigenvalue(self, phys, ps, qs):
        out = action1(ps[3], qs[0], phys)
        expected = tuple(c * -2 for c in qs[0].comp)
        assert tuple(out) == expected

    def test_constant_row_annihilated(self, phys, ps, qs):
        out = action1(ps[0], qs[4], phys)
        assert all(p.is_zero() for p in out)

    def test_second_action_examples(self, phys, ps, qs):
        out = action2(ps[2], qs[3], phys)
        assert tuple(out) == tuple(qs[5].comp)
        out = action2(ps[1], qs[1], phys)
        assert tuple(out) == tuple(c * -1 for c in qs[5].comp)

    def test_zero_direction(self, phys, ps, qs):
        zero = ps[0].scaled(0)
        out = action2(zero, qs[3], phys)
        assert all(p.is_zero() for p in out)

    def test_actions_agree_everywhere(self, phys, ps, qs):
        for q in qs:
            for p in ps:
                assert action1(p, q, phys) == action2(p, q, phys), (q.name, p.name)


class TestActionTable:
    def test_matches_printed_up_to_one_cell(self, phys, ps, qs):
        table = build_action_table(ps, qs, phys)
        mismatches = []
        for qi in range(1, 7):
            for pj in range(1, 5):
                got = {k + 1: c for k, c in enumerate(table.coeff(qi, pj)) if c != 0}
                want = PRINTED_ACTION_TABLE.get((qi, pj), {})
                if got != want:
                    mismatches.append(((qi, pj), got))
        assert mismatches == [((6, 4), {6: Fraction(-1, 2)})]

    def test_stored_images_are_action1(self, phys, ps, qs):
        table = build_action_table(ps, qs, phys)
        assert table.images.keys() == table.entries.keys()
        for (qi, pj), image in table.images.items():
            assert image == action1(ps[pj - 1], qs[qi - 1], phys), (qi, pj)

    def test_every_image_is_adjoint(self, phys, ps, qs):
        for q in qs:
            for p in ps:
                image = action1(p, q, phys)
                res = adjoint_determining_residual(image, phys)
                assert all(r.is_zero() for r in res)

    def test_every_nonzero_table_image_is_adjoint(self, phys, ps, qs):
        # what the action-closure entry certifies, checked on each image
        # itself: its residual is zero, and it is the exact combination of
        # the reduced Q_k its coordinates name
        table = build_action_table(ps, qs, phys)
        nonzero = [key for key, image in table.images.items() if not all(c.is_zero() for c in image)]
        assert len(nonzero) == 9
        reduced = [tuple(reduce_on_shell(c, phys) for c in q.comp) for q in qs]
        for key in nonzero:
            image = table.images[key]
            assert all(r.is_zero() for r in adjoint_determining_residual(image, phys)), key
            combination = tuple(
                sum((q[slot] * c for q, c in zip(reduced, table.entries[key])), JetPoly.zero())
                for slot in range(len(image))
            )
            assert combination == image, key
        entries = {e.label: e for e in adjoint_suite(blocks=("table",)).entries}
        assert entries["action-closure"].verdict == "pass"

    def test_closure_reads_the_residuals_of_the_catalog_entries(self, monkeypatch):
        # each Q residual is computed once per run, and a nonzero residual
        # of a Q that some image uses fails the closure entry
        import dlwlab.adjoint as adj

        real = adj.adjoint_determining_residual
        calls = []

        def counted(q, sys, lifts=None):
            calls.append(getattr(q, "name", ""))
            return real(q, sys, lifts)

        monkeypatch.setattr(adj, "adjoint_determining_residual", counted)
        entries = {e.label: e for e in adjoint_suite().entries}
        assert calls == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q3-printed"]
        assert entries["action-closure"].verdict == "pass"

        def spoiled(q, sys, lifts=None):
            res = real(q, sys, lifts)
            return (res[0] + JetPoly.one(), *res[1:]) if getattr(q, "name", "") == "Q1" else res

        monkeypatch.setattr(adj, "adjoint_determining_residual", spoiled)
        entries = {e.label: e for e in adjoint_suite(blocks=("table",)).entries}
        assert entries["action-closure"].verdict == "fail"

    def test_decomposition_roundtrip(self, phys, qs):
        basis = [tuple(q.comp) for q in qs]
        target = tuple(
            a * Fraction(3, 2) + b * Fraction(-2) for a, b in zip(qs[2].comp, qs[3].comp)
        )
        coords = decompose_components(target, basis)
        assert coords == [0, 0, Fraction(3, 2), Fraction(-2), 0, 0]

    def test_decomposition_detects_residue(self, qs):
        basis = [tuple(q.comp) for q in qs]
        target = (JetPoly.var("u", 3), JetPoly.zero())
        assert decompose_components(target, basis) is None


class TestBracket:
    def test_printed_constant_reproduced(self, phys, ps, qs):
        _, coords = sq_bracket(1, qs[0], qs[2], ps, qs, phys)
        got = {k + 1: c for k, c in enumerate(coords) if c != 0}
        assert got == {3: Fraction(-1, 4)}

    def test_sign_flagged_constants(self, phys, ps, qs):
        _, coords = sq_bracket(3, qs[2], qs[3], ps, qs, phys)
        assert {k + 1: c for k, c in enumerate(coords) if c != 0} == {4: Fraction(-1, 3)}
        _, coords = sq_bracket(4, qs[3], qs[5], ps, qs, phys)
        assert {k + 1: c for k, c in enumerate(coords) if c != 0} == {6: Fraction(-1, 2)}

    def test_antisymmetry_diagonal(self, phys, ps, qs):
        res, coords = sq_bracket(4, qs[3], qs[3], ps, qs, phys)
        assert res.is_zero()
        assert all(c == 0 for c in coords)

    def test_antisymmetry_swap(self, phys, ps, qs):
        _, ab = sq_bracket(1, qs[0], qs[2], ps, qs, phys)
        _, ba = sq_bracket(1, qs[2], qs[0], ps, qs, phys)
        assert tuple(ab) == tuple(-c for c in ba)

    def test_bilinearity(self, phys, ps, qs):
        combo = AdjointSymmetry(
            tuple(a + b * Fraction(2) for a, b in zip(qs[0].comp, qs[2].comp))
        )
        _, c_combo = sq_bracket(1, qs[0], combo, ps, qs, phys)
        _, c1 = sq_bracket(1, qs[0], qs[0], ps, qs, phys)
        _, c3 = sq_bracket(1, qs[0], qs[2], ps, qs, phys)
        assert tuple(c_combo) == tuple(a + 2 * b for a, b in zip(c1, c3))

    def test_not_in_range(self, phys, ps, qs):
        with pytest.raises(NotInRange):
            sq_bracket(1, qs[1], qs[2], ps, qs, phys)

    def test_jacobi_on_available_triples(self, phys, ps, qs):
        # the range of the first fixed action is spanned by Q1 and Q3;
        # the bracket closes there, so the cyclic sum is testable
        table = build_action_table(ps, qs, phys)
        span = (qs[0], qs[2])
        for a in span:
            for b in span:
                for c in span:
                    ab_c = sq_bracket(1, sq_bracket(1, a, b, ps, qs, phys, table)[0], c, ps, qs, phys, table)[1]
                    bc_a = sq_bracket(1, sq_bracket(1, b, c, ps, qs, phys, table)[0], a, ps, qs, phys, table)[1]
                    ca_b = sq_bracket(1, sq_bracket(1, c, a, ps, qs, phys, table)[0], b, ps, qs, phys, table)[1]
                    total = [x + y + z for x, y, z in zip(ab_c, bc_a, ca_b)]
                    assert all(t == 0 for t in total)


def _parent_sq_bracket(fix, a, b, ps, qs, phys, table):
    """The bracket by its earlier route: S_Q as the 6x4 matrix of the
    table's Q-coordinates, its kernel by ``linalg_reference.nullspace_exact``
    and each preimage by ``linalg_reference.solve_exact`` on the argument's
    Q-coordinates."""
    m = [[table.entries[(fix, pj)][row] for pj in range(1, 5)] for row in range(6)]
    kernel = linalg_reference.nullspace_exact(m)
    if any(sum(1 for c in vec if c != 0) != 1 for vec in kernel):
        raise AmbiguousPreimage("kernel is not spanned by basis directions")
    kernel_cols = {next(i for i, c in enumerate(vec) if c != 0) for vec in kernel}
    for i in kernel_cols:
        for j in range(len(ps)):
            if i != j:
                coords = table.char_brackets[(min(i, j), max(i, j))]
                if coords is None:
                    raise DecompositionError("bracket left the symmetry span")
                if any(c != 0 for k, c in enumerate(coords) if k not in kernel_cols):
                    raise AmbiguousPreimage("kernel of the fixed action is not an ideal")

    def preimage(arg):
        coords = table.basis.coords(tuple(reduce_on_shell(c, phys) for c in arg.comp))
        pre = None if coords is None else linalg_reference.solve_exact(m, coords)
        if pre is None:
            raise NotInRange("argument is outside the range of the fixed action")
        return Characteristic(
            tuple(sum((p * c for c, p in zip(pre, slot)), JetPoly.zero()) for slot in zip(*(p.comp for p in ps)))
        )

    bracket = char_bracket(preimage(a), preimage(b), phys)
    image = action1(Characteristic(tuple(bracket.comp)), qs[fix - 1], phys, table.lifts)
    coords = table.basis.coords(image)
    if coords is None:
        raise DecompositionError("bracket image left the adjoint catalog span")
    return AdjointSymmetry(tuple(image)), tuple(coords)


def _outcome(bracket, *args):
    """The result of a bracket call, or the type of the error it raised."""
    try:
        return bracket(*args)
    except (AmbiguousPreimage, DecompositionError, NotInRange) as err:
        return type(err)


class TestOneEliminator:
    """S_Q is one ``linalg.Basis`` of the images action1(P_j, Q_fix): its
    null combinations are the kernel and its coordinates the preimages,
    where the bracket once solved the Q-coordinate matrix."""

    @pytest.fixture(scope="class")
    def table(self, phys, ps, qs):
        return build_action_table(ps, qs, phys)

    @pytest.mark.parametrize("fix", [1, 3, 4])
    def test_kernel_is_spanned_by_the_translations(self, table, fix):
        s_q = linalg.Basis([table.images[(fix, pj)] for pj in range(1, 5)])
        assert s_q.null == [[1, 0, 0, 0], [0, 1, 0, 0]]
        assert all(type(c) is Fraction for vec in s_q.null for c in vec)

    @pytest.mark.parametrize("fix", [1, 3, 4])
    def test_bracket_agrees_with_the_earlier_route(self, phys, ps, qs, table, fix):
        # every argument of this file's bracket calls: Q1..Q6, Q1 + 2 Q3
        # (bilinearity) and [Q1, Q3] under the first fixed action (Jacobi)
        combo = AdjointSymmetry(tuple(a + b * 2 for a, b in zip(qs[0].comp, qs[2].comp)))
        nested = sq_bracket(1, qs[0], qs[2], ps, qs, phys, table)[0]
        args = (*qs, combo, nested)
        outcomes = set()
        for a in args:
            for b in args:
                got = _outcome(sq_bracket, fix, a, b, ps, qs, phys, table)
                assert got == _outcome(_parent_sq_bracket, fix, a, b, ps, qs, phys, table)
                outcomes.add(got if isinstance(got, type) else "bracket")
        assert outcomes == {"bracket", NotInRange}

    def test_broken_bracket_table_agrees_with_the_earlier_route(self, phys, ps, qs, table):
        broken = dataclasses.replace(table, char_brackets={k: None for k in table.char_brackets})
        args = (1, qs[0], qs[2], ps, qs, phys, broken)
        assert _outcome(sq_bracket, *args) is DecompositionError
        assert _outcome(_parent_sq_bracket, *args) is DecompositionError


class TestLiftMemo:
    """One adjoint suite run lifts each of the 4 characteristics, the 6
    adjoint symmetries and the 3 bracket characteristics once, and adjoins
    those 13 operators and the linearization once each."""

    def test_each_operator_lifted_once_per_suite_run(self, monkeypatch):
        import dlwlab.adjoint as adj

        counts = {}

        def counting(name):
            fn = getattr(adj, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(adj, name, counted)

        counting("lift_onshell_operator")
        counting("formal_adjoint")
        for _ in range(2):  # nothing is kept from one run to the next
            counts.clear()
            adjoint_suite()
            assert counts == {"lift_onshell_operator": 13, "formal_adjoint": 14}

    def test_shared_memo_gives_the_same_actions(self, monkeypatch, phys, ps, qs):
        import dlwlab.adjoint as adj

        made = []

        class Recording(LiftMemo):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(adj, "LiftMemo", Recording)
        adjoint_suite()
        monkeypatch.undo()
        (lifts,) = made  # one memo for the whole run
        for q in qs:
            for p in ps:
                assert action1(p, q, phys, lifts) == action1(p, q, phys), (q.name, p.name)
                assert action2(p, q, phys, lifts) == action2(p, q, phys), (q.name, p.name)

    def test_table_carries_its_memo(self, phys, ps, qs):
        lifts = LiftMemo()
        table = build_action_table(ps, qs, phys, lifts)
        assert table.lifts is lifts
        assert build_action_table(ps, qs, phys) == table


class TestCharBracketTable:
    """The action table carries the characteristics' bracket table; the
    ideal checks of sq_bracket read it instead of bracketing again."""

    def test_at_most_nine_char_brackets_per_suite_run(self, monkeypatch):
        import dlwlab.adjoint as adj
        import dlwlab.symmetry as sym

        calls = []
        real = sym.char_bracket

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(sym, "char_bracket", counted)
        monkeypatch.setattr(adj, "char_bracket", counted)
        counts = []
        for _ in range(2):  # nothing is kept from one run to the next
            calls.clear()
            adjoint_suite()
            counts.append(len(calls))
        # six pairs for the table, one bracket per printed constant
        assert counts == [9, 9]

    def test_table_carries_the_char_brackets(self, phys, ps, qs):
        table = build_action_table(ps, qs, phys)
        assert table.char_brackets == char_structure_constants(ps, phys)

    @pytest.mark.parametrize("fix,i,j", list(PRINTED_BRACKET_CONSTANTS))
    def test_same_bracket_with_and_without_table(self, phys, ps, qs, fix, i, j):
        table = build_action_table(ps, qs, phys)
        with_table = sq_bracket(fix, qs[i - 1], qs[j - 1], ps, qs, phys, table)
        without = sq_bracket(fix, qs[i - 1], qs[j - 1], ps, qs, phys)
        assert with_table == without
        assert all(type(c) is Fraction for c in with_table[1])

    def test_failed_table_entry_raises(self, phys, ps, qs):
        # Q1's fixed action has a kernel; a bracket leaving the span is an error
        table = build_action_table(ps, qs, phys)
        broken = dataclasses.replace(table, char_brackets={k: None for k in table.char_brackets})
        with pytest.raises(DecompositionError):
            sq_bracket(1, qs[0], qs[2], ps, qs, phys, broken)


class TestDecompositionCost:
    """One adjoint suite run eliminates the reduced Q basis once, for its
    action table, the reduced P basis once, for the table's
    char_structure_constants, and for each printed bracket constant the
    table's images under its fixed Q once, as S_Q. Every decomposition of
    the run reads one of them: the 24 table cells and the 3 bracket images
    the Q basis, the 6 characteristic brackets the P basis and the two
    preimages of each constant its S_Q."""

    def test_each_basis_is_eliminated_once_per_suite_run(self, monkeypatch, phys, ps, qs):
        made, reads = [], []

        class CountingBasis(linalg.Basis):
            def __init__(self, vectors):
                super().__init__(vectors)
                made.append(self)

            def coords(self, target):
                reads.append(self)
                return super().coords(target)

        images = build_action_table(ps, qs, phys).images
        monkeypatch.setattr(linalg, "Basis", CountingBasis)
        reduced = lambda basis: [tuple(reduce_on_shell(c, phys) for c in b.comp) for b in basis]  # noqa: E731
        s_q = lambda fix: [images[(fix, pj)] for pj in range(1, 5)]  # noqa: E731
        for _ in range(2):  # nothing is kept from one run to the next
            made.clear()
            reads.clear()
            assert not adjoint_suite().failed()
            assert [b.vectors for b in made] == [reduced(qs), reduced(ps), s_q(1), s_q(3), s_q(4)]
            assert [sum(r is b for r in reads) for b in made] == [24 + 3, 6, 2, 2, 2]
