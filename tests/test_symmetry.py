"""Point symmetries: determining residuals, brackets,
the subalgebra classification by its complete invariant, and the
similarity reductions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symmetry_reference
from conftest import jet_polys
from dlwlab import linalg, report
from dlwlab.jet import DimensionMismatch, EvolutionSystem, JetError, JetPoly, reduce_on_shell
from dlwlab.linalg import decompose_components
from dlwlab.symmetry import (
    OPTIMAL_CLASSES,
    Characteristic,
    PointSymmetry,
    char_bracket,
    char_structure_constants,
    characteristic,
    characteristics,
    determining_residual,
    frechet_derivative,
    lie_bracket,
    optimal_class,
    point_symmetries,
    printed_generator_matrices,
    similarity_reduction_checks,
    structure_constants,
)


class TestProlongation:
    def test_unknown_dependent_variable_raises(self, phys, pot):
        on_uw = PointSymmetry(JetPoly.one(), JetPoly.zero(), (("u", JetPoly.zero()), ("w", JetPoly.zero())))
        x1 = point_symmetries()[0]
        # a translation reads no field, so only the deps check can catch these
        for field, sys in ((on_uw, phys), (x1, pot), (x1.scaled(0), BURGERS)):
            with pytest.raises(JetError) as err:
                determining_residual(field, sys)
            assert str(field.deps) in str(err.value) and str(sys.deps) in str(err.value)


def _point_fields(deps):
    """Order-0 coefficients in t, x, the fields of ``deps`` and a
    parameter."""
    coeff = jet_polys(max_dx=0, max_terms=3, params=("mu",), deps=deps) | st.just(JetPoly.zero())
    return st.builds(
        lambda xi1, xi2, *etas: PointSymmetry(xi1, xi2, tuple(zip(deps, etas))),
        *[coeff] * (2 + len(deps)),
    )


def _prolonged_on_shell(x, sys):
    """The reference prolongation applied to each equation, reduced on
    shell."""
    return tuple(reduce_on_shell(symmetry_reference.apply_prolonged(x, g), sys) for g in sys.equation_polys())


class TestSumsOfProducts:
    """The determining residual through the characteristic equals the
    reference prolongation on shell, and the Frechet derivative, as a sum
    of products over one derivative table per operand, equals the plain
    loop in ``symmetry_reference``."""

    @given(data=st.data(), potential=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_apply_prolonged_matches_reference(self, data, potential, phys, pot):
        sys = pot if potential else phys
        x = data.draw(_point_fields(sys.deps))
        assert determining_residual(x, sys) == _prolonged_on_shell(x, sys)

    @given(
        q=st.lists(jet_polys(max_dx=2, max_dt=2, max_terms=3, params=("mu",)), min_size=1, max_size=2),
        p=st.tuples(*[jet_polys(max_dx=2, max_dt=1, max_terms=3, params=("mu",)) | st.just(JetPoly.zero())] * 2),
        deps=st.sampled_from((("u", "v"), ("v", "u"), ("v",))),
    )
    @settings(max_examples=60, deadline=None)
    def test_frechet_derivative_matches_reference(self, q, p, deps):
        p = p[: len(deps)]
        assert frechet_derivative(q, p, deps) == symmetry_reference.frechet_derivative(q, p, deps)

    def test_frechet_derivative_needs_one_direction_per_dep(self, phys):
        # fields outside deps stay constants (the reference test above
        # draws deps=("v",)), but P must have one component per name
        p4 = characteristics()[3]
        message = r"^a direction of width 1 on 2 dependent variables \('u', 'v'\)$"
        with pytest.raises(DimensionMismatch, match=message):
            char_bracket(Characteristic((JetPoly.var("u", 1),)), p4, phys)
        with pytest.raises(DimensionMismatch, match=message):
            frechet_derivative(phys.equation_polys(), (JetPoly.var("u", 1),), phys.deps)
        with pytest.raises(DimensionMismatch, match=r"^a direction of width 2 on 1 dependent variables \('v',\)$"):
            frechet_derivative(phys.equation_polys(), p4.comp, ("v",))

    def test_catalog_actions_match_reference(self, phys, pot):
        controls = (_on(phys.deps, 0, 0, _T, 0), _on(phys.deps, _X, _T * _X, _u() * _u(), _X))
        for x in (*point_symmetries(), *controls):
            assert determining_residual(x, phys) == _prolonged_on_shell(x, phys), x.name
        for x in (*_potential_fields(pot), _on(pot.deps, 0, 0, JetPoly.var(pot.deps[0]), 0)):
            assert determining_residual(x, pot) == _prolonged_on_shell(x, pot), x
        chars = characteristics()
        for p in chars:
            for q in chars:
                assert frechet_derivative(q.comp, p.comp, phys.deps) == symmetry_reference.frechet_derivative(q.comp, p.comp)


class TestDeterminingResidual:
    def test_all_four_generators(self, phys):
        for x in point_symmetries():
            assert all(r.is_zero() for r in determining_residual(x, phys))

    def test_non_symmetry_control(self, phys):
        bad = PointSymmetry(JetPoly.zero(), JetPoly.zero(), (("u", JetPoly.t()), ("v", JetPoly.zero())))
        res = determining_residual(bad, phys)
        assert any(not r.is_zero() for r in res)

    def test_zero_field(self, phys):
        zero = point_symmetries()[0].scaled(0)
        assert all(r.is_zero() for r in determining_residual(zero, phys))


class TestFields:
    """A field carries one eta per dependent variable and reads nothing
    else."""

    @pytest.mark.parametrize("slot", range(4))
    def test_coefficient_in_an_unknown_field_is_rejected(self, slot):
        coeffs = [JetPoly.zero()] * 4
        coeffs[slot] = JetPoly.var("w") * JetPoly.x()
        xi1, xi2, eta_u, eta_v = coeffs
        with pytest.raises(JetError, match="'w'"):
            PointSymmetry(xi1, xi2, (("u", eta_u), ("v", eta_v)))

    def test_derivative_coordinate_is_rejected(self):
        with pytest.raises(JetError, match="order-0"):
            PointSymmetry(JetPoly.var("u", 1), JetPoly.zero(), (("u", JetPoly.zero()),))

    def test_fields_on_different_variables_do_not_combine(self):
        on_u = PointSymmetry(JetPoly.one(), JetPoly.zero(), (("u", JetPoly.zero()),))
        x1 = point_symmetries()[0]
        for combine in (lie_bracket, lambda a, b: a + b):
            with pytest.raises(JetError):
                combine(on_u, x1)

    def test_coeffs_and_etas_follow_the_system_order(self, phys):
        x4 = point_symmetries()[3]
        assert x4.deps == phys.deps
        assert x4.coeffs() == (x4.xi1, x4.xi2, *(eta for _, eta in x4.eta))
        assert dict(x4.eta)["v"] == -JetPoly.var("v")


def _u(dx=0):
    return JetPoly.var("u", dx)


def _on(deps, xi1, xi2, *eta):
    """The field xi1 d/dt + xi2 d/dx + sum eta_dep d/d(dep); ints are
    constants."""
    poly = lambda c: c if isinstance(c, JetPoly) else JetPoly.const(c)  # noqa: E731
    return PointSymmetry(poly(xi1), poly(xi2), tuple(zip(deps, map(poly, eta))))


_T, _X = JetPoly.t(), JetPoly.x()
# u_t = -rhs: Burgers u_t + u u_x = u_xx and KdV u_t + u u_x + u_xxx = 0
BURGERS = EvolutionSystem(deps=("u",), rhs=(_u() * _u(1) - _u(2),))
KDV = EvolutionSystem(deps=("u",), rhs=(_u() * _u(1) + _u(3),))
#: Olver, GTM 107, sec. 2.4: x- and t-translation, Galilean boost,
#: scaling and, for Burgers, the projective field.
BURGERS_FIELDS = (
    _on(("u",), 0, 1, 0),
    _on(("u",), 1, 0, 0),
    _on(("u",), 0, _T, 1),
    _on(("u",), _T * 2, _X, -_u()),
    _on(("u",), _T * _T, _T * _X, _X - _T * _u()),
)
KDV_FIELDS = (
    _on(("u",), 0, 1, 0),
    _on(("u",), 1, 0, 0),
    _on(("u",), 0, _T, 1),
    _on(("u",), _T * 3, _X, _u() * -2),
)


def _potential_fields(pot):
    q, r = (JetPoly.var(dep) for dep in pot.deps)
    return (
        _on(pot.deps, 0, 1, 0, 0),
        _on(pot.deps, 1, 0, 0, 0),
        _on(pot.deps, 0, 0, 1, 0),
        _on(pot.deps, 0, 0, 0, 1),
        _on(pot.deps, 0, _T, _X, 0),
        _on(pot.deps, _T * -2, -_X, 0, r),
        _on(pot.deps, 0, 0, _T * _T, 0),
        _on(pot.deps, 0, 0, 0, _T * _T),
    )


def _closes(xs):
    basis = linalg.Basis([x.coeffs() for x in xs])
    return all(basis.coords(lie_bracket(a, b).coeffs()) is not None for a in xs for b in xs)


class TestKnownAnswers:
    """The generic field on other systems: the point symmetries of
    Burgers and KdV and of the potential pair have zero determining
    residual, and their characteristics bracket like the fields."""

    def _systems(self, pot):
        return ((BURGERS, BURGERS_FIELDS), (KDV, KDV_FIELDS), (pot, _potential_fields(pot)))

    def test_fields_are_symmetries(self, pot):
        for sys, xs in self._systems(pot):
            for x in xs:
                res = determining_residual(x, sys)
                assert len(res) == sys.width
                assert all(r.is_zero() for r in res), (sys.deps, x)

    @pytest.mark.parametrize(
        "sys, field",
        [
            (BURGERS, _on(("u",), 0, 0, 1)),
            (KDV, _on(("u",), 0, 0, 1)),
            (KDV, _on(("u",), _T * 2, _X, -_u())),
        ],
        ids=["burgers-shift-u", "kdv-shift-u", "kdv-burgers-scaling"],
    )
    def test_controls_fail(self, sys, field):
        assert any(not r.is_zero() for r in determining_residual(field, sys))

    def test_potential_control_fails(self, pot):
        q = JetPoly.var(pot.deps[0])
        assert any(not r.is_zero() for r in determining_residual(_on(pot.deps, 0, 0, q, 0), pot))

    def test_burgers_and_kdv_brackets_close(self):
        assert _closes(BURGERS_FIELDS) and _closes(KDV_FIELDS)
        # [d/dt, projective] is the scaling field
        basis = linalg.Basis([x.coeffs() for x in BURGERS_FIELDS])
        coords = basis.coords(lie_bracket(BURGERS_FIELDS[1], BURGERS_FIELDS[4]).coeffs())
        assert list(coords) == [0, 0, 0, 1, 0]

    def test_characteristics_follow_the_fields(self, pot):
        for sys, xs in self._systems(pot):
            for x in xs:
                p = characteristic(x)
                assert p.comp == tuple(
                    dict(x.eta)[dep] - x.xi1 * JetPoly.var(dep, 0, 1) - x.xi2 * JetPoly.var(dep, 1) for dep in sys.deps
                )
            for a in xs:
                for b in xs:
                    br = char_bracket(characteristic(a), characteristic(b), sys)
                    lb = characteristic(lie_bracket(a, b))
                    assert br.comp == tuple(reduce_on_shell(c, sys) for c in lb.comp), (sys.deps, a, b)


EXPECTED_TABLE = {
    (1, 3): {2: Fraction(1)},
    (1, 4): {1: Fraction(1)},
    (2, 4): {2: Fraction(1, 2)},
    (3, 4): {3: Fraction(-1, 2)},
}


class TestBrackets:
    def test_vector_field_table(self):
        xs = point_symmetries()
        for i in range(1, 5):
            for j in range(i + 1, 5):
                bracket = lie_bracket(xs[i - 1], xs[j - 1])
                coords = decompose_components(bracket.coeffs(), [b.coeffs() for b in xs])
                got = {k + 1: c for k, c in enumerate(coords) if c != 0}
                assert got == EXPECTED_TABLE.get((i, j), {}), (i, j)

    def test_antisymmetry(self):
        xs = point_symmetries()
        assert lie_bracket(xs[2], xs[2]).is_zero()

    def test_char_bracket_examples(self, phys):
        ps = characteristics()
        br = char_bracket(ps[0], ps[3], phys)  # [P1, P4] = P1 on shell
        expected = tuple(reduce_on_shell(c, phys) for c in ps[0].comp)
        assert tuple(br.comp) == expected
        br = char_bracket(ps[1], ps[3], phys)  # [P2, P4] = P2/2
        expected = tuple(c * Fraction(1, 2) for c in ps[1].comp)
        assert tuple(br.comp) == expected
        assert char_bracket(ps[2], ps[2], phys).is_zero()

    def test_char_bracket_p1_p3_is_p2(self, phys):
        # the printed evolutionary table lists P4 here; the computation
        # (and the vector-field table) give P2
        ps = characteristics()
        br = char_bracket(ps[0], ps[2], phys)
        assert tuple(br.comp) == tuple(ps[1].comp)

    def test_consistency_with_vector_fields(self, phys):
        xs = point_symmetries()
        ps = characteristics()
        for i in range(4):
            for j in range(4):
                br = char_bracket(ps[i], ps[j], phys)
                lb = characteristic(lie_bracket(xs[i], xs[j]))
                expected = tuple(reduce_on_shell(c, phys) for c in lb.comp)
                assert tuple(br.comp) == expected, (i, j)

    def test_jacobi_identity(self, phys):
        ps = characteristics()
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    s1 = char_bracket(char_bracket(ps[a], ps[b], phys), ps[c], phys)
                    s2 = char_bracket(char_bracket(ps[b], ps[c], phys), ps[a], phys)
                    s3 = char_bracket(char_bracket(ps[c], ps[a], phys), ps[b], phys)
                    total = tuple(
                        reduce_on_shell(x + y + z, phys)
                        for x, y, z in zip(s1.comp, s2.comp, s3.comp)
                    )
                    assert all(p.is_zero() for p in total), (a, b, c)


class TestStructureConstants:
    def test_known_entries(self):
        c, _ = structure_constants()
        assert c[(1, 3, 2)] == 1
        assert c[(2, 4, 2)] == Fraction(1, 2)
        assert (1, 1, 1) not in c  # c^k_ii = 0

    def test_e2_matches_printed(self):
        _, mats = structure_constants()
        assert mats[1] == printed_generator_matrices()[1]

    def test_e3_e4_printed_forms_disagree(self):
        # the printed third and fourth generator matrices drop a term and
        # flip a sign relative to the bracket table; the computed ones win
        _, mats = structure_constants()
        printed = printed_generator_matrices()
        assert mats[0] == printed[0]
        assert mats[2] != printed[2]
        assert mats[3] != printed[3]
        assert mats[2][2][3] == Fraction(-1, 2)  # the dropped term
        assert mats[3][2][2] == Fraction(1, 2)  # the flipped sign


    def test_bracket_entries_read_the_structure_constants(self, monkeypatch):
        from dlwlab import symmetry
        from dlwlab.report import symmetry_suite

        consts, mats = structure_constants()
        tampered = dict(consts)
        tampered[(1, 2, 3)] = Fraction(5)
        monkeypatch.setattr(symmetry, "structure_constants", lambda: (tampered, mats))
        entries = {e.label: e for e in symmetry_suite(blocks=("brackets",)).entries}
        assert entries["bracket-X1-X2"].verdict == "fail"
        assert entries["bracket-X1-X2"].detail == "(5)*X3"
        assert entries["bracket-X1-X3"].verdict == "pass"

    def test_char_table_matches_per_pair_decomposition(self, phys):
        ps = characteristics()
        basis = [[reduce_on_shell(c, phys) for c in p.comp] for p in ps]
        table = char_structure_constants(ps, phys)
        assert list(table) == [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for (i, j), coords in table.items():
            want = decompose_components(tuple(char_bracket(ps[i], ps[j], phys).comp), basis)
            assert coords == tuple(want)
            assert all(type(c) is Fraction for c in coords)

    def test_failed_char_decomposition_fails_the_entry(self, monkeypatch):
        # the characteristic basis has two components, the generator basis
        # of structure_constants four: fail only the former
        from dlwlab import linalg
        from dlwlab.report import symmetry_suite

        real = linalg.Basis.coords

        def failing(self, target):
            return None if len(target) == 2 else real(self, target)

        monkeypatch.setattr(linalg.Basis, "coords", failing)
        entries = symmetry_suite(blocks=("brackets",)).entries
        failed = [e for e in entries if e.label.startswith("char-bracket-")]
        assert len(failed) == 6
        for e in failed:
            assert e.verdict == "fail", e.label
            assert e.detail.startswith("decomposition failed"), e.label
        assert all(e.verdict == "pass" for e in entries if e.label.startswith("bracket-X"))


def _reference_class(vec):
    return symmetry_reference.optimal_reduce(vec)[0]


# entries with zeros, negatives, plain ints and Fractions mixed
_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-40, max_value=40),
    st.builds(
        Fraction,
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=12),
    ),
)
# projective factors: any nonzero int or Fraction, negative included
_factors = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.builds(Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=9)),
).filter(bool)


def _exp_apply(mat, eps, vec):
    """exp(eps * mat) applied to ``vec``, summed until a term vanishes:
    a polynomial in eps for a nilpotent ``mat``."""
    total, term = list(vec), list(vec)
    for k in range(1, 6):
        term = [eps * sum((row[j] * term[j] for j in range(4)), JetPoly.zero()) / k for row in mat]
        if all(c.is_zero() for c in term):
            return total
        total = [a + b for a, b in zip(total, term)]
    raise AssertionError("generator matrix is not nilpotent")


def _scaled(e4, vec):
    """exp(eps * e4) applied to ``vec`` for a diagonal ``e4``, written in
    s = exp(-eps/2): entry k is multiplied by s^(-2 e4[k][k])."""
    return [JetPoly.param("s", int(-2 * e4[k][k])) * vec[k] for k in range(4)]


_L = [JetPoly.param(f"l{i}") for i in range(1, 5)]
_EPS = JetPoly.param("eps")


class TestOptimalSystem:
    def test_examples(self):
        for vec, cls in [
            ((0, 0, 0, 7), "X4"),
            ((1, 5, 0, 0), "X1"),
            ((1, 0, 2, 0), "X1+X3"),
            ((1, 0, -2, 0), "X1-X3"),
            ((0, -3, 0, 0), "X2"),
            ((0, 4, Fraction(-1, 3), 0), "X3"),
        ]:
            assert _reference_class(vec) == cls
            for c in (1, -1, 3, Fraction(-2, 7)):
                assert optimal_class([c * v for v in vec]) == cls, (vec, c)

    def test_zero_vector_rejected(self):
        with pytest.raises(JetError):
            optimal_class((0, 0, 0, 0))

    def test_scaling_component_absorbs_everything(self):
        # any vector with a nonzero fourth slot is conjugate to X4 alone
        for vec in ((0, 3, 0, 5), (1, 1, 1, 1), (Fraction(-1, 2), 0, Fraction(3, 4), Fraction(-5, 3))):
            assert _reference_class(vec) == "X4"
            for c in (1, -1, Fraction(5, 2)):
                assert optimal_class([c * v for v in vec]) == "X4"

    def test_flagged_details_of_the_printed_list(self):
        # optimal-vs-printed-list: X2 +- X4 reduces to X4; optimal-case-2.2:
        # X2 +- X3 is X3, so it leaves the printed list
        for sign in (1, -1):
            for vec, cls in (((0, 1, 0, sign), "X4"), ((0, 1, sign, 0), "X3")):
                assert optimal_class(vec) == cls
                assert _reference_class(vec) == cls

    def test_shift_maps_are_exponentials_of_the_generator_matrices(self):
        # T1-T3 of the reference are exp(eps E_i), E_i from the bracket table
        _, mats = structure_constants()
        for i in (1, 2, 3):
            want = symmetry_reference._TRANSFORMS[f"T{i}"](tuple(_L), _EPS)
            assert tuple(_exp_apply(mats[i - 1], _EPS, _L)) == want, i

    def test_scaling_map_is_diagonal(self):
        # E4 is diagonal, so exp(eps E4) = diag(exp(eps E4[k][k])); with
        # s = exp(-eps/2) > 0 that is diag(s^2, s, 1/s, 1)
        _, mats = structure_constants()
        e4 = mats[3]
        assert all(e4[r][k] == 0 for r in range(4) for k in range(4) if r != k)
        s = JetPoly.param("s")
        assert _scaled(e4, _L) == [s * s * _L[0], s * _L[1], JetPoly.param("s", -1) * _L[2], _L[3]]

    def test_maps_keep_the_invariant(self):
        # symbolically in l1..l4, eps, s and c: T1-T3 fix l4 and, on l4 = 0,
        # l1 and l3; T4 and a projective factor c multiply l1*l3 by s and c^2
        on_plane = (*_L[:3], JetPoly.zero())
        for name, t in symmetry_reference._TRANSFORMS.items():
            assert t(tuple(_L), _EPS)[3] == _L[3], name
            image = t(on_plane, _EPS)
            assert (image[0], image[2], image[3]) == (_L[0], _L[2], JetPoly.zero()), name
        s, c = JetPoly.param("s"), JetPoly.param("c")
        t4 = _scaled(structure_constants()[1][3], _L)
        assert t4[3] == _L[3]
        assert t4[0] * t4[2] == s * _L[0] * _L[2]
        assert (c * _L[0]) * (c * _L[2]) == c * c * _L[0] * _L[2]

    @given(
        vec=st.tuples(
            *[
                st.builds(
                    Fraction,
                    st.integers(min_value=-9, max_value=9),
                    st.integers(min_value=1, max_value=5),
                )
                for _ in range(4)
            ]
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_closure_and_replay(self, vec):
        # completeness: the reference's log, replayed with its maps, reaches
        # a normalized vector of the input's class, so every invariant class
        # is one orbit
        if all(v == 0 for v in vec):
            vec = (Fraction(1), *vec[1:])
        cls, norm, log = symmetry_reference.optimal_reduce(vec)
        assert cls in OPTIMAL_CLASSES
        cur = tuple(Fraction(v) for v in vec)
        for name, p in log:
            if name == "scale":
                cur = tuple(v / p for v in cur)
            else:
                cur = symmetry_reference._TRANSFORMS[name](cur, p)
        assert cur == norm
        assert optimal_class(norm) == optimal_class(vec) == cls

    def test_report_samples_match_reference(self):
        # the 1,000 vectors the symmetry suite's optimal block draws: the
        # block classifies the numerators, the reference the vector n/d
        rng = random.Random(report._OPTIMAL_SEED)
        for _ in range(1000):
            pairs = report._optimal_draw(rng)
            want = _reference_class([Fraction(n, d) for n, d in pairs])
            assert optimal_class([n for n, _ in pairs]) == want

    def test_report_draw_order_and_zero_fallback(self):
        # the block's 1,000 draws equal those of the randint reference, and
        # both leave the generator in the same state
        rng = random.Random(report._OPTIMAL_SEED)
        ref = random.Random(report._OPTIMAL_SEED)
        for _ in range(report._OPTIMAL_SAMPLES):
            assert report._optimal_draw(rng) == symmetry_reference.optimal_draw(ref)
        assert rng.getstate() == ref.getstate()

        # the bits, in order: per entry 5 for the numerator until one is
        # below 19, then 3 for the denominator until one is below 5; an
        # all-zero draw then picks the entry set to 1. Seed 20240917 never
        # draws all zeros in 1,000 samples (chance 19**-4 per sample), so a
        # stub stands in for it
        class Stub:
            def __init__(self, words, pick):
                self.words, self.pick, self.calls = iter(words), pick, []

            def getrandbits(self, k):
                self.calls.append(("getrandbits", k))
                return next(self.words)

            def randrange(self, n):
                self.calls.append(("randrange", n))
                return self.pick

        n, d = ("getrandbits", 5), ("getrandbits", 3)
        stub = Stub([9, 1, 9, 2, 31, 19, 9, 7, 5, 4, 9, 0], pick=2)
        assert report._optimal_draw(stub) == [(0, 2), (0, 3), (1, 1), (0, 1)]
        assert stub.calls == [n, d, n, d, n, n, n, d, d, d, n, d, ("randrange", 4)]
        assert optimal_class([0, 0, 1, 0]) == "X3"

        stub = Stub([9, 1, 6, 3, 9, 4, 18, 2], pick=0)
        assert report._optimal_draw(stub) == [(0, 2), (-3, 4), (0, 5), (9, 3)]
        assert stub.calls == [n, d] * 4
        assert optimal_class([0, -3, 0, 9]) == _reference_class([0, Fraction(-3, 4), 0, Fraction(9, 3)]) == "X4"

    @given(
        vec=st.lists(st.integers(min_value=-60, max_value=60), min_size=4, max_size=4).filter(any),
        c=_factors,
    )
    @settings(max_examples=400, deadline=None)
    def test_class_matches_reduce_and_reference(self, vec, c):
        want = _reference_class(vec)
        assert optimal_class(vec) == want
        assert optimal_class([c * v for v in vec]) == want
        assert _reference_class([c * v for v in vec]) == want

    @given(vec=st.lists(_entries, min_size=4, max_size=4), c=_factors)
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, vec, c):
        if all(v == 0 for v in vec):
            with pytest.raises(JetError):
                optimal_class(vec)
            return
        want = _reference_class(vec)
        assert optimal_class(vec) == want
        assert optimal_class([c * v for v in vec]) == want

    @pytest.mark.parametrize(
        "vec", [(0, 0, 0, 0), (Fraction(0), 0, Fraction(0, 3), 0), (1, 2, 3), (1, 2, 3, 4, 5), ()]
    )
    def test_bad_vectors_raise(self, vec):
        for classify in (optimal_class, symmetry_reference.optimal_reduce):
            with pytest.raises(JetError):
                classify(vec)


class TestSimilarityReductions:
    def test_both_reductions_reproduce(self, phys):
        checks = similarity_reduction_checks(phys)
        assert checks["X1+X3"]["match"]
        assert checks["X2+X4"]["match"]

    def test_computed_pairs_match_reference_recursion(self, phys, monkeypatch):
        checks = similarity_reduction_checks(phys)
        monkeypatch.setattr("dlwlab.symmetry._ansatz_reduction", symmetry_reference.ansatz_reduction)
        want = similarity_reduction_checks(phys)
        for key in ("X1+X3", "X2+X4"):
            assert checks[key]["computed"] == want[key]["computed"], key
