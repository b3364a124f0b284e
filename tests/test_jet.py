"""Core jet-arithmetic properties: total derivatives, on-shell
reduction, Euler operators, operator adjoints, and exactness."""

import gc
import os
import pickle
import subprocess
import sys
import threading
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlwlab
from dlwlab import jet, report
from dlwlab.jet import (
    DimensionMismatch,
    EvolutionSystem,
    JetError,
    JetMonomial,
    JetPoly,
    JetVar,
    LinearDiffOp,
    OpTerm,
    ReductionError,
    SolvedSystem,
    apply_op,
    euler_operator,
    formal_adjoint,
    parse_poly,
    reduce_on_shell,
    derivative_table,
    shared_towers,
    substitute_ansatz,
    sum_of_products,
    total_derivative,
)

import jet_reference
from conftest import jet_monomials, jet_polys, jet_vars, small_fractions, to_sympy

u = JetPoly.var("u")
v = JetPoly.var("v")
ux = JetPoly.var("u", 1)
vx = JetPoly.var("v", 1)

# mixed (dx, dt) slots, explicit x/t powers and a Laurent parameter factor
mixed_polys = jet_polys(max_dt=2, params=("mu",))

# five dependent variables, orders up to u[9,3], two Laurent parameters
DEEP_DEPS = ("q", "r", "u", "v", "w")
deep_polys = jet_polys(deps=DEEP_DEPS, max_dx=9, max_dt=3, max_terms=3, params=("mu", "nu"))

# Coefficients whose denominators (at most 60, built from the primes 2, 3,
# 5 and 7) share factors, so that sums and products over the lcm reduce,
# with numerators up to 10^6.
WIDE_DENOMINATORS = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21,
    24, 25, 27, 28, 30, 32, 35, 36, 40, 42, 45, 48, 49, 50, 54, 56, 60,
)
wide_fractions = st.builds(
    Fraction,
    st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
    st.sampled_from(WIDE_DENOMINATORS),
)
# few distinct monomials, so that terms meet and cancel
wide_terms = st.dictionaries(
    jet_monomials(max_dx=2, max_dt=1, max_factors=2, params=("mu",)),
    wide_fractions,
    max_size=5,
)


class TestTotalDerivative:
    def test_leibniz_product(self):
        assert total_derivative(u * v, "x") == ux * v + u * vx

    def test_coordinate_lift(self):
        assert total_derivative(u, "t") == JetPoly.var("u", 0, 1)

    def test_explicit_x_product_rule(self):
        p = JetPoly.x() * ux**2
        expected = ux**2 + JetPoly.x() * ux * JetPoly.var("u", 2) * 2
        assert total_derivative(p, "x") == expected

    def test_constant_derivative_vanishes(self):
        assert total_derivative(JetPoly.const(Fraction(7, 3)), "x").is_zero()

    @given(p=jet_polys(max_dt=1), q=jet_polys(max_dt=1))
    @settings(max_examples=60, deadline=None)
    def test_leibniz_rule_random(self, p, q):
        lhs = total_derivative(p * q, "x")
        rhs = total_derivative(p, "x") * q + p * total_derivative(q, "x")
        assert lhs == rhs

    @given(p=jet_polys(max_dt=2))
    @settings(max_examples=200, deadline=None)
    def test_dx_dt_commute(self, p):
        xt = total_derivative(total_derivative(p, "x"), "t")
        tx = total_derivative(total_derivative(p, "t"), "x")
        assert xt == tx

    @given(p=jet_polys(), q=jet_polys())
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, p, q):
        assert total_derivative(p + q, "t") == total_derivative(p, "t") + total_derivative(q, "t")

    @pytest.mark.parametrize("dx,dt", [(-1, 0), (0, -1), (-2, 3), (3, -2)])
    def test_negative_orders_raise(self, dx, dt):
        with pytest.raises(JetError, match="nonnegative"):
            derivative_table(u * vx)(dx, dt)

    def test_sympy_cross_check(self):
        p = u * ux**2 * JetPoly.x() + v * JetPoly.var("u", 2) - JetPoly.t() * vx
        import sympy as sp

        ours = to_sympy(total_derivative(p, "x"))
        theirs = sp.diff(to_sympy(p), sp.Symbol("x"))
        assert sp.expand(ours - theirs) == 0


class TestSubstituteAnsatz:
    D_X = staticmethod(lambda p: total_derivative(p, "x"))
    D_T = staticmethod(lambda p: total_derivative(p, "t"))

    @given(p=jet_polys(max_dt=2, params=("a",)))
    @settings(max_examples=60, deadline=None)
    def test_identity_ansatz_returns_its_input(self, p):
        assert substitute_ansatz(p, {"u": u, "v": v}, self.D_X, self.D_T) == p

    def test_explicit_coordinates_and_parameters_pass_through(self):
        a, x, t = JetPoly.param("a"), JetPoly.x(), JetPoly.t()
        p = a * x * t * JetPoly.var("u", 1, 1) + v
        # u[1,1] -> D_t D_x (x^2 t) = 2x, v -> a
        got = substitute_ansatz(p, {"u": x**2 * t, "v": a}, self.D_X, self.D_T)
        assert got == a * x**2 * t * 2 + a

    def test_name_outside_the_ansatz_raises(self):
        with pytest.raises(JetError, match="'w'"):
            substitute_ansatz(u * JetPoly.var("w", 2), {"u": u}, self.D_X, self.D_T)


class TestReduceOnShell:
    def test_base_substitution(self, phys):
        expected = -(u * ux + vx)
        assert reduce_on_shell(JetPoly.var("u", 0, 1), phys) == expected

    def test_prolonged_substitution(self, phys):
        expected = -(ux**2 + u * JetPoly.var("u", 2) + JetPoly.var("v", 2))
        assert reduce_on_shell(JetPoly.var("u", 1, 1), phys) == expected

    def test_already_reduced_unchanged(self, phys):
        p = ux * v + 3
        assert reduce_on_shell(p, phys) == p

    def test_potential_family_keeps_pure_t(self, pot):
        qt = JetPoly.var("q", 0, 1)
        assert reduce_on_shell(qt, pot) == qt
        qxt = JetPoly.var("q", 1, 1)
        expected = -(JetPoly.var("q", 1) * JetPoly.var("q", 2) + JetPoly.var("r", 2))
        assert reduce_on_shell(qxt, pot) == expected

    @given(p=jet_polys(max_dt=2, max_dx=2))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, phys, p):
        once = reduce_on_shell(p, phys)
        assert reduce_on_shell(once, phys) == once

    @given(p=jet_polys(max_dt=2, max_dx=2))
    @settings(max_examples=60, deadline=None)
    def test_no_reducible_vars_left(self, phys, p):
        out = reduce_on_shell(p, phys)
        assert all(w.dt == 0 for w in out.jet_vars())

    @staticmethod
    def _sympy_on_shell(expr, sys):
        """Replace every t-derivative by the same derivative of its solved
        form, u^j_[a,b] -> D_x^a D_t^(b-1) (-rhs^j), until none is left."""
        import sympy as sp

        x, t = sp.symbols("x t")
        rhs = {name: -to_sympy(g) for name, g in zip(sys.deps, sys.rhs)}
        while True:
            image = {}
            for d in expr.atoms(sp.Derivative):
                counts = dict(d.variable_count)
                if counts.get(t, 0):
                    orders = (x, counts.get(x, 0), t, counts[t] - 1)
                    image[d] = sp.diff(rhs[d.expr.func.__name__], *orders)
            if not image:
                return expr
            expr = sp.expand(expr.xreplace(image))

    @given(
        terms=st.lists(
            st.tuples(jet_monomials(max_dx=3, max_dt=2, max_factors=2), small_fractions),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_sympy_substitution(self, phys, terms):
        import sympy as sp

        p = JetPoly(dict(terms))
        out = reduce_on_shell(p, phys)
        assert not any(phys.solved().is_reducible(w) for w in out.jet_vars())
        expected = self._sympy_on_shell(to_sympy(p), phys)
        assert sp.expand(to_sympy(out) - expected) == 0

    def test_warm_reduction_is_one_substitution(self, phys, monkeypatch):
        p = JetPoly.var("u", 3, 2) * v + JetPoly.var("v", 1, 1) * JetPoly.x()
        cold = reduce_on_shell(p, phys)
        calls = []

        def counting(self, image, _substitute=JetPoly.substitute):
            calls.append(self)
            return _substitute(self, image)

        monkeypatch.setattr(JetPoly, "substitute", counting)
        assert reduce_on_shell(p, phys) == cold
        assert calls == [p]

    def test_cold_reduction_makes_no_copies(self, phys):
        # on a pair of its own, so its images are cold: most images are a
        # D_x of a t-free image, in which nothing is reducible, and a
        # substitution that replaces nothing returns its input
        fresh = EvolutionSystem(deps=phys.deps, rhs=phys.rhs, lead_dx=phys.lead_dx)
        calls = []

        def counting(self, image, _substitute=JetPoly.substitute):
            out = _substitute(self, image)
            calls.append((self, out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JetPoly, "substitute", counting)
            got = reduce_on_shell(JetPoly.var("u", 3, 2), fresh)
        assert got == reduce_on_shell(JetPoly.var("u", 3, 2), phys)
        assert len(calls) == 9
        assert sum(out is p for p, out in calls) == 7
        assert [p for p, out in calls if out == p and out is not p] == []

    def test_substitute_returns_its_input_only_when_nothing_is_replaced(self):
        p = u * vx + JetPoly.x() * Fraction(1, 2)
        assert p.substitute(lambda w: None) is p
        # a zero image is an image
        assert p.substitute(lambda w: JetPoly.zero() if w == JetVar("v", 1) else None) == JetPoly.x() * Fraction(1, 2)
        same = p.substitute(lambda w: u if w == JetVar("u") else None)
        assert same == p and same is not p

    def test_equal_systems_keep_their_own_images(self):
        rhs = (u * ux + vx, ux * v + u * vx + JetPoly.var("u", 3) * Fraction(1, 3))
        a, b = (EvolutionSystem(deps=("u", "v"), rhs=rhs) for _ in range(2))
        assert a == b and a.solved() is not b.solved()
        p = JetPoly.var("u", 1, 2) + JetPoly.var("v", 0, 1)
        got = reduce_on_shell(p, a)
        assert a.solved()._on_shell.images and not b.solved()._on_shell.images
        assert reduce_on_shell(p, b) == got
        images_a, images_b = a.solved()._on_shell.images, b.solved()._on_shell.images
        assert images_a == images_b
        assert all(images_a[w] is not images_b[w] for w in images_a)

    def test_nontermination_guard(self):
        # a malformed "solved" rule whose right side contains its own leader
        bad = SolvedSystem(rules=((JetVar("u", 0, 1), JetPoly.var("u", 0, 1) + u),))
        with pytest.raises(ReductionError):
            reduce_on_shell(JetPoly.var("u", 0, 1), bad)


class TestEulerOperator:
    def test_annihilates_divergence(self):
        assert euler_operator(total_derivative(u**2, "x"), "u").is_zero()

    def test_integration_by_parts(self):
        assert euler_operator(ux**2, "u") == JetPoly.var("u", 2) * -2

    def test_potential_lagrangian(self, pot):
        from dlwlab.conslaw import lagrangian

        g1, g2 = pot.equation_polys()
        assert euler_operator(lagrangian().density, "q") == g2
        assert euler_operator(lagrangian().density, "r") == g1

    def test_sympy_cross_check(self):
        import sympy as sp
        from sympy.calculus.euler import euler_equations

        from dlwlab.conslaw import lagrangian

        x, t = sp.symbols("x t")
        q = sp.Function("q")(x, t)
        r = sp.Function("r")(x, t)
        L = to_sympy(lagrangian().density, funcs={"q": q, "r": r})
        eqs = euler_equations(L, [q, r], [x, t])
        ours_q = to_sympy(euler_operator(lagrangian().density, "q"), funcs={"q": q, "r": r})
        ours_r = to_sympy(euler_operator(lagrangian().density, "r"), funcs={"q": q, "r": r})
        assert sp.expand(eqs[0].lhs - ours_q) == 0
        assert sp.expand(eqs[1].lhs - ours_r) == 0

    @given(ft=jet_polys(max_dx=2, max_dt=1), fx=jet_polys(max_dx=2, max_dt=1))
    @settings(max_examples=60, deadline=None)
    def test_divergences_are_annihilated(self, ft, fx):
        div = total_derivative(ft, "t") + total_derivative(fx, "x")
        assert euler_operator(div, "u").is_zero()
        assert euler_operator(div, "v").is_zero()

    @pytest.mark.parametrize("axis", ["x", "t"])
    def test_explicit_coordinate_is_no_dependent_variable(self, axis):
        p = u * JetPoly.x(2) * JetPoly.t() + ux
        with pytest.raises(JetError, match=f"'{axis}' is reserved for an explicit coordinate"):
            euler_operator(p, axis)

    def test_absent_dependent_variable_gives_zero(self):
        assert euler_operator(u * ux * JetPoly.x(), "w") == JetPoly.zero()


def _random_op_strategy(coeffs=jet_polys(max_dx=1, max_terms=2), max_dt=1, max_terms=2):
    term = st.builds(
        OpTerm,
        coeffs,
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=max_dt),
    )
    entry = st.lists(term, min_size=0, max_size=max_terms).map(tuple)
    row = st.tuples(entry, entry)
    return st.tuples(row, row).map(LinearDiffOp)


class TestLinearDiffOp:
    def test_identity_action(self):
        ident = LinearDiffOp.identity(2)
        assert apply_op(ident, (u, v)) == (u, v)

    def test_zero_action(self):
        zero = LinearDiffOp.zero(2)
        assert apply_op(zero, (u**2, vx)) == (JetPoly.zero(), JetPoly.zero())

    def test_diagonal_scaled_shift(self):
        # the x-translation operator from the symmetry catalog: -t D_x
        term = (OpTerm(-JetPoly.t(), 1, 0),)
        op = LinearDiffOp(((term, ()), ((), term)))
        out = apply_op(op, (v, u))
        assert out == (-JetPoly.t() * vx, -JetPoly.t() * ux)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_op(LinearDiffOp.identity(2), (u,))

    def test_orders_are_nonnegative_integers(self):
        # by JetVar's rule: 1.5 would reach apply_op as the order -0.5 and
        # 2.0 would silently differentiate twice
        for dx, dt in [(1.5, 0), (0, 2.0), ("1", 0), (None, 0)]:
            with pytest.raises(JetError, match=rf"^operator orders must be integers, got dx={dx!r}, dt={dt!r}$"):
                OpTerm(u, dx, dt)
        for dx, dt in [(-1, 0), (0, -2)]:
            with pytest.raises(JetError, match="^operator orders must be nonnegative$"):
                OpTerm(u, dx, dt)
        assert OpTerm(u, np.int64(2), np.int32(1)) == OpTerm(u, 2, 1)

    def test_first_order_adjoint_sign(self):
        dt_term = (OpTerm(-JetPoly.one(), 0, 1),)
        op = LinearDiffOp(((dt_term, ()), ((), dt_term)))
        adj = formal_adjoint(op)
        expected = LinearDiffOp(
            (((OpTerm(JetPoly.one(), 0, 1),), ()), ((), (OpTerm(JetPoly.one(), 0, 1),)))
        ).canonical()
        assert adj == expected

    def test_leibniz_expansion_of_coefficient_adjoint(self):
        op = LinearDiffOp((((OpTerm(u, 1, 0),),),))
        adj = formal_adjoint(op)
        (entry,) = adj.entries[0]
        by_order = {(term.dx, term.dt): term.coeff for term in entry}
        assert by_order[(1, 0)] == -u
        assert by_order[(0, 0)] == -ux

    @given(op=_random_op_strategy())
    @settings(max_examples=40, deadline=None)
    def test_double_adjoint(self, op):
        assert formal_adjoint(formal_adjoint(op)) == op.canonical()

    @given(
        op=_random_op_strategy(),
        w=st.tuples(jet_polys(max_terms=2), jet_polys(max_terms=2)),
        z=st.tuples(jet_polys(max_terms=2), jet_polys(max_terms=2)),
    )
    @settings(max_examples=15, deadline=None)
    def test_bilinear_identity(self, op, w, z):
        # z . M(w) - w . M*(z) is a total divergence, certified by the
        # Euler operators annihilating it
        mw = apply_op(op, w)
        mz = apply_op(formal_adjoint(op), z)
        defect = sum((zi * mi for zi, mi in zip(z, mw)), JetPoly.zero()) - sum(
            (wi * mi for wi, mi in zip(w, mz)), JetPoly.zero()
        )
        assert euler_operator(defect, "u").is_zero()
        assert euler_operator(defect, "v").is_zero()


class TestExactness:
    @given(p=jet_polys(), q=jet_polys())
    @settings(max_examples=50, deadline=None)
    def test_ring_axioms_spot(self, p, q):
        assert p - p == JetPoly.zero()
        assert p * q == q * p
        assert (p + q) - q == p

    @given(p=jet_polys(max_dt=1))
    @settings(max_examples=50, deadline=None)
    def test_all_coefficients_stay_rational(self, p):
        out = derivative_table(p)(2, 1)
        assert all(isinstance(c, Fraction) for c in out.terms.values())

    def test_float_never_enters(self):
        m = JetMonomial.make({JetVar("u", 1): 1})
        for build in (
            lambda: JetPoly({m: 0.5}),
            lambda: JetPoly.const(0.5),
            lambda: u * 0.5,
            lambda: u + 0.5,
        ):
            with pytest.raises(TypeError):
                build()

    def test_cancelling_total_derivative_stores_no_zero(self):
        # the u_x*v_x terms of D_x(u*v_x) and D_x(u_x*v) cancel
        out = total_derivative(u * vx - ux * v, "x")
        assert out == u * JetPoly.var("v", 2) - JetPoly.var("u", 2) * v
        assert all(c != 0 for c in out.terms.values())

    @given(p=mixed_polys)
    @settings(max_examples=60, deadline=None)
    def test_scalar_division_keeps_fractions(self, p):
        for r in (p / 3, p / Fraction(-4, 9), p * Fraction(2, 3)):
            assert len(r) == len(p)
            assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
        assert (p / Fraction(-4, 9)).terms == {m: c * Fraction(-9, 4) for m, c in p.terms.items()}

    @given(p=mixed_polys, q=mixed_polys)
    @settings(max_examples=60, deadline=None)
    def test_no_zero_coefficients_stored(self, p, q):
        assert p + (q - p) == q
        derived = (total_derivative(p, "x"), total_derivative(p, "t"))
        for r in (p + q, p - q, p * q, p + (q - p), *derived):
            assert all(isinstance(c, Fraction) and c != 0 for c in r.terms.values())


class TestKernelOracles:
    """The jet kernel against sympy and against the unoptimized reference
    in ``jet_reference``."""

    @staticmethod
    def _sympy_euler(p, dep):
        import sympy as sp
        from sympy.calculus.euler import euler_equations

        x, t = sp.symbols("x t")
        funcs = {name: sp.Function(name)(x, t) for name in ("u", "v")}
        # euler_equations drops an equation that evaluates to True or False,
        # so a marker term keeps it symbolic; its variational derivative is
        # the marker itself
        marker = sp.Symbol("marker")
        lagrangian = to_sympy(p, funcs=funcs) + marker * funcs[dep]
        (eq,) = euler_equations(lagrangian, [funcs[dep]], [x, t])
        return eq.lhs - marker, funcs

    @given(p=mixed_polys, dep=st.sampled_from(("u", "v")))
    @settings(max_examples=25, deadline=None)
    def test_euler_operator_matches_sympy(self, p, dep):
        import sympy as sp

        expected, funcs = self._sympy_euler(p, dep)
        assert sp.expand(to_sympy(euler_operator(p, dep), funcs=funcs) - expected) == 0

    @given(p=mixed_polys, axis=st.sampled_from(("x", "t")))
    @settings(max_examples=25, deadline=None)
    def test_total_derivative_matches_sympy(self, p, axis):
        import sympy as sp

        ours = to_sympy(total_derivative(p, axis))
        assert sp.expand(ours - sp.diff(to_sympy(p), sp.Symbol(axis))) == 0

    @given(
        p=jet_polys(max_dt=2, max_terms=6, params=("mu",)),
        dep=st.sampled_from(("u", "v")),
    )
    @settings(max_examples=150, deadline=None)
    def test_euler_operator_matches_reference(self, p, dep):
        assert euler_operator(p, dep) == jet_reference.euler_operator(p, dep)

    @given(p=jet_polys(max_dt=2, max_terms=6, params=("mu",)), axis=st.sampled_from(("x", "t")))
    @settings(max_examples=150, deadline=None)
    def test_total_derivative_matches_reference(self, p, axis):
        assert total_derivative(p, axis) == jet_reference.total_derivative(p, axis)

    @given(
        p=deep_polys,
        q=deep_polys,
        dep=st.sampled_from(DEEP_DEPS + ("s",)),
    )
    @settings(max_examples=60, deadline=None)
    def test_euler_operator_matches_reference_at_high_order(self, p, q, dep):
        # the square gives exponents above 1; "s" and any undrawn name are
        # dependent variables absent from p
        p = p + q**2
        assert euler_operator(p, dep) == jet_reference.euler_operator(p, dep)

    @pytest.mark.parametrize("dep", ["u", "v"])
    def test_euler_operator_past_any_fixed_order(self, dep):
        p = JetPoly.var("u", 40) ** 2 * JetPoly.var("v", 0, 7) * JetPoly.x(3)
        assert euler_operator(p, dep) == jet_reference.euler_operator(p, dep)

    def test_x_only_keeps_t_derivative_free_slots(self):
        # the reference's x-restricted variant, which law_multipliers reads
        p = JetPoly.var("u", 0, 1) * ux
        uxt = JetPoly.var("u", 1, 1)
        assert jet_reference.euler_operator(p, "u", x_only=True) == -uxt
        assert euler_operator(p, "u") == uxt * -2


def _assert_terms(poly, expected):
    assert poly.terms == expected
    assert all(type(c) is Fraction and c != 0 for c in poly.terms.values())
    # canonical form: equal to, and hashed as, the polynomial built anew
    rebuilt = JetPoly(expected)
    assert poly == rebuilt and hash(poly) == hash(rebuilt)


class TestIntegerKernel:
    """The kernel's integer numerators over one denominator against the
    ``Fraction``-dict reference in ``jet_reference``, which shares no code
    with ``JetPoly``."""

    @given(
        a=wide_terms,
        b=wide_terms,
        c=wide_fractions,
        v=jet_vars(max_dx=2, max_dt=1),
        axis=st.sampled_from(("x", "t")),
        dep=st.sampled_from(("u", "v")),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, a, b, c, v, axis, dep):
        p, q = JetPoly(a), JetPoly(b)
        _assert_terms(p, a)
        _assert_terms(p + q, jet_reference.frac_add(a, b))
        _assert_terms(p - q, jet_reference.frac_sub(a, b))
        _assert_terms(-p, jet_reference.frac_neg(a))
        _assert_terms(p * q, jet_reference.frac_mul(a, b))
        _assert_terms(p * c, jet_reference.frac_scale(a, c))
        _assert_terms(c * p, jet_reference.frac_scale(a, c))
        _assert_terms(p * c.denominator, jet_reference.frac_scale(a, Fraction(c.denominator)))
        _assert_terms(p.partial(v), jet_reference.frac_partial(a, v))
        _assert_terms(total_derivative(p, axis), jet_reference.frac_total_derivative(a, axis))
        _assert_terms(
            euler_operator(p, dep), jet_reference.frac_euler_operator(a, dep)
        )

    @given(a=wide_terms, b=wide_terms, dep=st.sampled_from(("u", "v")))
    @settings(max_examples=40, deadline=None)
    def test_euler_operator_of_product_matches_reference(self, a, b, dep):
        ab = jet_reference.frac_mul(a, b)
        got = euler_operator(JetPoly(a) * JetPoly(b), dep)
        _assert_terms(got, jet_reference.frac_euler_operator(ab, dep))

    @given(a=wide_terms, n=st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_product(self, a, n):
        p = JetPoly(a)
        _assert_terms(p**n, jet_reference.frac_pow(a, n))
        if n == 1:
            assert p**n is p

    @given(a=wide_terms)
    @settings(max_examples=60, deadline=None)
    def test_canonical_form(self, a):
        p = JetPoly(a)
        lhs = p * Fraction(1, 6) + p * Fraction(1, 3)
        rhs = p * Fraction(1, 2)
        assert lhs == rhs and hash(lhs) == hash(rhs)
        zero = p / 3 + p * Fraction(2, 3) - p
        assert zero.is_zero() and zero == JetPoly.zero() and hash(zero) == hash(JetPoly.zero())

    def test_pickled_state_is_a_fraction_dict(self):
        p = JetPoly.var("u", 1) * Fraction(3, 10) + JetPoly.param("mu", -1) * Fraction(-7, 4)
        cls, (terms,) = p.__reduce__()
        assert cls is JetPoly and terms == {
            JetMonomial.make({JetVar("u", 1): 1}): Fraction(3, 10),
            JetMonomial.make(params={"mu": -1}): Fraction(-7, 4),
        }
        assert all(type(c) is Fraction for c in terms.values())


def _assert_monomials_valid(poly):
    """Each monomial equals, with the same hash, the one the validating
    public constructor builds from its fields, and its generator tuples
    are sorted, distinct and free of zero exponents."""
    for m in poly.terms:
        public = JetMonomial(m.jet, m.xpow, m.tpow, m.params)
        assert public == m and hash(public) == hash(m)
        coords = [w for w, _ in m.jet]
        names = [n for n, _ in m.params]
        assert coords == sorted(set(coords)) and names == sorted(set(names))
        assert all(e > 0 for _, e in m.jet) and all(e != 0 for _, e in m.params)


class TestTrustedMonomials:
    """Every monomial the kernel derives without ``JetMonomial``'s checks
    passes them."""

    @given(
        p=mixed_polys,
        q=mixed_polys,
        w=jet_vars(max_dt=2),
        axis=st.sampled_from(("x", "t")),
        dep=st.sampled_from(("u", "v")),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_outputs_pass_the_public_checks(self, p, q, w, axis, dep):
        outputs = [
            p * q,
            p * JetPoly.param("mu", -1),
            total_derivative(p, axis),
            euler_operator(p, dep),
            p.partial(w),
            p.partial_explicit(axis),
            *p.coefficients_in(w).values(),
            *p.coefficients_in("mu").values(),
        ]
        for r in outputs:
            _assert_monomials_valid(r)


# (name, dx, dt) fields of coordinates, and monomials as
# ({fields: exponent}, xpow, tpow, {parameter: exponent})
var_fields = st.tuples(st.sampled_from(("u", "v", "q", "r_1")), st.integers(0, 3), st.integers(0, 2))
monomial_fields = st.tuples(
    st.dictionaries(var_fields, st.integers(1, 3), max_size=4),
    st.integers(0, 2),
    st.integers(0, 2),
    st.dictionaries(st.sampled_from(("mu", "T", "c")), st.integers(-2, 2).filter(bool), max_size=2),
)


def _both_monomials(fields):
    """The kernel monomial and the dataclass reference built from ``fields``."""
    powers, xpow, tpow, params = fields
    new = JetMonomial.make({JetVar(*f): e for f, e in powers.items()}, xpow, tpow, params)
    ref = jet_reference.JetMonomial.make(
        {jet_reference.JetVar(*f): e for f, e in powers.items()}, xpow, tpow, params
    )
    return new, ref


def _jet_error(build) -> str:
    with pytest.raises(JetError) as err:
        build()
    return str(err.value)


class TestTupleKeyTypes:
    """``JetVar`` and ``JetMonomial`` are tuples; they behave as the
    dataclasses in ``jet_reference`` did, except that each also equals the
    plain tuple of its fields, and a monomial hashes as the tuple of its
    coded fields."""

    @given(st.lists(var_fields, min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_vars_hash_compare_and_sort_as_before(self, fields):
        new = [JetVar(*f) for f in fields]
        ref = [jet_reference.JetVar(*f) for f in fields]
        assert [hash(v) for v in new] == [hash(r) for r in ref]
        for a, ra in zip(new, ref):
            assert [a == b for b in new] == [ra == rb for rb in ref]
            assert [a < b for b in new] == [ra < rb for rb in ref]
            assert (str(a), repr(a), a.order) == (str(ra), repr(ra), ra.order)
            assert [tuple(a.lifted(axis)) for axis in "xt"] == [
                (r.name, r.dx, r.dt) for r in (ra.lifted("x"), ra.lifted("t"))
            ]
        assert [tuple(v) for v in sorted(new)] == [(r.name, r.dx, r.dt) for r in sorted(ref)]

    @given(st.lists(monomial_fields, min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_monomials_agree_with_the_dataclass(self, fields):
        pairs = [_both_monomials(f) for f in fields]
        for new, ref in pairs:
            rebuilt = JetMonomial(new.jet, new.xpow, new.tpow, new.params)
            assert rebuilt == new and hash(rebuilt) == hash(new)
            assert [(tuple(v), e) for v, e in new.jet] == [((r.name, r.dx, r.dt), e) for r, e in ref.jet]
            assert new.sort_key() == ref.sort_key()
            assert new.degree == ref.degree
            assert (str(new), repr(new)) == (str(ref), repr(ref))
            assert [new == other for other, _ in pairs] == [ref == other for _, other in pairs]

    @given(monomial_fields)
    @settings(max_examples=40, deadline=None)
    def test_pickle_round_trip(self, fields):
        new, ref = _both_monomials(fields)
        for value, reference in [(new, ref), *zip((v for v, _ in new.jet), (r for r, _ in ref.jet))]:
            back = pickle.loads(pickle.dumps(value))
            assert type(back) is type(value) and back == value and hash(back) == hash(value)
            assert repr(back) == repr(reference)

    @given(
        name=st.sampled_from(("x", "t")),
        count=st.integers(max_value=-1),
        nonpositive=st.integers(max_value=0),
        negative=st.integers(max_value=-1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bad_fields_raise_the_same_error(self, name, count, nonpositive, negative):
        bad_vars = [(name, 0, 0), (name, 1, 2), ("u", count, 0), ("u", 0, count)]
        for f in bad_vars:
            error = _jet_error(lambda: jet_reference.JetVar(*f))
            assert _jet_error(lambda: JetVar(*f)) == error
            assert _jet_error(lambda: JetVar._make(f)) == error
            assert _jet_error(lambda: JetVar("u")._replace(name=f[0], dx=f[1], dt=f[2])) == error
        bad_monomials = [
            (((("u", 1, 0), nonpositive),), 0, 0, ()),
            ((), 0, 0, (("mu", 0),)),
            ((), negative, 0, ()),
            ((), 0, negative, ()),
        ]
        for jet, xpow, tpow, params in bad_monomials:
            new_jet = tuple((JetVar(*f), e) for f, e in jet)
            ref_jet = tuple((jet_reference.JetVar(*f), e) for f, e in jet)
            error = _jet_error(lambda: jet_reference.JetMonomial(ref_jet, xpow, tpow, params))
            assert _jet_error(lambda: JetMonomial(new_jet, xpow, tpow, params)) == error
            assert _jet_error(lambda: JetMonomial._make((new_jet, xpow, tpow, params))) == error
            assert _jet_error(lambda: JetMonomial()._replace(jet=new_jet, xpow=xpow, tpow=tpow, params=params)) == error

    def test_counts_stay_below_the_code_width(self):
        """A count takes K bits of a code, and a coordinate starts below
        2**(K-1), so total derivatives and the Euler operator's doubling
        never carry into the next field."""
        limit = 2 ** (jet._K - 1)
        top = JetPoly.var("u", limit - 1, limit - 1)
        assert str(total_derivative(top, "x")) == f"u[{limit},{limit - 1}]"
        lifted_t = total_derivative(top * JetPoly.var("v"), "t")
        assert str(lifted_t) == f"u[{limit - 1},{limit - 1}]*v[0,1] + u[{limit - 1},{limit}]*v[0,0]"
        # numpy counts code as the equal Python ints, whatever the name's id
        assert JetPoly.var("v", np.int64(2), np.int32(1)) == JetPoly.var("v", 2, 1)
        for dx, dt in [(1.5, 0), (0, 2.0), ("1", 0)]:
            with pytest.raises(JetError, match=rf"^derivative counts must be integers, got dx={dx!r}, dt={dt!r}$"):
                JetVar("u", dx, dt)
        for dx, dt in [(limit, 0), (0, limit), (4 * limit, 1)]:
            message = rf"^derivative counts must be below 2\*\*{jet._K - 1}, got dx={dx}, dt={dt}$"
            with pytest.raises(JetError, match=message):
                JetVar("u", dx, dt)

    def test_names_coded_from_many_threads_keep_distinct_ids(self, monkeypatch):
        names = [f"thread{i}_{j}" for i in range(8) for j in range(50)]

        def slow_len(obj, _len=len):
            n = _len(obj)
            time.sleep(1e-5)  # widens any window between reading and growing the registry
            return n

        monkeypatch.setattr(jet, "len", slow_len, raising=False)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda part=names[i::8]: [JetPoly.var(n) for n in part]) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert [str(JetPoly.var(n, 1)) for n in names] == [f"{n}[1,0]" for n in names]

    def test_no_sequence_arithmetic(self):
        v = JetVar("u", 1)
        m = JetMonomial.make({v: 2}, params={"mu": -1})
        for op in (lambda: v + v, lambda: v * 2, lambda: 2 * v, lambda: m + m, lambda: 2 * m, lambda: m * 3):
            with pytest.raises(TypeError):
                op()
        assert m * m == JetMonomial.make({v: 4}, params={"mu": -2})

    def test_equal_to_the_plain_tuple_of_its_fields(self):
        v = JetVar("u", 1)
        m = JetMonomial.make({v: 2}, 1)
        assert v == ("u", 1, 0) and hash(v) == hash(("u", 1, 0))
        assert (m.jet, m.xpow, m.tpow, m.params) == (((("u", 1, 0), 2),), 1, 0, ())
        assert m == (m.codes, 1, 0, ()) and hash(m) == hash((m.codes, 1, 0, ()))
        assert jet_reference.JetVar("u", 1) != ("u", 1, 0)


_PICKLE_SCRIPT = """
import pickle, sys
from dlwlab.jet import JetPoly, JetVar, parse_poly

if sys.argv[1] == "load":
    # other names first, so that this process codes u and v unlike the dump
    {JetPoly.var(name) for name in ("r_1", "v", "q")}
p = parse_poly("(3/2)*u[2,0]*v[0,1]^2*x*mu^-1 + u[0,0]*u[1,0] + (-7)*v[3,1]*t^2")
if sys.argv[1] == "dump":
    {p}  # caches the polynomial's hash before it is pickled
    sys.stdout.buffer.write(pickle.dumps(p))
else:
    q = pickle.loads(sys.stdin.buffer.read())
    assert p == q
    assert (p - q).is_zero()
    assert JetVar("u", 2) in q.jet_vars()
    assert q in {p}
    assert str(q) == str(p)
"""

# Random polynomials built by the kernel (products, total derivatives, Euler
# operators, substitutions) and printed, one per line; with "reverse", the
# names are first coded in reverse order.
_FORMAT_SCRIPT = """
import random, sys
from fractions import Fraction
from dlwlab.jet import JetPoly, euler_operator, format_poly, total_derivative

NAMES = ("U", "q", "r_1", "u", "v", "w")
if sys.argv[1] == "reverse":
    {JetPoly.var(name) for name in reversed(NAMES)}
rng = random.Random(2610)

def poly():
    out = JetPoly.zero()
    for _ in range(rng.randint(1, 4)):
        term = JetPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        for _ in range(rng.randint(0, 3)):
            term = term * JetPoly.var(rng.choice(NAMES), rng.randint(0, 3), rng.randint(0, 2))
        out = out + term * JetPoly.x(rng.randint(0, 1)) * JetPoly.param("mu", rng.randint(-1, 1))
    return out

for _ in range(60):
    p, q = poly(), poly()
    name = rng.choice(NAMES)
    outputs = [p * q, total_derivative(p, "x"), total_derivative(q, "t"), euler_operator(p * q, name)]
    outputs.append(p.substitute(lambda v: q if v.name == name else None))
    outputs.append(p.remap_vars(lambda v: v.lifted("x")))
    print(" | ".join(format_poly(r) for r in outputs))
"""


class TestPickling:
    def test_hashes_recomputed_under_another_hash_seed(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(dlwlab.__file__)))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)

        def run(mode, seed, data=None):
            proc = subprocess.run(
                [sys.executable, "-c", _PICKLE_SCRIPT, mode],
                input=data,
                env=dict(env, PYTHONHASHSEED=seed),
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        run("load", "2", run("dump", "1"))

    def test_code_order_decides_no_output(self):
        """Codes depend on the order in which a process first meets the
        names; the printed forms do not."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(dlwlab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

        def run(mode):
            proc = subprocess.run([sys.executable, "-c", _FORMAT_SCRIPT, mode], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        plain = run("plain")
        assert plain.count("\n") == 60 and run("reverse") == plain


class TestCoefficientsIn:
    """``JetPoly.coefficients_in`` replaces two power extractors; each is
    kept here, as it was, as the oracle for its kind of generator."""

    @staticmethod
    def powers_of_jet_var(p, w):  # adjoint._extract_powers
        out = {}
        for m, c in p.items():
            jet = dict(m.jet)
            k = jet.pop(w, 0)
            rest = JetPoly({JetMonomial.make(jet, m.xpow, m.tpow, dict(m.params)): c})
            out[k] = out.get(k, JetPoly.zero()) + rest
        return {k: v for k, v in out.items() if not v.is_zero()}

    @staticmethod
    def powers_of_param(eq, name):  # the loop of waves.tanh_ansatz_system
        by_power = {}
        for m, c in eq.items():
            params = dict(m.params)
            k = params.pop(name, 0)
            rest = JetPoly({JetMonomial.make(dict(m.jet), m.xpow, m.tpow, params): c})
            by_power[k] = by_power.get(k, JetPoly.zero()) + rest
        return [by_power[k] for k in sorted(by_power) if not by_power[k].is_zero()]

    @settings(max_examples=60, deadline=None)
    @given(jet_polys(max_terms=6, params=("T",)), jet_vars())
    def test_jet_coordinate(self, p, w):
        got = p.coefficients_in(w)
        assert got == self.powers_of_jet_var(p, w)
        rebuilt = JetPoly.zero()
        for k, a in got.items():
            assert w not in a.jet_vars()
            rebuilt = rebuilt + a * JetPoly.from_var(w) ** k
        assert rebuilt == p

    @settings(max_examples=60, deadline=None)
    @given(jet_polys(max_terms=6, params=("T", "mu")))
    def test_parameter(self, p):
        got = p.coefficients_in("T")
        assert [got[k] for k in sorted(got)] == self.powers_of_param(p, "T")
        assert all("T" not in a.param_names() for a in got.values())
        assert sum((a * JetPoly.param("T", k) if k else a for k, a in got.items()), JetPoly.zero()) == p

    def test_tanh_ansatz_system_keeps_nine_equations(self):
        from dlwlab.waves import tanh_ansatz_system

        assert len(tanh_ansatz_system()) == 9


# Polynomials with wide, shared denominators, a Laurent parameter and
# explicit x and t; the empty dict makes the zero polynomial.
wide_polys = wide_terms.map(JetPoly)
# exponents above 1: a square of a polynomial with repeated coordinates
wide_powers = st.tuples(wide_terms, wide_terms).map(lambda ab: JetPoly(ab[0]) + JetPoly(ab[1]) ** 2)
wide_ops = _random_op_strategy(wide_polys, max_dt=2, max_terms=3)


class TestSumsOfProducts:
    """Every sum of products of the kernel, rewritten over
    ``sum_of_products`` and ``derivative_table``, equals its unoptimized
    loop in ``jet_reference`` under ``==``, and ``sum_of_products`` equals
    the ``Fraction``-dict arithmetic."""

    @given(pairs=st.lists(st.tuples(wide_terms, wide_terms), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_sum_of_products_matches_fraction_reference(self, pairs):
        expected: dict = {}
        for a, b in pairs:
            expected = jet_reference.frac_add(expected, jet_reference.frac_mul(a, b))
        _assert_terms(sum_of_products((JetPoly(a), JetPoly(b)) for a, b in pairs), expected)

    @given(p=wide_powers, images=st.dictionaries(jet_vars(max_dx=2, max_dt=1), wide_polys, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_substitute_matches_reference(self, p, images):
        got = p.substitute(images.get)
        assert got == jet_reference.substitute(p, images.get)
        _assert_terms(got, dict(got.terms))

    @given(
        p=wide_powers,
        images=st.dictionaries(jet_vars(max_dx=2, max_dt=1), wide_polys, max_size=4),
        x_image=st.none() | wide_polys,
        t_image=st.none() | wide_polys,
        mu_image=st.none() | wide_polys,
    )
    @settings(max_examples=100, deadline=None)
    def test_derive_matches_reference(self, p, images, x_image, t_image, mu_image):
        def var_image(v):
            return images.get(v, JetPoly.zero())

        param_image = None if mu_image is None else {"mu": mu_image}.get
        got = p.derive(var_image, x_image, t_image, param_image)
        assert got == jet_reference.derive(p, var_image, x_image, t_image, param_image)

    @given(op=wide_ops, w=st.tuples(wide_powers, mixed_polys))
    @settings(max_examples=60, deadline=None)
    def test_apply_op_matches_reference(self, op, w):
        assert apply_op(op, w) == jet_reference.apply_op(op, w)

    @given(op=wide_ops)
    @settings(max_examples=60, deadline=None)
    def test_formal_adjoint_matches_reference(self, op):
        assert formal_adjoint(op) == jet_reference.formal_adjoint(op)

    @given(p=mixed_polys, a=st.integers(min_value=0, max_value=3), b=st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_derivative_table_matches_reference(self, p, a, b):
        d = derivative_table(p)
        assert d(a, b) == jet_reference.total_derivative_n(p, a, b)
        assert d(0, 0) is p

    def test_derivative_table_takes_each_map_once_per_entry(self):
        calls = []

        def along(axis):
            def d(word):
                calls.append(axis)
                return word + axis

            return d

        d = derivative_table("p", along("x"), along("t"))
        for a, b in [(2, 1), (2, 1), (1, 1), (3, 0), (0, 2), (2, 1), (0, 0)]:
            assert d(a, b) == "p" + "x" * a + "t" * b
        # (1,0), (2,0), (2,1); (1,1); (3,0); (0,1), (0,2)
        assert calls == ["x", "x", "t", "t", "x", "t", "t"]

    @pytest.mark.parametrize("dx,dt", [(-1, 0), (0, -1), (2, -1)])
    def test_derivative_table_rejects_negative_orders(self, dx, dt):
        with pytest.raises(JetError, match="nonnegative"):
            derivative_table(u)(dx, dt)


class TestKernelCost:
    """What a sum of products pays for: each distinct derivative of an
    operand once per call, and one normalization per sum."""

    @staticmethod
    def counting_total_derivatives(monkeypatch) -> list:
        calls = []

        def counting(p, axis, _derive=jet.total_derivative):
            calls.append(axis)
            return _derive(p, axis)

        monkeypatch.setattr(jet, "total_derivative", counting)
        return calls

    @staticmethod
    def counting_normalizations(monkeypatch) -> list:
        calls = []

        def counting(num, den=1, _of=JetPoly._of):
            calls.append(den)
            return _of(num, den)

        monkeypatch.setattr(JetPoly, "_of", staticmethod(counting))
        return calls

    def test_apply_op_takes_each_distinct_derivative_once(self, monkeypatch):
        # both rows apply D_x^2 and D_x D_t to the first component and D_t
        # to the second
        row = ((OpTerm(v, 2, 0), OpTerm(u * JetPoly.x(), 1, 1)), (OpTerm(ux * Fraction(1, 3), 0, 1),))
        op = LinearDiffOp((row, row))
        w = (u * vx + JetPoly.t(), v**2 * Fraction(2, 5))
        expected = jet_reference.apply_op(op, w)
        calls = self.counting_total_derivatives(monkeypatch)
        assert apply_op(op, w) == expected
        # D_x, D_x^2 and D_x D_t of the first component, D_t of the second
        assert sorted(calls) == ["t", "t", "x", "x"]

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 2), (2, 1), (3, 2)])
    def test_formal_adjoint_takes_one_chain_per_term(self, monkeypatch, a, b):
        op = LinearDiffOp((((OpTerm(u * vx * Fraction(1, 2) + JetPoly.x() * JetPoly.t(), a, b),),),))
        expected = jet_reference.formal_adjoint(op)
        calls = self.counting_total_derivatives(monkeypatch)
        assert formal_adjoint(op) == expected
        assert len(calls) == (a + 1) * (b + 1) - 1

    def test_substitute_normalizes_once(self, monkeypatch):
        ut = JetPoly.var("u", 0, 1)
        p = u * vx * Fraction(1, 6) + ut * Fraction(2, 15) + v * JetPoly.x() + u * ut
        images = {
            JetVar("u"): v * Fraction(1, 4) + ux,
            JetVar("u", 0, 1): vx * Fraction(3, 10) - u,
            JetVar("v", 1): JetPoly.zero(),
        }
        expected = jet_reference.substitute(p, images.get)
        calls = self.counting_normalizations(monkeypatch)
        assert p.substitute(images.get) == expected
        assert len(calls) == 1

    def test_euler_operator_derives_in_place_and_normalizes_once(self, monkeypatch):
        ut = JetPoly.var("u", 0, 1)
        p = ux**2 * v * Fraction(1, 6) + ut * JetPoly.var("u", 2, 1) * Fraction(3, 4)
        p = p + JetPoly.var("v", 3) * u * JetPoly.x()
        expected = jet_reference.euler_operator(p, "u")
        derivatives = self.counting_total_derivatives(monkeypatch)
        normalizations = self.counting_normalizations(monkeypatch)
        assert euler_operator(p, "u") == expected
        assert derivatives == []
        assert len(normalizations) == 1

    def test_sum_of_products_normalizes_once(self, monkeypatch):
        pairs = [(u * Fraction(1, 6), vx + JetPoly.t()), (ux * Fraction(3, 4), v * Fraction(2, 9)), (v, u)]
        expected = sum((a * b for a, b in pairs), JetPoly.zero())
        calls = self.counting_normalizations(monkeypatch)
        assert sum_of_products(pairs) == expected
        assert len(calls) == 1


# polynomials with a parameter and explicit x and t in every draw: u[4,0]
# is above mixed_polys' orders, so the added term never cancels
xt_polys = st.builds(
    lambda p, c: p + JetPoly.x() * JetPoly.t(2) * JetPoly.param("mu", -1) * JetPoly.var("u", 4) * c,
    mixed_polys,
    small_fractions.filter(bool),
)
TOWER_ORDERS = [(a, b) for a in range(4) for b in range(3)]


class TestSharedTowers:
    """Inside ``shared_towers()`` each polynomial has one tower of D_x and
    D_t, whichever equal object asks for it; outside it, and for
    tables of other maps, every call gets a table of its own."""

    counting_total_derivatives = staticmethod(TestKernelCost.counting_total_derivatives)

    @given(p=xt_polys, order=st.permutations(TOWER_ORDERS))
    @settings(max_examples=40, deadline=None)
    def test_shared_tower_matches_reference(self, p, order):
        twin = JetPoly(p.terms)
        assert twin == p and twin is not p
        with shared_towers():
            d = derivative_table(p)
            assert derivative_table(twin) is d
            for a, b in order:
                assert d(a, b) == jet_reference.total_derivative_n(p, a, b), (a, b)
            assert d(0, 0) is p

    def test_nothing_outlives_the_scope(self, monkeypatch):
        p = u * vx + JetPoly.t()
        calls = self.counting_total_derivatives(monkeypatch)
        with shared_towers():
            first = derivative_table(p)
            assert first(2, 1) == jet_reference.total_derivative_n(p, 2, 1)
            assert derivative_table(p)(2, 1) == first(2, 1)
            # (1,0), (2,0), (2,1), each once
            assert len(calls) == 3
            with shared_towers():  # a nested scope starts with no towers
                assert derivative_table(p) is not first
            assert derivative_table(p) is first
        assert jet._TOWERS.get() is None
        assert derivative_table(p) is not first
        with shared_towers():
            assert jet._TOWERS.get() == {}
            second = derivative_table(p)
            assert second is not first
            second(2, 1)
            assert len(calls) == 6

    def test_towers_are_freed_when_the_scope_ends(self):
        # with the cyclic collector off: a table is no reference cycle, so
        # a run's towers go the moment its scope ends
        gc.disable()
        try:
            with shared_towers():
                d = derivative_table(u * vx + JetPoly.t())
                d(3, 2)
                ref = weakref.ref(d)
                del d
                assert ref() is not None
            assert ref() is None
        finally:
            gc.enable()

    def test_outside_a_scope_every_call_builds_its_table(self, monkeypatch):
        row = ((OpTerm(v, 2, 0), OpTerm(u * JetPoly.x(), 1, 1)), (OpTerm(ux * Fraction(1, 3), 0, 1),))
        op = LinearDiffOp((row, row))
        w = (u * vx + JetPoly.t(), v**2 * Fraction(2, 5))
        calls = self.counting_total_derivatives(monkeypatch)
        assert derivative_table(u) is not derivative_table(u)
        first = apply_op(op, w)
        assert apply_op(op, w) == first
        # the four derivatives of TestKernelCost, paid by each call
        assert len(calls) == 8
        with shared_towers():
            assert apply_op(op, w) == first
            assert apply_op(op, w) == first
        assert len(calls) == 12

    def test_a_thread_started_in_the_scope_sees_none(self):
        seen = []

        def work():
            seen.append(jet._TOWERS.get())
            seen.append(derivative_table(u) is derivative_table(u))

        with shared_towers():
            tower = derivative_table(u)
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
            assert derivative_table(u) is tower
            assert list(jet._TOWERS.get()) == [u]
        assert seen == [None, False]

    def test_tables_of_other_maps_are_never_shared(self):
        p = u * ux

        def same_dx(q):
            return total_derivative(q, "x")

        def same_dt(q):
            return total_derivative(q, "t")

        with shared_towers():
            shared = derivative_table(p)
            assert shared(1, 0) == total_derivative(p, "x")
            own = derivative_table(p, same_dx, same_dt)
            assert own is not shared and own is not derivative_table(p, same_dx, same_dt)
            assert own(1, 0) == shared(1, 0) and own(1, 0) is not shared(1, 0)
            doubled = derivative_table(p, lambda q: q + q, lambda q: q * 3)
            assert doubled(1, 1) == p * 6
            assert shared(1, 1) == jet_reference.total_derivative_n(p, 1, 1)
            assert list(jet._TOWERS.get()) == [p]

    @pytest.mark.parametrize("suite,pinned", [("symmetry", 24), ("adjoint", 112), ("conslaw", 33)])
    def test_each_catalog_suite_builds_each_tower_once(self, monkeypatch, suite, pinned):
        """The total derivatives of one warm run of a catalog suite, whose
        blocks share a tower per polynomial (54, 404 and 53 when each call
        built its own)."""
        report.run_suite(suite)  # warms the reducers, which live with the systems
        calls = self.counting_total_derivatives(monkeypatch)
        report.run_suite(suite)
        assert len(calls) == pinned
