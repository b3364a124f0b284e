"""Core jet-arithmetic properties: total derivatives, on-shell
reduction, Euler operators, operator adjoints, and exactness."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlwlab
from dlwlab.jet import (
    DimensionMismatch,
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
    total_derivative,
    total_derivative_n,
)

import jet_reference
from conftest import jet_polys, to_sympy

u = JetPoly.var("u")
v = JetPoly.var("v")
ux = JetPoly.var("u", 1)
vx = JetPoly.var("v", 1)

# mixed (dx, dt) slots, explicit x/t powers and a Laurent parameter factor
mixed_polys = jet_polys(max_dt=2, params=("mu",))


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

    def test_sympy_cross_check(self):
        p = u * ux**2 * JetPoly.x() + v * JetPoly.var("u", 2) - JetPoly.t() * vx
        import sympy as sp

        ours = to_sympy(total_derivative(p, "x"))
        theirs = sp.diff(to_sympy(p), sp.Symbol("x"))
        assert sp.expand(ours - theirs) == 0


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


def _random_op_strategy():
    term = st.builds(
        OpTerm,
        jet_polys(max_dx=1, max_terms=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
    )
    entry = st.lists(term, min_size=0, max_size=2).map(tuple)
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
        out = total_derivative_n(p, 2, 1)
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
        x_only=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_euler_operator_matches_reference(self, p, dep, x_only):
        assert euler_operator(p, dep, x_only) == jet_reference.euler_operator(p, dep, x_only)

    @given(p=jet_polys(max_dt=2, max_terms=6, params=("mu",)), axis=st.sampled_from(("x", "t")))
    @settings(max_examples=150, deadline=None)
    def test_total_derivative_matches_reference(self, p, axis):
        assert total_derivative(p, axis) == jet_reference.total_derivative(p, axis)

    def test_x_only_keeps_t_derivative_free_slots(self):
        p = JetPoly.var("u", 0, 1) * ux
        uxt = JetPoly.var("u", 1, 1)
        assert euler_operator(p, "u", x_only=True) == -uxt
        assert euler_operator(p, "u") == uxt * -2


_PICKLE_SCRIPT = """
import pickle, sys
from dlwlab.jet import JetVar, parse_poly

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
