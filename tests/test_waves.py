"""Traveling-wave reduction, first integrals, the tanh coefficient
system, and numeric constancy of the integrals along the reduced flow."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlwlab import waves
from dlwlab.conslaw import direct_laws
from dlwlab.jet import EvolutionSystem, JetError, JetMonomial, JetPoly, JetVar, reduce_on_shell
from dlwlab.report import run_suite
from dlwlab.systems import physical_system
from dlwlab.waves import (
    ROOT3,
    ExplicitCoordinateError,
    MU,
    evaluate_at_point,
    first_integral,
    first_integral_derivative,
    printed_first_integrals,
    reduce_traveling,
    tanh_ansatz_system,
    tanh_solution_point,
    traveling_solved_system,
    traveling_substitute,
)

import waves_reference as reference
from conftest import jet_polys, small_fractions, to_sympy


def U(dx=0):
    return JetPoly.var("U", dx)


def V(dx=0):
    return JetPoly.var("V", dx)


class TestReduction:
    def test_both_equations(self, phys):
        ode = reduce_traveling(phys)
        assert ode.equations[0] == -MU * U(1) + U() * U(1) + V(1)
        assert ode.equations[1] == -MU * V(1) + U() * V(1) + V() * U(1) + U(3) / 3

    def test_stationary_reduction(self, phys):
        ode = reduce_traveling(phys, 0)
        assert ode.equations[0] == U() * U(1) + V(1)
        assert ode.equations[1] == U() * V(1) + V() * U(1) + U(3) / 3

    def test_substitution_of_t_derivatives(self):
        # D_t^2 picks up mu^2
        p = JetPoly.var("u", 0, 2)
        assert traveling_substitute(p) == MU**2 * U(2)


class TestOneSubstitution:
    """The reductions substitute into ``physical_system()`` through
    ``jet.substitute_ansatz`` and equal the hand-typed references."""

    SPEEDS = (MU, Fraction(3, 2), 0)

    @given(p=jet_polys(deps=("u", "v"), max_dt=2, allow_xt=False))
    @settings(max_examples=60, deadline=None)
    def test_traveling_substitute_matches_reference(self, p):
        for mu in self.SPEEDS:
            assert traveling_substitute(p, mu) == reference.traveling_substitute(p, mu)

    def test_tanh_system_matches_reference(self):
        assert tanh_ansatz_system() == reference.tanh_ansatz_system()

    @pytest.mark.parametrize("mu", SPEEDS + (1, Fraction(-3, 7)), ids=str)
    def test_solved_system_matches_reference(self, mu):
        assert traveling_solved_system(mu).rules == reference.traveling_solved_system(mu).rules

    def test_name_outside_the_ansatz_raises(self):
        with pytest.raises(JetError, match="'w1'"):
            traveling_substitute(JetPoly.var("u", 1) * JetPoly.var("w1"))

    def test_solved_form_needs_a_rational_leading_coefficient(self, monkeypatch):
        pair = physical_system()
        g1, g2 = pair.rhs
        # v_x -> u v_x: V' enters the reduced first equation times U
        g1 = g1 - JetPoly.var("v", 1) * (1 - JetPoly.var("u"))
        bent = EvolutionSystem(pair.deps, (g1, g2), pair.lead_dx)
        monkeypatch.setattr("dlwlab.waves.physical_system", lambda: bent)
        with pytest.raises(JetError, match=r"V\[1,0\] does not enter linearly"):
            traveling_solved_system()

    def test_tanh_system_reads_the_pair(self, monkeypatch):
        pair = physical_system()
        g1, g2 = pair.rhs
        without = EvolutionSystem(pair.deps, (g1, g2 - JetPoly.var("u", 3) / 3), pair.lead_dx)
        before = tanh_ansatz_system()
        monkeypatch.setattr("dlwlab.waves.physical_system", lambda: without)
        after = tanh_ansatz_system()
        assert after != before
        # the kink balances the dispersive term, so without it it fails
        assert not all(evaluate_at_point(eq, tanh_solution_point()).is_zero() for eq in after)


class TestFirstIntegrals:
    def test_c3_matches_printed_exactly(self):
        fi = first_integral(direct_laws()["eq32"])
        assert fi.expr == printed_first_integrals()["eq80"]

    def test_c4_matches_printed_exactly(self):
        fi = first_integral(direct_laws()["eq33"])
        assert fi.expr == printed_first_integrals()["eq81"]

    def test_c2_equals_printed_modulo_flow(self):
        fi = first_integral(direct_laws()["eq31"])
        diff = reduce_on_shell(
            fi.expr - printed_first_integrals()["eq79"], traveling_solved_system()
        )
        assert diff.is_zero()

    def test_all_derivatives_vanish(self):
        for label in ("eq29", "eq31", "eq32", "eq33"):
            fi = first_integral(direct_laws()[label])
            assert first_integral_derivative(fi).is_zero(), label

    def test_rational_speed_variant(self):
        fi = first_integral(direct_laws()["eq32"], Fraction(3, 2))
        assert first_integral_derivative(fi, Fraction(3, 2)).is_zero()

    def test_waves_suite_reduces_the_pair_once(self, monkeypatch):
        # the suite's four derivatives and its printed-form check share
        # one solved traveling system
        calls = []
        monkeypatch.setattr(waves, "reduce_traveling", lambda *a: calls.append(a) or reduce_traveling(*a))
        waves._solved_system.cache_clear()
        run_suite("waves")
        assert len(calls) == 1

    def test_explicit_coordinates_rejected(self):
        with pytest.raises(ExplicitCoordinateError):
            first_integral(direct_laws()["eq30"])

    def test_numeric_constancy_along_integrated_profile(self):
        # integrate the reduced system from a point on the kink profile
        # with RK4 and track each integral: all four stay constant
        mu = 1.0
        s3 = math.sqrt(3.0)

        def profile(xi):
            th = math.tanh(xi)
            sech2 = 1.0 - th * th
            u0 = mu + (2.0 / s3) * th
            u1 = (2.0 / s3) * sech2
            u2 = -(4.0 / s3) * th * sech2
            v0 = (2.0 / 3.0) * sech2
            return [u0, u1, u2, v0]

        def ode_rhs(y):
            u0, u1, u2, v0 = y
            u3 = 3.0 * (mu - u0) ** 2 * u1 - 3.0 * v0 * u1
            v1 = (mu - u0) * u1
            return [u1, u2, u3, v1]

        solved = traveling_solved_system()
        integrals = []
        for label in ("eq29", "eq31", "eq32", "eq33"):
            fi = first_integral(direct_laws()[label])
            reduced = reduce_on_shell(fi.expr, solved)
            integrals.append((label, reduced))

        slots = {
            JetVar("U", 0, 0): 0,
            JetVar("U", 1, 0): 1,
            JetVar("U", 2, 0): 2,
            JetVar("V", 0, 0): 3,
        }

        def eval_poly(p, y):
            out = 0.0
            for m, c in p.items():
                term = float(c)
                for var, e in m.jet:
                    term *= y[slots[var]] ** e
                for name, e in m.params:
                    assert name == "mu"
                    term *= mu**e
                out += term
            return out

        y = profile(-10.0)
        ref = {label: eval_poly(p, y) for label, p in integrals}
        h = 1e-3
        steps = int(20.0 / h)
        worst = 0.0
        for _ in range(steps):
            k1 = ode_rhs(y)
            k2 = ode_rhs([a + 0.5 * h * b for a, b in zip(y, k1)])
            k3 = ode_rhs([a + 0.5 * h * b for a, b in zip(y, k2)])
            k4 = ode_rhs([a + h * b for a, b in zip(y, k3)])
            y = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            for label, p in integrals:
                worst = max(worst, abs(eval_poly(p, y) - ref[label]))
        assert worst < 1e-8
        # the trajectory tracks the analytic profile; some drift is
        # expected since the kink orbit is not attracting
        end = profile(10.0)
        assert max(abs(a - b) for a, b in zip(y, end)) < 1e-3


class TestTanhAnsatz:
    def test_system_size_and_balance_term(self):
        system = tanh_ansatz_system()
        assert len(system) >= 8
        # the top-power equation carries the dispersive balance a1*b2
        top = system[-1]
        names = {tuple(sorted(n for n, _ in m.params)) for m in top.terms}
        assert ("a1", "b2") in names

    def test_kink_point_satisfies_system(self):
        system = tanh_ansatz_system()
        point = tanh_solution_point()
        for eq in system:
            assert evaluate_at_point(eq, point).is_zero()

    def test_trivial_point_satisfies_system(self):
        # a1 = b1 = b2 = 0 with b0 free also annihilates everything
        point = {
            "a0": MU,
            "a1": JetPoly.zero(),
            "b0": JetPoly.const(Fraction(1, 2)),
            "b1": JetPoly.zero(),
            "b2": JetPoly.zero(),
        }
        for eq in tanh_ansatz_system():
            assert evaluate_at_point(eq, point).is_zero()

    def test_wrong_point_fails(self):
        point = tanh_solution_point()
        point = dict(point)
        point["b2"] = JetPoly.const(Fraction(1, 3))
        failed = False
        for eq in tanh_ansatz_system():
            if not evaluate_at_point(eq, point).is_zero():
                failed = True
        assert failed

    def test_root3_arithmetic(self):
        r = ROOT3
        assert evaluate_at_point(r * r, {}) == 3
        assert evaluate_at_point(r**3, {}) == ROOT3 * 3

    def test_slope_without_the_root_fails(self):
        point = dict(tanh_solution_point(), a1=JetPoly.const(Fraction(2, 3)))
        assert not all(evaluate_at_point(eq, point).is_zero() for eq in tanh_ansatz_system())


def _in_quadratic_field(p):
    """A + B s as the reference's {mu exponent: Root3(a, b)}, zeros dropped."""
    parts = p.coefficients_in("s")
    assert set(parts) <= {0, 1}
    out = {}
    for b, part in parts.items():
        for k, c in part.coefficients_in("mu").items():
            (value,) = c.terms.values()
            assert c == value
            old = out.get(k, reference.Root3())
            out[k] = old + (reference.Root3(b=value) if b else reference.Root3(a=value))
    return {k: v for k, v in out.items() if not v.is_zero()} or {0: reference.Root3()}


REFERENCE_POINTS = {
    "kink": (tanh_solution_point(), reference.tanh_solution_point()),
    "wrong-b2": (
        dict(tanh_solution_point(), b2=JetPoly.const(Fraction(1, 3))),
        dict(reference.tanh_solution_point(), b2=reference.Root3(Fraction(1, 3))),
    ),
    "no-root": (
        dict(tanh_solution_point(), a1=JetPoly.const(Fraction(2, 3))),
        dict(reference.tanh_solution_point(), a1=reference.Root3(Fraction(2, 3))),
    ),
    "mixed": (
        dict(tanh_solution_point(), b1=ROOT3 - 1, b0=ROOT3 * Fraction(1, 2) + 2),
        dict(
            reference.tanh_solution_point(),
            b1=reference.Root3(Fraction(-1), Fraction(1)),
            b0=reference.Root3(Fraction(2), Fraction(1, 2)),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_POINTS))
def test_evaluation_matches_quadratic_field_reference(name):
    point, ref_point = REFERENCE_POINTS[name]
    for eq in tanh_ansatz_system():
        got = _in_quadratic_field(evaluate_at_point(eq, point))
        assert got == reference.evaluate_at_tanh_point(eq, ref_point)


_PARAMS = ("a0", "a1", "b0", "b1", "b2", "mu")


@st.composite
def param_polys(draw, max_terms):
    """Polynomials in the ansatz parameters and the speed, exponents 0..2."""
    terms = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(0, 2)] * len(_PARAMS)), small_fractions),
            min_size=1,
            max_size=max_terms,
        )
    )
    out = JetPoly.zero()
    for powers, c in terms:
        out = out + JetPoly({JetMonomial.make(params=dict(zip(_PARAMS, powers))): c})
    return out


@given(p=param_polys(4), q=param_polys(3), vanishing=st.booleans())
@settings(max_examples=40, deadline=None)
def test_zero_exactly_when_sympy_is_zero_at_root3(p, q, vanishing):
    import sympy as sp

    # a1^2 - 4/3 vanishes at the kink point, so this sum is zero there
    # exactly when p is; the flag forces the zero case often
    a1 = JetPoly.param("a1")
    eq = (a1**2 - Fraction(4, 3)) * q + (JetPoly.zero() if vanishing else p)
    point = tanh_solution_point()
    s3 = sp.sqrt(3)
    exact = sp.expand(
        to_sympy(eq).subs(
            {
                sp.Symbol("a0"): sp.Symbol("mu"),
                sp.Symbol("a1"): 2 * s3 / 3,
                sp.Symbol("b0"): sp.Rational(2, 3),
                sp.Symbol("b1"): 0,
                sp.Symbol("b2"): sp.Rational(-2, 3),
            }
        )
    )
    assert evaluate_at_point(eq, point).is_zero() == (exact == 0)
    if vanishing:
        assert evaluate_at_point(eq, point).is_zero()
