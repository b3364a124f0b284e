"""Conservation laws by all three constructions, the Hamiltonian
structure, and the pre-symplectic forward checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlwlab import conslaw
from dlwlab.conslaw import (
    ConservationLaw,
    InvalidBoundaryTerm,
    boundary_current,
    direct_laws,
    divergence_residual,
    formal_lagrangian,
    hamiltonian_check,
    hamiltonian_gradient,
    hamiltonian_structure,
    ibragimov_flow,
    is_trivial_law,
    lagrangian,
    multiplier_pairing_check,
    noether_boundary_terms,
    noether_flow,
    noether_flows,
    potential_characteristics,
    presymplectic_check,
    presymplectic_pairs,
    printed_eq29_law,
    printed_eq31_law,
    printed_presymplectic_q4,
    prolonged_action,
    self_adjointness_check,
    variational_symmetry_test,
)
from dlwlab.jet import (
    EvolutionSystem,
    JetPoly,
    euler_operator,
    formal_adjoint,
    reduce_on_shell,
    total_derivative,
)
from dlwlab.symmetry import Characteristic, characteristics, frechet_derivative, point_symmetries
from dlwlab.systems import physical_to_potential, substitute_dependent

import conslaw_reference as reference
from conftest import jet_polys

u = JetPoly.var("u")
v = JetPoly.var("v")


def noether_current(vchar, lag):
    """(W1, W2) of the Noether identity for a potential-family generator."""
    return boundary_current(lag.density, dict(zip(("q", "r"), vchar.comp)))


class TestDirectLaws:
    def test_built_once_and_read_only(self, monkeypatch):
        built, make = [], conslaw.ConservationLaw
        monkeypatch.setattr(conslaw, "ConservationLaw", lambda **kw: built.append(kw["label"]) or make(**kw))
        direct_laws.cache_clear()
        try:
            first = direct_laws()
            assert direct_laws() is first
        finally:
            direct_laws.cache_clear()
        assert sorted(built) == sorted(first)
        with pytest.raises(TypeError):
            first["eq99"] = first["eq32"]
        with pytest.raises(TypeError):
            del first["eq32"]

    def test_all_catalog_pairs_conserve(self, phys):
        for label, law in direct_laws().items():
            assert divergence_residual(law, phys).is_zero(), label

    def test_printed_variants_fail(self, phys):
        for variant in (printed_eq29_law(), printed_eq31_law()):
            assert not divergence_residual(variant, phys).is_zero(), variant.label

    def test_eq29_printed_defect_is_the_missing_flux(self, phys):
        # the remainder equals minus D_x of the three completed terms
        law = printed_eq29_law()
        residual = divergence_residual(law, phys)
        missing = (
            v * JetPoly.var("v", 2) + u * v * JetPoly.var("u", 2) + JetPoly.var("u", 1) ** 2 * v
        )
        assert residual == reduce_on_shell(-total_derivative(missing, "x"), phys)

    def test_non_conserved_control(self, phys):
        law = ConservationLaw(density=u, flux=JetPoly.zero())
        res = divergence_residual(law, phys)
        assert res == -(u * JetPoly.var("u", 1) + JetPoly.var("v", 1))

    def test_multiplier_extraction(self, phys):
        from dlwlab.adjoint import adjoint_symmetries

        qs = adjoint_symmetries()
        for label, q in (("eq29", qs[0]), ("eq31", qs[2]), ("eq32", qs[3])):
            assert reference.law_multipliers(direct_laws()[label], phys) == tuple(q.comp), label


class TestPairings:
    def test_exact_pairings(self, phys):
        from dlwlab.adjoint import adjoint_symmetries

        qs = adjoint_symmetries()
        laws = direct_laws()
        assert multiplier_pairing_check(tuple(qs[1].comp), laws["eq30"], phys).is_zero()
        assert multiplier_pairing_check(tuple(qs[3].comp), laws["eq32"], phys).is_zero()
        q56 = tuple(a + b for a, b in zip(qs[4].comp, qs[5].comp))
        assert multiplier_pairing_check(q56, laws["eq33"], phys).is_zero()

    def test_trivial_difference_pairings(self, phys):
        from dlwlab.adjoint import adjoint_symmetries

        qs = adjoint_symmetries()
        laws = direct_laws()
        for label, q in (("eq29", qs[0]), ("eq31", qs[2])):
            defect = multiplier_pairing_check(tuple(q.comp), laws[label], phys)
            assert not defect.is_zero()
            assert reduce_on_shell(defect, phys).is_zero()

    def test_wrong_pairing_control(self, phys):
        from dlwlab.adjoint import adjoint_symmetries

        q5 = adjoint_symmetries()[4]
        zero_law = ConservationLaw(density=JetPoly.zero(), flux=JetPoly.zero())
        defect = multiplier_pairing_check(tuple(q5.comp), zero_law, phys)
        assert defect == phys.equation_polys()[0]


class TestNoether:
    def test_lagrangian_reproduces_equations(self, pot):
        g1, g2 = pot.equation_polys()
        assert euler_operator(lagrangian().density, "q") == g2
        assert euler_operator(lagrangian().density, "r") == g1

    def test_variational_classification(self):
        lag = lagrangian()
        flags = {v.name: variational_symmetry_test(v, lag) for v in potential_characteristics()}
        assert flags == {"V1": True, "V2": True, "V3": True, "V4": False}

    def test_zero_generator_is_variational(self):
        lag = lagrangian()
        zero = Characteristic((JetPoly.zero(), JetPoly.zero()))
        assert variational_symmetry_test(zero, lag)
        assert noether_current(zero, lag) == (JetPoly.zero(), JetPoly.zero())

    def test_w2_closed_form(self):
        lag = lagrangian()
        v1 = potential_characteristics()[0]
        _, w2 = noether_current(v1, lag)
        assert w2 == -JetPoly.var("q", 1) * JetPoly.var("r", 1)

    def test_boundary_identity_on_generators(self):
        # pr V(L) = E_q(L) eta1 + E_r(L) eta2 + D_x W1 + D_t W2
        lag = lagrangian()
        eq = euler_operator(lag.density, "q")
        er = euler_operator(lag.density, "r")
        for vchar in potential_characteristics():
            w1, w2 = noether_current(vchar, lag)
            lhs = prolonged_action(vchar, lag)
            rhs = (
                eq * vchar.comp[0]
                + er * vchar.comp[1]
                + total_derivative(w1, "x")
                + total_derivative(w2, "t")
            )
            assert lhs == rhs, vchar.name

    @given(eta1=jet_polys(deps=("q", "r"), max_dx=2, max_dt=1, max_terms=2),
           eta2=jet_polys(deps=("q", "r"), max_dx=2, max_dt=1, max_terms=2))
    @settings(max_examples=25, deadline=None)
    def test_boundary_identity_random_generators(self, eta1, eta2):
        lag = lagrangian()
        eq = euler_operator(lag.density, "q")
        er = euler_operator(lag.density, "r")
        vchar = Characteristic((eta1, eta2))
        w1, w2 = noether_current(vchar, lag)
        lhs = prolonged_action(vchar, lag)
        rhs = eq * eta1 + er * eta2 + total_derivative(w1, "x") + total_derivative(w2, "t")
        assert lhs == rhs

    def test_flows_conserve(self, pot):
        for label, law in noether_flows().items():
            assert divergence_residual(law, pot).is_zero(), label

    def test_first_flow_matches_printed(self):
        q = lambda a=0, b=0: JetPoly.var("q", a, b)
        r = lambda a=0, b=0: JetPoly.var("r", a, b)
        law = noether_flows()["eq54"]
        assert law.density == -q(1) * r(1)
        assert law.flux == (
            -r(1) ** 2 * Fraction(1, 2)
            - q(1) ** 2 * r(1)
            - q(1) * q(3) * Fraction(1, 3)
            + q(2) ** 2 * Fraction(1, 6)
        )

    def test_invalid_boundary_pair_rejected(self):
        lag = lagrangian()
        v1 = potential_characteristics()[0]
        with pytest.raises(InvalidBoundaryTerm):
            noether_flow(v1, lag, (JetPoly.zero(), JetPoly.zero()))

    def test_direct_law_maps_to_noether_flow(self, pot):
        mapped = ConservationLaw(
            density=physical_to_potential(direct_laws()["eq32"].density),
            flux=physical_to_potential(direct_laws()["eq32"].flux),
            family="potential",
        )
        assert divergence_residual(mapped, pot).is_zero()
        v1 = noether_flows()["eq54"]
        diff = ConservationLaw(
            density=v1.density + mapped.density,
            flux=v1.flux + mapped.flux,
            family="potential",
        )
        assert is_trivial_law(diff, pot)


class TestFormalLagrangian:
    def test_variational_derivatives(self, phys):
        lf = formal_lagrangian(phys).density
        g1, g2 = phys.equation_polys()
        assert euler_operator(lf, "w1") == g2
        assert euler_operator(lf, "w2") == g1

    def test_field_derivative_at_zero_multipliers(self, phys):
        lf = formal_lagrangian(phys).density
        du = euler_operator(lf, "u")
        zeroed = substitute_dependent(du, {"w1": "zW1", "w2": "zW2"}).substitute(
            lambda var: JetPoly.zero() if var.name in ("zW1", "zW2") else None
        )
        assert zeroed.is_zero()

    def test_strict_self_adjointness(self, phys):
        assert self_adjointness_check(phys)

    def test_swapped_substitution_fails(self, phys):
        lf = formal_lagrangian(phys).density
        g1, g2 = phys.equation_polys()
        swapped = {"w1": "v", "w2": "u"}
        ok = substitute_dependent(euler_operator(lf, "u"), swapped) == -g2
        assert not ok


class TestIbragimov:
    def test_all_flows_conserve(self, phys):
        for x in point_symmetries():
            law = ibragimov_flow(x, phys)
            assert divergence_residual(law, phys).is_zero(), x.name

    def test_zero_symmetry_gives_zero_flow(self, phys):
        law = ibragimov_flow(point_symmetries()[0].scaled(0), phys)
        assert law.density.is_zero() and law.flux.is_zero()

    def test_x_translation_flow_printed_form(self, phys):
        # after substituting the fields: density -(u_x v + u v_x),
        # flux u v_t + v u_t (the two third-derivative terms cancel)
        law = ibragimov_flow(point_symmetries()[1], phys)
        ux, vx = JetPoly.var("u", 1), JetPoly.var("v", 1)
        assert law.density == -(ux * v + u * vx)
        assert law.flux == u * JetPoly.var("v", 0, 1) + v * JetPoly.var("u", 0, 1)

    def test_tilt_flow_printed_form(self, phys):
        law = ibragimov_flow(point_symmetries()[2], phys)
        t = JetPoly.t()
        ux, vx = JetPoly.var("u", 1), JetPoly.var("v", 1)
        ut, vt = JetPoly.var("u", 0, 1), JetPoly.var("v", 0, 1)
        uxx = JetPoly.var("u", 2)
        expected_density = v - t * ux * v - t * u * vx
        expected_flux = (
            t * u * vt
            + t * v * ut
            + 2 * u * v
            + uxx * Fraction(1, 3)
            - t * ux * uxx * Fraction(1, 3)
            + t * ux * uxx * Fraction(1, 3)
        )
        # the last two cancel; keep the expression explicit for the record
        assert law.density == expected_density
        assert law.flux == t * u * vt + t * v * ut + 2 * u * v + uxx * Fraction(1, 3)



def assert_boundary_identity(density, w):
    """pr W(L) = sum_a E_a(L) W^a + D_x C_x + D_t C_t, with pr W(L) the
    Frechet derivative of L along W over the dependent variables of w."""
    c_x, c_t = boundary_current(density, w)
    lhs = frechet_derivative((density,), tuple(w.values()), tuple(w))[0]
    rhs = total_derivative(c_x, "x") + total_derivative(c_t, "t")
    for dep, comp in w.items():
        rhs = rhs + euler_operator(density, dep) * comp
    assert lhs == rhs


class TestBoundaryCurrent:
    def test_noether_current_matches_closed_form_on_generators(self):
        lag = lagrangian()
        for vchar in potential_characteristics():
            assert noether_current(vchar, lag) == reference.noether_W(vchar, lag), vchar.name

    @given(eta1=jet_polys(deps=("q", "r"), max_dx=2, max_dt=1, max_terms=2),
           eta2=jet_polys(deps=("q", "r"), max_dx=2, max_dt=1, max_terms=2))
    @settings(max_examples=25, deadline=None)
    def test_noether_current_matches_closed_form_random(self, eta1, eta2):
        lag = lagrangian()
        vchar = Characteristic((eta1, eta2))
        assert noether_current(vchar, lag) == reference.noether_W(vchar, lag)

    def test_ibragimov_flows_match_slot_loop(self, phys):
        labels = []
        for x in point_symmetries():
            law = ibragimov_flow(x, phys)
            assert law == reference.ibragimov_flow(x, phys), x.name
            labels.append(law.label)
        assert sorted(labels) == ["eq67", "eq68", "eq69", "eq70"]

    def test_noether_flows_match_closed_form(self):
        lag = lagrangian()
        vs = {vchar.name: vchar for vchar in potential_characteristics()}
        bounds = noether_boundary_terms()
        names = {"eq54": "V1", "eq55": "V2", "eq56": "V3"}
        for label, law in noether_flows().items():
            w1, w2 = reference.noether_W(vs[names[label]], lag)
            a1, a2 = bounds[names[label]]
            assert (law.density, law.flux) == (w2 - a2, w1 - a1), label

    @given(
        density=jet_polys(deps=("u", "v", "w1"), max_dx=3, max_dt=2, max_terms=3),
        wu=jet_polys(deps=("u", "v"), max_dx=2, max_dt=1, max_terms=2),
        wv=jet_polys(deps=("u", "v"), max_dx=2, max_dt=1, max_terms=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_identity_on_random_lagrangians(self, density, wu, wv):
        # mixed slots up to u_xxxtt, explicit x and t, and a dependent
        # variable (w1) that is not varied
        assert_boundary_identity(density, {"u": wu, "v": wv})

    @given(
        density=jet_polys(deps=("u", "v", "w1"), max_dx=3, max_dt=2, max_terms=4, params=("mu",)),
        wu=jet_polys(deps=("u", "v"), max_dx=2, max_dt=1, max_terms=3, params=("mu",)),
        wv=jet_polys(deps=("u", "v"), max_dx=2, max_dt=1, max_terms=3, params=("mu",)),
        varied=st.sampled_from((("u", "v"), ("u",), ("v",))),
        zero=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, density, wu, wv, varied, zero):
        # the slot loop with one + and one * per term; a zero field
        # component, and a varied variable the density may lack
        w = {dep: comp for dep, comp in (("u", wu), ("v", JetPoly.zero() if zero else wv)) if dep in varied}
        assert boundary_current(density, w) == reference.boundary_current(density, w)

    def test_mixed_and_fourth_order_slots(self):
        x, t = JetPoly.x(), JetPoly.t()
        density = (
            JetPoly.var("u", 1, 1) * v * x
            + JetPoly.var("u", 4) ** 2 * t
            + JetPoly.var("v", 2, 1) * JetPoly.var("u", 0, 2)
        )
        w = {"u": JetPoly.var("u", 1) * t, "v": u * JetPoly.var("v", 0, 1) + x}
        assert_boundary_identity(density, w)
        c_x, c_t = boundary_current(density, w)
        assert not c_x.is_zero() and not c_t.is_zero()

    def test_fifth_order_system_flows_conserve(self, phys):
        # adding u_xxxxx to the second equation keeps the pair strictly
        # self-adjoint and X1..X3 as symmetries; its formal Lagrangian has
        # a fifth-order slot
        g1, g2 = phys.rhs
        sys5 = EvolutionSystem(deps=("u", "v"), rhs=(g1, g2 + JetPoly.var("u", 5)))
        assert self_adjointness_check(sys5)
        for x in point_symmetries()[:3]:
            law = ibragimov_flow(x, sys5)
            assert divergence_residual(law, sys5).is_zero(), x.name


class TestHamiltonian:
    def test_gradient_and_reconstruction(self, phys):
        hs = hamiltonian_structure()
        assert hamiltonian_check(hs, phys)
        grad = hamiltonian_gradient(hs)
        assert grad[0] == u * v + JetPoly.var("u", 2) * Fraction(1, 3)
        assert grad[1] == v + u**2 * Fraction(1, 2)

    def test_wrong_densities_fail(self, phys):
        hs = hamiltonian_structure()
        from dlwlab.conslaw import HamiltonianStructure

        assert not hamiltonian_check(
            HamiltonianStructure(h_density=v**2 * Fraction(1, 2), d_op=hs.d_op), phys
        )
        assert not hamiltonian_check(
            HamiltonianStructure(h_density=JetPoly.zero(), d_op=hs.d_op), phys
        )

    def test_skew_adjoint(self):
        hs = hamiltonian_structure()
        assert formal_adjoint(hs.d_op) == (-hs.d_op).canonical()


class TestPresymplectic:
    def test_all_four_pairs(self):
        signs = {}
        for p, q in presymplectic_pairs():
            ok, sign = presymplectic_check(p, q)
            assert ok, p.name
            signs[p.name] = sign
        assert signs == {"P1": 1, "P2": -1, "P3": 1, "P4": 1}

    def test_printed_fourth_preimage_fails(self):
        p4 = characteristics()[3]
        ok, _ = presymplectic_check(p4, printed_presymplectic_q4())
        assert not ok

    def test_zero_pair(self):
        zero = Characteristic((JetPoly.zero(), JetPoly.zero()))
        ok, sign = presymplectic_check(zero, (JetPoly.zero(), JetPoly.zero()))
        assert ok and sign == 1
