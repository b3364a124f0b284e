"""The closed-form family registry and its residual scans."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import analytic_reference
from dlwlab import analytic, solutions, systems
from dlwlab.jet import EvolutionSystem, JetError, JetPoly
from dlwlab.solutions import (
    UnknownFamily,
    family_registry,
    profile_rows,
    scan_family,
    verify_family,
)


def test_registry_ids_complete():
    expected = {
        "eq19", "eq22", "eq82", "eq83",
        "eq86", "eq87", "eq88", "eq89", "eq90",
        "eq93", "eq96",
    }
    assert set(family_registry()) == expected


def test_registry_built_once_and_read_only(monkeypatch):
    built, make = [], solutions.SolitonFamily
    monkeypatch.setattr(solutions, "SolitonFamily", lambda **kw: built.append(kw["id"]) or make(**kw))
    family_registry.cache_clear()
    try:
        first = family_registry()
        assert family_registry() is first
    finally:
        family_registry.cache_clear()
    assert sorted(built) == sorted(first)
    with pytest.raises(TypeError):
        first["eq99"] = first["eq93"]
    with pytest.raises(TypeError):
        del first["eq93"]


def test_kink_residuals_across_speeds(phys):
    for mu in (0.5, 1.0, 2.0):
        rep = verify_family("eq93", {"mu": mu}, n_samples=50, seed=1)
        assert rep.max_residual < 1e-10, mu
        assert rep.samples_used == 50


def test_rational_family_residual():
    rep = verify_family("eq22", {"c1": 2.0}, n_samples=50, seed=1)
    assert rep.max_residual < 1e-12


def test_exp_kink_residuals():
    for a0 in (0.0, 1.0):
        rep = verify_family("eq96", {"a0": a0}, n_samples=50, seed=1)
        assert rep.max_residual < 1e-10, a0


def test_linear_family_quantified_defect():
    rep = verify_family("eq19", {"c1": 1.0, "c2": 0.4}, n_samples=30, seed=2)
    assert rep.per_equation[0] < 1e-12
    assert rep.per_equation[1] == pytest.approx(1.0, rel=1e-9)


def test_line_soliton_scan_passes_off_pole():
    for fid in ("eq82", "eq83"):
        for rec in scan_family(fid, n_samples=50, seed=3):
            assert rec["samples_used"] > 0
            assert rec["passes"], rec


def test_underdetermined_families_recorded():
    for fid in ("eq86", "eq87", "eq88", "eq89", "eq90"):
        records = scan_family(fid, n_samples=30, seed=3)
        assert records, fid
        for rec in records:
            assert "max_residual" in rec and "passes" in rec


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        verify_family("eq1234", {})
    lookups = [
        lambda: solutions.family("eq1234"),
        lambda: verify_family("eq1234", {}),
        lambda: scan_family("eq1234"),
        lambda: profile_rows("eq1234", {}),
    ]
    for lookup in lookups:
        with pytest.raises(UnknownFamily) as err:
            lookup()
        message = str(err.value)
        assert message.startswith("unknown family 'eq1234'; known: ")
        assert message.endswith(", ".join(sorted(family_registry())))


def test_binding_names_are_the_family_parameters():
    for fid, fam in family_registry().items():
        for binding in fam.default_grid:
            assert set(binding) == fam.free_params, fid
    with pytest.raises(JetError, match=r"unknown parameter\(s\) \['nu'\] for eq93; its parameters: mu$"):
        solutions.family("eq93", {"mu": 1.0, "nu": 7.0})


def test_missing_binding_rejected():
    """Every entry point that takes a binding names every parameter it
    leaves out, in one message, before any evaluation."""
    missing = "unbound parameters for eq86: ['C1', 'R1', 'R2', 'a0', 'c2', 'k1', 'w1', 'xi0']"
    entries = [
        lambda: solutions.family("eq86", {"A0": 1.0}),
        lambda: verify_family("eq86", {"A0": 1.0}),
        lambda: profile_rows("eq86", {"A0": 1.0}),
    ]
    for entry in entries:
        with pytest.raises(JetError) as err:
            entry()
        assert str(err.value) == missing
    assert solutions.family("eq86") is family_registry()["eq86"]  # no binding: a lookup only


def test_profile_rows_skip_poles():
    rows = profile_rows("eq82", {"mu": 1.0, "C1": 0.0}, xi_min=-2.0, xi_max=2.0, n=41)
    assert 0 < len(rows) <= 41
    xi, u, v = rows[0]
    assert all(abs(val) < 1e9 for val in (u, v))


def test_profile_rows_kink():
    rows = profile_rows("eq93", {"mu": 1.0}, n=101)
    assert len(rows) == 101
    # at t = 0 the profile is mu + (2/sqrt3) tanh(x): rising kink
    assert rows[0][1] == pytest.approx(1.0 - 2 / 3**0.5, abs=1e-6)
    assert rows[-1][1] == pytest.approx(1.0 + 2 / 3**0.5, abs=1e-6)


class TestScanCost:
    """What one scan pays for: a draw of the samples per family, one run
    of its residual program for all its bindings, and no rebuild of the
    pair."""

    def test_pairs_are_built_once_per_process(self):
        assert systems.physical_system() is systems.physical_system()
        assert systems.potential_system() is systems.potential_system()
        assert systems.physical_system() == analytic_reference.physical_pair()
        q = lambda dx=0: JetPoly.var("q", dx, 0)  # noqa: E731
        r = lambda dx=0: JetPoly.var("r", dx, 0)  # noqa: E731
        g1 = q(1) * q(2) + r(2)
        g2 = q(2) * r(1) + q(1) * r(2) + q(4) * Fraction(1, 3)
        assert systems.potential_system() == EvolutionSystem(deps=("q", "r"), rhs=(g1, g2), lead_dx=1)

    def test_one_draw_no_pair_and_one_program_run_per_family(self, monkeypatch):
        fam = family_registry()["eq93"]
        assert len(fam.default_grid) == 3
        scan_family("eq93")  # the pair and the family's program exist from here on
        rngs, pairs, runs = [], [], []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.draws = 0
                rngs.append(self)

            def random(self):
                self.draws += 1
                return super().random()

        def post_init(self, _made=EvolutionSystem.__post_init__):
            pairs.append(self)
            _made(self)

        def counting_execute(self, slots, values, mask, _run=analytic._Program.execute):
            runs.append((values["x"].shape, mask.shape))
            return _run(self, slots, values, mask)

        monkeypatch.setattr(solutions, "random", SimpleNamespace(Random=CountingRandom))
        monkeypatch.setattr(EvolutionSystem, "__post_init__", post_init)
        monkeypatch.setattr(analytic._Program, "execute", counting_execute)
        records = scan_family("eq93", n_samples=40, seed=5)
        assert [rng.draws for rng in rngs] == [80]
        assert pairs == []
        assert runs == [((40,), (3, 40))]  # the 3 bindings over the 40 samples, in one run
        assert [r["samples_used"] for r in records] == [40] * 3
