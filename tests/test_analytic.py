"""Expression trees: exact differentiation against finite differences,
guarded evaluation, and residual oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import analytic_reference as reference
from dlwlab import analytic, report
from dlwlab.analytic import (
    Add,
    AnalyticError,
    Coord,
    Div,
    DomainError,
    Exp,
    Mul,
    Pow,
    Sech,
    Tanh,
    T,
    UnboundParameter,
    X,
    add,
    compile_expr,
    const,
    diff,
    div,
    evaluate,
    evaluate_samples,
    exp,
    free_params,
    mul,
    neg,
    param,
    pow_,
    residual_max,
    sech,
    sqrt_const,
    sub,
    system_residual_exprs,
    tanh,
)
from dlwlab.jet import JetPoly
from dlwlab.sim import Grid1D
from dlwlab.solutions import _samples, family_registry, scan_family


def kink_pair():
    mu = param("mu")
    arg = sub(mul(mu, T), X)
    u = add(mu, neg(mul(div(const(2), sqrt_const(3)), tanh(arg))))
    v = add(const(Fraction(2, 3)), neg(mul(const(Fraction(2, 3)), pow_(tanh(arg), 2))))
    return u, v


_RNG = random.Random(7)
SAMPLES = [(_RNG.uniform(-5, 5), _RNG.uniform(0, 2)) for _ in range(40)]


def test_samples_spread_in_x():
    assert len({x for x, _ in SAMPLES}) == len(SAMPLES) == 40


class TestDiff:
    def test_tanh_chain_rule(self):
        e = tanh(sub(X, mul(param("mu"), T)))
        d = diff(e, "x")
        for x0, t0 in SAMPLES[:8]:
            want = 1.0 / math.cosh(x0 - 0.7 * t0) ** 2
            assert evaluate(d, x0, t0, {"mu": 0.7}) == pytest.approx(want, rel=1e-12)

    def test_constant_derivative(self):
        assert diff(const(5), "x") == const(0)
        assert diff(sqrt_const(3), "t") == const(0)

    @pytest.mark.parametrize("var", ["x", "t"])
    def test_a_jet_coordinate_has_no_derivative(self, var):
        # u[1,0] names a value handed to the program, not a function of x and t
        e = mul(Coord("u[1,0]"), X)
        with pytest.raises(AnalyticError, match=r"u\[1,0\]"):
            diff(e, var)

    @pytest.mark.parametrize("name", ["y", "X", "u", "u[1]", "u[1,0,0]", "u[-1,0]", "1u[0,0]", "u[0,0]x"])
    def test_other_coordinate_names_are_rejected(self, name):
        with pytest.raises(AnalyticError, match="coordinates are"):
            Coord(name)

    def test_jet_coordinates_are_read_by_name(self):
        p = JetPoly.var("u") * JetPoly.var("v", 2) + JetPoly.x()
        q = JetPoly.const(2) * JetPoly.var("u") ** 2
        assert analytic.poly_to_expr(p) == add(mul(Coord("u[0,0]"), Coord("v[2,0]")), X)
        run = analytic.poly_program((p, q))
        got = run({"u[0,0]": np.array([1.5, -2.0]), "v[2,0]": np.array([4.0, 0.5]), "x": 3.0, "t": 9.0})
        assert [a.tolist() for a in got] == [[9.0, 2.0], [4.5, 8.0]]

    def test_finite_difference_agreement(self):
        trees = [
            mul(tanh(sub(X, T)), exp(mul(const(Fraction(1, 10)), X))),
            div(add(X, const(2)), add(T, const(2))),
            pow_(sech(add(X, mul(const(Fraction(-1, 2)), T))), 3),
            mul(param("a"), exp(mul(param("a"), X))),
        ]
        binding = {"a": 0.6}
        rng = random.Random(3)
        for e in trees:
            for var in ("x", "t"):
                d = diff(e, var)
                for _ in range(20):
                    x0, t0 = rng.uniform(-2, 2), rng.uniform(0.1, 2)
                    h = 1e-5
                    if var == "x":
                        fd = (evaluate(e, x0 + h, t0, binding) - evaluate(e, x0 - h, t0, binding)) / (2 * h)
                    else:
                        fd = (evaluate(e, x0, t0 + h, binding) - evaluate(e, x0, t0 - h, binding)) / (2 * h)
                    sy = evaluate(d, x0, t0, binding)
                    if abs(sy) > 1e-3:
                        assert abs(fd - sy) / abs(sy) < 1e-6


class TestEvaluation:
    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameter):
            evaluate(param("zeta"), 0.0, 0.0, {})

    def test_singularity_guard(self):
        e = div(const(1), X)
        with pytest.raises(DomainError):
            evaluate(e, 1e-12, 0.0, {})

    def test_free_params(self):
        u, v = kink_pair()
        assert free_params(u) == {"mu"}
        assert free_params(v) == {"mu"}

    def test_compile_matches_interpreter(self):
        u, _ = kink_pair()
        f = compile_expr(u, {"mu": 1.3})
        xs = np.linspace(-3, 3, 11)
        want = [evaluate(u, float(x0), 0.4, {"mu": 1.3}) for x0 in xs]
        assert np.allclose(f(xs, 0.4), want, atol=1e-14)

    @pytest.mark.parametrize(
        "samples,shape",
        [
            ([(0, 0, 1), (1, 2, 3)], r"\(2, 3\)"),
            ([0.0, 1.0, 2.0, 3.0], r"\(4,\)"),
            (np.zeros((3, 4)), r"\(3, 4\)"),
            ([(0.0, 1.0), (2.0,)], "inhomogeneous"),
        ],
    )
    def test_samples_that_are_not_pairs_are_rejected(self, phys, samples, shape):
        with pytest.raises(analytic.AnalyticError, match=shape):
            evaluate_samples((X,), samples, {})
        with pytest.raises(analytic.AnalyticError, match=shape):
            residual_max(phys, (X, T), {}, samples)

    def test_sech_of_a_wide_argument_is_zero(self):
        assert evaluate(sech(X), 800.0, 0.0, {}) == 0.0
        assert evaluate(sech(X), -800.0, 0.0, {}) == 0.0

    def test_constant_subtree_trips_once_at_compile_time(self, phys):
        e = mul(X, div(const(1), param("a")))  # the quotient is free of x and t
        with pytest.raises(DomainError):
            compile_expr(e, {"a": 0.0})
        with pytest.raises(DomainError):
            evaluate(e, 1.0, 0.0, {"a": 1e-9})
        rep = residual_max(phys, (e, const(0)), {"a": 0.0}, SAMPLES[:5])
        want = reference.residual_max(phys, (e, const(0)), {"a": 0.0}, SAMPLES[:5])
        assert (rep.samples_used, rep.samples_skipped) == (want.samples_used, want.samples_skipped) == (0, 5)


# One expression per guard kind, the samples x at t = 0, and which of them
# trip it.
GUARD_CASES = {
    "denominator": (div(const(1), X), [0.5, 1e-9, -2.0, -1e-9], [False, True, False, True]),
    "negative-power": (pow_(X, -3), [1e-9, 0.5, -3.0], [True, False, False]),
    "exp-argument": (exp(X), [1.0, 700.5, 700.0], [False, True, False]),
    "power-overflow": (pow_(X, 5), [2.0, 1e100, -1e100], [False, True, True]),
    "non-finite": (mul(exp(X), exp(X)), [699.0, 1.0], [True, False]),
}


def outcome(f, x, t):
    """The values of ``f(x, t)`` as bytes, or the type of what it raised
    (eq22 has a pole at t = 0)."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(f(x, t), dtype=float).tobytes()
    except ArithmeticError as e:
        return type(e)


class TestReferenceOracle:
    """The program compiler against the scalar ``math`` evaluator, the
    string-``eval`` compiler and the closure compiler it replaced
    (``analytic_reference``)."""

    @pytest.mark.parametrize("fid", sorted(family_registry()))
    def test_compile_expr_is_bitwise_the_reference(self, fid):
        fam = family_registry()[fid]
        grid = Grid1D(-20.0, 20.0, 64)
        x = np.concatenate([grid.x, grid.ghost_x("left"), grid.ghost_x("right")])
        for binding in fam.default_grid:
            for e in (fam.u_expr, fam.v_expr):
                got, want = compile_expr(e, binding), reference.compile_expr(e, binding)
                for t in (0.0, 0.37, 1.0, 2.5):
                    assert outcome(got, x, t) == outcome(want, x, t), (binding, t)

    @pytest.mark.parametrize("fid", sorted(family_registry()))
    def test_residual_exprs_are_the_reference_trees(self, phys, fid):
        fam = family_registry()[fid]
        candidate = (fam.u_expr, fam.v_expr)
        assert system_residual_exprs(phys, candidate) == reference.system_residual_exprs(phys, candidate)

    @pytest.mark.parametrize("fid", sorted(family_registry()))
    def test_residual_max_matches_reference(self, phys, fid):
        fam = family_registry()[fid]
        for binding in fam.default_grid:
            for seed in range(8):
                samples = _samples(fam.domain, 50, seed)
                got = residual_max(phys, (fam.u_expr, fam.v_expr), binding, samples)
                want = reference.residual_max(phys, (fam.u_expr, fam.v_expr), binding, samples)
                assert (got.samples_used, got.samples_skipped) == (want.samples_used, want.samples_skipped)
                for a, b in zip(got.per_equation, want.per_equation):
                    assert (a < 1e-8 and b < 1e-8) or a == pytest.approx(b, rel=1e-9), (binding, seed)

    @pytest.mark.parametrize("fid", sorted(family_registry()))
    def test_scan_family_is_bitwise_the_per_binding_scan(self, fid):
        # one draw shared by the bindings and one pair per process give the
        # records of a draw and a fresh pair per binding
        def key(records):
            return [
                (
                    r["params"],
                    float.hex(r["max_residual"]),
                    [float.hex(e) for e in r["per_equation"]],
                    r["samples_used"],
                    r["samples_skipped"],
                    r["passes"],
                )
                for r in records
            ]

        for seed in range(64):
            assert key(scan_family(fid, seed=seed)) == key(reference.scan_family(fid, seed=seed)), seed

    @pytest.mark.parametrize("fid", sorted(family_registry()))
    def test_evaluate_samples_is_bitwise_the_closure_oracle(self, phys, fid):
        fam = family_registry()[fid]
        residuals = system_residual_exprs(phys, (fam.u_expr, fam.v_expr))
        for binding in fam.default_grid:
            for seed in range(16):
                samples = _samples(fam.domain, 50, seed)
                for exprs in (residuals, (fam.u_expr, fam.v_expr)):
                    vals, skip = evaluate_samples(exprs, samples, binding)
                    want_vals, want_skip = reference.evaluate_samples(exprs, samples, binding)
                    assert vals.tobytes() == want_vals.tobytes(), (binding, seed)
                    assert skip.tolist() == want_skip.tolist(), (binding, seed)

    @pytest.mark.parametrize(
        "exprs,binding",
        [
            # equal folded values of distinct subtrees, signed zeros among them
            ((mul(const(-1), param("a")), param("a"), div(X, mul(const(-1), param("a")))), {"a": 0.0}),
            ((div(X, add(param("a"), param("b"))), div(X, add(param("b"), param("a")))), {"a": 1e-9, "b": -1e-9}),
            # a quotient free of x and t under a varying sum, folded before the samples
            ((add(param("a"), div(const(1), param("a")), X, param("a")),), {"a": 3.0}),
            ((pow_(sub(X, param("a")), -2), exp(mul(param("a"), X)), sech(div(T, param("a")))), {"a": 0.5}),
        ],
    )
    def test_hand_made_cases_are_bitwise_the_closure_oracle(self, exprs, binding):
        samples = [(x, t) for x, t in SAMPLES] + [(0.5, 0.0), (0.0, 1.0), (-0.0, 0.0)]
        vals, skip = evaluate_samples(exprs, samples, binding)
        want_vals, want_skip = reference.evaluate_samples(exprs, samples, binding)
        assert vals.tobytes() == want_vals.tobytes()
        assert skip.tolist() == want_skip.tolist()

    def test_no_samples(self, phys):
        u, v = kink_pair()
        rep = residual_max(phys, (u, v), {"mu": 1.0}, [])
        assert math.isnan(rep.max_residual)
        assert (rep.per_equation, rep.samples_used, rep.samples_skipped) == ((0.0, 0.0), 0, 0)

    @pytest.mark.parametrize("kind", GUARD_CASES)
    def test_only_tripping_samples_are_skipped(self, kind):
        e, xs, trips = GUARD_CASES[kind]
        vals, skip = evaluate_samples((e,), [(x, 0.0) for x in xs], {})
        assert skip.tolist() == trips
        for x, value, skipped in zip(xs, vals[0], skip):
            if skipped:
                with pytest.raises(DomainError):
                    reference.evaluate(e, x, 0.0, {})
            else:
                assert value == pytest.approx(reference.evaluate(e, x, 0.0, {}), rel=1e-14)


class TestResidualOracle:
    def test_kink_solves(self, phys):
        u, v = kink_pair()
        for mu in (0.5, 1.0, 2.0):
            rep = residual_max(phys, (u, v), {"mu": mu}, SAMPLES)
            assert rep.max_residual < 1e-10

    def test_rational_family_solves(self, phys):
        u = div(add(X, const(2)), T)
        v = div(param("c1"), T)
        samples = [(x, 0.5 + abs(t)) for x, t in SAMPLES]
        rep = residual_max(phys, (u, v), {"c1": 2.0}, samples)
        assert rep.max_residual < 1e-12

    def test_non_solution_control(self, phys):
        rep = residual_max(phys, (X, const(0)), {}, [(1.0, 0.0)])
        assert rep.per_equation[0] == pytest.approx(1.0)
        assert rep.per_equation[1] == pytest.approx(0.0)

    def test_linear_family_leaves_constant(self, phys):
        u = add(T, param("c1"))
        v = add(mul(const(Fraction(1, 2)), pow_(T, 2)), neg(X), param("c2"))
        rep = residual_max(phys, (u, v), {"c1": 1.0, "c2": 0.3}, SAMPLES)
        assert rep.per_equation[0] < 1e-12
        assert rep.per_equation[1] == pytest.approx(1.0, rel=1e-9)

    def test_singular_samples_are_counted(self, phys):
        u = div(add(X, const(2)), T)
        v = div(const(1), T)
        rep = residual_max(phys, (u, v), {}, [(0.0, 0.0), (1.0, 1.0)])
        assert rep.samples_skipped == 1
        assert rep.samples_used == 1


def children(e) -> tuple:
    if isinstance(e, (Add, Mul)):
        return e.args
    if isinstance(e, Div):
        return (e.num, e.den)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Exp, Tanh, Sech)):
        return (e.arg,)
    return ()


def tree_nodes(e) -> int:
    """Nodes of the tree, each repeat counted."""
    return 1 + sum(map(tree_nodes, children(e)))


def distinct_subexpressions(exprs) -> set:
    out: set = set()
    todo = list(exprs)
    while todo:
        e = todo.pop()
        if e not in out:
            out.add(e)
            todo.extend(children(e))
    return out


class TestProgram:
    """Each family's residuals compile once per process into one program
    with one slot per distinct subexpression."""

    @pytest.mark.parametrize("fid", sorted(family_registry()))
    def test_no_more_slots_than_distinct_subexpressions(self, phys, fid):
        fam = family_registry()[fid]
        residuals = system_residual_exprs(phys, (fam.u_expr, fam.v_expr))
        program = analytic._residual_program(phys, (fam.u_expr, fam.v_expr))
        assert len(program.base) <= len(distinct_subexpressions(residuals))
        if fid == "eq83":
            assert sum(map(tree_nodes, residuals)) == 1752
            assert len(program.base) <= 78

    def test_second_scan_calls_diff_zero_times(self, monkeypatch):
        first = scan_family("eq83")
        calls = []

        def counting_diff(e, var):
            calls.append(var)
            return diff(e, var)

        monkeypatch.setattr(analytic, "diff", counting_diff)
        assert scan_family("eq83") == first
        assert calls == []

    def test_waves_suite_derives_each_family_once(self, monkeypatch):
        derived = []

        def counting(sys, candidate):
            derived.append(candidate)
            return system_residual_exprs(sys, candidate)

        analytic._residual_program.cache_clear()
        monkeypatch.setattr(analytic, "system_residual_exprs", counting)
        report.run_suite("waves")
        registry = family_registry()
        assert sum(len(f.default_grid) for f in registry.values()) == 19
        assert len(derived) == len(registry) == 11

    def test_a_rebuilt_candidate_hits_the_program_cache(self, phys):
        # equal trees built separately hash and compare equal, so the
        # value-keyed cache finds the program of an equal candidate
        first, again = kink_pair(), kink_pair()
        assert first == again and all(a is not b for a, b in zip(first, again))
        assert list(map(hash, first)) == list(map(hash, again))
        # and a node keeps its hash, so a lookup does not walk the tree again
        assert all(cls.__hash__ is analytic.Expr.__hash__ for cls in (Add, Mul, Div, Pow, Exp, Tanh, Sech))
        assert [e._hash for e in first] == list(map(hash, again))
        analytic._residual_program(phys, first)
        before = analytic._residual_program.cache_info()
        assert analytic._residual_program(reference.physical_pair(), again) is analytic._residual_program(phys, first)
        after = analytic._residual_program.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)

    def test_unbound_parameter_is_never_hidden(self, phys):
        e = mul(div(const(1), param("a")), param("b"), X)  # 1/a trips at a = 0
        with pytest.raises(UnboundParameter, match="b"):
            residual_max(phys, (e, const(0)), {"a": 0.0}, SAMPLES[:5])
        with pytest.raises(UnboundParameter, match="b"):
            evaluate_samples((e,), SAMPLES[:5], {"a": 0.0})
        with pytest.raises(UnboundParameter, match="b"):
            compile_expr(e, {"a": 0.0})


def report_key(rep) -> tuple:
    return (
        float.hex(rep.max_residual),
        [float.hex(e) for e in rep.per_equation],
        rep.samples_used,
        rep.samples_skipped,
    )


class TestBindingGrid:
    """All the bindings of a scan in one run of the program over the
    (bindings x samples) grid, against each binding alone."""

    # a quotient free of x and t, and an exp whose argument passes 700 for
    # x > 700 / c
    CANDIDATE = (add(div(X, param("a")), exp(mul(param("c"), X))), const(0))
    SAMPLES = _samples((-5.0, 5.0, 0.0, 2.0), 40, 3)

    def test_each_record_is_bitwise_its_binding_alone(self, phys, monkeypatch):
        grid = (
            {"a": 0.0, "c": 1.0},  # 1/a trips free of x and t: in bind
            {"a": 1.0, "c": 200.0},  # exp trips at the samples with x > 3.5
            {"a": 2.0, "c": 0.1},  # clean
        )
        runs, execute = [], analytic._Program.execute
        monkeypatch.setattr(analytic._Program, "execute", lambda *a: runs.append(a[3].shape) or execute(*a))
        reports = analytic._residual_reports(phys, self.CANDIDATE, grid, self.SAMPLES)
        assert runs == [(2, 40)]  # the tripped binding is left out of the run
        alone = [residual_max(phys, self.CANDIDATE, b, self.SAMPLES) for b in grid]
        assert list(map(report_key, reports)) == list(map(report_key, alone))
        tripped, partial, clean = reports
        assert math.isnan(tripped.max_residual) and (tripped.samples_used, tripped.samples_skipped) == (0, 40)
        assert 0 < partial.samples_skipped < 40
        assert clean.samples_skipped == 0
        _, (error,) = analytic._residual_program(phys, self.CANDIDATE).bind(grid[:1])
        assert isinstance(error, DomainError)
        for order in ((2, 0, 1), (1, 2, 0), (0, 0, 2)):
            batch = [grid[k] for k in order]
            reordered = analytic._residual_reports(phys, self.CANDIDATE, batch, self.SAMPLES)
            assert list(map(report_key, reordered)) == [report_key(alone[k]) for k in order]

    @pytest.mark.parametrize("position", range(3))
    def test_an_unbound_parameter_raises_before_anything_is_evaluated(self, phys, position, monkeypatch):
        grid = [{"a": 0.0, "c": 1.0}, {"a": 1.0, "c": 200.0}]  # the first trips in bind
        grid.insert(position, {"a": 1.0})
        with pytest.raises(UnboundParameter) as alone:
            residual_max(phys, self.CANDIDATE, {"a": 1.0}, self.SAMPLES)
        folds, runs = [], []
        monkeypatch.setattr(analytic._Program, "_fold", lambda *a: folds.append(a))
        monkeypatch.setattr(analytic._Program, "execute", lambda *a: runs.append(a))
        with pytest.raises(UnboundParameter) as batch:
            analytic._residual_reports(phys, self.CANDIDATE, grid, self.SAMPLES)
        assert str(batch.value) == str(alone.value) == "c"
        assert folds == runs == []

    def test_folded_slots_stack_only_where_the_bindings_differ(self):
        e = add(mul(param("a"), X), mul(param("b"), T), div(param("b"), param("a")))
        program = analytic._program((e,))
        slots, errors = program.bind(({"a": 1.0, "b": -0.0}, {"a": 2.0, "b": 0.0}))
        assert errors == [None, None]
        b_slot = dict(program.params)["b"]
        a_slot = dict(program.params)["a"]
        # b differs in its sign bit only, and is still a column
        assert slots[b_slot].shape == slots[a_slot].shape == (2, 1)
        assert math.copysign(1.0, slots[b_slot][0, 0]) == -1.0
        same, _ = program.bind(({"a": 1.0, "b": 3.0}, {"a": 1.0, "b": 3.0}))
        assert all(isinstance(same[s], float) for s in program.columns)
