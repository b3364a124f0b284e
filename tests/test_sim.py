"""Finite-difference solver: stencil accuracy, guards, monitors with
through-flux budgets, temporal dominance, the recorded instability of
the benchmark system, and agreement with the unfused reference stepper
kept in ``sim_reference``."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlwlab import analytic, sim
from dlwlab.analytic import compile_expr, poly_program
from dlwlab.conslaw import direct_laws
from dlwlab.jet import JetError, JetPoly, JetVar
from dlwlab.sim import (
    BlowupError,
    FieldState,
    Grid1D,
    SimConfig,
    config_from_mapping,
    convergence_study,
    integrate,
    parse_config,
    rhs,
)
from dlwlab.solutions import family_registry
from dlwlab.systems import physical_system

import sim_reference


class TestGridAndConfig:
    def test_grid_invariants(self):
        with pytest.raises(JetError):
            Grid1D(0.0, 1.0, 8)
        with pytest.raises(JetError):
            Grid1D(1.0, 0.0, 32)
        g = Grid1D(-20.0, 20.0, 64)
        assert g.dx == pytest.approx(0.625)

    @pytest.mark.parametrize(
        "n,message",
        [
            (128.0, "grid size n = 128.0 is not an integer"),
            ("128", "grid size n = '128' is not an integer"),
            (None, "grid size n = None is not an integer"),
            # checked before any buffer is allocated; never integrated here
            (100_001, "grid size n = 100001 exceeds MAX_CELLS = 100000"),
            (10**9, "grid size n = 1000000000 exceeds MAX_CELLS = 100000"),
        ],
    )
    def test_bad_grid_size_is_named(self, n, message):
        with pytest.raises(JetError) as err:
            Grid1D(-20.0, 20.0, n)
        assert str(err.value) == message

    def test_grid_size_at_the_limit_is_accepted(self):
        assert Grid1D(-20.0, 20.0, sim.MAX_CELLS).n == sim.MAX_CELLS
        assert Grid1D(-20.0, 20.0, np.int64(64)).dx == 0.625
        with pytest.raises(JetError, match="^grid size n = 1000000000 exceeds MAX_CELLS"):
            config_from_mapping({"n": "1000000000", "dt": "0.001"})

    def test_default_step_is_cubic_in_dx(self):
        cfg = SimConfig(grid=Grid1D(-20, 20, 64), t_end=1.0)
        assert cfg.step_size() == pytest.approx(0.2 * (40 / 64) ** 3)

    @pytest.mark.parametrize(
        "kw,message",
        [
            ({"t_end": 1.0, "dt": 0.0}, "step size 0 is not positive"),
            ({"t_end": 1.0, "dt": float("nan")}, "step size nan is not positive"),
            ({"t_end": 1e-3}, "step size 0.0488281 is longer than t_end 0.001 at grid size n = 64"),
            ({"t_end": float("nan")}, "t_end nan is not finite"),
            ({"t_end": math.inf}, "t_end inf is not finite"),
            ({"t_end": -math.inf}, "t_end -inf is not finite"),
            # the step count is bounded before any step runs
            ({"t_end": 1.0, "dt": 1e-300}, "1e+300 steps exceed MAX_STEPS = 10000000 at grid size n = 64"),
            ({"t_end": 1e300, "dt": 1e-300}, "inf steps exceed MAX_STEPS = 10000000 at grid size n = 64"),
            ({"t_end": 1e7 + 1, "dt": 1.0}, "10000001 steps exceed MAX_STEPS = 10000000 at grid size n = 64"),
        ],
    )
    def test_bad_step_names_its_sizes(self, kw, message):
        with pytest.raises(JetError) as err:
            SimConfig(grid=Grid1D(-20, 20, 64), **kw)
        assert str(err.value) == message

    def test_step_count_at_the_limit_is_accepted(self):
        cfg = SimConfig(grid=Grid1D(-20, 20, 64), t_end=float(sim.MAX_STEPS), dt=1.0)
        assert round(cfg.t_end / cfg.step_size()) == sim.MAX_STEPS

    @pytest.mark.parametrize(
        "bounds,message",
        [
            ((-math.inf, 20.0), "x_min -inf is not finite"),
            ((-20.0, math.inf), "x_max inf is not finite"),
            ((math.nan, 20.0), "x_min nan is not finite"),
            ((-20.0, math.nan), "x_max nan is not finite"),
        ],
    )
    def test_non_finite_bounds_are_named(self, bounds, message):
        with pytest.raises(JetError) as err:
            Grid1D(*bounds, 64)
        assert str(err.value) == message

    def test_exact_boundary_requires_family(self):
        with pytest.raises(JetError):
            SimConfig(grid=Grid1D(-20, 20, 64), t_end=1.0, boundary="exact")

    def test_config_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "x_min = -20\nx_max = 20\nn = 64\nt_end = 0.1\n"
            "boundary = exact\nfamily = eq93\nparam.mu = 1.0\n"
            "monitors = eq32, eq33\noutput_stride = 5\n# comment\n"
        )
        cfg = parse_config(str(path))
        assert cfg.grid.n == 64
        assert cfg.family == "eq93"
        assert cfg.binding == {"mu": 1.0}
        assert cfg.monitors == ("eq32", "eq33")

    @pytest.mark.parametrize("key", ["monitor", "N", "param.", "output-stride", "cfl"])
    def test_unknown_config_key_rejected(self, key):
        with pytest.raises(JetError, match=f"unknown config key {key!r}"):
            config_from_mapping({"n": "64", key: "1"})

    @pytest.mark.parametrize("key,value", [("n", "abc"), ("n", "64.5"), ("t_end", "soon"), ("param.mu", "x")])
    def test_malformed_number_names_its_key(self, key, value):
        with pytest.raises(JetError, match=f"config key {key!r}: {value!r}"):
            config_from_mapping({key: value})

    def test_output_stride_below_one_rejected(self):
        with pytest.raises(JetError, match="output_stride"):
            SimConfig(grid=Grid1D(-20, 20, 64), t_end=1.0, output_stride=0)

    @pytest.mark.parametrize(
        "stride,message",
        [
            (2.5, "output_stride = 2.5 is not an integer"),
            (math.nan, "output_stride = nan is not an integer"),
            (5.0, "output_stride = 5.0 is not an integer"),
            ("5", "output_stride = '5' is not an integer"),
        ],
    )
    def test_bad_output_stride_is_named(self, stride, message):
        # rejected when the config is built, so no run starts at it
        with pytest.raises(JetError) as err:
            SimConfig(grid=Grid1D(-20, 20, 64), t_end=1.0, output_stride=stride)
        assert str(err.value) == message

    def test_integer_output_strides_are_accepted(self):
        for stride in (1, 7, np.int64(7), np.int32(3)):
            cfg = SimConfig(grid=Grid1D(-20, 20, 64), t_end=1.0, output_stride=stride)
            assert cfg.output_stride == stride

    @pytest.mark.parametrize("key,first,second", [("n", "64", "128"), ("param.mu", "1.0", "2.0")])
    def test_repeated_config_key_rejected(self, tmp_path, key, first, second):
        path = tmp_path / "run.cfg"
        path.write_text(f"x_min = -20\nx_max = 20\n{key} = {first}\nt_end = 0.1\n{key} = {second}\n")
        with pytest.raises(JetError) as err:
            parse_config(str(path))
        assert str(err.value) == f"config key {key!r} is repeated"

    def test_bad_config_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense without equals\n")
        with pytest.raises(JetError):
            parse_config(str(path))


class TestRhs:
    def test_constant_state(self):
        g = Grid1D(-20, 20, 64)
        st = FieldState(u=np.full(64, 1.5), v=np.full(64, -0.5), time=0.0)
        du, dv = rhs(st, g)
        assert np.max(np.abs(du)) == 0.0
        assert np.max(np.abs(dv)) == 0.0

    def test_sine_wave_second_order(self):
        errs = []
        for n in (128, 256):
            g = Grid1D(0.0, 2 * math.pi, n)
            k = 3.0
            st = FieldState(u=np.sin(k * g.x), v=np.zeros(n), time=0.0)
            du, dv = rhs(st, g)
            du_exact = -np.sin(k * g.x) * k * np.cos(k * g.x)
            dv_exact = (k**3 / 3.0) * np.cos(k * g.x)
            errs.append(
                max(
                    float(np.max(np.abs(du - du_exact))),
                    float(np.max(np.abs(dv - dv_exact))),
                )
            )
        assert math.log2(errs[0] / errs[1]) > 1.8

    def test_nan_guard(self):
        g = Grid1D(-20, 20, 64)
        u = np.zeros(64)
        u[10] = math.nan
        st = FieldState(u=u, v=np.zeros(64), time=0.0)
        with pytest.raises(JetError):
            rhs(st, g)


class TestIntegrate:
    def test_zero_data_stays_zero(self):
        g = Grid1D(-10, 10, 32)
        res = integrate(
            SimConfig(grid=g, t_end=0.05, boundary="periodic", monitors=("eq33",), output_stride=5),
            initial=FieldState(u=np.zeros(32), v=np.zeros(32), time=0.0),
        )
        assert np.max(np.abs(res.state.u)) == 0.0
        series = res.monitors["eq33"]
        assert all(b == series.budget[0] for b in series.budget)

    def test_non_finite_initial_data_raises_at_the_start(self):
        g = Grid1D(-10, 10, 32)
        u = np.zeros(32)
        u[5] = math.nan
        cfg = SimConfig(grid=g, t_end=0.05, boundary="periodic")
        with pytest.raises(JetError, match=r"non-finite field at t = 0\.25$"):
            integrate(cfg, initial=FieldState(u=u, v=np.zeros(32), time=0.25))

    def test_repeated_monitor_label_is_rejected(self):
        with pytest.raises(JetError, match=r"^conservation-law label 'eq33' is repeated$"):
            integrate(_kink(64, 0.05, ("eq33", "eq32", "eq33")))

    def test_monitor_with_a_t_derivative_is_rejected_on_bounded_domains(self):
        # the eq29 flux reads u_xt and v_xt; a periodic run reads no flux
        with pytest.raises(JetError, match=r"^monitor expressions must be t-derivative-free$"):
            integrate(_kink(64, 0.05, ("eq29",)))
        assert set(integrate(*_periodic_wave(("eq29",))).monitors) == {"eq29"}

    def test_initial_data_must_fill_the_grid(self):
        g = Grid1D(-10, 10, 32)
        cfg = SimConfig(grid=g, t_end=0.05, boundary="periodic")
        with pytest.raises(JetError, match="32 values"):
            integrate(cfg, initial=FieldState(u=np.zeros(32), v=np.zeros(31), time=0.0))

    def test_periodic_mass_conservation(self):
        n = 64
        g = Grid1D(-10.0, 10.0, n)
        u0 = 0.1 * np.sin(2 * np.pi * g.x / 20.0)
        v0 = 0.2 + 0.05 * np.cos(2 * np.pi * g.x / 20.0)
        res = integrate(
            SimConfig(grid=g, t_end=0.2, boundary="periodic", monitors=("eq33",), output_stride=20),
            initial=FieldState(u=u0, v=v0, time=0.0),
        )
        assert res.monitors["eq33"].relative_drift() < 1e-7

    def test_stable_window_budget_drifts(self):
        cfg = SimConfig(
            grid=Grid1D(-20.0, 20.0, 128),
            t_end=0.25,
            boundary="exact",
            family="eq93",
            binding={"mu": 1.0},
            monitors=("eq32", "eq33"),
            output_stride=50,
        )
        res = integrate(cfg)
        for label, series in res.monitors.items():
            assert series.relative_drift() < 1e-5, label

    def test_boundary_flux_budget_vs_raw(self):
        # the u+v integral genuinely changes through the boundary; the
        # budget stays constant because the through-flux is accounted
        cfg = SimConfig(
            grid=Grid1D(-20.0, 20.0, 128),
            t_end=0.25,
            boundary="exact",
            family="eq93",
            binding={"mu": 1.0},
            monitors=("eq33",),
            output_stride=50,
        )
        res = integrate(cfg)
        series = res.monitors["eq33"]
        raw_change = abs(series.raw[-1] - series.raw[0]) / abs(series.raw[0])
        assert raw_change > 1e-3
        assert series.relative_drift() < 1e-10

    def test_dt_halving_temporal_dominance(self):
        base = SimConfig(
            grid=Grid1D(-20.0, 20.0, 128), t_end=0.25,
            boundary="exact", family="eq93", binding={"mu": 1.0},
        )
        fine = SimConfig(
            grid=base.grid, t_end=0.25, dt=base.step_size() / 2,
            boundary="exact", family="eq93", binding={"mu": 1.0},
        )
        r1, r2 = integrate(base), integrate(fine)
        diff = float(
            np.max(np.abs(r1.state.u - r2.state.u))
            + np.max(np.abs(r1.state.v - r2.state.v))
        )
        assert diff < 1e-8

    def test_blowup_is_reported_with_time(self):
        cfg = SimConfig(
            grid=Grid1D(-20.0, 20.0, 512), t_end=1.0,
            boundary="exact", family="eq93", binding={"mu": 1.0},
        )
        with pytest.raises(BlowupError) as err:
            integrate(cfg)
        assert 0.0 < err.value.time < 1.0

    def test_blowup_time_scales_with_resolution(self):
        # the linearized growth rate is ~ sqrt(3)/2 / dx^2, so halving dx
        # divides the contamination time by about four
        times = []
        for n in (256, 512):
            cfg = SimConfig(
                grid=Grid1D(-20.0, 20.0, n), t_end=2.0,
                boundary="exact", family="eq93", binding={"mu": 1.0},
            )
            with pytest.raises(BlowupError) as err:
                integrate(cfg)
            times.append(err.value.time)
        assert 1.5 < times[0] / times[1] < 6.0


def _kink(n, t_end, monitors=(), **kw):
    return SimConfig(
        grid=Grid1D(-20.0, 20.0, n), t_end=t_end, boundary="exact",
        family="eq93", binding={"mu": 1.0}, monitors=monitors, **kw,
    )


def _periodic_wave(monitors):
    g = Grid1D(-10.0, 10.0, 64)
    cfg = SimConfig(grid=g, t_end=0.2, boundary="periodic", monitors=monitors, output_stride=20)
    initial = FieldState(
        u=0.1 * np.sin(2 * np.pi * g.x / 20.0),
        v=0.2 + 0.05 * np.cos(2 * np.pi * g.x / 20.0),
        time=0.0,
    )
    return cfg, initial


class TestReferenceOracle:
    """The fused stepper against the unfused one it replaced."""

    def assert_same(self, cfg, initial=None, rtol=0.0):
        want = sim_reference.integrate(cfg, initial)
        got = integrate(cfg, initial)
        assert got.steps == want.steps
        assert got.state.time == want.state.time
        assert got.l2_error == want.l2_error
        assert list(got.monitors) == list(want.monitors)
        if rtol == 0.0:
            assert np.array_equal(got.state.u, want.state.u)
            assert np.array_equal(got.state.v, want.state.v)
        for label, series in want.monitors.items():
            other = got.monitors[label]
            assert other.times == series.times, label
            np.testing.assert_allclose(other.raw, series.raw, rtol=rtol, atol=0, err_msg=label)
            np.testing.assert_allclose(other.budget, series.budget, rtol=rtol, atol=0, err_msg=label)

    def test_exact_kink_with_monitors(self):
        self.assert_same(_kink(128, 0.25, ("eq32", "eq33"), output_stride=7))

    def test_periodic_monitors(self):
        self.assert_same(*_periodic_wave(("eq33", "eq32")))

    @pytest.mark.parametrize("boundary", ["exact", "periodic"])
    def test_coordinate_dependent_law(self, boundary):
        if boundary == "exact":
            self.assert_same(_kink(128, 0.1, ("eq30",), output_stride=5))
        else:
            self.assert_same(*_periodic_wave(("eq30",)))

    def test_higher_powers_within_rounding(self):
        # the eq31 flux has u^3 v: numpy's vectorized pow and the float
        # pow on the edge values may differ in the last bit
        self.assert_same(_kink(128, 0.1, ("eq31",), output_stride=5), rtol=1e-12)

    @pytest.mark.parametrize("label", ["eq30", "eq32", "eq33"])
    def test_float_flux_equals_array_flux(self, label):
        # the flux program runs once over the stage values of a block; on
        # each element alone, as one stage at a time would, its squares
        # must round as they do over the block. The elements go in as
        # one-element arrays, as the edge x does: a**2 of a Python float
        # is libm's pow, which may differ from numpy's a*a in the last bit
        flux = direct_laws()[label].flux
        run = poly_program((flux,))
        rng = np.random.default_rng(0)
        arrays = {str(v): rng.standard_normal(4000) * 10.0 for v in flux.jet_vars()}
        x = rng.uniform(-20.0, 20.0, 4000)
        (want,) = run({**arrays, "x": x, "t": 0.7})
        got = [
            float(run({**{k: a[i : i + 1] for k, a in arrays.items()}, "x": x[i : i + 1], "t": 0.7})[0][0])
            for i in range(4000)
        ]
        assert np.array_equal(got, want)

    def test_blowup_time(self):
        cfg = _kink(256, 2.0)
        with pytest.raises(BlowupError) as want:
            sim_reference.integrate(cfg)
        with pytest.raises(BlowupError) as got:
            integrate(cfg)
        assert got.value.time == want.value.time

    @pytest.mark.parametrize("boundary", ["exact", "periodic"])
    def test_public_rhs(self, boundary):
        cfg = _kink(64, 0.1) if boundary == "exact" else _periodic_wave(())[0]
        g = cfg.grid
        state = FieldState(u=np.cos(g.x / 3.0), v=0.5 + np.sin(g.x / 4.0) ** 2, time=0.03)
        want = sim_reference.rhs(state, g, sim_reference._Boundary(cfg))
        got = rhs(state, g, sim._Boundary(cfg))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_exact_kink_over_many_blocks(self):
        # samples fall inside blocks and on their ends; the record is
        # flushed at both
        cfg = _kink(128, 0.9, ("eq32", "eq33", "eq30"), output_stride=50)
        assert sim_reference.integrate(cfg).steps > 2 * sim.BLOCK_STEPS
        self.assert_same(cfg)

    @pytest.mark.parametrize("stride", [1, 7, sim.BLOCK_STEPS, sim.BLOCK_STEPS + 1])
    def test_budgets_filled_at_the_block_flush(self, stride):
        # two full blocks and a short third: samples fall inside blocks,
        # on their ends and on the last step, and every budget comes from
        # the flush at the end of its block
        cfg = _kink(64, (2 * sim.BLOCK_STEPS + 5) * 0.005, ("eq32", "eq33", "eq30"), dt=0.005, output_stride=stride)
        self.assert_same(cfg)

    def test_flux_evaluated_once_per_block(self, monkeypatch):
        # every sample of stride 1 takes no flux evaluation of its own:
        # the one flux program of the laws runs once per block, over both
        # edges stacked, and the density program once per sample
        runs = []
        compile_polys = sim.poly_program

        def counted(polys):
            run = compile_polys(polys)
            return lambda values: runs.append(polys) or run(values)

        monkeypatch.setattr(sim, "poly_program", counted)
        labels = ("eq32", "eq33")
        res = integrate(_kink(64, (2 * sim.BLOCK_STEPS + 5) * 0.005, labels, dt=0.005, output_stride=1))
        blocks = -(-res.steps // sim.BLOCK_STEPS)
        assert blocks == 3 and len(res.monitors["eq32"].budget) == res.steps + 1
        fluxes = tuple(direct_laws()[label].flux for label in labels)
        densities = tuple(direct_laws()[label].density for label in labels)
        assert sum(polys == fluxes for polys in runs) == blocks
        assert sum(polys == densities for polys in runs) == res.steps + 1
        assert len(runs) == blocks + res.steps + 1

    def test_each_label_tuple_is_compiled_once(self):
        # the densities and the fluxes of a label tuple are compiled and
        # bound once per process, whatever the number of runs
        poly_program.cache_clear()
        for _ in range(2):
            integrate(_kink(64, 0.05, ("eq32", "eq33")))
        assert poly_program.cache_info()[:4] == (2, 2, 64, 2)  # hits, misses, maxsize, size
        integrate(*_periodic_wave(("eq32", "eq33")))
        assert poly_program.cache_info().misses == 2  # a periodic run reads no flux

    def test_ghost_program_is_compiled_once_and_bound_per_run(self):
        # eq93 at mu = 1, then 0.5, then 1 again in one process: the (u, v)
        # program is compiled once and each run binds its own mu, so no
        # binding leaks into the next run. Each run is bitwise the same run
        # compiled cold and the reference stepper's run
        kink = _kink(64, 0.1, ("eq32", "eq33"), output_stride=3)
        cfgs = [dataclasses.replace(kink, binding={"mu": mu}) for mu in (1.0, 0.5, 1.0)]
        analytic._expr_program.cache_clear()
        warm = [integrate(cfg) for cfg in cfgs]
        assert analytic._expr_program.cache_info()[:2] == (2, 1)  # hits, misses
        assert warm[0].l2_error != warm[1].l2_error
        for cfg, got in zip(cfgs, warm):
            analytic._expr_program.cache_clear()
            cold = integrate(cfg)
            want = sim_reference.integrate(cfg)
            for other in (cold, want):
                assert (got.steps, got.state.time, got.l2_error) == (other.steps, other.state.time, other.l2_error)
                assert got.state.u.tobytes() == other.state.u.tobytes()
                assert got.state.v.tobytes() == other.state.v.tobytes()
                assert list(got.monitors) == list(other.monitors)
                for label, series in got.monitors.items():
                    theirs = other.monitors[label]
                    assert (series.times, series.raw, series.budget) == (theirs.times, theirs.raw, theirs.budget)

    def test_ghosts_evaluated_once_per_stage_time(self, monkeypatch):
        # the one (u, v) callable sees every distinct stage time exactly
        # once at each of the four ghost nodes, in whichever block call
        # carries it, and is called twice on the grid for the exact fields
        fields = []

        def counting_compile(exprs, binding):
            fns = [sim_reference.compile_expr(e, binding) for e in exprs]
            calls = []
            fields.append(calls)

            def counted(x, t):
                calls.append((np.array(x, dtype=float), np.broadcast_to(t, np.shape(x)).astype(float)))
                return tuple(f(x, t) for f in fns)

            return counted

        monkeypatch.setattr(sim, "compile_expr", counting_compile)
        # eq31 samples u_x, so the samples pad the state too
        cfg = _kink(64, 1.5, ("eq32", "eq31"), dt=0.01, output_stride=3)
        res = integrate(cfg)
        assert res.steps > 2 * sim.BLOCK_STEPS
        dt = cfg.t_end / res.steps
        t, stage_times = 0.0, [0.0]
        for _ in range(res.steps):
            stage_times += [t + 0.5 * dt, t + dt]
            t = t + dt
        ghost_x = np.concatenate([cfg.grid.ghost_x("left"), cfg.grid.ghost_x("right")])
        want = sorted((float(tt), float(xx)) for tt in stage_times for xx in ghost_x)
        assert len(fields) == 1
        for calls in fields:
            exact = [(x, t) for x, t in calls if len(x) == cfg.grid.n]
            ghost = [(x, t) for x, t in calls if len(x) != cfg.grid.n]
            assert [float(t[0]) for _, t in exact] == [0.0, res.state.time]
            got = sorted(
                (float(tt), float(xx)) for x, t in ghost for tt, xx in zip(t.tolist(), x.tolist())
            )
            assert got == want


_SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300])


@st.composite
def _padded_fields(draw):
    """(grid, u and v, ghosts as a (2, 4) array): normal samples with
    special values at random nodes of the padded rows, ghosts included."""
    n = draw(st.sampled_from([16, 17, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    padded = rng.standard_normal((2, n + 4))
    for row, col, value in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, n + 3), _SPECIAL), max_size=8)):
        padded[row, col] = value
    ghosts = np.concatenate([padded[:, :2], padded[:, -2:]], axis=1)
    return Grid1D(-20.0, 20.0, n), padded[:, 2:-2], ghosts


def _same_values(got, want):
    # equal, NaN where NaN, and each zero of the same sign
    got, want = np.asarray(got), np.asarray(want)
    zeros = want == 0
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got[zeros]), np.signbit(want[zeros]))


class TestStageKernel:
    """The stage against the reference right side, value for value, on
    fields and ghosts with signed zeros, NaN, infinities and overflow."""

    @settings(max_examples=150, deadline=None)
    @given(case=_padded_fields(), exact=st.booleans())
    def test_stage_matches_reference(self, case, exact):
        grid, fields, ghosts = case
        stage = sim._Stage(grid)
        stage.u[...], stage.v[...] = fields
        out = stage.span()
        with np.errstate(all="ignore"):
            got = np.negative(stage.split(stage(ghosts.reshape(2, 2, 2) if exact else None, out)))
            want = sim_reference.padded_rhs(
                fields[0], fields[1], ((ghosts[0, :2], ghosts[0, 2:]), (ghosts[1, :2], ghosts[1, 2:])) if exact else None, grid
            )
        assert _same_values(got, want)
        assert out[grid.n : grid.n + 4].tolist() == [0.0] * 4  # the gap is not written

    @settings(max_examples=60, deadline=None)
    @given(case=_padded_fields(), boundary=st.sampled_from(["exact", "periodic"]))
    def test_public_rhs_matches_reference(self, case, boundary):
        grid, fields, _ = case
        cfg = SimConfig(grid=grid, t_end=1.0, dt=0.01, boundary=boundary, family="eq93", binding={"mu": 1.0})
        state = FieldState(u=fields[0], v=fields[1], time=0.03)
        with np.errstate(all="ignore"):
            try:
                want = sim_reference.rhs(state, grid, sim_reference._Boundary(cfg))
            except JetError as err:
                with pytest.raises(JetError, match=f"^{err}$"):
                    rhs(state, grid, sim._Boundary(cfg))
                return
            got = rhs(state, grid, sim._Boundary(cfg))
        assert _same_values(got, want)

    def test_ghost_views_alias_exactly_the_ghost_cells(self):
        n = 16
        stage = sim._Stage(Grid1D(-20.0, 20.0, n))
        for view, cols in ((stage.ghosts, (0, 1, n + 2, n + 3)), (stage.wrap, (n, n + 1, 2, 3))):
            aliased = {
                (row, col)
                for row in range(3)
                for col in range(n + 4)
                if np.shares_memory(view, stage.buf[row, col : col + 1])
            }
            assert aliased == {(row, col) for row in (1, 2) for col in cols}
        stage.buf[...] = np.arange(3 * (n + 4)).reshape(3, n + 4)
        before = stage.buf.copy()
        marks = -1.0 - np.arange(8).reshape(2, 2, 2)
        stage.ghosts[...] = marks
        changed = np.argwhere(stage.buf != before).tolist()
        assert changed == [[row, col] for row in (1, 2) for col in (0, 1, n + 2, n + 3)]
        assert stage.buf[1:, [0, 1, n + 2, n + 3]].tolist() == marks.reshape(2, 4).tolist()
        stage.pad(None)  # the periodic wrap: interior columns n, n+1 and 2, 3
        assert np.array_equal(stage.buf[1:, [0, 1, n + 2, n + 3]], before[1:, [n, n + 1, 2, 3]])
        assert stage.buf[0].tolist() == before[0].tolist()


def _u(dx=0, dt=0):
    return JetPoly.var("u", dx, dt)


def _v(dx=0, dt=0):
    return JetPoly.var("v", dx, dt)


# the pair with u_xxx's coefficient at -1/3, the well-posed sign
_NEGATIVE_ALPHA = (_u() * _u(1) + _v(1), _u(1) * _v() + _u() * _v(1) - _u(3) * Fraction(1, 3))
# second x-derivatives of both fields, a power, a signed first term, a
# numerator above 1 and a constant: both padded rows are doubled
_DIFFUSIVE = (
    _u() * _u(1) + _v(1) - _u(2) * Fraction(2, 7),
    -_v(2) * Fraction(1, 2) + _u() ** 2 * _v(1) * 3 + _u(3) * Fraction(1, 3) + JetPoly.const(Fraction(5, 4)),
)


def _padded_values(grid, fields, ghosts):
    """The ``sim._stencil`` value of every jet coordinate name of u and v
    up to x-order 3, from the fields and the (2, 4) ghosts, or the
    periodic wrap for None."""
    n, values = grid.n, {}
    for i, (name, row) in enumerate(zip("uv", fields)):
        padded = sim_reference._pad(row, None if ghosts is None else (ghosts[i, :2], ghosts[i, 2:]))
        for k in range(4):
            values[str(JetVar(name, k))] = sim._stencil([padded[j : j + n] for j in range(5)], k, grid.dx)
    return values


def _term_by_term(polys, values):
    """Each polynomial summed term after term in ``JetPoly`` order, each
    term the product of its factors left to right, times its numerator
    unless 1, divided by its denominator unless 1."""
    rows = []
    for poly in polys:
        total = None
        for mono, coef in poly.terms.items():
            term = None
            for var, power in mono.jet:
                for _ in range(power):
                    term = values[str(var)] if term is None else term * values[str(var)]
            term = 1.0 if term is None else term
            term = term if coef.numerator == 1 else term * coef.numerator
            term = term if coef.denominator == 1 else term / coef.denominator
            total = term if total is None else total + term
        rows.append(total)
    return rows


def _stage_rows(grid, fields, ghosts, polys=None):
    stage = sim._Stage(grid) if polys is None else sim._Stage(grid, polys)
    stage.u[...], stage.v[...] = fields
    return stage.split(stage(None if ghosts is None else ghosts.reshape(2, 2, 2), stage.span()))


class TestGeneratedStage:
    """The stage is generated from its right sides: for any right sides it
    is their term-by-term evaluation at the stencil values, and for the
    pair it integrates the system the report verifies."""

    def test_the_pair_is_todays_thirteen_calls(self):
        *_, calls = sim._stage_plan(physical_system().rhs)
        assert [op for op, _ in calls] == [
            "subtract", "add", "subtract", "add", "subtract", "divide",
            "multiply", "add", "multiply", "multiply", "add", "divide", "add",
        ]

    def test_a_plan_is_made_once_per_right_side_tuple(self):
        sim._stage_plan.cache_clear()
        for _ in range(2):
            integrate(_kink(64, 0.05))
        sim._Stage(Grid1D(-20.0, 20.0, 16), _NEGATIVE_ALPHA)
        assert sim._stage_plan.cache_info()[:2] == (1, 2)  # hits, misses

    @settings(max_examples=80, deadline=None)
    @given(case=_padded_fields(), exact=st.booleans(), polys=st.sampled_from([_NEGATIVE_ALPHA, _DIFFUSIVE]))
    def test_stage_follows_its_polynomials(self, case, exact, polys):
        grid, fields, ghosts = case
        ghosts = ghosts if exact else None
        with np.errstate(all="ignore"):
            got = _stage_rows(grid, fields, ghosts, polys)
            want = _term_by_term(polys, _padded_values(grid, fields, ghosts))
        for g, w in zip(got, want):
            assert _same_values(g, np.broadcast_to(w, g.shape))

    def test_both_padded_rows_are_doubled_for_second_derivatives_of_both(self):
        stage = sim._Stage(Grid1D(-20.0, 20.0, 16), _DIFFUSIVE)
        assert stage.buf.shape == (4, 20)
        assert np.shares_memory(stage.u, stage.buf[2]) and np.shares_memory(stage.v, stage.buf[3])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (_u(4), "stencils cover derivatives up to third order"),
            (_u(0, 1), "right sides must be t-derivative-free"),
            (JetPoly.param("mu") * _u(1), "right sides must have no free parameters"),
            (JetPoly.x() * _u(1), "right sides must not depend on x or t explicitly"),
            (JetPoly.t() + _u(1), "right sides must not depend on x or t explicitly"),
            (JetPoly.var("w", 1), "right sides read w, which is not one of the fields u, v"),
        ],
        ids=["x-order-4", "t-derivative", "parameter", "explicit-x", "explicit-t", "unknown-field"],
    )
    def test_unsupported_right_side_is_rejected(self, bad, message):
        for polys in ((bad, _v(1)), (_u(1), _v(1) + bad)):
            with pytest.raises(JetError, match=f"^{message}$"):
                sim._Stage(Grid1D(-20.0, 20.0, 16), polys)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([16, 40, 128]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        exact=st.booleans(),
    )
    def test_stage_integrates_the_reported_system(self, n, seed, scale, exact):
        # the program multiplies by the float 1/3 where the stage divides
        # by 3, so the v row may differ by a few ulps of its largest term
        rng = np.random.default_rng(seed)
        grid = Grid1D(-20.0, 20.0, n)
        fields, ghosts = scale * rng.standard_normal((2, n)), scale * rng.standard_normal((2, 4))
        ghosts = ghosts if exact else None
        values = _padded_values(grid, fields, ghosts)
        got = _stage_rows(grid, fields, ghosts)
        want = poly_program(physical_system().rhs)({**values, "x": grid.x, "t": 0.0})
        assert np.array_equal(got[0], want[0])
        u, u_x, u_xxx, v, v_x = (values[k] for k in ("u[0,0]", "u[1,0]", "u[3,0]", "v[0,0]", "v[1,0]"))
        bound = 4 * np.finfo(float).eps * (np.abs(u_x * v) + np.abs(u * v_x) + np.abs(u_xxx) / 3)
        assert np.all(np.abs(got[1] - want[1]) <= bound)


class TestStepGuards:
    """The checks at the end of an RK4 step, against the reference
    stepper: a NaN in u must not hide a blow-up of v, and a NaN alone is
    the non-finite error, not a blow-up."""

    def poisoned(self, monkeypatch, u, v):
        # the first step's fourth stage slope gets u and v at node 5, so
        # that step ends with them scaled by dt/6 (a sign is irrelevant)
        calls = []

        class Stage(sim._Stage):
            def kernel(self, out):
                run = super().kernel(out)

                def poisoned(ghosts, edges=None):
                    run(ghosts, edges)
                    calls.append(None)
                    if len(calls) == 4:
                        out[5], out[self.w + 5] = u, v
                    return out

                return poisoned

        def reference_rhs(state, grid, boundary=None):
            du, dv = rhs_before(state, grid, boundary)
            calls.append(None)
            if len(calls) == 4:
                du[5], dv[5] = u, v
            return du, dv

        rhs_before = sim_reference.rhs
        monkeypatch.setattr(sim, "_Stage", Stage)
        monkeypatch.setattr(sim_reference, "rhs", reference_rhs)
        cfg = _kink(64, 0.1)
        errors = []
        for run in (sim_reference.integrate, integrate):
            del calls[:]
            with pytest.raises(JetError) as err:
                run(cfg)
            errors.append(err.value)
        return errors

    def test_nan_in_u_does_not_hide_blowup_of_v(self, monkeypatch):
        want, got = self.poisoned(monkeypatch, math.nan, 1e300)
        assert type(want) is type(got) is BlowupError
        assert got.time == want.time > 0.0
        assert str(got) == str(want)

    def test_nan_alone_is_non_finite(self, monkeypatch):
        want, got = self.poisoned(monkeypatch, math.nan, 0.0)
        assert type(want) is type(got) is JetError
        assert "non-finite" in str(got) and str(got) == str(want)


def _solver_run(n, monitors):
    """A perfbench solver run: the eq93 kink at cfl 0.2, n = 128 for 112
    steps or n = 512 for 400."""
    dt = 0.2 * (40.0 / n) ** 3
    return _kink(n, {128: 112, 512: 400}[n] * dt, monitors, dt=dt, output_stride=20)


class TestGapCells:
    """The 4 gap cells between the u and v rows of a span (see
    ``sim._Stage``) never reach a field, a monitor or the guard."""

    # NaN propagates through a max, so infinities alone are a poison of
    # their own: they would trip a guard that read the gap
    POISONS = [(math.nan,) * 4, (math.inf, -math.inf) * 2, (math.nan, math.inf, -math.inf, math.nan)]

    @staticmethod
    def poison_gaps(monkeypatch, poison):
        # every stage leaves the poison in the gap of its slope
        class Stage(sim._Stage):
            def kernel(self, out):
                run = super().kernel(out)

                def poisoned(ghosts, edges=None):
                    run(ghosts, edges)
                    out[self.n : self.w] = poison
                    return out

                return poisoned

        monkeypatch.setattr(sim, "_Stage", Stage)

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(lambda: (_kink(128, 0.25, ("eq32", "eq33"), output_stride=7), None), id="exact"),
            pytest.param(lambda: _periodic_wave(("eq33", "eq32")), id="periodic"),
            pytest.param(lambda: (_kink(128, 0.1, ("eq30",), output_stride=5), None), id="exact-eq30"),
        ],
    )
    @pytest.mark.parametrize("poison", POISONS, ids=["nan", "inf", "mixed"])
    def test_poisoned_gaps_change_nothing(self, monkeypatch, case, poison):
        cfg, initial = case()
        self.poison_gaps(monkeypatch, poison)
        with np.errstate(invalid="ignore"):  # inf - inf in the gaps
            TestReferenceOracle().assert_same(cfg, initial)

    def test_poisoned_gaps_keep_the_sampled_derivatives(self, monkeypatch):
        # eq31 samples u_x, so each sample pads the state
        self.poison_gaps(monkeypatch, self.POISONS[2])
        with np.errstate(invalid="ignore"):
            TestReferenceOracle().assert_same(_kink(128, 0.1, ("eq31",), output_stride=5), rtol=1e-12)

    def test_poisoned_gaps_keep_the_blowup_time(self, monkeypatch):
        cfg = _kink(256, 2.0)
        with pytest.raises(BlowupError) as want:
            sim_reference.integrate(cfg)
        self.poison_gaps(monkeypatch, self.POISONS[2])
        with np.errstate(invalid="ignore"), pytest.raises(BlowupError) as got:
            integrate(cfg)
        assert got.value.time == want.value.time

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param((n, monitors), id=f"n{n}{'' if monitors else '.bare'}")
            for n in (128, 512)
            for monitors in (("eq32", "eq33"), ())
        ]
        + [pytest.param(None, id="periodic")],
    )
    def test_no_floating_point_exception(self, run):
        # the four perfbench solver runs and one periodic run, with every
        # floating-point exception raised
        cfg, initial = _periodic_wave(("eq33", "eq32")) if run is None else (_solver_run(*run), None)
        want = integrate(cfg, initial)
        with np.errstate(all="raise"):
            got = integrate(cfg, initial)
        assert np.array_equal(got.state.u, want.state.u) and np.array_equal(got.state.v, want.state.v)


class _RecordedCall:
    """A numpy function or ufunc that appends (name, args, kwargs) to
    ``calls`` at each call; a ufunc method (``reduceat``) is recorded
    under the ufunc's name."""

    def __init__(self, fn, name, calls):
        self.fn, self.name, self.calls = fn, name, calls

    def __call__(self, *args, **kwargs):
        self.calls.append((self.name, args, kwargs))
        return self.fn(*args, **kwargs)

    def __getattr__(self, attr):
        return _RecordedCall(getattr(self.fn, attr), f"{self.name}.{attr}", self.calls)


class _RecordedNumpy:
    """``numpy`` with every function call recorded; types and constants
    pass through."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        attr = getattr(np, name)
        if callable(attr) and not isinstance(attr, type):
            return _RecordedCall(attr, name, self.calls)
        return attr


class TestStepCost:
    """What an RK4 step pays in numpy calls made through ``sim.np``: 4
    stages of 13 ufunc calls, 6 for the stage inputs, 6 for the RK4
    combination and 3 for the guard, every one on 1-D C-contiguous
    arrays and none on a Python number."""

    STEP_CALLS = 4 * 13 + 6 + 6 + 3

    CASES = [
        pytest.param(lambda: (_kink(64, 0.1, ("eq32", "eq33", "eq31"), output_stride=3), None), id="exact"),
        pytest.param(lambda: (_kink(64, 0.1), None), id="exact-bare"),
        pytest.param(lambda: _periodic_wave(("eq33", "eq32")), id="periodic"),
    ]

    @staticmethod
    def ufunc_calls(calls):
        return [
            (name, args, kwargs) for name, args, kwargs in calls if isinstance(getattr(np, name.split(".")[0]), np.ufunc)
        ]

    @staticmethod
    def recorded(monkeypatch, cfg, initial=None):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(sim, "np", _RecordedNumpy(calls))
            integrate(cfg, initial)
        return calls

    @pytest.mark.parametrize("monitors", [(), ("eq32", "eq33")], ids=["bare", "monitored"])
    def test_calls_per_step(self, monkeypatch, monitors):
        # within one block and with one sample at the end, a step more
        # costs exactly one step's calls
        counts = [
            len(self.recorded(monkeypatch, _kink(64, steps * 0.005, monitors, dt=0.005, output_stride=1000)))
            for steps in (3, 4)
        ]
        assert counts[1] - counts[0] == self.STEP_CALLS

    @pytest.mark.parametrize("case", CASES[::2])
    def test_every_ufunc_operand_is_flat_and_contiguous(self, monkeypatch, case):
        ufunc_calls = self.ufunc_calls(self.recorded(monkeypatch, *case()))
        names = {name for name, _, _ in ufunc_calls}
        assert {"subtract", "add", "multiply", "divide", "abs", "maximum.reduceat"} <= names
        for name, args, kwargs in ufunc_calls:
            for operand in [*args, *kwargs.values()]:
                if isinstance(operand, np.ndarray):
                    assert operand.ndim == 1 and operand.flags.c_contiguous, name

    @pytest.mark.parametrize("case", CASES)
    def test_no_ufunc_gets_a_number(self, monkeypatch, case):
        # numpy's path for a Python number or a 0-d operand costs more per
        # call than a second array: every ufunc call of a run, the step
        # loop's included, takes arrays of at least one dimension alone,
        # and its output positionally
        ufunc_calls = self.ufunc_calls(self.recorded(monkeypatch, *case()))
        assert len(ufunc_calls) > 2 * self.STEP_CALLS
        for name, args, kwargs in ufunc_calls:
            assert kwargs == {}, name
            for operand in args:
                assert isinstance(operand, np.ndarray) and operand.ndim >= 1, (name, operand)


def _counting_compile(calls):
    def compile_counted(expr, binding):
        f = compile_expr(expr, binding)

        def counted(x, t):
            calls.append(expr)
            return f(x, t)

        return counted

    return compile_counted


class TestBlocks:
    """Exact-boundary ghosts evaluated once per block of steps, and the
    bounded block records."""

    @pytest.mark.parametrize(
        "fid,binding",
        [
            pytest.param(fid, b, id=f"{fid}-{i}")
            for fid, fam in sorted(family_registry().items())
            for i, b in enumerate(fam.default_grid)
        ],
    )
    def test_block_ghosts_are_bitwise_per_time_calls(self, fid, binding, monkeypatch):
        fam = family_registry()[fid]
        x0, x1, t0, t1 = fam.domain
        calls = []
        monkeypatch.setattr(sim, "compile_expr", _counting_compile(calls))
        cfg = SimConfig(
            grid=Grid1D(x0, x1, 32), t_end=t1 - t0, dt=(t1 - t0) / 300,
            boundary="exact", family=fid, binding=binding,
        )
        boundary = sim._Boundary(cfg)
        half, dt = 0.5 * cfg.dt, cfg.dt
        u, v = (compile_expr(e, binding) for e in (fam.u_expr, fam.v_expr))
        t = t0
        for steps in (sim.BLOCK_STEPS, 5):  # a full block, then a short one carrying its first row
            times = sim._stage_times(t, half, dt, steps)
            with np.errstate(all="ignore"):
                table = np.array(boundary.block(times))
                want = np.array([[u(boundary.ghost_x, tt), v(boundary.ghost_x, tt)] for tt in times])
            assert table.tobytes() == want.tobytes()
            t = times[-1]
        assert len(calls) == 2  # one call per block
        assert boundary.table.shape == (2 * sim.BLOCK_STEPS + 1, 2, 4)

    @pytest.mark.parametrize(
        "fid,binding",
        [
            pytest.param(fid, b, id=f"{fid}-{i}")
            for fid in ("eq93", "eq96")
            for i, b in enumerate(family_registry()[fid].default_grid)
        ],
    )
    def test_block_is_bitwise_the_two_program_ghosts(self, fid, binding):
        # u and v in one program give the ghosts that a program per field
        # gives over the same stacked samples
        fam = family_registry()[fid]
        cfg = SimConfig(grid=Grid1D(-20.0, 20.0, 64), t_end=1.0, dt=0.01, boundary="exact", family=fid, binding=binding)
        boundary = sim._Boundary(cfg)
        u, v = (compile_expr(e, binding) for e in (fam.u_expr, fam.v_expr))
        t = 0.0
        for steps in (sim.BLOCK_STEPS, sim.BLOCK_STEPS, 3):
            times = sim._stage_times(t, 0.5 * cfg.dt, cfg.dt, steps)
            x, tt = np.tile(boundary.ghost_x, len(times)), np.repeat(times, 4)
            want = np.stack([u(x, tt).reshape(-1, 4), v(x, tt).reshape(-1, 4)], axis=1)
            assert np.array(boundary.block(times)).tobytes() == want.tobytes()
            t = times[-1]
        for time in (0.0, 0.37):
            got = boundary.exact_fields(cfg.grid.x, time)
            assert [a.tobytes() for a in got] == [f(cfg.grid.x, time).tobytes() for f in (u, v)]

    def test_block_memory_does_not_grow_with_the_run(self, monkeypatch):
        made = []

        class Boundary(sim._Boundary):
            def __init__(self, cfg):
                super().__init__(cfg)
                made.append(self)

        class Monitors(sim._Monitors):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        calls = []
        monkeypatch.setattr(sim, "_Boundary", Boundary)
        monkeypatch.setattr(sim, "_Monitors", Monitors)
        monkeypatch.setattr(sim, "compile_expr", _counting_compile(calls))
        dt, sizes = 0.005, []
        for steps, stride in ((10, 20), (5 * sim.BLOCK_STEPS + 3, 1), (5 * sim.BLOCK_STEPS + 3, 1000)):
            del made[:], calls[:]
            res = integrate(_kink(64, steps * dt, ("eq32", "eq33"), dt=dt, output_stride=stride))
            assert res.steps == steps
            boundary, monitors = made
            blocks = -(-steps // sim.BLOCK_STEPS)
            assert len(calls) == blocks + 2  # one ghost call per block, 2 for the exact fields
            sizes.append(
                (boundary.table.shape, monitors.edges.shape, monitors.times.shape, len(monitors.slots))
            )
        assert sizes[0] == sizes[1] == sizes[2]
        assert sizes[0][1][0] == 4 * sim.BLOCK_STEPS


class TestConvergenceStudy:
    def test_refuses_non_solution(self):
        with pytest.raises(JetError):
            convergence_study("eq19", {"c1": 1.0, "c2": 0.0}, [64])

    @pytest.mark.parametrize("sizes", [[64, 64], [32, 64, 64], [128, 64, 64, 32]])
    def test_refuses_a_size_equal_to_the_one_before(self, monkeypatch, sizes):
        def refuse(*a, **k):
            raise AssertionError("a run started on a repeated grid size")

        monkeypatch.setattr(sim, "integrate", refuse)
        with pytest.raises(JetError, match="n = 64 follows n = 64"):
            convergence_study("eq93", {"mu": 1.0}, sizes, t_end=0.05)

    def test_single_entry_no_order_column(self):
        rows = convergence_study("eq93", {"mu": 1.0}, [64], t_end=0.05)
        assert len(rows) == 1
        assert "observed_order" not in rows[0]

    def test_short_horizon_second_order(self):
        # before the instability contaminates, refinement behaves
        rows = convergence_study("eq93", {"mu": 1.0}, [64, 128], t_end=0.05)
        assert rows[1]["l2_error"] < rows[0]["l2_error"]
        assert rows[1]["observed_order"] > 1.5
