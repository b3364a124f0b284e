"""Unoptimized reference version of the solver's time stepping, kept as a
test oracle.

Each RK4 stage pads u and v separately, evaluates the exact-family ghosts
for the right-hand side and again for the monitors, builds every stencil up
to third order, and evaluates the monitored density and flux by walking
their ``JetPoly`` terms. ``dlwlab.sim.integrate`` must reproduce its
fields, step counts, L2 errors and monitor series.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from analytic_reference import compile_expr
from dlwlab.conslaw import direct_laws
from dlwlab.jet import JetError, JetPoly
from dlwlab.sim import (
    BLOWUP_GUARD,
    BlowupError,
    FieldState,
    Grid1D,
    MonitorSeries,
    SimConfig,
    SimResult,
)
from dlwlab.solutions import family_registry


def _pad(arr: np.ndarray, ghosts: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    if ghosts is None:  # periodic
        return np.concatenate([arr[-2:], arr, arr[:2]])
    left, right = ghosts
    return np.concatenate([left, arr, right])


def _derivatives(p: np.ndarray, n: int, dx: float) -> dict[int, np.ndarray]:
    """Central-stencil derivative arrays of the interior from a padded
    array (two ghost nodes per side)."""
    d0 = p[2 : n + 2]
    d1 = (p[3 : n + 3] - p[1 : n + 1]) / (2 * dx)
    d2 = (p[3 : n + 3] - 2 * d0 + p[1 : n + 1]) / dx**2
    d3 = (p[4 : n + 4] - 2 * p[3 : n + 3] + 2 * p[1 : n + 1] - p[0:n]) / (2 * dx**3)
    return {0: d0, 1: d1, 2: d2, 3: d3}


class _Boundary:
    """Ghost-node supplier: periodic wrap or exact-family evaluation."""

    def __init__(self, cfg: SimConfig):
        self.mode = cfg.boundary
        self.grid = cfg.grid
        if self.mode == "exact":
            fam = family_registry().get(cfg.family or "")
            if fam is None:
                raise JetError(f"unknown family {cfg.family!r}")
            self._u = compile_expr(fam.u_expr, cfg.binding)
            self._v = compile_expr(fam.v_expr, cfg.binding)

    def ghosts(
        self, time: float
    ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None:
        if self.mode == "periodic":
            return None
        xl = self.grid.ghost_x("left")
        xr = self.grid.ghost_x("right")
        return (
            (self._u(xl, time), self._u(xr, time)),
            (self._v(xl, time), self._v(xr, time)),
        )

    def exact_fields(self, time: float) -> tuple[np.ndarray, np.ndarray]:
        if self.mode != "exact":
            raise JetError("no exact reference in periodic mode")
        x = self.grid.x
        return (self._u(x, time), self._v(x, time))


def _check_finite(state: FieldState) -> None:
    if not (np.isfinite(state.u).all() and np.isfinite(state.v).all()):
        raise JetError(f"non-finite field at t = {state.time:.6g}")


def rhs(
    state: FieldState, grid: Grid1D, boundary: _Boundary | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right side: u_t = -(u u_x + v_x),
    v_t = -(u_x v + u v_x + u_xxx/3)."""
    _check_finite(state)
    ghosts = boundary.ghosts(state.time) if boundary is not None else None
    return padded_rhs(state.u, state.v, ghosts, grid)


def padded_rhs(
    u: np.ndarray,
    v: np.ndarray,
    ghosts: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None,
    grid: Grid1D,
) -> tuple[np.ndarray, np.ndarray]:
    """``rhs`` of given fields and ghosts ((u left, u right), (v left,
    v right)), or periodic for None, without the finiteness check."""
    n, dx = grid.n, grid.dx
    up = _pad(u, None if ghosts is None else ghosts[0])
    vp = _pad(v, None if ghosts is None else ghosts[1])
    du = _derivatives(up, n, dx)
    dv = _derivatives(vp, n, dx)
    u_t = -(du[0] * du[1] + dv[1])
    v_t = -(du[1] * dv[0] + du[0] * dv[1] + du[3] / 3.0)
    return u_t, v_t


def _poly_on_derivs(
    poly: JetPoly,
    derivs: Mapping[str, Mapping[int, np.ndarray]],
    x: np.ndarray | float,
    time: float,
) -> np.ndarray | float:
    out: np.ndarray | float = 0.0
    for m, c in poly.items():
        term: np.ndarray | float = float(c)
        for v, e in m.jet:
            if v.dt:
                raise JetError("monitor expressions must be t-derivative-free")
            if v.dx > 3:
                raise JetError("stencils cover derivatives up to third order")
            term = term * derivs[v.name][v.dx] ** e
        if m.xpow:
            term = term * x**m.xpow
        if m.tpow:
            term = term * time**m.tpow
        if m.params:
            raise JetError("monitor expressions must have no free parameters")
        out = out + term
    return out


class _Monitor:
    def __init__(self, label: str):
        laws = direct_laws()
        if label not in laws:
            raise JetError(f"unknown conservation-law label {label!r}")
        law = laws[label]
        self.label = label
        self.density = law.density
        self.flux = law.flux
        self.series = MonitorSeries(label=label)
        self.flux_integral = 0.0

    def quadrature(self, fields: "_StageEval", grid: Grid1D, time: float) -> float:
        dens = _poly_on_derivs(self.density, fields.derivs, grid.x, time)
        arr = np.asarray(dens, dtype=float)
        if arr.ndim == 0:
            arr = np.full(grid.n, float(arr))
        if fields.periodic:
            return float(np.sum(arr) * grid.dx)
        weights = np.full(grid.n, grid.dx)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        return float(np.sum(arr * weights))

    def boundary_flux_rate(self, fields: "_StageEval", grid: Grid1D, time: float) -> float:
        """flux(left) - flux(right); zero on the periodic circle."""
        if fields.periodic:
            return 0.0
        edge = {
            name: {k: np.array([d[k][0], d[k][-1]]) for k in d}
            for name, d in fields.derivs.items()
        }
        vals = _poly_on_derivs(
            self.flux, edge, np.array([grid.x[0], grid.x[-1]]), time
        )
        vals = np.asarray(vals, dtype=float)
        if vals.ndim == 0:
            return 0.0
        return float(vals[0] - vals[1])


class _StageEval:
    """Derivative arrays of one (u, v) stage, shared across monitors."""

    def __init__(self, u: np.ndarray, v: np.ndarray, time: float, grid: Grid1D, boundary: _Boundary):
        ghosts = boundary.ghosts(time)
        self.periodic = ghosts is None
        up = _pad(u, None if ghosts is None else ghosts[0])
        vp = _pad(v, None if ghosts is None else ghosts[1])
        self.derivs = {
            "u": _derivatives(up, grid.n, grid.dx),
            "v": _derivatives(vp, grid.n, grid.dx),
        }


def integrate(cfg: SimConfig, initial: FieldState | None = None) -> SimResult:
    """RK4 to t_end with monitor sampling every output stride.

    With the exact-family boundary the initial state defaults to the
    family itself and the result carries the discrete L2 error against
    the exact fields at the final time.
    """
    grid = cfg.grid
    boundary = _Boundary(cfg)
    if initial is None:
        if cfg.boundary != "exact":
            raise JetError("periodic runs need explicit initial data")
        u0, v0 = boundary.exact_fields(0.0)
        state = FieldState(u=u0.copy(), v=v0.copy(), time=0.0)
    else:
        state = FieldState(
            u=np.array(initial.u, dtype=float),
            v=np.array(initial.v, dtype=float),
            time=initial.time,
        )
    monitors = [_Monitor(label) for label in cfg.monitors]

    dt = cfg.step_size()
    steps = max(1, round(cfg.t_end / dt))
    dt = cfg.t_end / steps

    def sample(mon: _Monitor) -> None:
        ev = _StageEval(state.u, state.v, state.time, grid, boundary)
        q = mon.quadrature(ev, grid, state.time)
        mon.series.times.append(state.time)
        mon.series.raw.append(q)
        mon.series.budget.append(q - mon.flux_integral)

    for mon in monitors:
        sample(mon)

    for step in range(steps):
        t0 = state.time
        u0, v0 = state.u, state.v

        def stage(u: np.ndarray, v: np.ndarray, t: float):
            st = FieldState(u=u, v=v, time=t)
            du, dv = rhs(st, grid, boundary)
            rates = []
            if monitors:
                ev = _StageEval(u, v, t, grid, boundary)
                rates = [m.boundary_flux_rate(ev, grid, t) for m in monitors]
            return du, dv, rates

        k1u, k1v, f1 = stage(u0, v0, t0)
        k2u, k2v, f2 = stage(u0 + 0.5 * dt * k1u, v0 + 0.5 * dt * k1v, t0 + 0.5 * dt)
        k3u, k3v, f3 = stage(u0 + 0.5 * dt * k2u, v0 + 0.5 * dt * k2v, t0 + 0.5 * dt)
        k4u, k4v, f4 = stage(u0 + dt * k3u, v0 + dt * k3v, t0 + dt)

        state.u = u0 + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        state.v = v0 + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        state.time = t0 + dt
        for i, mon in enumerate(monitors):
            mon.flux_integral += dt / 6.0 * (f1[i] + 2 * f2[i] + 2 * f3[i] + f4[i])

        if np.max(np.abs(state.u)) > BLOWUP_GUARD or np.max(np.abs(state.v)) > BLOWUP_GUARD:
            raise BlowupError(f"field magnitude exceeded {BLOWUP_GUARD:g}", state.time)
        _check_finite(state)

        if (step + 1) % cfg.output_stride == 0 or step == steps - 1:
            for mon in monitors:
                sample(mon)

    l2 = None
    if cfg.boundary == "exact":
        ue, ve = boundary.exact_fields(state.time)
        l2 = math.sqrt(
            float(np.sum((state.u - ue) ** 2 + (state.v - ve) ** 2)) * grid.dx
        )
    return SimResult(
        state=state,
        monitors={m.label: m.series for m in monitors},
        steps=steps,
        l2_error=l2,
    )
