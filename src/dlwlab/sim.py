"""Method-of-lines finite-difference solver for the water-wave pair with
runtime monitoring of verified conserved densities.

Second-order central stencils in space (five-point antisymmetric stencil
for u_xxx), classical RK4 in time with dt proportional to dx^3, ghost
cells filled periodically or from a registered exact family. Monitors
quadrature each registered density and, on bounded domains, accumulate
the boundary through-flux inside the RK4 stages so the reported drift is
measured against the exact conservation budget

    d/dt (integral of density) = flux(left edge) - flux(right edge).

Each RK4 stage is computed once and shared. A grid of n cells is padded
to W = n + 4 columns, and every two-row quantity is one 1-D span of
W + n values: the u row, 4 gap cells, then the v row, so the two rows
sit exactly W apart and every numpy call runs one flat loop. The state,
the stage input, the four slopes and the stencil windows are such spans.
Each stage input is written straight into the u and v rows of one
preallocated (3, W) buffer; one assignment through a strided view then
fills all 8 ghost cells. A stage is one ghost assignment and 13 ufunc
calls into buffers allocated once per run: u_x, v_x and the undivided
u_xxx share one flat buffer and one division by a per-cell scale, 2u is
formed once as u + u, in the buffer's first row, for both u_xxx taps,
and the products are u u_x + v_x and v u_x + u v_x row by row. A stage
computes the negated right side, u u_x + v_x and
u_x v + u v_x + u_xxx/3, and the stage inputs and the final RK4
combination subtract it where the textbook form adds the right side,
which saves the negations. The four slopes share one flat array, so
2 k2 and 2 k3 are one call, k + k. IEEE negation, 1 x and x + x = 2 x
are exact, a + (-b) is a - b, and products and two-term sums commute,
so every value is the one the right side itself gives; only an exact
zero may differ in sign. No value of a gap cell reaches a row: the gap
of a stage input lies on ghost cells that the stage overwrites, and the
guard reads the rows alone.

A step is 67 numpy calls, and each is kept cheap. Every operand is
bound once per run: each of the four stages is a closure over its
buffers, its slope and its ufuncs (``_Stage.kernel``), and the loop
reads the ufuncs and the step's factors from locals. Every output is
passed positionally, and no ufunc gets a Python number: the factors
dt/2, dt and dt/6 and the divisor 3 of u_xxx are arrays of the
operand's length, made once per run, since numpy's path for a scalar
operand costs more per call than a second array of a few hundred
values does. Work that does not need the stage's result is done per
block of ``BLOCK_STEPS`` steps, off the per-stage path: the
exact-family ghosts of every distinct stage time of a block come from
one call of the family's (u, v) program, and each stage only copies the
two 5-column edge blocks of its buffer into a record whose through-flux
the monitors evaluate in one run of the flux program over both edges
once per block. A sample quadratures the densities at once; its budget
is filled at the end of its block from the running flux sum at the
sample's step. The monitors' densities and fluxes, and the family's
(u, v) program, are ``analytic`` programs compiled once per process;
each run binds the family's parameters anew. Every value is computed
by the same floating-point operations in the same order as one stage
at a time would, so results do not depend on the block length.

Finiteness is checked on the starting fields of a run, whether given or
taken from the exact family, on the input of ``rhs``, and at the end of
every RK4 step, after the magnitude guard; both checks at the end of a
step read one per-row maximum of |u| and |v|, so a NaN in one field
does not hide a blow-up of the other. The stages themselves are not
checked: every stage enters the step's result, so a non-finite stage
is caught by the checks at the end of its step.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import solutions
from .analytic import compile_expr, poly_program
from .conslaw import direct_laws
from .jet import JetError, JetPoly
from .solutions import RESIDUAL_TOL, verify_family

__all__ = [
    "BlowupError",
    "Grid1D",
    "FieldState",
    "SimConfig",
    "MonitorSeries",
    "SimResult",
    "rhs",
    "integrate",
    "convergence_study",
    "parse_config",
    "config_from_mapping",
]


class BlowupError(JetError):
    """A field exceeded the magnitude guard; carries the blowup time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


# The most cells a grid may have. A stable step is about cfl dx^3, so
# past a few thousand cells even t_end = 1 takes more than MAX_STEPS
# steps; a larger n is a typo, and would fill memory with the stage
# buffers before any step.
MAX_CELLS = 10**5


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise JetError(f"grid size n = {self.n!r} is not an integer")
        if self.n < 16:
            raise JetError("at least 16 cells")
        if self.n > MAX_CELLS:
            raise JetError(f"grid size n = {self.n} exceeds MAX_CELLS = {MAX_CELLS}")
        for name in ("x_min", "x_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise JetError(f"{name} {value:g} is not finite")
        if not self.x_max > self.x_min:
            raise JetError("empty domain")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    def ghost_x(self, side: str) -> np.ndarray:
        if side == "left":
            return self.x_min + self.dx * np.array([-2.0, -1.0])
        return self.x_min + self.dx * np.array([self.n, self.n + 1.0])


@dataclass
class FieldState:
    u: np.ndarray
    v: np.ndarray
    time: float


# The most RK4 steps one run may take. At n = 128 that many already take
# tens of minutes; a larger count comes from a mistyped dt or t_end.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class SimConfig:
    grid: Grid1D
    t_end: float
    dt: float | None = None
    cfl: float = 0.2
    boundary: str = "periodic"  # or "exact"
    family: str | None = None
    binding: Mapping[str, float] = field(default_factory=dict)
    monitors: tuple[str, ...] = ()
    output_stride: int = 20

    def step_size(self) -> float:
        if self.dt is not None:
            return self.dt
        return self.cfl * self.grid.dx**3

    def __post_init__(self) -> None:
        if self.boundary not in ("periodic", "exact"):
            raise JetError("boundary is 'periodic' or 'exact'")
        if self.boundary == "exact" and not self.family:
            raise JetError("exact boundary needs a family id")
        step = self.step_size()
        if not step > 0:  # NaN included
            raise JetError(f"step size {step:g} is not positive")
        if not math.isfinite(self.t_end):
            raise JetError(f"t_end {self.t_end:g} is not finite")
        if not step <= self.t_end:
            raise JetError(
                f"step size {step:g} is longer than t_end {self.t_end:g} at grid size n = {self.grid.n}"
            )
        count = self.t_end / step  # inf when the quotient overflows
        if math.isinf(count) or round(count) > MAX_STEPS:
            raise JetError(
                f"{count:.10g} steps exceed MAX_STEPS = {MAX_STEPS} at grid size n = {self.grid.n}"
            )
        if not isinstance(self.output_stride, (int, np.integer)):
            raise JetError(f"output_stride = {self.output_stride!r} is not an integer")
        if self.output_stride < 1:
            raise JetError("output_stride must be at least 1")


@dataclass
class MonitorSeries:
    label: str
    times: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    budget: list[float] = field(default_factory=list)

    def relative_drift(self) -> float:
        if not self.budget:
            return math.nan
        ref = self.budget[0]
        scale = max(abs(ref), 1e-30)
        return max(abs(b - ref) for b in self.budget) / scale

    def rows(self) -> list[tuple[float, float, float]]:
        ref = self.budget[0] if self.budget else 0.0
        scale = max(abs(ref), 1e-30)
        return [
            (t, r, abs(b - ref) / scale)
            for t, r, b in zip(self.times, self.raw, self.budget)
        ]


@dataclass
class SimResult:
    state: FieldState
    monitors: dict[str, MonitorSeries]
    steps: int
    l2_error: float | None = None


# ---------------------------------------------------------------------------
# spatial discretization


def _require_finite(fields: np.ndarray, time: float) -> None:
    if not np.isfinite(fields).all():
        raise JetError(f"non-finite field at t = {time:.6g}")


def _windows(padded: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The five shifted views of a padded buffer (two ghost nodes per
    side): entry j holds the samples at offset j - 2 from each node."""
    return tuple(padded[..., j : j + n] for j in range(5))


def _stencil(p, k: int, dx: float):
    """Central difference of order k (0..3) from the samples ``p[0..4]`` at
    offsets -2..2: second order, with the five-point antisymmetric stencil
    for k = 3. The samples are arrays: over a grid, or over the recorded
    stages at one edge."""
    if k == 0:
        return p[2]
    if k == 1:
        return (p[3] - p[1]) / (2 * dx)
    if k == 2:
        return (p[3] - 2 * p[2] + p[1]) / dx**2
    return (p[4] - 2 * p[3] + 2 * p[1] - p[0]) / (2 * dx**3)


# RK4 steps whose stage times share one ghost evaluation and one
# through-flux record; it bounds the memory of both, whatever the run's
# length or output stride.
BLOCK_STEPS = 64


def _stage_times(t: float, half: float, dt: float, steps: int) -> list[float]:
    """The 2 steps + 1 distinct stage times of ``steps`` RK4 steps from t,
    by the time loop's own recurrence: t, t + half, t + dt, ..."""
    times = [t]
    for _ in range(steps):
        times += (t + half, t + dt)
        t = t + dt
    return times


class _Boundary:
    """Ghost-node supplier: periodic wrap or exact-family evaluation.

    On the exact boundary u and v are one program, compiled once per
    process and bound once per run (``compile_expr``), and the ghosts of
    one block of RK4 steps come from one call of it over the stacked
    (x, t) samples of the four ghost nodes at every distinct stage time
    of the block. A block's first time is the previous block's last,
    whose row is carried over, so each stage time is evaluated once. The
    table holds 2 BLOCK_STEPS + 1 rows.
    """

    def __init__(self, cfg: SimConfig):
        self.periodic = cfg.boundary == "periodic"
        if not self.periodic:
            fam = solutions.family(cfg.family, cfg.binding)
            self._fields = compile_expr((fam.u_expr, fam.v_expr), cfg.binding)
            grid = cfg.grid
            self.ghost_x = np.concatenate([grid.ghost_x("left"), grid.ghost_x("right")])
            rows = 2 * BLOCK_STEPS + 1
            self._x = np.tile(self.ghost_x, rows)
            self.table = np.empty((rows, 2, 4))
            # one (2, 2, 2) view per row, made once (see _Stage.ghosts)
            self._blocks = list(self.table.reshape(rows, 2, 2, 2))
            self._rows = 0  # rows of the previous block

    def block(self, times: list[float]) -> Sequence[np.ndarray | None]:
        """Per stage time of a block: u and v (rows) at the two left and
        the two right ghost nodes (sides); None on the periodic circle."""
        if self.periodic:
            return [None] * len(times)
        table, first = self.table, 0
        if self._rows:  # times[0] is the previous block's last time
            table[0] = table[self._rows - 1]
            first = 1
        x, t = self._x[: 4 * (len(times) - first)], np.repeat(times[first:], 4)
        u, v = self._fields(x, t)
        table[first : len(times), 0] = u.reshape(-1, 4)
        table[first : len(times), 1] = v.reshape(-1, 4)
        self._rows = len(times)
        return self._blocks[: len(times)]

    def exact_fields(self, x: np.ndarray, time: float) -> tuple[np.ndarray, np.ndarray]:
        if self.periodic:
            raise JetError("no exact reference in periodic mode")
        return self._fields(x, time)


class _Stage:
    """The negated semi-discrete right side of one RK4 stage: one ghost
    assignment and 13 ufunc calls, and one ``take`` when the edge blocks
    are recorded.

    Every two-row quantity is a span: one 1-D array of W + n values,
    W = n + 4, holding the u row at 0..n-1, 4 gap cells at n..n+3 and
    the v row at W..W+n-1 (``split`` gives the two rows). The stage input
    ``fields`` is the span starting at column 2 of row 1 of one
    preallocated (3, W) buffer, where the caller writes it; its gap cells
    are the right ghosts of u and the left ghosts of v, so whatever the
    caller writes there is overwritten when the stage fills the ghosts.
    One assignment through a strided view fills the 8 ghost cells, columns
    0, 1, n+2 and n+3 of the u and v rows. The stencil windows are spans
    of the flat buffer shifted by -2..2 cells; u_x, v_x and the undivided
    u_xxx share one flat buffer (u_x, gap, v_x, gap, u_xxx) and one
    division by a per-cell scale (2dx, 2dx^3 for u_xxx); its second gap
    stays 0. 2u is u + u, formed once over the padded u row, into row 0
    of the buffer, and read at both u_xxx taps; u_xxx/3 divides by a row
    of 3.0. The products are u u_x + v_x and v u_x + u v_x; u + u is
    2 u exactly, and IEEE products and two-term sums commute, so every
    value is the one ``_stencil`` and the textbook products give.

    ``kernel(out)`` binds every operand once, the rows of the span
    ``out`` included, so a call of the stage it returns looks up no
    attribute and passes every ufunc its output positionally and no
    Python number. The stage writes the two rows of ``out`` and never
    its gap cells.
    """

    def __init__(self, grid: Grid1D):
        n = grid.n
        w = n + 4
        self.n, self.w, self.dx = n, w, grid.dx
        self.buf = np.zeros((3, w))  # 2u, u and v, padded
        self.flat = self.buf.reshape(-1)
        self.fields = self.flat[w + 2 : 2 * w + n + 2]
        self.rows = (_windows(self.buf[1], n), _windows(self.buf[2], n))
        # (row, side, node): columns 0, 1 and n+2, n+3 of the u and v
        # rows; the periodic wrap reads columns n, n+1 and 2, 3
        row, col = self.buf.strides
        self.ghosts = as_strided(self.buf[1:], (2, 2, 2), (row, (n + 2) * col, col))
        self.wrap = as_strided(self.buf[1:, n:], (2, 2, 2), (row, (2 - n) * col, col), writeable=False)
        self.d = np.zeros(2 * w + n)  # u_x, gap, v_x, gap, undivided u_xxx
        self.scale = np.full(2 * w + n, 2 * self.dx)
        self.scale[2 * w :] = 2 * self.dx**3
        self.three = np.full(n, 3.0)
        self.tmp = np.empty(n)
        self.u, self.v = self.split(self.fields)
        # the two 5-column edge blocks, columns 0..4 and n-1..n+3, of the
        # u and v rows in the flat buffer
        cols = np.arange(5)
        cols = np.concatenate([cols, cols + n - 1])
        self.edge_index = np.concatenate([cols + w, cols + 2 * w])

    def span(self) -> np.ndarray:
        """A new span, zero everywhere."""
        return np.zeros(self.w + self.n)

    def split(self, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The u and v rows of a span."""
        return span[: self.n], span[self.w :]

    def pad(self, ghosts: np.ndarray | None) -> None:
        """Fill the ghost cells around the interior ``fields`` from one
        (2, 2, 2) ghost block (row, side, node), or periodically."""
        self.ghosts[...] = self.wrap if ghosts is None else ghosts

    def kernel(self, out: np.ndarray):
        """The stage into the span ``out`` with its operands bound:
        ``run(ghosts, edges=None)`` fills the ghost cells as ``pad`` does,
        copies the edge blocks into ``edges`` if given, writes
        -u_t = u u_x + v_x, -v_t = u_x v + u v_x + u_xxx/3 of the interior
        ``fields`` into the rows of ``out`` and returns ``out``."""
        n, w = self.n, self.w
        cells, wrap = self.ghosts, self.wrap
        take, edge_index = self.flat.take, self.edge_index
        # the u and v windows at offsets -1 and +1 as spans, and u's at -2, +2
        p1, p3 = (self.flat[w + j : 2 * w + n + j] for j in (1, 3))
        q0, q4 = self.rows[0][0], self.rows[0][4]
        u_row, two_u = self.buf[1], self.buf[0]
        two_u1, two_u3 = two_u[1 : n + 1], two_u[3 : n + 3]
        d, scale, three, tmp = self.d, self.scale, self.three, self.tmp
        d1, d3 = d[: w + n], d[2 * w :]
        u_x, v_x = self.split(d1)
        u, v = self.u, self.v
        nu_t, nv_t = self.split(out)
        subtract, add, multiply, divide = np.subtract, np.add, np.multiply, np.divide

        def run(ghosts: np.ndarray | None, edges: np.ndarray | None = None) -> np.ndarray:
            cells[...] = wrap if ghosts is None else ghosts
            if edges is not None:
                take(edge_index, None, edges, "clip")
            # _stencil's operations, in its order
            subtract(p3, p1, d1)
            add(u_row, u_row, two_u)
            subtract(q4, two_u3, d3)
            add(d3, two_u1, d3)
            subtract(d3, q0, d3)
            divide(d, scale, d)
            # u u_x + v_x and v u_x + u v_x
            multiply(u, u_x, nu_t)
            add(nu_t, v_x, nu_t)
            multiply(v, u_x, nv_t)
            multiply(u, v_x, tmp)
            add(nv_t, tmp, nv_t)
            divide(d3, three, d3)
            add(nv_t, d3, nv_t)
            return out

        return run

    def __call__(
        self,
        ghosts: np.ndarray | None,
        out: np.ndarray,
        edges: np.ndarray | None = None,
    ) -> np.ndarray:
        """The stage into the span ``out`` (see ``kernel``)."""
        return self.kernel(out)(ghosts, edges)


def rhs(
    state: FieldState, grid: Grid1D, boundary: _Boundary | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right side: u_t = -(u u_x + v_x),
    v_t = -(u_x v + u v_x + u_xxx/3)."""
    fields = np.array([state.u, state.v], dtype=float)
    _require_finite(fields, state.time)
    ghosts = None
    if boundary is not None and not boundary.periodic:
        ghosts = np.reshape(boundary.exact_fields(boundary.ghost_x, state.time), (2, 2, 2))
    stage = _Stage(grid)
    stage.u[...], stage.v[...] = fields
    out = stage.split(stage(ghosts, stage.span()))
    return np.negative(out[0]), np.negative(out[1])


# ---------------------------------------------------------------------------
# monitored densities and fluxes

@functools.lru_cache(maxsize=64)
def _coordinates(polys: tuple[JetPoly, ...]) -> tuple[tuple[str, int, int], ...]:
    """(name, row, x-order) of each jet coordinate of the monitored
    densities or fluxes, which the stencils must cover; found once per
    process for each tuple of laws."""
    out = set()
    for poly in polys:
        for m in poly.terms:
            for v, _ in m.jet:
                if v.dt:
                    raise JetError("monitor expressions must be t-derivative-free")
                if v.dx > 3:
                    raise JetError("stencils cover derivatives up to third order")
                out.add((str(v), ("u", "v").index(v.name), v.dx))
            if m.params:
                raise JetError("monitor expressions must have no free parameters")
    return tuple(sorted(out))


# per step of a block, the rows of its four stages in the block's times
_STAGE_ROWS = (2 * np.arange(BLOCK_STEPS)[:, None] + [0, 1, 1, 2]).ravel()


class _Monitors:
    """The monitored laws of one run: one program of the densities and, on
    bounded domains, one of the fluxes (``analytic.poly_program``), which
    read the stencil values as their jet coordinates.

    A sample quadratures each density over the grid (trapezoidal on
    bounded domains) into the raw series at once; its budget, raw value
    minus flux integral, waits for the end of the sample's block. On
    bounded domains each stage of a block copies the two 5-column edge
    blocks of its padded buffer into a preallocated record of
    4 BLOCK_STEPS slots (``edges``). Once per block, ``flush`` takes every
    law's through-flux flux(left edge) - flux(right edge) over all the
    block's stages from one flux-program run over both edges, stacked as
    (side, stage) arrays, adds each step's RK4-weighted sum to the flux
    integral in step order, and fills the budgets of the block's samples
    from the running sum at each sample's step.
    """

    def __init__(self, labels: Sequence[str], stage: _Stage, x: np.ndarray, periodic: bool, dt: float):
        laws = direct_laws() if labels else {}
        for i, label in enumerate(labels):
            if label not in laws:
                raise JetError(f"unknown conservation-law label {label!r}")
            if label in labels[:i]:
                raise JetError(f"conservation-law label {label!r} is repeated")
        self.series = [MonitorSeries(label=label) for label in labels]
        densities = tuple(laws[label].density for label in labels)
        fluxes = () if periodic else tuple(laws[label].flux for label in labels)
        self.density_at, self.flux_at = _coordinates(densities), _coordinates(fluxes)
        self.density = poly_program(densities)
        self.flux = poly_program(fluxes) if fluxes else None
        self.flux_integral = [0.0] * len(labels)
        self.stage, self.periodic, self.x = stage, periodic, x
        # the (side, 1) column of the edge x: an array, as numpy's a**2 is
        # a*a where a float's is libm's pow
        self.edge_x = x[[0, -1], None]
        self.weights = np.full(len(x), stage.dx)
        self.weights[[0, -1]] *= 0.5
        self.sixth = dt / 6.0
        slots = 4 * BLOCK_STEPS
        self.edges = np.empty((slots, 20)) if fluxes else None
        self.slots = list(self.edges) if fluxes else [None] * slots
        self.times = np.empty(slots)
        self.pending: list[int] = []  # per sample of the block, its steps into the block

    def start_block(self, times: list[float]) -> None:
        """Stage times of the next block (see ``_stage_times``)."""
        steps = (len(times) - 1) // 2
        self.times[: 4 * steps] = np.take(times, _STAGE_ROWS[: 4 * steps])

    def flush(self, steps: int) -> None:
        """At the end of a block of ``steps`` steps (the first ``4 steps``
        slots of the record): add its through-flux to the flux integral
        and fill the budgets of its samples."""
        hi = 4 * steps
        if self.flux:
            dx, time = self.stage.dx, self.times[:hi]
            # sample, row, side, stage
            cols = self.edges[:hi].reshape(-1, 2, 2, 5).transpose(3, 1, 2, 0)
            values = {name: _stencil(cols[:, row], k, dx) for name, row, k in self.flux_at}
            fluxes = self.flux({**values, "x": self.edge_x, "t": time})
        for i, series in enumerate(self.series):
            running = [self.flux_integral[i]] * (steps + 1)
            if self.flux:
                left, right = np.broadcast_to(fluxes[i], (2, hi))
                a, b, c, d = (left - right).reshape(-1, 4).T
                increments = (self.sixth * (a + 2 * b + 2 * c + d)).tolist()
                running = list(accumulate(increments, initial=running[0]))
                self.flux_integral[i] = running[-1]
            raw = series.raw[len(series.budget) :]
            series.budget += [q - running[step] for q, step in zip(raw, self.pending)]
        self.pending.clear()

    def sample(self, fields: np.ndarray, time: float, ghosts: np.ndarray | None, step: int) -> None:
        """Quadrature of every density of the span ``fields`` at ``step``
        steps into the block."""
        if not self.series:
            return
        self.pending.append(step)
        if any(k for _, _, k in self.density_at):
            self.stage.fields[...] = fields
            self.stage.pad(ghosts)
        dx, rows = self.stage.dx, self.stage.split(fields)
        values = {
            name: rows[row] if k == 0 else _stencil(self.stage.rows[row], k, dx)
            for name, row, k in self.density_at
        }
        for series, density in zip(self.series, self.density({**values, "x": self.x, "t": time})):
            arr = np.asarray(density, dtype=float)
            if arr.ndim == 0:
                arr = np.full(len(self.x), float(arr))
            if self.periodic:
                q = float(np.sum(arr) * dx)
            else:
                q = float(np.sum(arr * self.weights))
            series.times.append(time)
            series.raw.append(q)


# ---------------------------------------------------------------------------
# time integration


BLOWUP_GUARD = 1e6


def integrate(cfg: SimConfig, initial: FieldState | None = None) -> SimResult:
    """RK4 to t_end with monitor sampling every output stride.

    With the exact-family boundary the initial state defaults to the
    family itself and the result carries the discrete L2 error against
    the exact fields at the final time.
    """
    grid = cfg.grid
    x = grid.x
    boundary = _Boundary(cfg)
    if initial is None:
        if cfg.boundary != "exact":
            raise JetError("periodic runs need explicit initial data")
        start = boundary.exact_fields(x, 0.0)
        t = 0.0
    else:
        if np.shape(initial.u) != (grid.n,) or np.shape(initial.v) != (grid.n,):
            raise JetError(f"initial u and v need {grid.n} values each")
        start = (initial.u, initial.v)
        t = initial.time
    stage = _Stage(grid)
    # the state is a span (see _Stage) whose gap cells stay 0
    fields = stage.span()
    u, v = stage.split(fields)
    u[...], v[...] = start
    _require_finite(u, t)
    _require_finite(v, t)

    dt = cfg.step_size()
    steps = max(1, round(cfg.t_end / dt))
    dt = cfg.t_end / steps
    half, sixth = 0.5 * dt, dt / 6.0

    monitors = _Monitors(cfg.monitors, stage, x, boundary.periodic, dt)
    slots = monitors.slots
    # the k hold the negated slopes (see _Stage), four spans in one flat
    # array, each with its stage bound; y is the stage input
    size = len(fields)
    k = np.zeros(4 * size)
    k1, k2, k3, k4 = (k[i * size : (i + 1) * size] for i in range(4))
    k23 = k[size : 3 * size]
    stage1, stage2, stage3, stage4 = map(stage.kernel, (k1, k2, k3, k4))
    y = stage.fields
    # the step's factors as full spans: numpy's path for a Python number
    # operand costs more per call than a second array
    c_half, c_dt, c_sixth = (np.full(size, c) for c in (half, dt, sixth))
    # |u| and |v| side by side, and the start of each
    peaks, starts = np.empty(2 * grid.n), np.array([0, grid.n])
    u_abs, v_abs = peaks[: grid.n], peaks[grid.n :]
    add, subtract, multiply = np.add, np.subtract, np.multiply
    absolute, peak_of = np.abs, np.maximum.reduceat
    stride = cfg.output_stride

    for first in range(0, steps, BLOCK_STEPS):
        count = min(BLOCK_STEPS, steps - first)
        times = _stage_times(t, half, dt, count)
        ghosts = boundary.block(times)
        monitors.start_block(times)
        if first == 0:
            monitors.sample(fields, t, ghosts[0], 0)
        for j in range(count):
            g0, g_half, g1 = ghosts[2 * j : 2 * j + 3]
            e1, e2, e3, e4 = slots[4 * j : 4 * j + 4]
            y[...] = fields
            stage1(g0, e1)
            multiply(c_half, k1, y)
            subtract(fields, y, y)
            stage2(g_half, e2)
            multiply(c_half, k2, y)
            subtract(fields, y, y)
            stage3(g_half, e3)
            multiply(c_dt, k3, y)
            subtract(fields, y, y)
            stage4(g1, e4)

            # fields - sixth * (k1 + 2 k2 + 2 k3 + k4), in that order;
            # k + k is 2 k exactly
            add(k23, k23, k23)
            add(k1, k2, k1)
            add(k1, k3, k1)
            add(k1, k4, k1)
            multiply(c_sixth, k1, k1)
            subtract(fields, k1, fields)
            t = times[2 * j + 2]

            # the rows alone, never the gap; max propagates NaN, and
            # NaN > guard is false: a NaN row cannot hide the other row's
            # blow-up; inf is above the guard
            absolute(u, u_abs)
            absolute(v, v_abs)
            peak_u, peak_v = peak_of(peaks, starts).tolist()
            if peak_u > BLOWUP_GUARD or peak_v > BLOWUP_GUARD:
                raise BlowupError(f"field magnitude exceeded {BLOWUP_GUARD:g}", t)
            if math.isnan(peak_u) or math.isnan(peak_v):
                _require_finite(u, t)
                _require_finite(v, t)

            step = first + j
            if (step + 1) % stride == 0 or step == steps - 1:
                monitors.sample(fields, t, g1, j + 1)
        monitors.flush(count)

    l2 = None
    if cfg.boundary == "exact":
        ue, ve = boundary.exact_fields(x, t)
        l2 = math.sqrt(float(np.sum((u - ue) ** 2 + (v - ve) ** 2)) * grid.dx)
    return SimResult(
        state=FieldState(u=u, v=v, time=t),
        monitors={s.label: s for s in monitors.series},
        steps=steps,
        l2_error=l2,
    )


def convergence_study(
    family: str,
    binding: Mapping[str, float],
    n_list: Sequence[int],
    t_end: float = 1.0,
) -> list[dict]:
    """L2-error table on [-20, 20] over a grid refinement sequence with
    observed orders between consecutive entries. Refuses, before any
    run, a grid size equal to the one before it (it has no observed
    order) and families that do not verify analytically (no exact
    reference, no study)."""
    for prev, n in zip(n_list, n_list[1:]):
        if n == prev:
            raise JetError(f"grid sizes must differ from the one before: n = {n} follows n = {prev}")
    rep = verify_family(family, binding, seed=11)
    if not (rep.samples_used and rep.max_residual < RESIDUAL_TOL):
        raise JetError(f"family {family} is not a verified exact solution")
    rows: list[dict] = []
    for n in n_list:
        cfg = SimConfig(
            grid=Grid1D(-20.0, 20.0, n),
            t_end=t_end,
            boundary="exact",
            family=family,
            binding=dict(binding),
        )
        res = integrate(cfg)
        row: dict = {"n": n, "l2_error": res.l2_error}
        if rows:
            prev = rows[-1]
            ratio = math.log2(prev["l2_error"] / res.l2_error)
            scale = math.log2(n / prev["n"])
            row["observed_order"] = ratio / scale
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# flat key=value configuration files


_CONFIG_KEYS = (
    "x_min", "x_max", "n", "t_end", "dt", "cfl",
    "boundary", "family", "monitors", "output_stride",
)


def config_from_mapping(data: Mapping[str, str]) -> SimConfig:
    """Keys are those of ``_CONFIG_KEYS`` plus ``param.<name>`` bindings; an
    unknown key or a malformed number raises ``JetError`` naming its key."""
    for key in data:
        if key not in _CONFIG_KEYS and not (key.startswith("param.") and key != "param."):
            raise JetError(f"unknown config key {key!r}")

    def number(key: str, default, kind: type = float):
        if key not in data:
            return default
        try:
            return kind(data[key])
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise JetError(f"config key {key!r}: {data[key]!r} is not {noun}") from None

    grid = Grid1D(
        x_min=number("x_min", -20.0),
        x_max=number("x_max", 20.0),
        n=number("n", 256, int),
    )
    binding = {
        key[len("param.") :]: number(key, None) for key in data if key.startswith("param.")
    }
    monitors = tuple(
        s.strip() for s in data.get("monitors", "").split(",") if s.strip()
    )
    return SimConfig(
        grid=grid,
        t_end=number("t_end", 1.0),
        dt=number("dt", None),
        cfl=number("cfl", 0.2),
        boundary=data.get("boundary", "periodic"),
        family=data.get("family"),
        binding=binding,
        monitors=monitors,
        output_stride=number("output_stride", 20, int),
    )


def parse_config(path: str) -> SimConfig:
    """Flat key=value file; '#' starts a comment."""
    data: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise JetError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            data[key.strip()] = val.strip()
    return config_from_mapping(data)
