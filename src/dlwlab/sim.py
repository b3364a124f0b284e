"""Method-of-lines finite-difference solver for the water-wave pair with
runtime monitoring of verified conserved densities.

The equations are not typed in here: every stage runs the right sides of
``systems.physical_system()``, the pair the report verifies, compiled
once per process into a plan of in-place ufunc calls (``_stage_plan``).
The central differences come from one tap table, ``_TAPS``: second order
in space, with the five-point antisymmetric stencil for u_xxx. The same
table gives the monitors' stencil values (``_stencil``). Time is
classical RK4 with dt proportional to dx^3, and ghost cells are filled
periodically or from a registered exact family. Monitors quadrature each
registered density and, on bounded domains, accumulate the boundary
through-flux inside the RK4 stages, so the reported drift is measured
against the exact conservation budget

    d/dt (integral of density) = flux(left edge) - flux(right edge).

Each RK4 stage is computed once and shared. A grid of n cells is padded
to W = n + 4 columns, and every two-row quantity is one 1-D span of
W + n values: the u row, 4 gap cells, then the v row, so the two rows
sit exactly W apart and a call over both rows is one flat loop. The
state, the stage input, the four slopes and the stencil windows are such
spans. Each stage input is written straight into the u and v rows of
one preallocated buffer; one assignment through a strided view then
fills all 8 ghost cells. A stage computes the system's right side, which
is the negated time derivative (``EvolutionSystem``: u_t = -rhs), and
the stage inputs and the final RK4 combination subtract it where the
textbook form adds the time derivative, which saves the negations. The
four slopes share one flat array, so 2 k2 and 2 k3 are one call, k + k.
IEEE negation, 1 x and x + x = 2 x are exact, a + (-b) is a - b, and
products and two-term sums commute, so every value is the one the
textbook form gives; only an exact zero may differ in sign. No value of
a gap cell reaches a row: the gap of a stage input lies on ghost cells
that the stage overwrites, and the guard reads the rows alone.

For the pair a step is 67 numpy calls, and each is kept cheap. Every
operand is bound once per run: each of the four stages is a closure over
its plan, bound to its buffers, its slope and its ufuncs
(``_Stage.kernel``), and the loop reads the ufuncs and the step's
factors from locals. Every output is passed positionally, and no ufunc
gets a Python number: the factors dt/2, dt and dt/6 and the plan's
coefficients are arrays of the operand's length, made once per run,
since numpy's path for a scalar operand costs more per call than a
second array of a few hundred values does. Work that does not need the
stage's result is done per block of ``BLOCK_STEPS`` steps, off the
per-stage path: the exact-family ghosts of every distinct stage time of
a block come from one call of the family's (u, v) program, and each
stage only copies the two 5-column edge blocks of its buffer into a
record whose through-flux the monitors evaluate in one run of the flux
program over both edges once per block. A sample quadratures the
densities at once; its budget is filled at the end of its block from
the running flux sum at the sample's step. The monitors' densities and
fluxes, and the family's (u, v) program, are ``analytic`` programs
compiled once per process; each run binds the family's parameters anew.
Every value is computed by the same floating-point operations in the
same order as one stage at a time would, so results do not depend on
the block length.

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
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import solutions
from .analytic import compile_expr, poly_program
from .conslaw import direct_laws
from .jet import JetError, JetPoly
from .solutions import RESIDUAL_TOL, verify_family
from .systems import physical_system

__all__ = [
    "BlowupError", "Grid1D", "FieldState", "SimConfig", "MonitorSeries", "SimResult",
    "rhs", "integrate", "convergence_study", "parse_config", "config_from_mapping",
]


class BlowupError(JetError):
    """A field exceeded the magnitude guard; carries the blowup time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


# The most cells a grid may have. A stable step is about CFL dx^3, so
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


# The default step is CFL dx^3: an explicit step of the u_xxx term has
# to shrink as dx^3.
CFL = 0.2

# The most RK4 steps one run may take. At n = 128 that many already take
# tens of minutes; a larger count comes from a mistyped dt or t_end.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class SimConfig:
    grid: Grid1D
    t_end: float
    dt: float | None = None
    boundary: str = "periodic"  # or "exact"
    family: str | None = None
    binding: Mapping[str, float] = field(default_factory=dict)
    monitors: tuple[str, ...] = ()
    output_stride: int = 20

    def step_size(self) -> float:
        if self.dt is not None:
            return self.dt
        return CFL * self.grid.dx**3

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
            raise JetError(f"step size {step:g} is longer than t_end {self.t_end:g} at grid size n = {self.grid.n}")
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


# The central differences of x-order 0 (the sample itself) to 3 from the
# samples at offsets -2..2: second order, with the five-point
# antisymmetric stencil for order 3. Per order, its (offset, weight) taps
# in the order they are summed, the first of weight 1, and its divisor
# c dx**p as (c, p).
_TAPS = {
    0: (((0, 1),), (1, 0)),
    1: (((1, 1), (-1, -1)), (2, 1)),
    2: (((1, 1), (0, -2), (-1, 1)), (1, 2)),
    3: (((2, 1), (1, -2), (-1, 2), (-2, -1)), (2, 3)),
}


def _stencil(p, k: int, dx: float):
    """Central difference of order k (0..3) from the samples ``p[0..4]`` at
    offsets -2..2, by ``_TAPS``. The samples are arrays: over a grid, or
    over the recorded stages at one edge."""
    ((first, _), *taps), (c, power) = _TAPS[k]
    out = p[2 + first]
    for offset, weight in taps:
        sample = p[2 + offset] if abs(weight) == 1 else abs(weight) * p[2 + offset]
        out = out + sample if weight > 0 else out - sample
    return out / (c * dx**power)


@functools.lru_cache(maxsize=64)
def _coordinates(polys: tuple[JetPoly, ...], noun: str = "monitor expressions") -> tuple[tuple[str, int, int], ...]:
    """(name, row, x-order) of each jet coordinate of ``polys``, which the
    stencils must cover; found once per process for each tuple of
    polynomials, with the rows in ``physical_system().deps`` order.
    ``noun`` names them in the errors."""
    deps = physical_system().deps
    out = set()
    for poly in polys:
        for m in poly.terms:
            for v, _ in m.jet:
                if v.dt:
                    raise JetError(f"{noun} must be t-derivative-free")
                if v.dx > 3:
                    raise JetError("stencils cover derivatives up to third order")
                if v.name not in deps:
                    raise JetError(f"{noun} read {v.name}, which is not one of the fields {', '.join(deps)}")
                out.add((str(v), deps.index(v.name), v.dx))
            if m.params:
                raise JetError(f"{noun} must have no free parameters")
    return tuple(sorted(out))


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


def _row(name, row: int = 0, col: int = 0) -> tuple:
    """The plan key of one row (see ``_stage_plan``)."""
    return (name, row, col, 1, -4)


@functools.lru_cache(maxsize=16)
def _stage_plan(polys: tuple[JetPoly, ...]) -> tuple[int, tuple, tuple, tuple]:
    """The stage of the right sides ``polys`` of u and v as calls
    ``(ufunc name, a, b, out)`` of binary ufuncs, planned once per process
    for each tuple of right sides. An operand is a key ``(array, row, col,
    rows, cols)``: the slice from row W + col to (row + rows) W + col +
    cols of one of the stage's flat arrays (see ``_Stage``), where a float
    array name is a row of that value and "out" is the output span.

    First come the central differences, one per x-order that a right
    side reads, over the rows that read it (one span when both do), by
    ``_TAPS``: a tap of weight 2 reads a doubled padded row, formed once
    as x + x before the first order that needs it, and one division by a
    per-cell divisor ends them all. Then each right side is summed term
    after term in ``JetPoly`` order into its output row: the factors of a
    term are multiplied left to right, a coefficient p/q multiplies by a
    row of p unless p is 1 and divides by a row of q unless q is 1, and
    each later term is formed in a scratch row and added, or subtracted
    when negative; the first carries its sign in p. A zero right side
    writes nothing, so its row keeps the zeros of a new span.

    Returns the number of doubled rows, the divisor (c, p) of each
    derivative row, the distinct operand keys and the calls, each with
    its operands as indices into the keys. A right side with an explicit
    x or t, a t-derivative, a parameter or an x-order above 3 is a
    ``JetError``.
    """
    coords = _coordinates(polys, "right sides")
    if any(m.xpow or m.tpow for poly in polys for m in poly.terms):
        raise JetError("right sides must not depend on x or t explicitly")
    orders = {k: [row for _, row, j in coords if j == k] for k in sorted({k for *_, k in coords} - {0})}
    doubled = sorted({r for k, rows in orders.items() for r in rows if any(abs(w) == 2 for _, w in _TAPS[k][0])})
    m = len(doubled)
    # the padded rows of the weight-2 taps doubled as x + x, once
    padded = ("buf", m + doubled[0], 0, m, 0) if doubled else None
    double = ("add", padded, padded, ("buf", 0, 0, m, 0))

    def window(rows: list[int], offset: int, weight: int) -> tuple:
        return ("buf", doubled.index(rows[0]) if abs(weight) == 2 else m + rows[0], 2 + offset, len(rows), -4)

    calls, divisors, slots = [], [], {}
    for k, rows in orders.items():
        (first, *taps), divisor = _TAPS[k]
        if any(abs(w) == 2 for _, w in taps) and double not in calls:
            calls.append(double)
        block = ("d", len(divisors), 0, len(rows), -4)
        slots.update({(row, k): len(divisors) + i for i, row in enumerate(rows)})
        divisors += [divisor] * len(rows)
        for i, (offset, weight) in enumerate(taps):
            a = block if i else window(rows, *first)
            calls.append(("add" if weight > 0 else "subtract", a, window(rows, offset, weight), block))
    if divisors:
        every = ("d", 0, 0, len(divisors), -4)
        calls.append(("divide", every, ("scale",) + every[1:], every))
    value = {name: _row("d", slots[row, k]) if k else _row("buf", m + row, 2) for name, row, k in coords}
    for row, poly in enumerate(polys):
        out, tmp = _row("out", row), _row("tmp")
        for i, (mono, coef) in enumerate(poly.terms.items()):
            acc, *factors = [value[str(v)] for v, e in mono.jet for _ in range(e)] or [_row(1.0)]
            p, q = coef.numerator if i == 0 else abs(coef.numerator), coef.denominator
            steps = [("multiply", f) for f in factors] + [("multiply", _row(float(p)))] * (p != 1)
            steps += [("divide", _row(float(q)))] * (q != 1)
            # a first term that is a bare factor is copied, as x 1
            for op, b in steps or [("multiply", _row(1.0))] * (i == 0):
                calls.append((op, acc, b, tmp if i else out))
                acc = tmp if i else out
            if i:
                calls.append(("subtract" if coef < 0 else "add", out, acc, out))
    keys = {key: i for i, key in enumerate(dict.fromkeys(key for _, *operands in calls for key in operands))}
    return m, tuple(divisors), tuple(keys), tuple((op, tuple(map(keys.get, operands))) for op, *operands in calls)


class _Stage:
    """One RK4 stage of the right sides of u and v: one ghost assignment,
    the calls of their plan (``_stage_plan``) and one ``take`` when the
    edge blocks are recorded. The right sides are
    ``physical_system().rhs``, the pair the report verifies; ``polys``
    gives others to tests alone. For the pair the plan is 13 calls.

    Every two-row quantity is a span: one 1-D array of W + n values,
    W = n + 4, holding the u row at 0..n-1, 4 gap cells at n..n+3 and
    the v row at W..W+n-1 (``split`` gives the two rows). The padded u
    and v rows are rows m and m + 1 of one preallocated buffer of W
    columns, after the m rows that hold the doubled samples of the plan's
    weight-2 taps (2u alone for the pair). The stage input ``fields`` is
    the span starting at column 2 of row m, where the caller writes it;
    its gap cells are the right ghosts of u and the left ghosts of v, so
    whatever the caller writes there is overwritten when the stage fills
    the ghosts. One assignment through a strided view fills the 8 ghost
    cells, columns 0, 1, n+2 and n+3 of the u and v rows. The stencil
    windows are spans or rows of the flat buffer shifted by -2..2 cells.
    The undivided differences go to one flat buffer ``d`` of W columns
    per derivative row (for the pair u_x, v_x and u_xxx), divided at once
    by a per-cell ``scale``; no term reads its gap cells.

    The views that every stage call shares are bound once per stage;
    ``kernel(out)`` binds the rows of the span ``out`` and the ufuncs, so
    a call of the stage it returns looks up no attribute and passes every
    ufunc its output positionally and no Python number. The stage writes
    the two rows of ``out`` and never its gap cells.
    """

    def __init__(self, grid: Grid1D, polys: tuple[JetPoly, ...] | None = None):
        m, divisors, keys, plan = _stage_plan(physical_system().rhs if polys is None else tuple(polys))
        n = grid.n
        w = n + 4
        self.n, self.w, self.dx = n, w, grid.dx
        self.buf = np.zeros((m + 2, w))  # the doubled rows, then u and v, padded
        self.flat = self.buf.reshape(-1)
        self.fields = self.flat[m * w + 2 : (m + 2) * w - 2]
        # per row, the five windows of its padded samples at offsets -2..2
        self.rows = tuple(tuple(self.buf[r, j : j + n] for j in range(5)) for r in (m, m + 1))
        # (row, side, node): columns 0, 1 and n+2, n+3 of the u and v
        # rows; the periodic wrap reads columns n, n+1 and 2, 3
        row, col = self.buf.strides
        self.ghosts = as_strided(self.buf[m:], (2, 2, 2), (row, (n + 2) * col, col))
        self.wrap = as_strided(self.buf[m:, n:], (2, 2, 2), (row, (2 - n) * col, col), writeable=False)
        self.u, self.v = self.split(self.fields)
        # the two 5-column edge blocks, columns 0..4 and n-1..n+3, of the
        # u and v rows in the flat buffer
        cols = np.r_[0:5, n - 1 : n + 4]
        self.edge_index = np.concatenate([cols + m * w, cols + (m + 1) * w])
        # the plan's arrays: differences, divisors, scratch and constant rows
        arrays = {"buf": self.flat, "d": np.zeros(len(divisors) * w), "tmp": np.empty(n)}
        arrays["scale"] = np.repeat([c * self.dx**p for c, p in divisors], w)
        arrays.update({name: np.full(n, name) for name, *_ in keys if isinstance(name, float)})
        # one view per key, as an in-place call given one array as input
        # and output skips numpy's overlap check; the output's rows stay
        # row numbers until ``kernel``
        views = [
            row if name == "out" else arrays[name][row * w + col : (row + rows) * w + col + cols]
            for name, row, col, rows, cols in keys
        ]
        self.plan = [(op, tuple([views[i] for i in operands])) for op, operands in plan]

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
        """The stage into the span ``out``: ``run(ghosts, edges=None)`` fills
        the ghost cells as ``pad`` does, copies the edge blocks into
        ``edges`` if given, writes the right sides of the interior
        ``fields`` into the rows of ``out`` and returns ``out``."""
        cells, wrap = self.ghosts, self.wrap
        take, edge_index = self.flat.take, self.edge_index
        rows = self.split(out)
        calls = [(getattr(np, op), tuple([rows[a] if isinstance(a, int) else a for a in args])) for op, args in self.plan]

        def run(ghosts: np.ndarray | None, edges: np.ndarray | None = None) -> np.ndarray:
            cells[...] = wrap if ghosts is None else ghosts
            if edges is not None:
                take(edge_index, None, edges, "clip")
            for ufunc, args in calls:
                ufunc(*args)
            return out

        return run

    def __call__(self, ghosts: np.ndarray | None, out: np.ndarray, edges: np.ndarray | None = None) -> np.ndarray:
        """The stage into the span ``out`` (see ``kernel``)."""
        return self.kernel(out)(ghosts, edges)


def rhs(state: FieldState, grid: Grid1D, boundary: _Boundary | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The semi-discrete time derivatives (u_t, v_t) of
    ``physical_system()``, which is u_t = -rhs."""
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
            q = float(np.sum(arr) * dx) if self.periodic else float(np.sum(arr * self.weights))
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
    monitored = {s.label: s for s in monitors.series}
    return SimResult(state=FieldState(u=u, v=v, time=t), monitors=monitored, steps=steps, l2_error=l2)


def convergence_study(family: str, binding: Mapping[str, float], n_list: Sequence[int], t_end: float = 1.0) -> list[dict]:
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
    "x_min", "x_max", "n", "t_end", "dt",
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
        boundary=data.get("boundary", "periodic"),
        family=data.get("family"),
        binding=binding,
        monitors=monitors,
        output_stride=number("output_stride", 20, int),
    )


def parse_config(path: str) -> SimConfig:
    """Flat key=value file, each key given once; '#' starts a comment."""
    data: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise JetError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in data:
                raise JetError(f"config key {key!r} is repeated")
            data[key] = val.strip()
    return config_from_mapping(data)
