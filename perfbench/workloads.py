"""The four benchmark workloads and the fixed-input probes.

A workload is built by ``setup(name, seed)``, which imports the part of
``dlwlab`` it drives and builds its inputs, and then runs passes: one call
of ``run_pass`` is one pass of a closed loop with a single caller. Every
pass checks its outputs against the golden files and returns how many
operations it attempted and how many failed. The workloads call the
package through module attributes (``jet.apply_op``, ``sim.integrate``),
so that the traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

CATALOG_SUITES = ("symmetry", "adjoint", "conslaw")

SCAN_SAMPLES = 50
# The scan golden table holds the flags and sample counts of seeds
# 0..SCAN_SEEDS-1; the benchmark seed is reduced modulo this count.
SCAN_SEEDS = 64
EXACT_TOL = 1e-8
EQ19_DEFECT_TOL = 1e-9

# Solver: eq93 kink, exact boundary, mu = 1, cfl 0.2. Step counts stay
# at most half of the step at which the run blows up (BLOWUP_STEP, measured
# at this cfl on the same configuration).
SOLVER_GRIDS = (128, 512)
SOLVER_STEPS = {128: 112, 512: 400}
BLOWUP_STEP = {128: 224, 256: 823, 512: 2709}
SOLVER_MONITORS = ("eq32", "eq33")
# L2 error and budget drift against the golden run. Perturbing the initial
# fields by 1e-15 (relative) moves them by at most 1e-7; scaling the u_xxx
# stencil by 1.001 moves the L2 error by 6e-4 (n=128) and 6e-2 (n=512).
SOLVER_RTOL = 1e-5
DRIFT_ATOL = 1e-10  # drifts below this are roundoff: conserved


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def add(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# catalog: the symmetry, adjoint and conslaw report suites


class Catalog:
    """One pass runs ``report.run_suite`` for the three algebra suites and
    compares each entry with the reproducible golden report."""

    def __init__(self, seed: int):
        from dlwlab import report

        self.report = report
        self.golden = {
            s: (GOLDEN_DIR / f"catalog_{s}.json").read_text(encoding="utf-8")
            for s in CATALOG_SUITES
        }
        self.golden_entries = {s: json.loads(t)["entries"] for s, t in self.golden.items()}

    def run_pass(self) -> PassResult:
        out = PassResult()
        for suite in CATALOG_SUITES:
            expected = self.golden_entries[suite]
            try:
                rep = self.report.run_suite(suite)
                text = self.report.report_to_json_text(rep) + "\n"
            except Exception:
                out.add(False, len(expected))
                continue
            got = json.loads(text)["entries"]
            wrong = sum(1 for k, entry in enumerate(expected) if k >= len(got) or got[k] != entry)
            wrong += max(0, len(got) - len(expected))
            if wrong == 0 and text != self.golden[suite]:
                wrong = 1  # the header differs
            out.attempted += len(expected)
            out.failed += min(wrong, len(expected))
        return out


# ---------------------------------------------------------------------------
# divergence: bilinear-identity certificates z.M(w) - w.M*(z)


def _frac(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-6, 6)
    return Fraction(num, rng.randint(1, 4))


def _poly(shape: list, rng: random.Random):
    from dlwlab.jet import JetMonomial, JetPoly, JetVar

    terms = {}
    for jet_powers, xpow, tpow in shape:
        powers = {JetVar(name, dx, dt): p for name, dx, dt, p in jet_powers}
        terms[JetMonomial.make(powers, xpow, tpow)] = _frac(rng)
    return JetPoly(terms)


def build_certificate(shape: dict, rng: random.Random) -> tuple:
    """Operator M, tuples w and z of one certificate: the monomials come
    from the shape, the rational coefficients from ``rng``."""
    from dlwlab.jet import LinearDiffOp, OpTerm

    op = LinearDiffOp(
        tuple(
            tuple(
                tuple(OpTerm(_poly(coeff, rng), dx, dt) for coeff, dx, dt in entry)
                for entry in row
            )
            for row in shape["op"]
        )
    )
    w = tuple(_poly(p, rng) for p in shape["w"])
    z = tuple(_poly(p, rng) for p in shape["z"])
    return op, w, z


def certify(jet, op, w, z) -> tuple[bool, int]:
    """Whether both Euler operators of z.M(w) - w.M*(z) vanish, and the
    number of terms of that defect."""
    mw = jet.apply_op(op, w)
    mz = jet.apply_op(jet.formal_adjoint(op), z)
    defect = sum((a * b for a, b in zip(z, mw)), jet.JetPoly.zero()) - sum(
        (a * b for a, b in zip(w, mz)), jet.JetPoly.zero()
    )
    ok = jet.euler_operator(defect, "u").is_zero() and jet.euler_operator(defect, "v").is_zero()
    return ok, len(defect)


class Divergence:
    """One pass certifies every instance: the Euler operators in u and v
    of z.M(w) - w.M*(z) vanish, a theorem for any operator M."""

    def __init__(self, seed: int):
        from dlwlab import jet

        self.jet = jet
        self.shapes = load_golden("divergence_shapes.json")["instances"]
        rng = random.Random(seed)
        self.instances = [build_certificate(s["shape"], rng) for s in self.shapes]

    def run_pass(self) -> PassResult:
        out = PassResult()
        sizes = []
        for op, w, z in self.instances:
            try:
                ok, terms = certify(self.jet, op, w, z)
            except Exception:
                ok, terms = False, None
            out.add(ok)
            sizes.append(terms)
        out.notes["defect_terms"] = sizes
        return out


# ---------------------------------------------------------------------------
# scan: residual scans of every registered family


class Scan:
    """One pass runs ``solutions.scan_family`` over every registered
    family. Each binding must match the golden pass flag and sample counts
    of its seed; exact families stay below EXACT_TOL and the eq19 defect
    keeps its size."""

    def __init__(self, seed: int):
        from dlwlab import solutions

        self.solutions = solutions
        self.scan_seed = seed % SCAN_SEEDS
        golden = load_golden("scan.json")
        self.expected_class = golden["expected"]
        self.eq19_defect = golden["eq19_per_equation"]
        self.golden = golden["seeds"][str(self.scan_seed)]
        self.family_ids = sorted(solutions.family_registry())

    def check(self, rec: dict, want: list) -> bool:
        passes, used, skipped = want
        ok = (rec["passes"], rec["samples_used"], rec["samples_skipped"]) == (passes, used, skipped)
        kind = self.expected_class[rec["family"]]
        if kind == "exact":
            ok = ok and rec["max_residual"] < EXACT_TOL
        elif kind == "flagged":
            ok = ok and all(
                abs(a - b) <= EQ19_DEFECT_TOL for a, b in zip(rec["per_equation"], self.eq19_defect)
            )
        return ok

    def run_pass(self) -> PassResult:
        out = PassResult()
        used = skipped = 0
        for fid in sorted(set(self.golden) | set(self.family_ids)):
            expected = self.golden.get(fid, [])
            try:
                records = self.solutions.scan_family(fid, n_samples=SCAN_SAMPLES, seed=self.scan_seed)
            except Exception:
                out.add(False, max(1, len(expected)))
                continue
            for k, rec in enumerate(records):
                out.add(k < len(expected) and self.check(rec, expected[k]))
                used += rec["samples_used"]
                skipped += rec["samples_skipped"]
            if len(records) < len(expected):
                out.add(False, len(expected) - len(records))
        out.notes.update(samples_used=used, samples_skipped=skipped)
        return out


# ---------------------------------------------------------------------------
# solver: RK4 on the eq93 kink with the exact boundary


def solver_key(n: int, monitored: bool) -> str:
    return f"n{n}" if monitored else f"n{n}.bare"


def solver_configs() -> dict:
    """The four solver runs, keyed by grid and monitoring."""
    from dlwlab import sim

    configs = {}
    for n in SOLVER_GRIDS:
        grid = sim.Grid1D(-20.0, 20.0, n)
        dt = 0.2 * grid.dx**3
        for monitored in (True, False):
            configs[solver_key(n, monitored)] = sim.SimConfig(
                grid=grid,
                t_end=SOLVER_STEPS[n] * dt,
                dt=dt,
                boundary="exact",
                family="eq93",
                binding={"mu": 1.0},
                monitors=SOLVER_MONITORS if monitored else (),
                output_stride=20,
            )
    return configs


class Solver:
    """One pass calls ``sim.integrate`` once per grid with the monitors
    and once without, and records wall time per step of each call."""

    def __init__(self, seed: int):
        from dlwlab import sim

        self.sim = sim
        self.golden = load_golden("solver.json")
        self.configs = solver_configs()
        # first call: family registry, ghost compilation, monitor laws
        first = self.configs[solver_key(SOLVER_GRIDS[0], True)]
        sim.integrate(dataclasses.replace(first, t_end=2 * first.dt))

    def check(self, key: str, res) -> bool:
        want = self.golden[key]
        if res.steps != want["steps"]:
            return False
        if abs(res.l2_error - want["l2_error"]) > SOLVER_RTOL * abs(want["l2_error"]):
            return False
        drifts = {label: s.relative_drift() for label, s in res.monitors.items()}
        if set(drifts) != set(want["drift"]):
            return False
        return all(
            abs(drifts[k] - v) <= SOLVER_RTOL * abs(v) + DRIFT_ATOL for k, v in want["drift"].items()
        )

    def run_pass(self) -> PassResult:
        out = PassResult()
        step_us = {}
        for key, cfg in self.configs.items():
            start = perf_counter()
            try:
                res = self.sim.integrate(cfg)
            except Exception:  # a BlowupError included
                out.add(False)
                continue
            step_us[key] = (perf_counter() - start) / res.steps * 1e6
            out.add(self.check(key, res))
        out.notes["step_us"] = step_us
        return out


WORKLOADS = {"catalog": Catalog, "divergence": Divergence, "scan": Scan, "solver": Solver}


def setup(name: str, seed: int):
    return WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# fixed-input probes for the traced run


def median_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append((perf_counter() - start) * 1e6)
    return statistics.median(times)


def reduce_probe(warm_repeats: int = 9) -> dict:
    """reduce_on_shell(D_t^2 D_x^3 u) on the physical system: the first
    call in a process that has reduced nothing yet, then warm calls."""
    from dlwlab import jet
    from dlwlab.systems import physical_system

    system = physical_system()
    target = jet.JetPoly.var("u", 3, 2)
    start = perf_counter()
    jet.reduce_on_shell(target, system)
    cold = (perf_counter() - start) * 1e6
    warm = median_us(lambda: jet.reduce_on_shell(target, system), warm_repeats)
    return {"cold_us": cold, "warm_us": warm}


def euler_eq29_probe(repeats: int) -> tuple[float, bool]:
    """Euler operators in u and v of the eq29 pairing sum_j G^j Q1_j,
    which both vanish; returns the median time and that check."""
    from dlwlab import jet
    from dlwlab.adjoint import adjoint_symmetries
    from dlwlab.systems import physical_system

    q1 = adjoint_symmetries()[0]
    pairing = sum(
        (g * q for g, q in zip(physical_system().equation_polys(), q1.comp)), jet.JetPoly.zero()
    )
    ok = jet.euler_operator(pairing, "u").is_zero() and jet.euler_operator(pairing, "v").is_zero()
    us = median_us(lambda: (jet.euler_operator(pairing, "u"), jet.euler_operator(pairing, "v")), repeats)
    return us, ok


def rhs_probe(n: int, repeats: int) -> float:
    """One ``sim.rhs`` call on the eq93 kink sampled on an n-cell grid
    (periodic ghost fill)."""
    from dlwlab import sim
    from dlwlab.analytic import compile_expr
    from dlwlab.solutions import family_registry

    fam = family_registry()["eq93"]
    grid = sim.Grid1D(-20.0, 20.0, n)
    u = compile_expr(fam.u_expr, {"mu": 1.0})(grid.x, 0.0)
    v = compile_expr(fam.v_expr, {"mu": 1.0})(grid.x, 0.0)
    state = sim.FieldState(u=u, v=v, time=0.0)
    return median_us(lambda: sim.rhs(state, grid), repeats)
