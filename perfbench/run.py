"""Benchmark of dlwlab: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

runs the workload's closed loop (one caller; each pass starts when the
previous one ends) for ``--seconds`` seconds, checks every output against
the golden files in ``perfbench/golden`` and prints the end-to-end metrics.
With ``--trace 1`` it instead runs half the time untraced and half traced,
runs the fixed-input probes and prints the per-layer metrics. Every time
is normalized by a machine-speed reference taken next to it (see
``calibrate.py``). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment, the raw wall-time medians and the
sample count of every metric.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import NamedTuple

# sibling modules; none of them imports dlwlab at import time
import calibrate
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5  # fresh processes timed per run for setup_s
REDUCE_PROBE_REPEATS = 5  # fresh processes for the cold reduction probe
EULER_PROBE_REPEATS = 7
RHS_PROBE_REPEATS = 201
# Share of the run that the other workloads spend on interleaved solver
# passes, which give them the step metrics.
PROBE_SHARE = 0.4

SOLVER_METRICS = {
    "step_us.n128": "n128",
    "step_us.n512": "n512",
    "step_us.n128.bare": "n128.bare",
    "step_us.n512.bare": "n512.bare",
}

# per-layer metric -> (unit, span or counter name, field); see tracing.Tracer.per_pass
TRACED_METRICS = {
    "jet.total_derivative.calls": ("count", "jet.total_derivative", "calls"),
    "jet.total_derivative.self_s": ("s", "jet.total_derivative", "self_s"),
    "jet.euler_operator.calls": ("count", "jet.euler_operator", "calls"),
    "jet.euler_operator.self_s": ("s", "jet.euler_operator", "self_s"),
    "jet.reduce_on_shell.calls": ("count", "jet.reduce_on_shell", "calls"),
    "jet.reduce_on_shell.self_s": ("s", "jet.reduce_on_shell", "self_s"),
    "jet.apply_op.calls": ("count", "jet.apply_op", "calls"),
    "jet.apply_op.self_s": ("s", "jet.apply_op", "self_s"),
    "jet.formal_adjoint.calls": ("count", "jet.formal_adjoint", "calls"),
    "jet.formal_adjoint.self_s": ("s", "jet.formal_adjoint", "self_s"),
    "jet.poly_mul.calls": ("count", "jet.poly_mul", "count"),
    "jet.poly_add.calls": ("count", "jet.poly_add", "count"),
    "report.symmetry_s": ("s", "report.symmetry", "s"),
    "report.adjoint_s": ("s", "report.adjoint", "s"),
    "report.conslaw_s": ("s", "report.conslaw", "s"),
    "adjoint.action1.calls": ("count", "adjoint.action1", "calls"),
    "adjoint.action1.self_s": ("s", "adjoint.action1", "self_s"),
    "adjoint.lift_onshell_operator.calls": ("count", "adjoint.lift_onshell_operator", "calls"),
    "adjoint.lift_onshell_operator.self_s": ("s", "adjoint.lift_onshell_operator", "self_s"),
    "adjoint.decompose_components.calls": ("count", "adjoint.decompose_components", "calls"),
    "adjoint.decompose_components.self_s": ("s", "adjoint.decompose_components", "self_s"),
    "adjoint.build_action_table.s": ("s", "adjoint.build_action_table", "s"),
    "adjoint.sq_bracket.calls": ("count", "adjoint.sq_bracket", "calls"),
    "adjoint.sq_bracket.s": ("s", "adjoint.sq_bracket", "s"),
    "symmetry.frechet_derivative.calls": ("count", "symmetry.frechet_derivative", "calls"),
    "symmetry.frechet_derivative.self_s": ("s", "symmetry.frechet_derivative", "self_s"),
    "conslaw.divergence_residual.calls": ("count", "conslaw.divergence_residual", "calls"),
    "conslaw.divergence_residual.self_s": ("s", "conslaw.divergence_residual", "self_s"),
    "linalg.solve_exact.calls": ("count", "linalg.solve_exact", "calls"),
    "linalg.solve_exact.self_s": ("s", "linalg.solve_exact", "self_s"),
    "analytic.residual_max.calls": ("count", "analytic.residual_max", "calls"),
    "analytic.residual_max.s": ("s", "analytic.residual_max", "s"),
    "analytic.system_residual_exprs.s": ("s", "analytic.system_residual_exprs", "s"),
    "analytic.evaluate.calls": ("count", "analytic.evaluate", "calls"),
    "analytic.evaluate.self_s": ("s", "analytic.evaluate", "self_s"),
    "analytic.samples_used": ("count", "analytic.samples_used", "count"),
    "analytic.samples_skipped": ("count", "analytic.samples_skipped", "count"),
    "solutions.family_registry.calls": ("count", "solutions.family_registry", "calls"),
    "solutions.family_registry.s": ("s", "solutions.family_registry", "s"),
    "sim.integrate.calls": ("count", "sim.integrate", "calls"),
    "sim.steps": ("count", "sim.steps", "count"),
    "sim.rhs.calls": ("count", "sim.rhs", "calls"),
    "sim.rhs.self_s": ("s", "sim.rhs", "self_s"),
    "sim.ghost_eval.calls": ("count", "sim.ghost_eval", "calls"),
    "sim.ghost_eval.s": ("s", "sim.ghost_eval", "s"),
}
RHS_PROBE_GRIDS = (128, 256, 512)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import dlwlab
    from there; exit with status 2 when the checkout has no program."""
    if not (SRC / "dlwlab" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'dlwlab'}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import dlwlab

    if Path(dlwlab.__file__).resolve().parent != (SRC / "dlwlab").resolve():
        print(f"perfbench: dlwlab was imported from {dlwlab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def quartiles(values: list[float]) -> list[float] | None:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else None


# ---------------------------------------------------------------------------
# child processes: fresh interpreters for set-up time and the cold probe


def child_main(kind: str, workload: str, seed: int) -> dict:
    """Times are taken before the reference, which imports numpy."""
    if kind == "setup":
        start = perf_counter()
        workloads.setup(workload, seed)
        out = {"setup_s": perf_counter() - start}
    else:
        out = workloads.reduce_probe()
    out["factor"] = calibrate.NOMINAL_S / calibrate.reference_s()
    return out


def run_children(kind: str, workload: str, seed: int, count: int) -> list[dict]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", kind,
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# closed loop


class Pass(NamedTuple):
    seconds: float  # wall time
    factor: float  # NOMINAL_S / reference time taken just before the pass
    result: object

    @property
    def normalized(self) -> float:
        return self.seconds * self.factor


def closed_loop(wl, seconds: float, totals: workloads.PassResult, tracer=None, probe=None):
    """Run passes of ``wl`` until ``seconds`` have elapsed, each after a
    machine-speed reference. With a ``probe`` workload, interleave its
    passes so that they take about PROBE_SHARE of the time. Returns the
    passes of ``wl`` and of ``probe``."""
    passes: list[Pass] = []
    probe_passes: list[Pass] = []
    probe_time = 0.0
    begin = perf_counter()
    while not passes or (probe is not None and not probe_passes) or perf_counter() - begin < seconds:
        use_probe = probe is not None and probe_time <= PROBE_SHARE * (perf_counter() - begin)
        factor = calibrate.NOMINAL_S / calibrate.reference_s()
        if tracer is not None and not use_probe:
            tracer.begin_pass()
        start = perf_counter()
        res = (probe if use_probe else wl).run_pass()
        elapsed = perf_counter() - start
        totals.attempted += res.attempted
        totals.failed += res.failed
        if use_probe:
            probe_passes.append(Pass(elapsed, factor, res))
            probe_time += elapsed
        else:
            passes.append(Pass(elapsed, factor, res))
    return passes, probe_passes


def solver_step_samples(passes: list[Pass], normalized: bool = True) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {key: [] for key in SOLVER_METRICS.values()}
    for p in passes:
        for key, us in p.result.notes.get("step_us", {}).items():
            samples[key].append(us * p.factor if normalized else us)
    return samples


def solver_probe(workload: str, seed: int):
    """The solver workload run beside the others for the step metrics;
    None on the solver workload, whose own passes give them."""
    return None if workload == "solver" else workloads.setup("solver", seed)


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported source tree has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dlwlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two runs


def untraced_run(args, wl, totals: workloads.PassResult, info: dict) -> dict:
    children = run_children("setup", args.workload, args.seed, SETUP_REPEATS)
    setups = [c["setup_s"] * c["factor"] for c in children]
    passes, probe_passes = closed_loop(wl, args.seconds, totals, probe=solver_probe(args.workload, args.seed))
    pass_times = [p.normalized for p in passes]
    steps = solver_step_samples(probe_passes or passes)

    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "pass_s": (median(pass_times), "s", len(pass_times)),
    }
    for name, key in SOLVER_METRICS.items():
        metrics[name] = (median(steps[key]), "us", len(steps[key]))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    ok = 1.0 - totals.failed / totals.attempted
    metrics["ok_ratio"] = (ok, "1", totals.attempted)
    info["quartiles"] = {"setup_s": quartiles(setups), "pass_s": quartiles(pass_times)}
    info["quartiles"].update({name: quartiles(steps[key]) for name, key in SOLVER_METRICS.items()})
    raw_steps = solver_step_samples(probe_passes or passes, normalized=False)
    info["wall_median"] = {
        "setup_s": median([c["setup_s"] for c in children]),
        "pass_s": median([p.seconds for p in passes]),
        **{name: median(raw_steps[key]) for name, key in SOLVER_METRICS.items()},
    }
    info["speed_factor_median"] = median([p.factor for p in passes + probe_passes])
    if "defect_terms" in passes[0].result.notes:
        info["defect_terms"] = passes[0].result.notes["defect_terms"]
    return metrics


def traced_run(args, wl, totals: workloads.PassResult, info: dict) -> dict:
    half = args.seconds / 2.0
    plain, probe_passes = closed_loop(wl, half, totals, probe=solver_probe(args.workload, args.seed))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = closed_loop(wl, half, totals, tracer=tracer)
    finally:
        tracer.uninstall()

    metrics = {}
    n_traced = len(traced)
    for name, (unit, source, fld) in TRACED_METRICS.items():
        values = tracer.per_pass(source, fld)
        if unit == "s":
            values = [v * p.factor for v, p in zip(values, traced)]
        metrics[name] = (median(values), unit, n_traced)
    metrics["jet.max_terms"] = (tracer.max_terms, "count", n_traced)
    used = sum(tracer.per_pass("analytic.samples_used", "count"))
    tried = used + sum(tracer.per_pass("analytic.samples_skipped", "count"))
    metrics["analytic.useful_ratio"] = (used / tried if tried else 0.0, "1", tried)

    cold = run_children("reduce", args.workload, args.seed, REDUCE_PROBE_REPEATS)
    for kind in ("cold", "warm"):
        values = [c[f"{kind}_us"] * c["factor"] for c in cold]
        metrics[f"jet.reduce_{kind}_us"] = (median(values), "us", len(cold))
    factor = calibrate.NOMINAL_S / calibrate.reference_s()
    euler_us, euler_ok = workloads.euler_eq29_probe(EULER_PROBE_REPEATS)
    metrics["jet.euler_eq29_us"] = (euler_us * factor, "us", EULER_PROBE_REPEATS)
    totals.add(euler_ok)
    for n in RHS_PROBE_GRIDS:
        us = workloads.rhs_probe(n, RHS_PROBE_REPEATS) * factor
        metrics[f"sim.rhs_us.n{n}"] = (us, "us", RHS_PROBE_REPEATS)

    steps = solver_step_samples(probe_passes or plain)
    for n in workloads.SOLVER_GRIDS:
        extra = median(steps[f"n{n}"]) - median(steps[f"n{n}.bare"])
        metrics[f"sim.monitor_us.n{n}"] = (extra, "us", len(steps[f"n{n}"]))

    overhead = median([p.normalized for p in traced]) / median([p.normalized for p in plain])
    metrics["trace.overhead_ratio"] = (overhead, "1", n_traced)
    out = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(out)
    info["trace_file"] = str(out.relative_to(ROOT))
    info["untraced_passes"] = len(plain)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "divergence", "scan", "solver"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "reduce"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.child:
        print(json.dumps(child_main(args.child, args.workload, args.seed)))
        return 0

    wl = workloads.setup(args.workload, args.seed)
    totals = workloads.PassResult()
    info: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    run = traced_run if args.trace else untraced_run
    metrics = run(args, wl, totals, info)
    info["environment"] = environment(args.seed)
    info["samples"] = {name: n for name, (_, _, n) in metrics.items()}
    info["attempted"] = totals.attempted

    for name, (value, unit, n) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} n={n}")
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
