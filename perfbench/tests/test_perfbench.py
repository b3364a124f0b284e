"""Tests of the benchmark itself: tiny runs of every workload, the metric
names and units against BENCHMARK.json, failure accounting on a corrupted
golden file, the exit status without a program, the solver's distance
from blow-up, and the byte-exact ``report all`` snapshot.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest: Path, with_program: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    res = result_of(run_bench(ROOT, workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
        assert res["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("catalog", lambda g: g / "catalog_adjoint.json"),
        ("scan", lambda g: g / "scan.json"),
        ("solver", lambda g: g / "solver.json"),
    ],
)
def test_corrupted_expected_value_counts_as_failure(tmp_path, workload, corrupt):
    root = copy_checkout(tmp_path)
    path = corrupt(root / "perfbench" / "golden")
    data = json.loads(path.read_text(encoding="utf-8"))
    if workload == "catalog":
        data["entries"][0]["verdict"] = "fail"
    elif workload == "scan":
        data["seeds"]["0"]["eq22"][0][1] += 1  # samples used
    else:
        data["n512"]["l2_error"] *= 1.001
    path.write_text(json.dumps(data), encoding="utf-8")

    res = result_of(run_bench(root, workload, 0))
    assert res["correct"] is False
    assert res["failed"] > 0
    assert res["metrics"]["ok_ratio"]["value"] < 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, with_program=False)
    proc = run_bench(root, "catalog", 0)
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("n", sorted(workloads.BLOWUP_STEP))
def test_blowup_step_is_recorded_and_clear_of_the_runs(n):
    from dlwlab import sim

    grid = sim.Grid1D(-20.0, 20.0, n)
    dt = 0.2 * grid.dx**3
    limit = workloads.BLOWUP_STEP[n]
    cfg = sim.SimConfig(grid=grid, t_end=2 * limit * dt, dt=dt, boundary="exact",
                        family="eq93", binding={"mu": 1.0})
    with pytest.raises(sim.BlowupError) as err:
        sim.integrate(cfg)
    assert round(err.value.time / dt) == limit
    if n in workloads.SOLVER_STEPS:
        assert 2 * workloads.SOLVER_STEPS[n] <= limit


def test_report_all_snapshot_is_byte_identical(tmp_path):
    out = tmp_path / "all.json"
    subprocess.run(
        [sys.executable, "-m", "dlwlab", "--reproducible", "--json", str(out), "report", "all"],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, check=True,
        capture_output=True, timeout=300,
    )
    golden = BENCH_DIR / "golden" / "report_all.json"
    assert out.read_bytes() == golden.read_bytes()
    entries = json.loads(golden.read_text(encoding="utf-8"))["entries"]
    assert len(entries) == 128
    assert sum(e["verdict"] == "flagged" for e in entries) == 23
