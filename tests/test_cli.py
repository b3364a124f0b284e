"""Command-line interface: exit codes, JSON determinism, outputs."""

import argparse
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dlwlab
from dlwlab.cli import build_parser, main
from dlwlab.report import (
    adjoint_suite,
    conslaw_suite,
    report_to_json_text,
    run_suite,
    suite_blocks,
    symmetry_suite,
)


def run_cli(args):
    return main(args)


def test_symmetry_verify_exit_zero(capsys):
    assert run_cli(["symmetry", "verify"]) == 0
    out = capsys.readouterr().out
    assert "determining-X1" in out


def test_adjoint_bracket_filtered(capsys):
    assert run_cli(["adjoint", "bracket", "--fix", "Q1"]) == 0
    out = capsys.readouterr().out
    assert "bracket-fixQ1" in out
    assert "bracket-fixQ3" not in out


def test_conslaw_sets(capsys):
    assert run_cli(["conslaw", "verify", "--set", "noether"]) == 0
    out = capsys.readouterr().out
    assert "divergence-eq54" in out
    assert "divergence-eq67" not in out


def test_conslaw_hamiltonian(capsys):
    assert run_cli(["conslaw", "hamiltonian"]) == 0
    out = capsys.readouterr().out
    assert "hamiltonian-gradient" in out
    assert "presymplectic-P4" in out


def test_waves_family_json(capsys):
    assert run_cli(["waves", "verify", "--family", "eq93", "--binding", "mu=1.0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["max_residual"] < 1e-10


def test_waves_first_integrals(capsys):
    assert run_cli(["waves", "first-integrals", "--mu", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert all(r["constant_along_flow"] for r in rows)


def test_waves_profile_csv(tmp_path, capsys):
    out = tmp_path / "kink.csv"
    assert run_cli([
        "waves", "profile", "--family", "eq93", "--binding", "mu=1.0", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "xi,U,V"
    assert len(lines) == 202


def test_report_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["--reproducible", "--json", str(p1), "symmetry", "optimal"]) == 0
    assert run_cli(["--reproducible", "--json", str(p2), "symmetry", "optimal"]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sim_run_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "x_min=-20\nx_max=20\nn=64\nt_end=0.05\nboundary=exact\n"
        "family=eq93\nparam.mu=1.0\nmonitors=eq32,eq33\noutput_stride=10\n"
    )
    assert run_cli(["sim", "run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["outcome"] == "completed"
    assert (tmp_path / "monitor_eq32.csv").exists()
    assert (tmp_path / "snapshot.csv").exists()
    snap = (tmp_path / "snapshot.csv").read_text().splitlines()
    assert snap[0] == "x,u,v"
    assert len(snap) == 65


def test_sim_run_records_blowup(tmp_path, capsys):
    cfg = tmp_path / "blow.cfg"
    cfg.write_text(
        "x_min=-20\nx_max=20\nn=512\nt_end=1.0\nboundary=exact\n"
        "family=eq93\nparam.mu=1.0\n"
    )
    assert run_cli(["sim", "run", "--config", str(cfg)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["outcome"] == "blowup"
    assert 0.0 < summary["blowup_time"] < 1.0


KINK_CFG = "x_min=-20\nx_max=20\nn=64\nt_end=0.05\nboundary=exact\nfamily=eq93\n"


def kink_cfg(extra: str) -> str:
    """KINK_CFG with the lines of ``extra`` in place of its lines of the
    same keys, since a config names each key once."""
    keys = {line.partition("=")[0] for line in extra.splitlines()}
    kept = [line for line in KINK_CFG.splitlines() if line.partition("=")[0] not in keys]
    return "\n".join(kept) + "\n" + extra


@pytest.mark.parametrize(
    "extra,named",
    [
        ("param.mu=1.0\nmonitor=eq32\n", "'monitor'"),
        ("param.mu=1.0\noutput_stride=0\n", "output_stride"),
        ("", "JetError: unbound parameters for eq93: ['mu']"),
        ("param.mu=1.0\nmonitors=eq999\n", "'eq999'"),
        ("param.mu=1.0\nmonitors=eq33,eq32,eq33\n", "JetError: conservation-law label 'eq33' is repeated"),
        ("param.mu=1.0\nparam.nu=7\n", "['nu'] for eq93"),
        ("param.mu=1.0\nt_end=inf\n", "JetError: t_end inf is not finite"),
        ("param.mu=1.0\ndt=1e-300\n", "JetError: 5e+298 steps exceed MAX_STEPS = 10000000"),
        ("param.mu=1.0\nx_min=-inf\n", "JetError: x_min -inf is not finite"),
        ("param.mu=1.0\nx_max=inf\n", "JetError: x_max inf is not finite"),
    ],
)
def test_sim_run_bad_input_exits_two(extra, named, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(kink_cfg(extra))
    out = tmp_path / "out"
    assert run_cli(["sim", "run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert named in captured.err
    assert not out.exists()  # a rejected run leaves no empty output directory


@pytest.mark.parametrize("extra,key", [("param.mu=1.0\nn=128\n", "n"), ("param.mu=1.0\nparam.mu=2\n", "param.mu")])
def test_sim_run_repeated_config_key_exits_two(extra, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(KINK_CFG + extra)
    out = tmp_path / "out"
    assert run_cli(["sim", "run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dlwlab sim run: JetError: config key {key!r} is repeated\n"
    assert not out.exists()


def test_sim_run_missing_config_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run_cli(["sim", "run", "--config", str(missing), "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "FileNotFoundError" in captured.err and str(missing) in captured.err


@pytest.mark.parametrize(
    "action,named",
    [("verify", "JetError: unbound parameters for eq93"), ("profile", "JetError: unbound parameters for eq93")],
)
def test_waves_family_without_binding_exits_two(action, named, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    extra = ["--out", str(out)] if action == "profile" else []
    assert run_cli(["waves", action, "--family", "eq93", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"dlwlab waves {action}: ")
    assert named in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "action,argv",
    [
        ("waves verify", ["--json", "out.json", "waves", "verify", "--family", "eq93", "--binding", "mu=1,nu=7"]),
        ("waves profile", ["waves", "profile", "--family", "eq93", "--binding", "mu=1,nu=7", "--out", "p.csv"]),
        ("sim run", ["--json", "out.json", "sim", "run", "--config", "run.cfg", "--out-dir", "out"]),
        ("sim converge", ["--json", "out.json", "sim", "converge", "--binding", "mu=1,nu=7", "--n", "64"]),
    ],
    ids=["waves-verify", "waves-profile", "sim-run", "sim-converge"],
)
def test_binding_name_outside_the_family_exits_two(action, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(KINK_CFG + "param.mu=1.0\nparam.nu=7\n")
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"dlwlab {action}: JetError: ")
    assert "['nu'] for eq93; its parameters: mu" in captured.err
    assert [f.name for f in tmp_path.rglob("*") if f.is_file()] == ["run.cfg"]


def test_report_all_matches_the_golden_snapshot(tmp_path):
    """The byte-exact behaviour contract: ``report all --reproducible``
    against the snapshot the benchmark also checks (read, never written)."""
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "report_all.json"
    out = tmp_path / "all.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(dlwlab.__file__)))
    subprocess.run(
        [sys.executable, "-m", "dlwlab", "--reproducible", "--json", str(out), "report", "all"],
        env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, timeout=300,
    )
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("suite", ["symmetry", "adjoint", "conslaw"])
def test_catalog_suite_matches_the_golden_snapshot(suite):
    """Each suite of the benchmark's ``catalog`` workload, as that workload
    writes it, byte for byte against its snapshot (read, never written)."""
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / f"catalog_{suite}.json"
    assert (report_to_json_text(run_suite(suite)) + "\n").encode() == golden.read_bytes()


# Label prefixes by which each subcommand's entries can be cut from a run
# of its whole suite: the oracle for the blocks the suites select.
PREFIX_ORACLE = [
    (["symmetry", "verify"], ("determining-", "reduction-")),
    (["symmetry", "brackets"], ("bracket-", "char-bracket-", "generator-")),
    (["symmetry", "optimal"], ("optimal-",)),
    (["adjoint", "verify"], ("determining-", "multiplier-")),
    (["adjoint", "table"], ("action-", "action1-")),
    (["adjoint", "bracket"], ("bracket-",)),
    (["adjoint", "bracket", "--fix", "Q1"], ("bracket-fixQ1-",)),
    (["conslaw", "hamiltonian"], ("hamiltonian-", "skew-", "presymplectic-")),
]


@pytest.fixture(scope="module")
def full_suites():
    return {name: run_suite(name).to_json()["entries"] for name in ("symmetry", "adjoint", "conslaw")}


def cli_entries(tmp_path, args):
    path = tmp_path / "out.json"
    assert run_cli(["--reproducible", "--json", str(path), *args]) == 0
    return json.loads(path.read_text(encoding="utf-8"))["entries"]


@pytest.mark.parametrize("args,prefixes", PREFIX_ORACLE, ids=[" ".join(a) for a, _ in PREFIX_ORACLE])
def test_subcommand_selects_prefix_slice(tmp_path, capsys, full_suites, args, prefixes):
    got = cli_entries(tmp_path, args)
    want = [e for e in full_suites[args[0]] if e["label"].startswith(prefixes)]
    assert got and got == want


def test_conslaw_sets_partition_the_suite(tmp_path, capsys, full_suites):
    parts = {
        s: cli_entries(tmp_path, ["conslaw", "verify", "--set", s])
        for s in ("direct", "noether", "ibragimov", "all")
    }
    hamiltonian = cli_entries(tmp_path, ["conslaw", "hamiltonian"])
    assert parts["all"] == full_suites["conslaw"]
    assert parts["direct"] + parts["noether"] + parts["ibragimov"] + hamiltonian == parts["all"]
    assert all(parts[s] for s in ("direct", "noether", "ibragimov"))


def test_adjoint_verify_builds_no_action_table(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("adjoint verify built the action table")

    monkeypatch.setattr("dlwlab.adjoint.build_action_table", refuse)
    assert run_cli(["adjoint", "verify"]) == 0


def test_symmetry_optimal_runs_no_reduction(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("symmetry optimal ran the similarity reductions")

    monkeypatch.setattr("dlwlab.symmetry.similarity_reduction_checks", refuse)
    assert run_cli(["symmetry", "optimal"]) == 0


@pytest.mark.parametrize("mu", ["abc", "1/0"])
def test_waves_first_integrals_bad_mu_exits_two(mu, capsys):
    assert run_cli(["waves", "first-integrals", "--mu", mu]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("dlwlab waves first-integrals: UsageError: ")
    assert repr(mu) in captured.err


SUITE_ENTRIES = {
    "symmetry_suite": symmetry_suite,
    "adjoint_suite": adjoint_suite,
    "conslaw_suite": conslaw_suite,
    "run_suite": functools.partial(run_suite, "adjoint"),
    "run_suite_all": functools.partial(run_suite, "all"),
}


@pytest.mark.parametrize("entry", list(SUITE_ENTRIES.values()), ids=list(SUITE_ENTRIES))
def test_unknown_block_rejected(entry):
    with pytest.raises(ValueError, match=r"unknown check block\(s\) \['tabel'\]"):
        entry(blocks=("tabel",))


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parser(*path: str) -> argparse.ArgumentParser:
    """The parser of ``dlwlab <path...>``."""
    parser = build_parser()
    for name in path:
        parser = _subparsers(parser)[name]
    return parser


def _choices(*path: str, dest: str) -> list[str]:
    return next(a.choices for a in _parser(*path)._actions if a.dest == dest)


def test_cli_choices_come_from_the_block_table():
    assert tuple(_choices("symmetry", dest="action")) == suite_blocks("symmetry")
    assert tuple(_choices("adjoint", dest="action")) == suite_blocks("adjoint")
    sets = [b for b in suite_blocks("conslaw") if b != "hamiltonian"]
    assert list(_choices("conslaw", "verify", dest="set")) == sets + ["all"]


@pytest.mark.parametrize(
    "suite,block",
    [(suite, block) for suite in ("symmetry", "adjoint", "conslaw") for block in suite_blocks(suite)],
)
def test_run_suite_selects_the_same_blocks(suite, block):
    entry = SUITE_ENTRIES[f"{suite}_suite"]
    want = entry(blocks=(block,)).to_json()
    assert want["entries"]
    assert run_suite(suite, blocks=(block,)).to_json() == want


@pytest.mark.parametrize(
    "args,named",
    [
        (["adjoint", "verify", "--fix", "Q1"], "--fix"),
        (["adjoint", "table", "--fix", "Q1"], "--fix"),
        (["conslaw", "hamiltonian", "--set", "noether"], "--set"),
        (["waves", "verify", "--binding", "mu=1"], "--binding"),
        (["waves", "profile"], "--family"),
    ],
)
def test_option_the_action_ignores_exits_two(args, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a profile would be written here
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"dlwlab {args[0]} {args[1]}: UsageError: ")
    assert named in captured.err
    assert list(tmp_path.iterdir()) == []


# The options each action declares, beyond the root ``--json`` and
# ``--reproducible``: the spec the per-action parsers are held to.
DECLARED = {
    ("symmetry", "verify"): (),
    ("symmetry", "brackets"): (),
    ("symmetry", "optimal"): (),
    ("adjoint", "verify"): (),
    ("adjoint", "table"): (),
    ("adjoint", "bracket"): ("--fix",),
    ("conslaw", "verify"): ("--set",),
    ("conslaw", "hamiltonian"): (),
    ("waves", "verify"): ("--family", "--binding", "--samples"),
    ("waves", "first-integrals"): ("--mu",),
    ("waves", "profile"): ("--family", "--binding", "--out", "--xi-min", "--xi-max", "--points"),
    ("sim", "run"): ("--config", "--out-dir"),
    ("sim", "converge"): ("--family", "--binding", "--n", "--t-end"),
    ("report", "symmetry"): (),
    ("report", "adjoint"): (),
    ("report", "conslaw"): (),
    ("report", "waves"): (),
    ("report", "sim"): (),
    ("report", "all"): (),
}
OPTIONS = sorted({o for opts in DECLARED.values() for o in opts})
REQUIRED = {("sim", "run"): ["--config", "run.cfg"]}


def _undeclared_cases():
    """(command, action, argv, option) for every option an action does not
    declare, plus the root ``--json`` on ``waves profile`` and the
    ``--samples`` that ``waves verify`` reads only with ``--family``."""
    for (command, action), declared in DECLARED.items():
        for option in OPTIONS:
            if option not in declared:
                argv = [command, action, *REQUIRED.get((command, action), []), option, "1"]
                yield command, action, argv, option
    yield "waves", "profile", ["--json", "j.json", "waves", "profile", "--family", "eq93"], "--json"
    yield "waves", "verify", ["waves", "verify", "--samples", "5"], "--samples"


UNDECLARED = list(_undeclared_cases())

# Options the actions once ignored without a word; each must be among the
# cases above.
ONCE_IGNORED = [
    ("symmetry", "verify", "--samples"),
    ("report", "adjoint", "--samples"),
    ("adjoint", "verify", "--fix"),
    ("conslaw", "hamiltonian", "--set"),
    ("waves", "verify", "--mu"),
    ("waves", "verify", "--out"),
    ("waves", "verify", "--points"),
    ("waves", "verify", "--samples"),
    ("waves", "first-integrals", "--family"),
    ("waves", "first-integrals", "--points"),
    ("waves", "profile", "--json"),
    ("sim", "run", "--family"),
    ("sim", "run", "--binding"),
    ("sim", "run", "--n"),
    ("sim", "run", "--t-end"),
    ("sim", "converge", "--config"),
    ("sim", "converge", "--out-dir"),
]


def _names(text: str, option: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text) is not None


def test_declared_table_names_every_action():
    commands = _subparsers(build_parser())
    assert {(c, a) for c, parser in commands.items() for a in _subparsers(parser)} == set(DECLARED)


def test_once_ignored_options_are_covered():
    covered = {(command, action, option) for command, action, _, option in UNDECLARED}
    assert set(ONCE_IGNORED) <= covered


def _refuse_to_run(monkeypatch, argv):
    def refuse(*a, **k):
        raise AssertionError(f"{argv} ran")

    for target in ("cli.run_suite", "solutions.verify_family", "solutions.profile_rows",
                   "sim.convergence_study", "sim.integrate"):
        monkeypatch.setattr(f"dlwlab.{target}", refuse)


@pytest.mark.parametrize(
    "command,action,argv,option", UNDECLARED, ids=[" ".join(c[2]) for c in UNDECLARED]
)
def test_undeclared_option_exits_two(command, action, argv, option, tmp_path, monkeypatch, capsys):
    _refuse_to_run(monkeypatch, argv)
    monkeypatch.chdir(tmp_path)  # any output file would land here
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"dlwlab {command} {action}: UsageError: ")
    assert _names(captured.err, option)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,action", list(DECLARED), ids=[" ".join(k) for k in DECLARED])
def test_action_help_lists_only_its_options(command, action, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, action, "--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: dlwlab {command} {action} ")
    listed = {o for o in [*OPTIONS, "--json", "--reproducible"] if _names(out, o)}
    assert listed == set(DECLARED[command, action])


def test_sim_run_without_config_exits_two(tmp_path, monkeypatch, capsys):
    _refuse_to_run(monkeypatch, ["sim", "run"])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["sim", "run"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--config" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["conslaw", "--set", "noether", "verify"],
        ["report", "--samples", "5", "symmetry"],
        ["waves", "verify", "--fam", "eq93"],
    ],
    ids=["option-before-action", "suite-option-before-action", "abbreviated-option"],
)
def test_option_before_the_action_or_abbreviated_exits_two(argv, tmp_path, monkeypatch, capsys):
    _refuse_to_run(monkeypatch, argv)
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_unwritable_json_in_a_waves_action_exits_two(tmp_path, capsys):
    """An output path is outside input to the waves and sim actions."""
    assert main(["--json", str(tmp_path), "waves", "first-integrals"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("dlwlab waves first-integrals: IsADirectoryError: ")


def test_error_past_parsing_in_a_suite_command_is_not_a_usage_error(tmp_path):
    """The suite commands read no outside input, so an error there is a
    fault: it propagates (traceback, exit 1)."""
    with pytest.raises(IsADirectoryError):
        main(["--json", str(tmp_path), "symmetry", "verify"])


@pytest.mark.parametrize("binding", ["mu", "mu=abc", "=1", "mu=1,nu", "mu=nan", "mu=inf", "mu=1,nu=-inf"])
def test_malformed_binding_exits_two(binding, capsys):
    assert main(["waves", "verify", "--family", "eq93", "--binding", binding]) == 2
    bad = binding.split(",")[-1]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dlwlab waves verify: UsageError: malformed binding {bad!r}: expected name=finite number\n"
    )


@pytest.mark.parametrize("binding", ["mu=1,mu=2", "mu=1, mu =1"])
def test_repeated_binding_name_exits_two(binding, capsys):
    assert main(["waves", "verify", "--family", "eq93", "--binding", binding]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dlwlab waves verify: UsageError: binding 'mu' is repeated\n"


def test_sim_converge_malformed_binding(capsys):
    assert main(["sim", "converge", "--binding", "mu=abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dlwlab sim converge: UsageError: malformed binding 'mu=abc': expected name=finite number\n"



def test_sim_converge_step_longer_than_t_end_names_it(capsys):
    # sim.CFL * dx^3 = 0.2 * (40/32)^3 = 0.390625 at n = 32
    args = ["sim", "converge", "--family", "eq93", "--binding", "mu=1", "--n", "32,64", "--t-end", "0.1"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dlwlab sim converge: JetError: step size 0.390625 is longer than t_end 0.1 at grid size n = 32\n"
    )


def test_sim_converge_repeated_size_exits_two(monkeypatch, capsys):
    def refuse(*a, **k):
        raise AssertionError("a run started on a repeated grid size")

    monkeypatch.setattr("dlwlab.sim.integrate", refuse)
    assert main(["sim", "converge", "--n", "64,64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dlwlab sim converge: JetError: grid sizes must differ from the one before: n = 64 follows n = 64\n"
    )


def test_sim_converge_malformed_sizes(monkeypatch, capsys):
    def refuse(*a, **k):
        raise AssertionError("a study ran on rejected --n")

    monkeypatch.setattr("dlwlab.sim.convergence_study", refuse)
    assert main(["sim", "converge", "--n", "128,abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dlwlab sim converge: UsageError: malformed grid size 'abc': expected an integer\n"


@pytest.mark.parametrize("points", ["1", "0"])
def test_waves_profile_too_few_points_exits_two(points, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    args = ["waves", "profile", "--family", "eq93", "--binding", "mu=1", "--points", points]
    assert run_cli(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("dlwlab waves profile: UsageError: ")
    assert f"--points must be at least 2, got {points}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "bounds,named",
    [
        (["--xi-min", "nan"], "--xi-min nan and --xi-max 10"),
        (["--xi-max", "inf"], "--xi-min -10 and --xi-max inf"),
        (["--xi-min=-inf"], "--xi-min -inf and --xi-max 10"),
        (["--xi-min", "5", "--xi-max", "5"], "--xi-min 5 and --xi-max 5"),
        (["--xi-min", "5", "--xi-max", "-5"], "--xi-min 5 and --xi-max -5"),
    ],
    ids=["nan", "inf", "minus-inf", "equal", "reversed"],
)
def test_waves_profile_bad_bounds_exit_two(bounds, named, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    args = ["waves", "profile", "--family", "eq93", "--binding", "mu=1", *bounds]
    assert run_cli(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dlwlab waves profile: UsageError: {named} must be finite, with --xi-min below --xi-max\n"
    )
    assert not out.exists()


def test_waves_verify_no_samples_exits_two(tmp_path, capsys):
    out = tmp_path / "verify.json"
    args = ["--json", str(out), "waves", "verify", "--family", "eq93", "--binding", "mu=1"]
    assert run_cli(args + ["--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("dlwlab waves verify: UsageError: ")
    assert "--samples must be at least 1, got 0" in captured.err
    assert not out.exists()

def test_json_file_matches_printed_json(tmp_path, capsys):
    path = tmp_path / "fi.json"
    assert run_cli(["--json", str(path), "waves", "first-integrals", "--mu", "1"]) == 0
    assert path.read_text(encoding="utf-8") == capsys.readouterr().out


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["report", "nonsense"])
    assert err.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dlwlab", "symmetry", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "determining-X4" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["waves", "verify", "--family", "eq93", "--binding", "mu=1"],
        ["report", "symmetry"],
        ["--json", "{json}", "waves", "verify", "--family", "eq93", "--binding", "mu=1"],
        ["--json", "{json}", "--reproducible", "report", "symmetry"],
    ],
    ids=["waves-verify", "report-symmetry", "waves-verify-json", "report-symmetry-json"],
)
def test_closed_stdout_ends_quietly(argv, tmp_path):
    """A reader that closed standard output, as ``| head -1`` does, is
    neither bad input (exit 2) nor a fault (a traceback): the command ends
    with exit 1 and nothing on stderr. The pipe's read end is closed
    before the command starts, so its first write fails. A ``--json``
    file is written before anything is printed, so it is the one an open
    standard output gets."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dlwlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def run(path, stdout):
        args = [str(path) if arg == "{json}" else arg for arg in argv]
        return subprocess.run(
            [sys.executable, "-m", "dlwlab", *args], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=300
        )

    read, write = os.pipe()
    os.close(read)
    try:
        proc = run(tmp_path / "closed.json", write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")
    if "{json}" in argv:
        assert run(tmp_path / "open.json", subprocess.DEVNULL).returncode == 0
        assert (tmp_path / "closed.json").read_bytes() == (tmp_path / "open.json").read_bytes()
