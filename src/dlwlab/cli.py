"""Command-line entry point exposing every verification suite and the
finite-difference solver.

Usage: ``dlwlab [--json PATH] [--reproducible] <command> <action> [options]``.
Each action has its own parser and takes only the options that parser
declares (``dlwlab <command> <action> --help`` lists them); options
follow the action, and the two root options come before the command.

Exit codes: 0 when no entry fails (flagged catalog discrepancies are
listed but do not fail the build), 1 on an unexpected failure, 2 on
usage errors: an option the action does not declare, and input that
the action rejects (a malformed ``--binding`` or ``--n``, a ``--samples``
below 1 on ``waves verify``, a ``--mu`` that is not rational, a
``--points`` below 2, a ``--xi-min`` and ``--xi-max`` that are not
finite with ``--xi-min`` below ``--xi-max``, an option that needs
``--family`` without it, ``--json`` on ``waves profile``, which writes
its CSV to ``--out``, and in the ``waves`` and ``sim`` actions a bad
config, an unbound family parameter or a bound name that is not one, an
unknown monitor label or family, or a file that cannot be read or
written).
Past parsing, each prints one stderr line ``dlwlab <command> <action>:
<error type>: <message>``. A standard output closed by its reader (as
``| head -1`` closes it) ends the command quietly with exit 1: no
traceback and no stderr line. Every file an action names (``--json``,
``--out``, ``--out-dir``) is written before the action prints, so a
closed standard output does not lose it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .analytic import AnalyticError
from .jet import JetError
from .report import SUITES, VerificationReport, report_to_json_text, run_suite, suite_blocks
from .solutions import RESIDUAL_SAMPLES

__all__ = ["main", "build_parser"]


class _StdoutClosed(Exception):
    """Standard output was closed by its reader."""


def _print(text: str) -> None:
    """Print a line to standard output and flush it, so that a reader
    that closed it is found here, where a write to a named output path
    cannot be mistaken for it."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        raise _StdoutClosed from None


def _write_json(text: str, args: argparse.Namespace) -> None:
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")


def _print_json(data: object, args: argparse.Namespace) -> None:
    """Write data as JSON to ``--json`` if given, then print the same text:
    the file is written even when standard output is closed."""
    text = json.dumps(data, indent=2, sort_keys=True)
    _write_json(text, args)
    _print(text)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit(report: VerificationReport, args: argparse.Namespace) -> int:
    """Write the report's JSON to ``--json`` if given, then print the
    report: the file is written even when standard output is closed."""
    if args.json:
        _write_json(report_to_json_text(report), args)
    _print(report.render())
    if args.json:
        _print(f"json written to {args.json}")
    return 1 if report.failed() else 0


def _parse_binding(text: str | None) -> dict[str, float]:
    """``--binding`` value: comma-separated name=value pairs, each value a
    finite number and each name given once; an absent option binds
    nothing."""
    out: dict[str, float] = {}
    for chunk in (text or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, val = chunk.partition("=")
        key = key.strip()
        try:
            value = float(val)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value) or not key:
            raise UsageError(f"malformed binding {chunk!r}: expected name=finite number")
        if key in out:
            raise UsageError(f"binding {key!r} is repeated")
        out[key] = value
    return out


def _parse_sizes(text: str) -> list[int]:
    """``--n`` value: comma-separated grid sizes."""
    out = []
    for chunk in text.split(","):
        try:
            out.append(int(chunk))
        except ValueError:
            raise UsageError(f"malformed grid size {chunk!r}: expected an integer") from None
    return out


class UsageError(Exception):
    """An option the action does not declare, or a value that the action
    cannot parse or use."""


# ---------------------------------------------------------------------------
# action handlers


def _cmd_suite(args: argparse.Namespace) -> int:
    """Run the ``blocks`` of ``suite`` the action's parser names (all of
    them when None) and print the report."""
    rep = run_suite(args.suite, reproducible=args.reproducible, blocks=args.blocks)
    if args.fix:
        rep.entries = [e for e in rep.entries if f"fix{args.fix}" in e.label]
    return _emit(rep, args)


def _conslaw_verify(args: argparse.Namespace) -> int:
    """``--set`` picks one block; ``all`` runs the whole suite."""
    args.blocks = None if args.set == "all" else (args.set,)
    return _cmd_suite(args)


def _waves_verify(args: argparse.Namespace) -> int:
    if not args.family:
        if args.binding is not None or args.samples is not None:
            raise UsageError("--binding and --samples need --family")
        return _emit(run_suite("waves", reproducible=args.reproducible), args)
    from .solutions import verify_family

    samples = RESIDUAL_SAMPLES if args.samples is None else args.samples
    if samples < 1:
        raise UsageError(f"--samples must be at least 1, got {samples}")
    binding = _parse_binding(args.binding)
    report = verify_family(args.family, binding, n_samples=samples)
    _print_json({"family": args.family, "params": binding, **asdict(report)}, args)
    return 0


def _waves_first_integrals(args: argparse.Namespace) -> int:
    from .conslaw import direct_laws
    from .jet import format_poly
    from .waves import first_integral, first_integral_derivative

    mu = None
    if args.mu is not None:
        try:
            mu = Fraction(args.mu)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--mu {args.mu!r} is not a rational number") from None
    rows = []
    for label in ("eq29", "eq31", "eq32", "eq33"):
        law = direct_laws()[label]
        fi = first_integral(law) if mu is None else first_integral(law, mu)
        d = first_integral_derivative(fi) if mu is None else first_integral_derivative(fi, mu)
        rows.append({"source": label, "expression": format_poly(fi.expr), "constant_along_flow": d.is_zero()})
    _print_json(rows, args)
    return 0 if all(r["constant_along_flow"] for r in rows) else 1


def _waves_profile(args: argparse.Namespace) -> int:
    from .solutions import profile_rows

    if args.json:
        raise UsageError("waves profile takes no --json; it writes its CSV to --out")
    if not args.family:
        raise UsageError("waves profile needs --family")
    if args.points < 2:
        raise UsageError(f"--points must be at least 2, got {args.points}")
    lo, hi = args.xi_min, args.xi_max
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"--xi-min {lo:g} and --xi-max {hi:g} must be finite, with --xi-min below --xi-max")
    rows = profile_rows(args.family, _parse_binding(args.binding), args.xi_min, args.xi_max, args.points)
    out = Path(args.out or f"{args.family}_profile.csv")
    _write_csv(out, ["xi", "U", "V"], rows)
    _print(f"profile written to {out} ({len(rows)} rows)")
    return 0


def _sim_run(args: argparse.Namespace) -> int:
    from . import sim as S

    cfg = S.parse_config(args.config)
    summary: dict = {"config": args.config}
    try:
        res = S.integrate(cfg)
    except S.BlowupError as e:
        summary["outcome"] = "blowup"
        summary["blowup_time"] = e.time
        _print_json(summary, args)
        return 0
    summary["outcome"] = "completed"
    summary["steps"] = res.steps
    if res.l2_error is not None:
        summary["final_l2_error"] = res.l2_error
    summary["max_drift"] = {}
    out_dir = Path(args.out_dir or ".")  # made only once there is a file to write
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, series in res.monitors.items():
        _write_csv(out_dir / f"monitor_{label}.csv", ["time", "value", "relative_drift"], series.rows())
        summary["max_drift"][label] = series.relative_drift()
    _write_csv(out_dir / "snapshot.csv", ["x", "u", "v"], zip(cfg.grid.x, res.state.u, res.state.v))
    _print_json(summary, args)
    return 0


def _sim_converge(args: argparse.Namespace) -> int:
    from .sim import BlowupError, convergence_study

    binding = _parse_binding(args.binding) or {"mu": 1.0}
    try:
        rows = convergence_study(args.family, binding, _parse_sizes(args.n), t_end=args.t_end)
    except BlowupError as e:
        rows = [{"outcome": "blowup", "blowup_time": e.time}]
    _print_json(rows, args)
    return 0


# ---------------------------------------------------------------------------

# The errors of outside input (family ids and bindings, config files, output
# paths) that the waves and sim actions read; in the suite commands, which
# read none, such an error is a fault of the program.
_BAD_INPUT = (JetError, AnalyticError, OSError)


def _actions(commands, name: str, help: str, rejects: tuple = ()):
    """The action sub-parsers of one command, whose actions end in exit 2
    on the exception types ``rejects`` as well as on a ``UsageError``."""
    p = commands.add_parser(name, help=help)
    p.set_defaults(rejects=rejects)
    return p.add_subparsers(dest="action", required=True)


def _action(actions, name: str, func, **defaults) -> argparse.ArgumentParser:
    """The parser of one action, which declares every option the action
    takes; abbreviations are off, so ``--out`` never reaches ``--out-dir``."""
    p = actions.add_parser(name, allow_abbrev=False)
    p.set_defaults(func=func, **defaults)
    return p


def _suite_action(actions, name: str, suite: str, blocks=None, func=_cmd_suite) -> argparse.ArgumentParser:
    """The parser of an action that runs ``blocks`` of ``suite``."""
    return _action(actions, name, func, suite=suite, blocks=blocks, fix=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlwlab",
        description="verification suites and solver for the dispersive long-wave pair",
    )
    parser.add_argument("--json", metavar="PATH", help="write the report as JSON")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit timestamps so identical builds emit identical bytes",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for suite, help in (("symmetry", "point-symmetry checks"), ("adjoint", "adjoint-symmetry checks")):
        actions = _actions(commands, suite, help)
        for block in suite_blocks(suite):
            p = _suite_action(actions, block, suite, (block,))
            if (suite, block) == ("adjoint", "bracket"):
                p.add_argument("--fix", choices=["Q1", "Q3", "Q4"], help="restrict brackets to one fixed entry")

    actions = _actions(commands, "conslaw", "conservation-law checks")
    p = _suite_action(actions, "verify", "conslaw", func=_conslaw_verify)
    sets = [b for b in suite_blocks("conslaw") if b != "hamiltonian"]
    p.add_argument("--set", choices=[*sets, "all"], default="all", help="the checks to run (default: all)")
    _suite_action(actions, "hamiltonian", "conslaw", ("hamiltonian",))

    actions = _actions(commands, "waves", "traveling-wave and exact-solution checks", _BAD_INPUT)
    p = _action(actions, "verify", _waves_verify)
    p.add_argument("--family", help="catalog id, e.g. eq93; without it the waves suite runs")
    p.add_argument("--binding", help="comma-separated name=value parameter bindings")
    p.add_argument("--samples", type=int, help=f"residual samples of the family (default: {RESIDUAL_SAMPLES})")
    p = _action(actions, "first-integrals", _waves_first_integrals)
    p.add_argument("--mu", help="rational wave speed")
    p = _action(actions, "profile", _waves_profile)
    p.add_argument("--family", help="catalog id, e.g. eq93 (required)")
    p.add_argument("--binding", help="comma-separated name=value parameter bindings")
    p.add_argument("--out", help="CSV output path (default: <family>_profile.csv)")
    p.add_argument("--xi-min", type=float, default=-10.0)
    p.add_argument("--xi-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=201)

    actions = _actions(commands, "sim", "finite-difference solver", _BAD_INPUT)
    p = _action(actions, "run", _sim_run)
    p.add_argument("--config", required=True, help="flat key=value configuration file")
    p.add_argument("--out-dir", help="directory for CSV outputs")
    p = _action(actions, "converge", _sim_converge)
    p.add_argument("--family", default="eq93")
    p.add_argument("--binding", help="parameter bindings for the reference family")
    p.add_argument("--n", default="128,256,512", help="comma-separated grid sizes")
    p.add_argument("--t-end", type=float, default=1.0)

    actions = _actions(commands, "report", "aggregate suites")
    for suite in SUITES:
        _suite_action(actions, suite, suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    try:
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except _StdoutClosed:
        # Python's recipe for SIGPIPE: what is left in the buffer goes to
        # devnull, so the flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (UsageError, *args.rejects) as e:
        print(f"dlwlab {args.command} {args.action}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
