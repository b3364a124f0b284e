"""Command-line entry point exposing every verification suite and the
finite-difference solver.

Exit codes: 0 when no entry fails (flagged catalog discrepancies are
listed but do not fail the build), 1 on an unexpected failure, 2 on
usage errors and on input that a command rejects (a bad config, an
unbound family parameter, an unknown monitor label or family, a
``--samples`` below 1, a ``--mu`` that is not a rational number, a
``waves profile --points`` below 2, a ``sim converge --n`` chunk that is
not an integer, ``waves profile`` without ``--family``) and on an option
that the action would ignore (``--fix`` outside ``adjoint bracket``,
``--set`` on ``conslaw hamiltonian``, ``--binding`` on ``waves verify``
without ``--family``, ``--samples`` on a run without the symmetry
``optimal`` block).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .report import SUITES, VerificationReport, report_to_json_text, run_suite, suite_blocks

__all__ = ["main", "build_parser"]


def _write_json(text: str, args: argparse.Namespace) -> None:
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")


def _print_json(data: object, args: argparse.Namespace) -> None:
    """Print data as JSON and write the same text to ``--json`` if given."""
    text = json.dumps(data, indent=2, sort_keys=True)
    print(text)
    _write_json(text, args)


def _emit(report: VerificationReport, args: argparse.Namespace) -> int:
    print(report.render())
    if args.json:
        _write_json(report_to_json_text(report), args)
        print(f"json written to {args.json}")
    return 1 if report.failed() else 0


def _parse_binding(text: str) -> dict[str, float]:
    """``--binding`` value: comma-separated name=value pairs."""
    out: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, val = chunk.partition("=")
        try:
            value = float(val)
        except ValueError:
            value = None
        if value is None or not key.strip():
            raise argparse.ArgumentTypeError(f"malformed binding {chunk!r}: expected name=number")
        out[key.strip()] = value
    return out


def _parse_sizes(text: str) -> list[int]:
    """``--n`` value: comma-separated grid sizes."""
    out = []
    for chunk in text.split(","):
        try:
            out.append(int(chunk))
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed grid size {chunk!r}: expected an integer") from None
    return out


class UsageError(Exception):
    """An option value that parses but that the command cannot use."""


def _reject(args: argparse.Namespace, e: Exception) -> int:
    """One stderr line naming the command and the rejected input; exit 2."""
    what = args.suite if args.command == "report" else args.action
    print(f"dlwlab {args.command} {what}: {type(e).__name__}: {e}", file=sys.stderr)
    return 2


def _samples_rejected(args: argparse.Namespace) -> bool:
    """True, after one stderr line, when ``--samples`` is below 1."""
    if args.samples >= 1:
        return False
    _reject(args, UsageError(f"--samples must be at least 1, got {args.samples}"))
    return True


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_suite(args: argparse.Namespace) -> int:
    """``symmetry``, ``adjoint``, ``conslaw`` and ``report``: run the
    blocks the command selects and print the report."""
    suite, blocks = args.command, None
    fix, chosen = getattr(args, "fix", None), getattr(args, "set", None)
    if fix and args.action != "bracket":
        return _reject(args, UsageError("--fix applies to adjoint bracket only"))
    if chosen and args.action != "verify":
        return _reject(args, UsageError("--set applies to conslaw verify only"))
    if suite == "report":
        suite = args.suite
    elif suite != "conslaw" or args.action != "verify":
        blocks = (args.action,)
    elif chosen not in (None, "all"):
        blocks = (chosen,)
    runs_optimal = suite in ("symmetry", "all") and (blocks is None or "optimal" in blocks)
    samples = getattr(args, "samples", None)
    if samples is not None:
        if not runs_optimal:
            return _reject(args, UsageError("--samples applies to runs of the symmetry optimal block only"))
        if _samples_rejected(args):
            return 2
    rep = run_suite(suite, reproducible=args.reproducible, samples=1000 if samples is None else samples, blocks=blocks)
    if fix:
        rep.entries = [e for e in rep.entries if f"fix{fix}" in e.label]
    return _emit(rep, args)


def _rejecting_bad_input(action, args: argparse.Namespace) -> int:
    """Run ``action(args)``; input it rejects (a ``UsageError``, a
    ``JetError``, an ``AnalyticError`` or an ``OSError``) ends in one
    stderr line and exit 2."""
    from .analytic import AnalyticError
    from .jet import JetError

    try:
        return action(args)
    except (UsageError, JetError, AnalyticError, OSError) as e:
        return _reject(args, e)


def _waves_action(args: argparse.Namespace) -> int:
    if args.action == "verify":
        if args.family:
            from .solutions import verify_family

            if _samples_rejected(args):
                return 2

            binding = args.binding or {}
            report = verify_family(args.family, binding, n_samples=args.samples)
            _print_json({"family": args.family, "params": binding, **asdict(report)}, args)
            return 0
        if args.binding is not None:
            raise UsageError("--binding needs --family")
        return _emit(run_suite("waves", reproducible=args.reproducible), args)
    if args.action == "first-integrals":
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
            rows.append(
                {
                    "source": label,
                    "expression": format_poly(fi.expr),
                    "constant_along_flow": d.is_zero(),
                }
            )
        _print_json(rows, args)
        return 0 if all(r["constant_along_flow"] for r in rows) else 1
    if args.action == "profile":
        from .solutions import profile_rows

        if not args.family:
            raise UsageError("waves profile needs --family")
        if args.points < 2:
            raise UsageError(f"--points must be at least 2, got {args.points}")
        rows = profile_rows(args.family, args.binding or {}, args.xi_min, args.xi_max, args.points)
        out = Path(args.out or f"{args.family}_profile.csv")
        with out.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["xi", "U", "V"])
            writer.writerows(rows)
        print(f"profile written to {out} ({len(rows)} rows)")
        return 0
    raise SystemExit(2)


def _sim_action(args: argparse.Namespace) -> int:
    from . import sim as S

    if args.action == "run":
        cfg = S.parse_config(args.config)
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
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
        for label, series in res.monitors.items():
            path = out_dir / f"monitor_{label}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["time", "value", "relative_drift"])
                writer.writerows(series.rows())
            summary["max_drift"][label] = series.relative_drift()
        snap = out_dir / "snapshot.csv"
        with snap.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "u", "v"])
            for x, u, v in zip(cfg.grid.x, res.state.u, res.state.v):
                writer.writerow([x, u, v])
        _print_json(summary, args)
        return 0
    if args.action == "converge":
        from .sim import BlowupError, convergence_study

        binding = args.binding or {"mu": 1.0}
        try:
            rows = convergence_study(args.family, binding, args.n, t_end=args.t_end)
        except BlowupError as e:
            rows = [{"outcome": "blowup", "blowup_time": e.time}]
        _print_json(rows, args)
        return 0
    raise SystemExit(2)


# ---------------------------------------------------------------------------


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
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("symmetry", help="point-symmetry checks")
    p.add_argument("action", choices=suite_blocks("symmetry"))
    p.add_argument("--samples", type=int, help="optimal-system samples (default: 1000)")
    p.set_defaults(func=_cmd_suite)

    p = subs.add_parser("adjoint", help="adjoint-symmetry checks")
    p.add_argument("action", choices=suite_blocks("adjoint"))
    p.add_argument("--fix", choices=["Q1", "Q3", "Q4"], help="restrict brackets to one fixed entry")
    p.set_defaults(func=_cmd_suite)

    p = subs.add_parser("conslaw", help="conservation-law checks")
    p.add_argument("action", choices=["verify", "hamiltonian"])
    sets = [b for b in suite_blocks("conslaw") if b != "hamiltonian"]
    p.add_argument("--set", choices=[*sets, "all"], help="the checks of verify (default: all)")
    p.set_defaults(func=_cmd_suite)

    p = subs.add_parser("waves", help="traveling-wave and exact-solution checks")
    p.add_argument("action", choices=["verify", "first-integrals", "profile"])
    p.add_argument("--family", help="catalog id, e.g. eq93")
    p.add_argument("--binding", type=_parse_binding, help="comma-separated name=value parameter bindings")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--mu", help="rational wave speed for the first integrals")
    p.add_argument("--out", help="CSV output path for profiles")
    p.add_argument("--xi-min", type=float, default=-10.0)
    p.add_argument("--xi-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=201)
    p.set_defaults(func=functools.partial(_rejecting_bad_input, _waves_action))

    p = subs.add_parser("sim", help="finite-difference solver")
    p.add_argument("action", choices=["run", "converge"])
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--out-dir", help="directory for CSV outputs")
    p.add_argument("--family", default="eq93")
    p.add_argument("--binding", type=_parse_binding, help="parameter bindings for the reference family")
    p.add_argument("--n", type=_parse_sizes, default="128,256,512", help="comma-separated grid sizes")
    p.add_argument("--t-end", type=float, default=1.0)
    p.set_defaults(func=functools.partial(_rejecting_bad_input, _sim_action))

    p = subs.add_parser("report", help="aggregate suites")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--samples", type=int, help="optimal-system samples of symmetry and all (default: 1000)")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sim" and args.action == "run" and not args.config:
        parser.error("sim run requires --config")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
