"""Command-line surface: classify, poly, solve, construct, verify.

The commands raise; `main` alone turns an exception into an exit code and
one `error:` line: 2 for an input error, 1 for a run failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the layers it runs, so `hendecafold --help` and
# `classify` load only the algebra core that the package imports anyway.
from .cyclotomic import classify_constructible, halved_cyclotomic

if TYPE_CHECKING:
    from .geometry import Line, Point

# Exit 2 and exit 1, by class as `module.Name`.  They are looked up only in
# the modules already loaded when a command fails: an exception of a class
# whose module was never imported cannot have been raised.
_INPUT_ERRORS = ("hendecafold.scriptio.FormatError", "hendecafold.cyclotomic.InvalidN")
# OSError covers a fork that fails when `verify` starts its scan pool, and
# BrokenProcessPool a worker of that pool that dies.
_RUN_FAILURES = ("builtins.ValueError", "builtins.OSError",
                 "hendecafold.construction.UnknownLandmark",
                 "hendecafold.construction.WrongLandmarkKind", "hendecafold.render.IoFailure",
                 "concurrent.futures.process.BrokenProcessPool")

DEFAULT_TOL = 1e-9  # geometry.DEFAULT_TOL, restated so the parser need not import geometry


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_line(l: Line) -> str:
    return f"[{_fmt(l.a)}, {_fmt(l.b)}, {_fmt(l.c)}]"


def _fmt_point(p: Point) -> str:
    return f"({_fmt(p.x)}, {_fmt(p.y)})"


def _read_input(path: str) -> str:
    """The text of an input file; an unreadable file is an input error."""
    from .scriptio import FormatError
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(str(exc)) from exc


def _cmd_classify(args) -> int:
    report = classify_constructible(args.n)
    print(f"n: {report.n}")
    print(f"single_fold_constructible: {str(report.single_fold_constructible).lower()}")
    print(f"r: {report.r}")
    print(f"s: {report.s}")
    if report.pierpont_primes:
        for w in report.pierpont_primes:
            print(f"pierpont_prime: {w.prime} = 2^{w.two_exp} * 3^{w.three_exp} + 1")
    else:
        print("pierpont_prime: (none)")
    for reason in report.obstructions:
        print(f"obstruction: {reason}")
    return 0


def _cmd_poly(args) -> int:
    ngon = halved_cyclotomic(args.n)
    # descending order: the t^degree coefficient first; str of a Fraction is
    # scriptio's encoding, "p/q" or a bare integer
    print(" ".join(str(c) for c in reversed(ngon.poly.coeffs)))
    return 0


def _sheet_note(solution, sheet) -> str:
    notes = []
    for name, point in (("Q'", solution.Qp), ("P'", solution.Pp),
                        ("R", solution.R), ("S", solution.S), ("T", solution.T)):
        if not sheet.contains(point):
            notes.append(f"{name} leaves the sheet at {_fmt_point(point)}")
    return "; ".join(notes) if notes else "all auxiliary points on the sheet"


def _cmd_solve(args) -> int:
    from .construction import SHEET
    from .folds import TwoFoldConfig, solve_two_fold
    from .scriptio import decode_two_fold_config
    if args.config:
        config = decode_two_fold_config(_read_input(args.config))
    else:
        config = TwoFoldConfig.hendecagon()
    with warnings.catch_warnings(record=True) as skipped:
        warnings.simplefilter("always")
        solutions = solve_two_fold(config, args.tol)
    for warning in skipped:
        print(f"warning: {warning.message}", file=sys.stderr)
    print(f"solutions: {len(solutions)}")
    for k, sol in enumerate(solutions):
        print(f"solution {k}:")
        print(f"  t: {_fmt(sol.t)}")
        print(f"  s: {_fmt(sol.s)}")
        print(f"  gamma: {_fmt_line(sol.gamma)}")
        print(f"  delta: {_fmt_line(sol.delta)}")
        print(f"  Q': {_fmt_point(sol.Qp)}  P': {_fmt_point(sol.Pp)}")
        print(f"  R: {_fmt_point(sol.R)}  S: {_fmt_point(sol.S)}  T: {_fmt_point(sol.T)}")
        for name in sorted(sol.residuals):
            print(f"  residual {name}: {_fmt(sol.residuals[name])}")
        print(f"  sheet: {_sheet_note(sol, SHEET)}")
    return 0


def _cmd_construct(args) -> int:
    from .construction import hendecagon_script, polygon_vertices, run_script, verify_hendecagon
    from .render import DiagramSpec, IoFailure, emit_svg, write_svgs
    from .scriptio import decode_script
    if args.script:
        script = decode_script(_read_input(args.script))
    else:
        script = hendecagon_script()
    state = run_script(script, args.tol)
    out_dir = Path(args.out)
    paths = write_svgs(emit_svg(state, DiagramSpec()), out_dir)
    report_lines = [f"{name} {residual:.6e}" for name, residual in state.residual_log]
    report_lines.append(f"max_residual {state.max_residual():.6e}")
    residuals = out_dir / "residuals.txt"
    try:
        residuals.write_text("\n".join(report_lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {residuals}: {exc}") from exc
    print(f"steps executed: {len(script.steps)}")
    print(f"max residual: {_fmt(state.max_residual())}")
    print(f"diagrams written: {len(paths)} to {out_dir}")
    if polygon_vertices(state):
        report = verify_hendecagon(state, args.tol)
        for check in report.checks:
            status = "ok" if check.passed else "FAILED"
            print(f"check {check.name}: {status} (worst {check.worst:.3e}, "
                  f"tol {check.tol:.1e})")
        if not report.passed:
            failed = sum(not check.passed for check in report.checks)
            print(f"error: {failed} of {len(report.checks)} polygon checks failed",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_verify(_args) -> int:
    from .verification import run_all
    results = run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line and exit status 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hendecafold",
        description="Origami fold constructions: quintic-solving double folds, "
                    "single-fold axioms, and the verified hendecagon script.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="single-fold constructibility of the regular n-gon")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "poly",
        help="cosine polynomial of the regular n-gon (odd n); prints exact "
             "coefficients in descending order, leading term first")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("solve", help="solve the two-simultaneous-fold alignment")
    p.add_argument("--config", help="two-fold-config file (default: built-in instance)")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("construct", help="run a fold script and render SVG diagrams")
    p.add_argument("--script", help="fold-script file (default: built-in hendecagon)")
    p.add_argument("--out", default="out", help="output directory (default: ./out)")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def _loaded(names) -> tuple:
    """The classes among `names` whose modules are loaded."""
    split = (name.rpartition(".") for name in names)
    return tuple(getattr(sys.modules[module], cls)
                 for module, _, cls in split if module in sys.modules)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            status = args.func(args)
        except BrokenPipeError:
            raise  # an OSError, but a closed stdout: handled below, silently
        except Exception as exc:
            if isinstance(exc, _loaded(_INPUT_ERRORS)):
                status = 2
            elif isinstance(exc, _loaded(_RUN_FAILURES)):
                status = 1
            else:
                raise
            print(f"error: {exc}", file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): stop with no message, and
        # point stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
