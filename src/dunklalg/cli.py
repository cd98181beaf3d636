"""Command-line front end.

Subcommands:
  normal-form EXPR   rewrite an operator expression to its canonical basis
  verify SUITE       run a named verification suite and report pass/fail
  basis              list basis words of the so/gl subalgebra per degree
  centre             compute the centralizer basis at a degree bound

Each ``cmd_*`` handler returns its ``Report``, its extra JSON fields and its
text body (after the report's text for verify and centre); ``run`` builds the
context, times the handler, renders, writes and picks the exit code.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or parse error.
Reports are byte-deterministic unless --timing is passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .cherednik import CherednikContext
from .coxeter import MultiplicityMap, build_root_system, load_root_system_file
from .exactmath import parse_rational
from .expr import evaluate, parse_expression, print_expression
from .reporting import CheckResult, Report
from .subalgebra import centralizer, get_subalgebra
from .suites import SUITES, centre_suite, default_degree, run_suite


def _degree(text: str) -> int:
    """argparse type for --degree: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", default="A",
                        help="A, B, D, or custom:<config.json> (default A)")
    parser.add_argument("--rank", type=int, default=3,
                        help="rank parameter n for the standard families")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--timing", action="store_true",
                        help="include wall time in the report")
    parser.add_argument("--numeric-g", default=None, metavar="RATIONALS",
                        help="comma-separated rational couplings (specialises the symbols)")


def build_context(args) -> tuple[CherednikContext, str]:
    group = args.group
    if group.startswith("custom:"):
        rs = load_root_system_file(group.split(":", 1)[1])
        family = "custom"
    else:
        rs = build_root_system(group, args.rank)
        family = group.upper()
    gmap = None
    if args.numeric_g:
        values = [parse_rational(v) for v in args.numeric_g.split(",")]
        gmap = MultiplicityMap.numeric(rs, values)
    return CherednikContext(rs, gmap), family


def cmd_normal_form(args, ctx, family):
    ast = parse_expression(args.expression)
    value = evaluate(ast, ctx, args.mode)
    rendered = value.canonical_str() if hasattr(value, "canonical_str") else value.render()
    report = Report(check="normal-form", family=family, rank=ctx.n,
                    params={"expression": print_expression(ast), "mode": args.mode},
                    results=[CheckResult("normal-form", instances=1)])
    return report, {"normal_form": rendered}, rendered + "\n"


def cmd_verify(args, ctx, family):
    return run_suite(args.suite, ctx, family, degree=args.degree, mode=args.mode), {}, ""


def cmd_basis(args, ctx, family):
    alg = get_subalgebra(ctx, args.mode)
    bases = [alg.basis(deg) for deg in range(args.degree + 1)]
    words = [word.render(args.mode) for basis in bases for word in basis]
    report = Report(check="basis", family=family, rank=ctx.n,
                    params={"mode": args.mode, "degree": args.degree},
                    results=[CheckResult("basis-%s" % args.mode, instances=len(words))])
    extra = {"counts": {"degree %d" % deg: len(basis) for deg, basis in enumerate(bases)},
             "words": words}
    counts = ["degree %d: %d words" % (deg, len(basis)) for deg, basis in enumerate(bases)]
    return report, extra, "\n".join(counts + words) + "\n"


def cmd_centre(args, ctx, family):
    degree = args.degree if args.degree is not None else default_degree("centre", args.mode, ctx)
    solutions = centralizer(args.mode, ctx, degree)
    report = Report(check="centre", family=family, rank=ctx.n,
                    params={"mode": args.mode, "degree": degree,
                            "dimension": len(solutions)},
                    results=centre_suite(args.mode, ctx, degree, solutions))
    return report, {}, "".join("basis element: %s\n" % sol.render() for sol in solutions)


def run(args) -> int:
    """Run one subcommand end to end and return its exit code."""
    ctx, family = build_context(args)
    start = time.monotonic()
    report, extra, text = args.func(args, ctx, family)
    if args.timing:
        report.timing = time.monotonic() - start
    if args.format == "json":
        payload = json.dumps({**report.to_dict(), **extra}, indent=2) + "\n"
    else:
        payload = report.to_text() + text if args.text_report else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    sys.stdout.write(payload)
    return 0 if report.status == "pass" else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunklalg",
        description="Exact engine for Dunkl angular momenta in the rational Cherednik algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("normal-form", help="canonical form of an operator expression")
    p_nf.add_argument("expression")
    p_nf.add_argument("--mode", choices=("cherednik", "so", "gl"), default="cherednik")
    _add_common(p_nf)
    p_nf.set_defaults(func=cmd_normal_form, text_report=False)

    p_v = sub.add_parser("verify", help="run a verification suite")
    p_v.add_argument("suite", choices=SUITES)
    p_v.add_argument("--degree", type=_degree, default=None)
    p_v.add_argument("--mode", choices=("so", "gl"), default=None,
                     help="subalgebra family for the centre suite")
    _add_common(p_v)
    p_v.set_defaults(func=cmd_verify, text_report=True)

    p_b = sub.add_parser("basis", help="list subalgebra basis words")
    p_b.add_argument("--mode", choices=("so", "gl"), default="so")
    p_b.add_argument("--degree", type=_degree, default=2)
    _add_common(p_b)
    p_b.set_defaults(func=cmd_basis, text_report=False)

    p_c = sub.add_parser("centre", help="compute the centralizer basis")
    p_c.add_argument("--mode", choices=("so", "gl"), default="so")
    p_c.add_argument("--degree", type=_degree, default=None)
    _add_common(p_c)
    p_c.set_defaults(func=cmd_centre, text_report=True)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return run(args)
    except ValueError as exc:       # every bad-input error subclasses it
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("io error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
