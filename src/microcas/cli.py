"""Command-line surface.

    microcas factor N [--maple]
    microcas norm-expr "E"
    microcas norm-fun "fun x -> E"
    microcas diff "E"
    microcas eval "E" --at A
    microcas domain "E" [--lo L] [--hi H] [--n N]
    microcas check {factor|norm-expr|norm-fun|diff|disquote|all} [--seed S] [--cases K]

Every subcommand takes --format {infix|sexpr|json}.  Exit codes: 0 on
success, 2 on a parse or argument error, 3 when the result does not
exist (the word "undefined" goes to standard output), 4 when a
contract check finds a counterexample, 5 at a resource limit: an
integer in the input, the work or the output with more decimal digits
than Python converts to or from text (sys.get_int_max_str_digits(),
4300 by default), domain --n above DOMAIN_MAX_POINTS (10^6), Python's
recursion limit or memory running out; a one-line message names the
limit on standard error.

Each subcommand imports the module of the language it runs when it
runs, and only check imports the contract harness, so a process loads
no algorithm it does not use.

eval uses the strict term-tree semantics of rational expressions at a
point.  That makes the classic pitfall reproducible: evaluating
(x^4-1)/(x^2-1) at 1 is undefined, while evaluating its normal form
x^2+1 there gives 2.  norm-fun is the sound counterpart that keeps
the singular points.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .parser import ParseError, parse
from .printing import FORMATS, format_term


# The most grid points domain evaluates; past it the command exits 5
# before it parses, lowers or evaluates anything.
DOMAIN_MAX_POINTS = 10**6

# The contract suites check runs, sorted: the keys of harness.CHECKS,
# which only check imports.
SUITES = ("diff", "disquote", "factor", "norm-expr", "norm-fun")


class _DigitLimit(Exception):
    """An argument past the digit limit.  Not a ValueError, so argparse
    lets it through instead of reporting a malformed argument."""


def _over_digit_limit(e: Exception) -> bool:
    """Is e the error of an int/str conversion past the digit limit?"""
    return "integer string conversion" in str(e)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as e:
        if _over_digit_limit(e):
            raise _DigitLimit from e
        raise


_int.__name__ = "int"  # argparse names the type in "invalid int value"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        if _over_digit_limit(e):
            raise _DigitLimit from e
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="microcas",
        description="Exact micro computer-algebra toolkit: factoring, "
        "rational normal forms, symbolic differentiation, contract checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default="infix",
        help="term output format (default: infix)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "factor", parents=[common], help="prime decomposition of an integer"
    )
    p.add_argument("n", type=_int, help="integer to factor")
    p.add_argument(
        "--maple",
        action="store_true",
        help="print the factorization as a nested list, [sign, [[p, e], ...]]",
    )
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser(
        "norm-expr",
        parents=[common],
        help="normal form of a rational expression in x",
    )
    p.add_argument("expr", help='expression, e.g. "(x^4 - 1)/(x^2 - 1)"')
    p.set_defaults(handler=_cmd_norm_expr)

    p = sub.add_parser(
        "norm-fun",
        parents=[common],
        help="quasinormal form of a rational function, keeping singular points",
    )
    p.add_argument("fun", help='function, e.g. "fun x -> x/x"')
    p.set_defaults(handler=_cmd_norm_fun)

    p = sub.add_parser(
        "diff", parents=[common], help="symbolic derivative of a real expression"
    )
    p.add_argument("expr", help='expression, e.g. "sin(x^2 + x)"')
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser(
        "eval",
        parents=[common],
        help="evaluate a rational expression at a rational point (strict)",
    )
    p.add_argument("expr", help="rational expression in x")
    p.add_argument(
        "--at", type=_fraction, required=True, metavar="A", help="point, e.g. 1 or 3/2"
    )
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser(
        "domain",
        parents=[common],
        help="sample where a real expression is defined",
    )
    p.add_argument("expr", help="real expression in x")
    p.add_argument("--lo", type=float, default=-2.0, help="left end (default -2)")
    p.add_argument("--hi", type=float, default=2.0, help="right end (default 2)")
    p.add_argument(
        "--n", type=_int, default=41, help="number of grid points (default 41)"
    )
    p.set_defaults(handler=_cmd_domain)

    p = sub.add_parser(
        "check", parents=[common], help="run the executable operation contracts"
    )
    p.add_argument(
        "which",
        choices=[*SUITES, "all"],
        help="which contract suite to run",
    )
    p.add_argument("--seed", type=_int, default=0, help="generator seed (default 0)")
    p.add_argument(
        "--cases", type=_int, default=500, help="cases per suite (default 500)"
    )
    p.set_defaults(handler=_cmd_check)

    return top


def _cmd_factor(args: argparse.Namespace) -> int:
    from .factoring import decomp_to_term, factor_int, to_maple_list

    pf = factor_int(args.n)
    if args.maple:
        if pf.sign == 0:
            print("undefined")
            return 3
        print(to_maple_list(pf))
        return 0
    print(format_term(decomp_to_term(pf), args.format))
    return 0


def _cmd_norm_expr(args: argparse.Namespace) -> int:
    from .rational import norm_rat_expr

    t = parse(args.expr, "ratexpr")
    print(format_term(norm_rat_expr(t), args.format))
    return 0


def _cmd_norm_fun(args: argparse.Namespace) -> int:
    from .rational import norm_rat_fun

    t = parse(args.fun, "ratfun")
    print(format_term(norm_rat_fun(t), args.format))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .differentiation import diff

    t = parse(args.expr, "diffexpr")
    print(format_term(diff(t), args.format))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .rational import eval_pointwise

    t = parse(args.expr, "ratexpr")
    v = eval_pointwise(t, args.at)
    if v is None:
        print("undefined")
        return 3
    print(v)
    return 0


def _cmd_domain(args: argparse.Namespace) -> int:
    if args.n > DOMAIN_MAX_POINTS:
        return _resource_exit(f"more than {DOMAIN_MAX_POINTS} grid points (--n), the limit for domain")
    from .differentiation import domain_sample

    t = parse(args.expr, "diffexpr")
    try:
        report = domain_sample(t, args.lo, args.hi, args.n)
    except ValueError as e:
        print(f"domain: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(
            json.dumps(
                [{"point": e.point, "defined": e.defined} for e in report.entries]
            )
        )
        return 0
    for entry in report.entries:
        print(f"x = {entry.point:g}: {entry.status}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.cases < 1 or args.seed < 0:
        print("check: need cases >= 1 and a nonnegative seed", file=sys.stderr)
        return 2
    from . import harness

    cfg = harness.GenConfig(seed=args.seed, cases=args.cases)
    if args.which == "all":
        reports = harness.check_all(cfg)
    else:
        reports = [harness.CHECKS[args.which](cfg)]
    if args.format == "json":
        import json

        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        print("\n\n".join(r.render() for r in reports))
    return 0 if all(r.ok for r in reports) else 4


def _resource_exit(limit: str) -> int:
    """Exit code 5, after one line on standard error that names the limit."""
    print(f"resource limit: {limit}", file=sys.stderr)
    return 5


def _digit_limit_exit() -> int:
    return _resource_exit(
        f"an integer has more than {sys.get_int_max_str_digits()} decimal digits, "
        "the limit for converting integers to or from text"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    except _DigitLimit:
        return _digit_limit_exit()
    try:
        return args.handler(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        if not _over_digit_limit(e):
            raise
        return _digit_limit_exit()
    except RecursionError:
        return _resource_exit(f"deeper recursion than Python's limit of {sys.getrecursionlimit()} frames")
    except MemoryError:
        return _resource_exit("out of memory")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
