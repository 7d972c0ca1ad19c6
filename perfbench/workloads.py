"""The four benchmark workloads, as rounds of timed operations.

A round is a fixed list of operations built from the workload seed and
the round index, so every round of a workload has the same make-up and
the same number of operations, and no input repeats between rounds.
Each operation has a kind, which picks the throughput metric it counts
towards (factor, norm_expr, norm_fun, diff, eval), a check of its
output against the oracle in oracle.py, and, in `large`, the rung of
the size ladder it belongs to.

Operations call microcas through module attributes looked up at call
time, so a traced pass sees them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import microcas
from microcas import cli as mc_cli, harness, rational, factoring, differentiation

import inputs
from oracle import IllConditioned, close, compile_infix, dual_value, factorization_ok, rat_value

KINDS = ("factor", "norm_expr", "norm_fun", "diff", "eval")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    rung: str = ""
    n: int = 1  # units of work: suite cases for audit, else 1
    fault: str = ""  # known fault: expected to raise; kept out of timings
    traced: Optional[Callable[[], object]] = None  # in-process form (cli)


# ---------------------------------------------------------------------------
# checks on printed text (shared by the in-process and the CLI forms)

DIFF_POINTS = (-2.3, -1.7, -1.1, -0.6, -0.2, 0.3, 0.8, 1.4, 2.1)


def agree_expr(src: str, points, text: str) -> bool:
    """Normal form agrees with the input wherever the input is defined."""
    pin, pout = compile_infix(src), compile_infix(text)
    for a in points:
        v = rat_value(pin, a)
        if v is not None and rat_value(pout, a) != v:
            return False
    return True


def agree_fun(src: str, points, text: str) -> bool:
    """Same definedness and same values at every sample point."""
    pin, pout = compile_infix(src), compile_infix(text)
    return all(rat_value(pin, a) == rat_value(pout, a) for a in points)


def agree_diff(src: str, text: str, points=DIFF_POINTS) -> bool:
    """Printed derivative equals the dual-number derivative wherever
    that is defined; at least one point must be compared."""
    pin, pout = compile_infix(src), compile_infix(text)
    compared = 0
    for a in points:
        try:
            r = dual_value(pin, a)
        except IllConditioned:
            continue
        if r is None or r[1] is None:
            continue
        o = dual_value(pout, a)
        if o is None or not close(o[0], r[1]):
            return False
        compared += 1
    return compared > 0


def agree_eval(src: str, a: Fraction, text: str) -> bool:
    want = rat_value(compile_infix(src), a)
    return text.strip() == ("undefined" if want is None else str(want))


def agree_domain(src: str, lo: float, hi: float, n: int, text: str) -> bool:
    prog = compile_infix(src)
    lines = text.strip().splitlines()
    if len(lines) != n:
        return False
    for i, line in enumerate(lines):
        a = lo + (hi - lo) * i / (n - 1)
        try:
            defined = dual_value(prog, a) is not None
        except IllConditioned:
            defined = None
        if not line.startswith(f"x = {a:g}: ") or (
            defined is not None and line != f"x = {a:g}: {'defined' if defined else 'undefined'}"
        ):
            return False
    return True


_FIELDS: dict = {}


def same_tree(a, b) -> bool:
    """Structural equality of two terms, walked with an explicit stack:
    the dataclass `==` of microcas terms recurses once per level and
    fails on long sums such as the normal form of (x + 1)^200."""
    todo = [(a, b)]
    while todo:
        u, v = todo.pop()
        if u is v:
            continue
        if type(u) is not type(v):
            return False
        names = _FIELDS.get(type(u))
        if names is None and dataclasses.is_dataclass(u):
            names = _FIELDS[type(u)] = [f.name for f in dataclasses.fields(u)]
        if names is not None:
            todo.extend((getattr(u, n), getattr(v, n)) for n in names)
        elif isinstance(u, tuple):
            if len(u) != len(v):
                return False
            todo.extend(zip(u, v))
        elif u != v:
            return False
    return True


def _reparses(tree, text: str, lang: str) -> bool:
    return same_tree(microcas.parse(text, lang), tree)


# ---------------------------------------------------------------------------
# in-process operations, each the way the CLI handles one request


def op_norm_expr(src: str, points, rung: str = "") -> Op:
    def run():
        n = microcas.norm_rat_expr(microcas.parse(src, "ratexpr"))
        return n, microcas.to_infix(n)

    def check(out):
        return agree_expr(src, points, out[1]) and _reparses(*out, "ratexpr")

    return Op("norm_expr", run, check, rung)


def op_norm_fun(src: str, points, rung: str = "", roots=None) -> Op:
    """With `roots`, also checks that singular_points of the input body
    finds exactly those roots."""

    def run():
        g = microcas.norm_rat_fun(microcas.parse(src, "ratfun"))
        return g, microcas.to_infix(g)

    def check(out):
        if roots is not None:
            body = microcas.parse(src, "ratfun").body
            if set(microcas.singular_points(body)) != set(roots):
                return False
        return agree_fun(src, points, out[1]) and _reparses(*out, "ratfun")

    return Op("norm_fun", run, check, rung)


def op_diff(src: str, rung: str = "") -> Op:
    def run():
        d = microcas.diff(microcas.parse(src, "diffexpr"))
        return d, microcas.to_infix(d)

    def check(out):
        return agree_diff(src, out[1]) and _reparses(*out, "diffexpr")

    return Op("diff", run, check, rung)


def op_factor(n: int, rung: str = "") -> Op:
    def run():
        t = factoring.decomp_to_term(microcas.factor_int(n))
        return t, microcas.to_infix(t)

    def check(out):
        return factorization_ok(out[1], n) and _reparses(*out, "int")

    return Op("factor", run, check, rung)


def op_eval(src: str, a: Fraction, rung: str = "") -> Op:
    def run():
        v = rational.eval_pointwise(microcas.parse(src, "ratexpr"), a)
        return "undefined" if v is None else str(v)

    return Op("eval", run, lambda out: agree_eval(src, a, out), rung)


def op_domain(src: str, lo: float, hi: float, n: int, rung: str = "") -> Op:
    def run():
        rep = microcas.domain_sample(microcas.parse(src, "diffexpr"), lo, hi, n)
        return "\n".join(f"x = {e.point:g}: {e.status}" for e in rep.entries)

    return Op("eval", run, lambda out: agree_domain(src, lo, hi, n, out), rung)


# ---------------------------------------------------------------------------
# workloads


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


SUITES = {"factor": "factor", "norm-expr": "norm_expr", "norm-fun": "norm_fun",
          "diff": "diff", "disquote": "eval"}
# Cases per suite and round: the factor suite is about 70 times cheaper
# per case than the others, so it gets more cases to stay measurable.
AUDIT_CASES = {"factor": 1500, "norm-expr": 150, "norm-fun": 100, "diff": 100, "disquote": 100}
# Branches that run a count of their own; every other branch runs once
# per drawn term.
_OFF_LANGUAGE = ("undefined-off-language", "type-mismatch-undefined")


def audit_round(seed: int, rnd: int) -> list[Op]:
    """The contract suites through harness.CHECKS at AUDIT_CASES cases,
    at a harness seed drawn from the workload seed and the round."""
    hseed = _rng("audit", seed, rnd).randrange(1 << 30)
    ops = []
    for name, kind in SUITES.items():
        cfg = harness.GenConfig(seed=hseed, cases=AUDIT_CASES[name])

        def run(name=name, cfg=cfg):
            return harness.CHECKS[name](cfg)

        check = _diff_ok if name == "diff" else _report_ok
        ops.append(Op(kind, run, lambda rep, cfg=cfg, check=check: check(rep, cfg), name, cfg.cases))
    return ops


def _report_ok(rep, cfg, may_fail: str = "") -> bool:
    """Every branch ran its configured number of cases, and every branch
    but `may_fail` passed all of them."""
    return all(
        (b.failures == 0 or b.name == may_fail)
        and b.cases > 0
        and (b.name in _OFF_LANGUAGE or b.cases == cfg.cases)
        for b in rep.branches
    )


DIFF_GRID = [-2.5 + 5.0 * i / 24 for i in range(25)]


def _diff_ok(rep, cfg) -> bool:
    """The diff suite's report, with its pointwise branch judged again.

    That branch compares the derivative with the central-difference
    estimate of deriv_numeric within 1e-4.  The estimate is not reliable
    there: its noise bound is 1e-3, and rapid oscillation, as in
    tan(x^-8) near 0, can pass its convergence test with a wrong value.
    So for some seeds the suite fails on a derivative that is right.
    When the branch has failures, the suite's draws and pointwise checks
    are made again here, untimed, and each point they list passes when
    the derivative's value there equals the dual-number one, or when no
    floating-point value there is meaningful."""
    if not _report_ok(rep, cfg, may_fail="pointwise-agreement"):
        return False
    failures = sum(b.failures for b in rep.branches)
    if failures == 0:
        return True
    rng = random.Random(cfg.seed)
    listed = 0
    for _ in range(cfg.cases):
        t = harness.draw_diff_expr(rng, cfg)
        violations = differentiation.check_spec_diff(t, DIFF_GRID).violations
        listed += bool(violations)
        prog = compile_infix(microcas.to_infix(t)) if violations else None
        for v in violations:
            try:
                r = dual_value(prog, v.point)
            except IllConditioned:  # both values are rounding noise there
                continue
            if r is None or r[1] is None or v.got is None or not close(v.got, r[1]):
                return False
    return listed == failures


def oneshot_round(seed: int, rnd: int) -> list[Op]:
    """README-sized requests, 40 of each kind; each parsed, computed
    and printed once."""
    rng = _rng("oneshot", seed, rnd)
    ops = []
    for _ in range(40):
        roots: set = set()
        src = inputs.rat_expr(rng, 3, roots)
        ops.append(op_norm_expr(src, sorted(roots) + inputs.rational_points(rng, 4)))
    for _ in range(40):
        roots = set()
        src = inputs.rat_fun(rng, 3, roots)
        ops.append(op_norm_fun(src, sorted(roots) + inputs.rational_points(rng, 4)))
    for _ in range(40):
        ops.append(op_diff(_diff_input(rng, 3)))
    for _ in range(40):
        n = rng.randint(2, 10**12) if rng.random() < 0.8 else rng.randint(-10**6, 10**6)
        ops.append(op_factor(n))
    for _ in range(30):
        roots = set()
        src = inputs.rat_expr(rng, 3, roots)
        pts = sorted(roots) + inputs.rational_points(rng, 1)
        ops.append(op_eval(src, rng.choice(pts)))
    for _ in range(10):
        ops.append(op_domain(_diff_input(rng, 3), -2.0, 2.0, 41))
    return ops


def _diff_input(rng: random.Random, depth: int) -> str:
    """A real expression whose derivative is defined at some check
    point, so the dual-number comparison is never vacuous."""
    while True:
        src = inputs.real_expr(rng, depth)
        prog = compile_infix(src)
        try:
            if any((r := dual_value(prog, a)) is not None and r[1] is not None for a in DIFF_POINTS):
                return src
        except IllConditioned:
            pass


def _quadratic(rng: random.Random, bits: int) -> tuple[str, list[Fraction]]:
    """1/((a x - b)(c x + d)) expanded, and its two roots.  a, b, c, d
    are primes of bits/2 bits, so the leading and constant coefficients
    are `bits`-bit semiprimes, the hard case for finding rational roots
    through their divisors, and equally hard for every seed."""
    h = bits // 2
    a, b, c, d = (inputs.prime(rng, h) for _ in range(4))
    A, B, C = a * c, a * d - b * c, -b * d
    poly = f"{A}*x^2 {'+' if B >= 0 else '-'} {abs(B)}*x {'+' if C >= 0 else '-'} {abs(C)}"
    return f"fun x -> 1 / ({poly})", [Fraction(b, a), Fraction(-d, c)]


# Ladders of `large`; each rung is timed on its own.
DEGREES = (25, 50, 100, 200)
TERM_COUNTS = (40, 80, 160)
LINEAR_FACTORS = (8, 12, 16, 20)
ROOT_MAGNITUDES = [Fraction(p, q) for p, q in (
    (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3), (4, 1), (1, 4), (4, 3),
    (3, 4), (5, 1), (1, 5), (5, 2), (2, 5), (5, 3), (3, 5), (5, 4), (4, 5), (6, 1))]
COEFF_BITS = (16, 32, 48, 64)
NEST_DEPTHS = (25, 50)
INT_BITS = ((40, 4), (48, 4), (56, 4), (64, 8))  # (bits, semiprimes per round)
EVAL_POINTS = 16


def large_round(seed: int, rnd: int) -> list[Op]:
    rng = _rng("large", seed, rnd)
    ops = []
    for n in DEGREES:
        src = f"(x {rng.choice('+-')} 1)^{n}"
        ops.append(op_norm_expr(src, inputs.rational_points(rng, 3), f"degree={n}"))
    for k in TERM_COUNTS:
        terms = [f"{rng.randint(1, 99)}*x^{rng.randint(1, 8)}" for _ in range(k)]
        src = " + ".join(terms) + f" - {rng.randint(1, 99)}"
        ops.append(op_norm_expr(src, inputs.rational_points(rng, 3), f"terms={k}"))
    for k in LINEAR_FACTORS:
        # The seed sets the signs of fixed root magnitudes, so the
        # coefficients, and the divisor lists that rational_roots walks,
        # have the same size for every seed.
        roots = sorted(rng.choice((-1, 1)) * r for r in ROOT_MAGNITUDES[:k])
        den = " * ".join(inputs.linear(r) for r in roots)
        src = f"fun x -> {inputs.linear(roots[0])} / ({den})"
        pts = roots + inputs.rational_points(rng, 3)
        ops.append(op_norm_fun(src, pts, f"linear_factors={k}", roots))
    for bits in COEFF_BITS:
        for _ in range(2):
            src, roots = _quadratic(rng, bits)
            pts = roots + inputs.rational_points(rng, 3)
            ops.append(op_norm_fun(src, pts, f"coeff_bits={bits}", roots))
    for d in NEST_DEPTHS:
        ops.append(op_diff(inputs.nest(d, f"x/{rng.randint(2, 9)}"), f"nest_depth={d}"))
    for bits, count in INT_BITS:
        for _ in range(count):
            n = inputs.prime(rng, bits // 2) * inputs.prime(rng, bits - bits // 2)
            ops.append(op_factor(n, f"int_bits={bits}"))
    deg = f"(x {rng.choice('+-')} 1)^{DEGREES[-1]}"
    for a in inputs.rational_points(rng, EVAL_POINTS):
        ops.append(op_eval(deg, a, f"eval_degree={DEGREES[-1]}"))
    for _ in range(2):
        src = inputs.nest(NEST_DEPTHS[-1], f"x/{rng.randint(2, 9)}")
        ops.append(op_domain(src, -2.0, 2.0, 201, f"domain_depth={NEST_DEPTHS[-1]}"))
    return ops + known_faults()


def known_faults() -> list[Op]:
    """Inputs that fail with RecursionError today, the same in every
    round and for every seed.  Each is still checked if it succeeds."""
    parens = "(" * 2500 + "x" + ")" * 2500
    sins = "sin(" * 200 + "x" + ")" * 200
    big_sum = " + ".join(f"{i % 7 + 1}*x^{i % 5}" for i in range(3000))
    nest_src = inputs.nest(200)

    def nest_term():
        t = differentiation.X_R
        for i in range(200):
            t = differentiation.r_exp(t) if i % 2 else differentiation.r_sin(t)
        return t

    def parse_to_text(src, lang):
        return lambda: microcas.to_infix(microcas.parse(src, lang))

    def diff_nest():
        return microcas.to_infix(microcas.diff(nest_term()))

    def norm_sum():
        return microcas.to_infix(microcas.norm_rat_expr(microcas.parse(big_sum, "ratexpr")))

    def same_value(src):
        return lambda text: close(dual_value(compile_infix(text), 0.7)[0], dual_value(compile_infix(src), 0.7)[0])

    return [
        Op("norm_expr", parse_to_text(parens, "ratexpr"), lambda t: t == "x",
           "fault:parens=2500", fault="parser._Parser recursion"),
        Op("diff", parse_to_text(sins, "diffexpr"), same_value(sins),
           "fault:sin_nest=200", fault="parser._Parser recursion"),
        Op("norm_expr", norm_sum, lambda t: agree_expr(big_sum, [Fraction(1, 3), Fraction(-2)], t),
           "fault:sum_terms=3000", fault="rational.is_rat_expr recursion"),
        Op("diff", diff_nest, lambda t: agree_diff(nest_src, t),
           "fault:diff_nest=200", fault="terms.App.__eq__ recursion in simplify"),
    ]


def _cli(argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    p = subprocess.run(
        [sys.executable, "-m", "microcas", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return p.returncode, p.stdout


def _cli_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mc_cli.main(argv)
    return code, buf.getvalue()


def _cli_op(kind: str, argv: list[str], check: Callable[[str], bool], codes=(0,)) -> Op:
    def ok(out):
        code, text = out
        return code in codes and check(text)

    return Op(kind, lambda: _cli(argv), ok, argv[0], traced=lambda: _cli_in_process(argv))


def cli_round(seed: int, rnd: int) -> list[Op]:
    """Two calls of each subcommand with README-sized arguments."""
    rng = _rng("cli", seed, rnd)
    ops = []
    for _ in range(2):
        n = rng.randint(2, 10**6)
        ops.append(_cli_op("factor", ["factor", "--", str(n)], lambda t, n=n: factorization_ok(t, n)))
        roots: set = set()
        src = inputs.rat_expr(rng, 2, roots)
        pts = sorted(roots) + inputs.rational_points(rng, 4)
        ops.append(_cli_op("norm_expr", ["norm-expr", "--", src], lambda t, s=src, p=pts: agree_expr(s, p, t)))
        roots = set()
        src = inputs.rat_fun(rng, 2, roots)
        pts = sorted(roots) + inputs.rational_points(rng, 4)
        ops.append(_cli_op("norm_fun", ["norm-fun", "--", src], lambda t, s=src, p=pts: agree_fun(s, p, t)))
        src = _diff_input(rng, 2)
        ops.append(_cli_op("diff", ["diff", "--", src], lambda t, s=src: agree_diff(s, t)))
        roots = set()
        src = inputs.rat_expr(rng, 2, roots)
        a = rng.choice(sorted(roots) + inputs.rational_points(rng, 1))
        ops.append(_cli_op("eval", ["eval", f"--at={a}", "--", src],
                           lambda t, s=src, a=a: agree_eval(s, a, t), codes=(0, 3)))
        src = _diff_input(rng, 2)
        ops.append(_cli_op("eval", ["domain", "--n=21", "--", src],
                           lambda t, s=src: agree_domain(s, -2.0, 2.0, 21, t)))
    return ops


ROUNDS = {
    "audit": audit_round,
    "oneshot": oneshot_round,
    "large": large_round,
    "cli": cli_round,
}
