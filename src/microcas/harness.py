"""Seeded random term generators and executable contract suites.

Each check_* function is one operation's formal contract, written as a
table of laws: a group draws a case from the seeded stream, and each row
names a contract branch and the law a case is held to, returning ok or
(ok, witness suffix).  One runner, _run, draws every case, checks it
against its group's laws in order, tallies the verdicts by branch and
builds the Report; the off-language group comes from _off_language.
The defined branches are checked against oracles that do not share code
with the implementation under test: factoring is re-multiplied through
the quotation kernel, normalization and quoted fractions are compared by
cross-multiplying the unreduced flattened fractions, quoted rational
terms and functions against a recursive denotation, derivatives against
central differences.  A report only counts as ok when every branch was
actually exercised, so a generator drifting away from an undefinedness
path fails loudly instead of silently.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional

from .terms import (
    Arrow,
    App,
    FnQQ,
    FracV,
    INT,
    IntLit,
    IntV,
    Lambda,
    Quote,
    RAT,
    FRAC,
    REAL,
    RatLit,
    RatV,
    Record,
    SYNTAX,
    SemType,
    SynTerm,
    TermV,
    Var,
    eval_as,
    match_binary,
    match_unary,
    quote,
)
from . import factoring as fx
from . import rational as rq
from . import differentiation as dr
from .printing import to_sexpr


# Bound on the small literals the generators draw.
COEFF_BOUND = 12


class GenConfig(Record):
    """Knobs for generation and check sizes; same seed, same run."""

    __slots__ = ("seed", "max_depth", "cases")

    def __init__(self, seed: int, max_depth: int = 6, cases: int = 500) -> None:
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if cases < 1:
            raise ValueError("cases must be at least 1")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "max_depth", max_depth)
        object.__setattr__(self, "cases", cases)


# ---------------------------------------------------------------------------
# generators


def draw_numeral(rng: random.Random, cfg: GenConfig) -> SynTerm:
    roll = rng.random()
    if roll < 0.3:
        return IntLit(rng.randint(0, 50))
    if roll < 0.8:
        return IntLit(rng.randint(0, COEFF_BOUND ** 4))
    return IntLit(rng.randint(0, 10 ** 6))


def _rat_literal(rng: random.Random) -> SynTerm:
    num = rng.randint(0, COEFF_BOUND)
    den = rng.randint(1, 4) if rng.random() < 0.3 else 1
    lit = rq.q_lit(Fraction(num, den))
    return rq.q_neg(lit) if rng.random() < 0.35 else lit


def _linear_root_product(rng: random.Random) -> SynTerm:
    """One or two factors x - r with small integer roots, the kind of
    denominator whose undefined points the normalizer must preserve."""
    half = COEFF_BOUND // 2
    out: Optional[SynTerm] = None
    for _ in range(rng.randint(1, 2)):
        r = rng.randint(-half, half)
        if r >= 0:
            f = rq.q_sub(rq.X_Q, rq.q_lit(r))
        else:
            f = rq.q_add(rq.X_Q, rq.q_lit(-r))
        out = f if out is None else rq.q_mul(out, f)
    return out


def _denominator(rng: random.Random, cfg: GenConfig, depth: int) -> SynTerm:
    if rng.random() < 0.3:
        return _linear_root_product(rng)
    return _rat_expr(rng, cfg, min(depth, 3))


def _rat_expr(rng: random.Random, cfg: GenConfig, depth: int) -> SynTerm:
    if depth <= 1 or rng.random() < 0.25:
        return rq.X_Q if rng.random() < 0.45 else _rat_literal(rng)
    roll = rng.random()
    if roll < 0.22:
        return rq.q_add(_rat_expr(rng, cfg, depth - 1), _rat_expr(rng, cfg, depth - 1))
    if roll < 0.38:
        return rq.q_sub(_rat_expr(rng, cfg, depth - 1), _rat_expr(rng, cfg, depth - 1))
    if roll < 0.60:
        return rq.q_mul(_rat_expr(rng, cfg, depth - 1), _rat_expr(rng, cfg, depth - 1))
    if roll < 0.72:
        return rq.q_div(_rat_expr(rng, cfg, depth - 1), _denominator(rng, cfg, depth - 1))
    if roll < 0.80:
        return rq.q_neg(_rat_expr(rng, cfg, depth - 1))
    if roll < 0.90:
        return rq.q_inv(_denominator(rng, cfg, depth - 1))
    return rq.q_pow(_rat_expr(rng, cfg, min(depth - 1, 2)), rng.choice((2, 2, 3)))


def draw_rat_expr(rng: random.Random, cfg: GenConfig) -> SynTerm:
    return _rat_expr(rng, cfg, cfg.max_depth)


def draw_rat_fun(rng: random.Random, cfg: GenConfig) -> SynTerm:
    return Lambda("x", RAT, draw_rat_expr(rng, cfg))


def _diff_literal(rng: random.Random) -> SynTerm:
    num = rng.randint(0, COEFF_BOUND)
    den = rng.randint(1, 4) if rng.random() < 0.25 else 1
    lit = dr.r_lit(Fraction(num, den))
    return dr.r_neg(lit) if rng.random() < 0.3 else lit


def _diff_expr(rng: random.Random, cfg: GenConfig, depth: int) -> SynTerm:
    if depth <= 1 or rng.random() < 0.28:
        return dr.X_R if rng.random() < 0.5 else _diff_literal(rng)
    roll = rng.random()
    sub = lambda d=1: _diff_expr(rng, cfg, depth - d)  # noqa: E731
    if roll < 0.15:
        return dr.r_add(sub(), sub())
    if roll < 0.30:
        return dr.r_sub(sub(), sub())
    if roll < 0.48:
        return dr.r_mul(sub(), sub())
    if roll < 0.56:
        return dr.r_div(sub(), _diff_expr(rng, cfg, min(depth - 1, 3)))
    if roll < 0.62:
        return dr.r_neg(sub())
    if roll < 0.68:
        return dr.r_inv(_diff_expr(rng, cfg, min(depth - 1, 3)))
    if roll < 0.78:
        e = rng.choice((-3, -2, -1, 2, 2, 3, 3, 4))
        return dr.r_pow(_diff_expr(rng, cfg, min(depth - 1, 3)), dr.r_lit(e))
    if roll < 0.84:
        return dr.r_sin(sub())
    if roll < 0.90:
        return dr.r_cos(sub())
    if roll < 0.93:
        return dr.r_tan(sub())
    if roll < 0.97:
        return dr.r_exp(sub())
    return dr.r_ln(sub())


def draw_diff_expr(rng: random.Random, cfg: GenConfig) -> SynTerm:
    return _diff_expr(rng, cfg, cfg.max_depth)


def draw_int_expr(rng: random.Random, cfg: GenConfig, depth: int | None = None) -> SynTerm:
    """Closed integer terms for the quotation law: literals combined
    with addition, multiplication, negation, small nonnegative powers."""
    if depth is None:
        depth = cfg.max_depth
    if depth <= 0 or rng.random() < 0.4:
        return IntLit(rng.randint(0, COEFF_BOUND))
    roll = rng.random()
    if roll < 0.35:
        return fx.i_add(draw_int_expr(rng, cfg, depth - 1), draw_int_expr(rng, cfg, depth - 1))
    if roll < 0.70:
        return fx.i_mul(draw_int_expr(rng, cfg, depth - 1), draw_int_expr(rng, cfg, depth - 1))
    if roll < 0.85:
        return fx.i_neg(draw_int_expr(rng, cfg, depth - 1))
    return fx.i_pow(draw_int_expr(rng, cfg, depth - 1), IntLit(rng.randint(0, 3)))


def draw_closed_rat(rng: random.Random, cfg: GenConfig, depth: int | None = None) -> SynTerm:
    """Closed rational-literal terms; inverses of zero arise on purpose."""
    if depth is None:
        depth = cfg.max_depth
    if depth <= 0 or rng.random() < 0.4:
        return _rat_literal(rng)
    roll = rng.random()
    if roll < 0.30:
        return rq.q_add(draw_closed_rat(rng, cfg, depth - 1), draw_closed_rat(rng, cfg, depth - 1))
    if roll < 0.60:
        return rq.q_mul(draw_closed_rat(rng, cfg, depth - 1), draw_closed_rat(rng, cfg, depth - 1))
    if roll < 0.80:
        return rq.q_neg(draw_closed_rat(rng, cfg, depth - 1))
    return rq.q_inv(draw_closed_rat(rng, cfg, depth - 1))


def draw_non_member(rng: random.Random, target: str) -> SynTerm:
    """A term outside the named language, for the undefined branches."""
    if target == "numeral":
        pool: tuple[SynTerm, ...] = (
            IntLit(-rng.randint(1, 99)),
            RatLit(Fraction(1, 2)),
            rq.X_Q,
            fx.i_neg(IntLit(rng.randint(0, 9))),
            fx.i_add(IntLit(1), IntLit(2)),
            Quote(IntLit(3)),
            dr.X_R,
        )
    elif target == "ratexpr":
        pool = (
            IntLit(7),
            dr.r_sin(dr.X_R),
            dr.r_add(dr.X_R, dr.r_lit(1)),
            Var("x", REAL),
            Lambda("x", RAT, rq.X_Q),
            Quote(rq.X_Q),
            App(rq.X_Q, rq.X_Q),
        )
    elif target == "ratfun":
        pool = (
            rq.X_Q,
            rq.q_lit(rng.randint(0, 9)),
            Lambda("y", RAT, rq.q_lit(1)),
            Lambda("x", REAL, dr.X_R),
            Lambda("x", RAT, dr.X_R),
            IntLit(2),
            Quote(Lambda("x", RAT, rq.X_Q)),
        )
    elif target == "diffexpr":
        pool = (
            rq.X_Q,
            rq.q_add(rq.X_Q, rq.q_lit(1)),
            IntLit(3),
            RatLit(Fraction(1, 2)),
            Lambda("x", REAL, dr.X_R),
            Quote(dr.X_R),
            dr.r_pow(dr.X_R, dr.X_R),
        )
    else:
        raise ValueError(f"unknown target language {target!r}")
    return pool[rng.randrange(len(pool))]


# ---------------------------------------------------------------------------
# reports


class BranchTally(Record):
    """Pass/fail counts for one branch of a contract, and the witness of
    its first failure."""

    __slots__ = ("name", "cases", "failures", "first_counterexample")


class Report(Record):
    __slots__ = ("check", "seed", "branches")  # branches: a tuple of BranchTally

    @property
    def ok(self) -> bool:
        """No failures, and every branch actually exercised."""
        return all(b.failures == 0 and b.cases > 0 for b in self.branches)

    def render(self) -> str:
        head = "PASS" if self.ok else "FAIL"
        lines = [f"{self.check}: {head}  (seed={self.seed})"]
        for b in self.branches:
            lines.append(f"  {b.name:<28} {b.cases} checked, {b.failures} failed")
            if b.first_counterexample is not None:
                lines.append(f"    first counterexample: {b.first_counterexample}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "seed": self.seed,
            "ok": self.ok,
            "branches": [
                {
                    "name": b.name,
                    "cases": b.cases,
                    "failures": b.failures,
                    "first_counterexample": b.first_counterexample,
                }
                for b in self.branches
            ],
        }


# ---------------------------------------------------------------------------
# contract checks


def _run(check: str, cfg: GenConfig, *groups: tuple) -> Report:
    """Draw each group's cases from the seeded stream and hold each case
    to the group's laws, in order.  A group is (count, draw, laws):
    draw(rng) returns a case tuple whose first item is the witness term,
    and each law is a (branch, law) row whose law(*case) returns ok or
    (ok, witness suffix).  Branches are reported in the order the rows
    first name them, so a branch that no case reaches fails the report.
    A branch's witness, the s-expression of the term plus the suffix, is
    printed at its first failure only."""
    counts: dict[str, int] = {}
    for count, _, laws in groups:
        for branch, _ in laws:
            counts[branch] = counts.get(branch, 0) + count
    failures = dict.fromkeys(counts, 0)
    witnesses: dict[str, str] = {}
    rng = random.Random(cfg.seed)
    for count, draw, laws in groups:
        for _ in range(count):
            case = draw(rng)
            for branch, law in laws:
                verdict = law(*case)
                ok, suffix = verdict if type(verdict) is tuple else (verdict, "")
                if not ok:
                    failures[branch] += 1
                    if branch not in witnesses:
                        witnesses[branch] = to_sexpr(case[0]) + suffix
    tallies = tuple(BranchTally(b, counts[b], failures[b], witnesses.get(b)) for b in counts)
    return Report(check, cfg.seed, tallies)


def _off_language(cfg: GenConfig, target: str, algorithm: Callable) -> tuple:
    """The undefined group: the algorithm has no result on non-members
    of its target language."""
    return (
        max(1, 2 * cfg.cases // 5),
        lambda rng: (draw_non_member(rng, target),),
        (("undefined-off-language", lambda s: algorithm(s) is None),),
    )


def check_spec_factor(cfg: GenConfig) -> Report:
    """Factoring contract: on numerals the result is a prime
    decomposition denoting the same integer; off numerals there is no
    result."""

    def draw(rng: random.Random) -> tuple:
        t = draw_numeral(rng, cfg)
        return t, fx.factor(t)

    def agrees(t: SynTerm, d: Optional[SynTerm]) -> bool:
        got = None if d is None else eval_as(quote(d), INT)
        return isinstance(got, IntV) and got.value == t.value

    laws = (
        ("prime-decomposition-shape", lambda t, d: d is not None and fx.is_prime_decomp(d)),
        ("value-agreement", agrees),
    )
    return _run("factor", cfg, (cfg.cases, draw, laws), _off_language(cfg, "numeral", fx.factor))


def _values_cross_match(t: SynTerm, n: SynTerm) -> bool:
    """Quasi-equality of two rational expressions' field values through
    the unreduced route: same definedness, and numerator/denominator
    cross products equal when defined."""
    ft, fn = rq.flatten_raw(t), rq.flatten_raw(n)
    if ft is None or fn is None:
        return ft is fn
    return ft[0] * fn[1] == fn[0] * ft[1]


def check_spec_norm_rat_expr(cfg: GenConfig) -> Report:
    """Normalization contract: outputs are normal forms with the same
    field value (quasi-equality); no result off the language."""

    def draw(rng: random.Random) -> tuple:
        t = draw_rat_expr(rng, cfg)
        return t, rq.norm_rat_expr(t)

    laws = (
        ("normal-on-output", lambda t, n: n is not None and rq.is_norm(n)),
        ("value-quasi-equality", lambda t, n: n is not None and _values_cross_match(t, n)),
    )
    return _run("norm-rat-expr", cfg, (cfg.cases, draw, laws), _off_language(cfg, "ratexpr", rq.norm_rat_expr))


def check_spec_norm_rat_fun(cfg: GenConfig) -> Report:
    """Function-normalization contract: outputs are rational functions
    in quasinormal form computing the same partial function, checked at
    every rational singularity of the input plus random points."""

    def draw(rng: random.Random) -> tuple:
        f = draw_rat_fun(rng, cfg)
        g = rq.norm_rat_fun(f)
        # f is a rational function whenever g exists, and g is checked
        # here once, so the points compare bodies directly.  The random
        # points are drawn only when g is a function.
        if g is None or not rq.is_rat_fun(g):
            return f, g, None
        return f, g, [(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(50)]

    def agree_at_points(f: SynTerm, g: SynTerm, points: Optional[list]):
        # Each body is lowered once and run once over the column of all
        # points, as unreduced integer pairs.  A row agrees when both
        # values are undefined (denominator 0) or both are defined and
        # equal by cross-multiplying; a Fraction is built only to name
        # the smallest point where the bodies disagree.
        if points is None:
            return False
        points = [(a.numerator, a.denominator) for a in rq.singular_points(f.body)] + points
        xn, xd = [n for n, _ in points], [d for _, d in points]
        (fn, fd), (gn, gd) = rq.compile_rat(f.body).run(xn, xd), rq.compile_rat(g.body).run(xn, xd)
        failing = [
            x for x, a, b, c, e in zip(points, fn, fd, gn, gd) if (b == 0) != (e == 0) or a * e != c * b
        ]
        return not failing or (False, f" at x = {min(Fraction(n, d) for n, d in failing)}")

    laws = (
        ("output-is-function", lambda f, g, points: points is not None),
        ("body-quasinormal", lambda f, g, points: g is not None and rq.is_quasinorm(rq.body(g))),
        ("pointwise-quasi-equality", agree_at_points),
    )
    return _run("norm-rat-fun", cfg, (cfg.cases, draw, laws), _off_language(cfg, "ratfun", rq.norm_rat_fun))


_DIFF_GRID = [-2.5 + 5.0 * i / 24 for i in range(25)]


def check_spec_diff(cfg: GenConfig) -> Report:
    """Differentiation contract: the derivative stays in the language
    and matches the convergent central-difference estimate wherever
    that estimate exists; no result off the language."""

    def draw(rng: random.Random) -> tuple:
        t = draw_diff_expr(rng, cfg)
        return t, dr.check_spec_diff(t, _DIFF_GRID)

    laws = (
        ("derivative-in-language", lambda t, rep: dr.is_diff_expr(rep.derivative)),
        ("pointwise-agreement", lambda t, rep: rep.ok or (False, f" at x = {rep.violations[0].point}")),
    )
    return _run("diff", cfg, (cfg.cases, draw, laws), _off_language(cfg, "diffexpr", dr.diff))


def _int_denote(t: SynTerm) -> Optional[int]:
    """Independent meaning of a closed integer term."""
    if isinstance(t, IntLit):
        return t.value
    parts = match_binary(t, fx.ADD_I)
    if parts is not None:
        a, b = _int_denote(parts[0]), _int_denote(parts[1])
        return a + b if a is not None and b is not None else None
    parts = match_binary(t, fx.MUL_I)
    if parts is not None:
        a, b = _int_denote(parts[0]), _int_denote(parts[1])
        return a * b if a is not None and b is not None else None
    parts = match_binary(t, fx.POW_I)
    if parts is not None:
        a, b = _int_denote(parts[0]), _int_denote(parts[1])
        if a is None or b is None or b < 0:
            return None
        return a ** b
    arg = match_unary(t, fx.NEG_I)
    if arg is not None:
        a = _int_denote(arg)
        return -a if a is not None else None
    return None


def _rat_denote(t: SynTerm, x: Optional[Fraction] = None) -> Optional[Fraction]:
    """Independent meaning of a rational term, closed or, given a point
    x, with the variable read as x; inverses of zero have none."""
    if isinstance(t, RatLit):
        return t.value
    if x is not None and t == rq.X_Q:
        return x
    parts = match_binary(t, rq.ADD_Q)
    if parts is not None:
        a, b = _rat_denote(parts[0], x), _rat_denote(parts[1], x)
        return a + b if a is not None and b is not None else None
    parts = match_binary(t, rq.MUL_Q)
    if parts is not None:
        a, b = _rat_denote(parts[0], x), _rat_denote(parts[1], x)
        return a * b if a is not None and b is not None else None
    arg = match_unary(t, rq.NEG_Q)
    if arg is not None:
        a = _rat_denote(arg, x)
        return -a if a is not None else None
    arg = match_unary(t, rq.INV_Q)
    if arg is not None:
        a = _rat_denote(arg, x)
        if a is None or a == 0:
            return None
        return 1 / a
    return None


def check_disquotation(cfg: GenConfig) -> Report:
    """Quotation law: evaluating the quotation of a term at its own
    type yields the term's denotation; at any other type, nothing."""

    def integer(t: SynTerm) -> bool:
        want, got = _int_denote(t), eval_as(quote(t), INT)
        return want is not None and isinstance(got, IntV) and got.value == want

    def rational(t: SynTerm) -> bool:
        want, got = _rat_denote(t), eval_as(quote(t), RAT)
        return got is None if want is None else isinstance(got, RatV) and got.value == want

    def fraction(t: SynTerm) -> bool:
        ft, got = rq.flatten_raw(t), eval_as(quote(t), FRAC)
        if ft is None:
            return got is None
        return isinstance(got, FracV) and ft[0] * got.value.den == got.value.num * ft[1]

    qq = Arrow(RAT, RAT)
    points = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3))

    def function(f: SynTerm) -> bool:
        got = eval_as(quote(f), qq)
        return isinstance(got, FnQQ) and got.term == f and all(got(a) == _rat_denote(f.body, a) for a in points)

    def syntax(t: SynTerm) -> bool:
        got = eval_as(quote(quote(t)), SYNTAX)
        return isinstance(got, TermV) and got.term == t

    def mismatch(t: SynTerm, ty: SemType):
        return eval_as(quote(t), ty) is None or (False, f" read at {ty}")

    n = cfg.cases
    return _run(
        "disquotation", cfg,
        (n, lambda rng: (draw_int_expr(rng, cfg),), (("integer-denotation", integer),)),
        (n, lambda rng: (draw_closed_rat(rng, cfg),), (("rational-denotation", rational),)),
        (n, lambda rng: (draw_rat_expr(rng, cfg),), (("fraction-denotation", fraction),)),
        (n, lambda rng: (draw_rat_fun(rng, cfg),), (("function-denotation", function),)),
        (n, lambda rng: (draw_rat_expr(rng, cfg),), (("syntax-identity", syntax),)),
        (max(1, n // 5), lambda rng: _mismatched_pair(rng, cfg), (("type-mismatch-undefined", mismatch),)),
    )


def _mentions_var(t: SynTerm) -> bool:
    if isinstance(t, Var):
        return True
    if isinstance(t, App):
        return _mentions_var(t.fun) or _mentions_var(t.arg)
    return False


def _mismatched_pair(rng: random.Random, cfg: GenConfig):
    roll = rng.randrange(6)
    if roll == 0:
        t = draw_rat_expr(rng, cfg)
        while not _mentions_var(t):
            t = draw_rat_expr(rng, cfg)
        return t, RAT  # open term: no rational value
    if roll == 1:
        return draw_numeral(rng, cfg), RAT
    if roll == 2:
        return draw_closed_rat(rng, cfg), INT
    if roll == 3:
        return draw_diff_expr(rng, cfg), FRAC
    if roll == 4:
        return draw_numeral(rng, cfg), Arrow(RAT, RAT)
    return draw_diff_expr(rng, cfg), REAL


CHECKS: dict[str, Callable[[GenConfig], Report]] = {
    "factor": check_spec_factor,
    "norm-expr": check_spec_norm_rat_expr,
    "norm-fun": check_spec_norm_rat_fun,
    "diff": check_spec_diff,
    "disquote": check_disquotation,
}


def check_all(cfg: GenConfig) -> list[Report]:
    """Every contract suite under one config."""
    return [fn(cfg) for fn in CHECKS.values()]
