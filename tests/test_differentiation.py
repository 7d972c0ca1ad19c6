"""Symbolic differentiation over the real-valued expression language,
its strict definedness evaluator, the finite-difference oracle, and
domain sampling.

The polynomial-exactness oracle below converts polynomial terms to
exact Poly coefficients independently of the engine, so the derivative
can be compared coefficient for coefficient.
"""

from __future__ import annotations

import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microcas.differentiation import (
    ADD_R,
    COS_R,
    EXP_R,
    INV_R,
    LN_R,
    MUL_R,
    NEG_R,
    POW_R,
    SIN_R,
    SUB_R,
    TAN_R,
    X_R,
    RealProgram,
    check_spec_diff,
    compile_real,
    deriv_numeric,
    diff,
    domain_sample,
    eval_real,
    is_diff_expr,
    r_add,
    r_cos,
    r_div,
    r_exp,
    r_inv,
    r_lit,
    r_ln,
    r_mul,
    r_neg,
    r_pow,
    r_sin,
    r_sub,
    r_tan,
    simplify,
)
from microcas.harness import GenConfig, draw_diff_expr, draw_non_member
from microcas.parser import parse
from microcas.polynomials import Poly
from microcas.printing import to_infix
from microcas.terms import (
    RAT, App, Arrow, Const, IntLit, REAL, RealLit, Var, infer_type, literal_value, match_binary, match_unary,
    same_term,
)


def dx(src: str):
    return parse(src, "diffexpr")


# -- polynomial oracle ---------------------------------------------------

_X = Poly([0, 1])


def _as_poly(t) -> Optional[Poly]:
    """Exact polynomial reading of a term, None when t is not built
    purely from literals, x, +, -, *, negation, and nonnegative integer
    powers.  Independent of the engine's own evaluators."""
    if t == X_R:
        return _X
    c = literal_value(t)
    if c is not None:
        return Poly([c])
    for sym, comb in (
        ("+", lambda a, b: a + b),
        ("-", lambda a, b: a - b),
        ("*", lambda a, b: a * b),
    ):
        from microcas.terms import App

        if (
            isinstance(t, App)
            and isinstance(t.fun, App)
            and isinstance(t.fun.fun, Const)
            and t.fun.fun.symbol == sym
        ):
            a, b = _as_poly(t.fun.arg), _as_poly(t.arg)
            if a is None or b is None:
                return None
            return comb(a, b)
    from microcas.terms import App

    if isinstance(t, App) and isinstance(t.fun, Const) and t.fun.symbol == "-":
        a = _as_poly(t.arg)
        return -a if a is not None else None
    if (
        isinstance(t, App)
        and isinstance(t.fun, App)
        and isinstance(t.fun.fun, Const)
        and t.fun.fun.symbol == "^"
    ):
        base = _as_poly(t.fun.arg)
        e = literal_value(t.arg)
        if base is None or e is None or e.denominator != 1 or e < 0:
            return None
        return base ** int(e)
    return None


def _emit(c: Fraction):
    return r_lit(c) if c >= 0 else r_neg(r_lit(-c))


def _poly_term(coeffs: list[Fraction]):
    """Sum of c_i * x^i with the package's nonnegative-literal style."""
    t = None
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            mono = _emit(c)
        elif i == 1:
            mono = r_mul(_emit(c), X_R)
        else:
            mono = r_mul(_emit(c), r_pow(X_R, r_lit(i)))
        t = mono if t is None else r_add(t, mono)
    return t if t is not None else r_lit(0)


def test_polynomial_oracle_reads_itself():
    cs = [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(2)]
    assert _as_poly(_poly_term(cs)) == Poly(cs)


def test_derivative_of_polynomials_is_exact():
    rng = random.Random(627)
    for _ in range(120):
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))
        ]
        t = _poly_term(coeffs)
        d = diff(t)
        assert d is not None
        got = _as_poly(d)
        assert got is not None, to_infix(d)
        assert got == Poly(coeffs).derivative()


# -- flagship derivative forms -------------------------------------------


def test_chain_rule_flagship_case():
    d = diff(dx("sin(x^2 + x)"))
    assert to_infix(d) == "(2 * x + 1) * cos(x^2 + x)"
    assert d == simplify(dx("(2 * x + 1) * cos(x^2 + x)"))


def test_logarithm_flagship_case():
    d = diff(dx("ln(x^2 - 1)"))
    assert to_infix(d) == "2 * x / (x^2 - 1)"
    assert d == simplify(dx("(2 * x) / (x^2 - 1)"))


def test_flagship_cases_pointwise():
    d1 = diff(dx("sin(x^2 + x)"))
    for a in (-2.0, -0.3, 0.5, 1.7):
        want = (2 * a + 1) * math.cos(a * a + a)
        got = eval_real(d1, a)
        assert got.is_defined and abs(got.value - want) < 1e-12
    d2 = diff(dx("ln(x^2 - 1)"))
    for a in (-3.0, 1.5, 2.0):
        want = 2 * a / (a * a - 1)
        got = eval_real(d2, a)
        assert got.is_defined and abs(got.value - want) < 1e-12
    # Inside (-1, 1) the log itself has no value but its emitted
    # derivative expression does; that discrepancy is the domain story.
    assert not eval_real(dx("ln(x^2 - 1)"), 0.5).is_defined
    assert eval_real(d2, 0.5).is_defined


# -- rule-by-rule unit cases ---------------------------------------------


def test_differentiation_rules_small_cases():
    assert diff(r_lit(5)) == r_lit(0)
    assert diff(X_R) == r_lit(1)
    assert diff(dx("x + x")) == r_lit(2)
    assert to_infix(diff(dx("x * x"))) == "x + x"
    assert diff(dx("sin(x)")) == dx("cos(x)")
    assert diff(dx("cos(x)")) == dx("-sin(x)")
    assert diff(dx("exp(x)")) == dx("exp(x)")
    assert diff(dx("ln(x)")) == dx("inv(x)")
    assert diff(dx("tan(x)")) == dx("cos(x)^-2")
    assert diff(dx("inv(x)")) == dx("-x^-2")
    assert diff(dx("x^3")) == dx("3 * x^2")
    assert diff(dx("x^1")) == r_lit(1)
    assert diff(dx("x^0")) == r_lit(0)
    assert diff(dx("x^-2")) == dx("-2 * x^-3")
    assert diff(dx("x^(3/2)")) == dx("3/2 * x^(1/2)")
    assert diff(dx("5 - x")) == dx("-1")


def test_quotient_differentiates_through_product_and_inverse():
    d = diff(dx("x / (x + 1)"))
    assert d is not None
    for a in (0.0, 1.0, 3.5, -0.5):
        want = 1.0 / (a + 1) ** 2
        got = eval_real(d, a)
        assert got.is_defined and abs(got.value - want) < 1e-9


def test_diff_is_undefined_off_language():
    assert diff(IntLit(3)) is None
    assert diff(parse("x + 1", "ratexpr")) is None
    assert diff(Var("y", REAL)) is None
    # An exponent that is not a rational literal leaves the language,
    # even a constant one.
    assert diff(r_pow(X_R, X_R)) is None
    assert diff(r_pow(X_R, r_add(r_lit(2), r_lit(3)))) is None


def test_is_diff_expr_gate():
    assert is_diff_expr(dx("sin(x) * exp(x^2)"))
    assert is_diff_expr(r_pow(X_R, r_lit(Fraction(-7, 2))))
    assert not is_diff_expr(r_pow(X_R, X_R))
    assert not is_diff_expr(IntLit(1))
    assert not is_diff_expr(parse("x / x", "ratexpr"))


def test_diff_closed_under_language_membership():
    cfg = GenConfig(seed=515)
    rng = random.Random(515)
    for _ in range(200):
        t = draw_diff_expr(rng, cfg)
        d = diff(t)
        assert d is not None
        assert is_diff_expr(d), to_infix(t)


# -- simplify ------------------------------------------------------------


def test_simplify_fixpoint_and_folds():
    assert simplify(dx("x + 0")) == X_R
    assert simplify(dx("0 + x")) == X_R
    assert simplify(dx("x * 1")) == X_R
    assert simplify(dx("1 * x")) == X_R
    assert simplify(dx("x * 0")) == r_lit(0)
    assert simplify(dx("x - 0")) == X_R
    assert simplify(dx("x^1")) == X_R
    assert simplify(dx("2 + 3")) == r_lit(5)
    assert simplify(dx("2 * 3")) == r_lit(6)
    assert simplify(dx("2 - 3")) == r_neg(r_lit(1))
    assert simplify(dx("--x")) == X_R
    assert simplify(dx("-1 * x")) == r_neg(X_R)
    t = dx("(x + 0) * 1 + 0 * sin(x)")
    assert simplify(t) == X_R
    assert simplify(simplify(t)) == simplify(t)


def test_simplify_rejects_off_language_terms():
    with pytest.raises(ValueError):
        simplify(IntLit(2))
    with pytest.raises(ValueError):
        simplify(r_pow(X_R, r_add(r_lit(2), r_lit(3))))


def test_simplify_preserves_pointwise_semantics():
    cfg = GenConfig(seed=828)
    rng = random.Random(828)
    grid = [-2.1 + k * 0.35 for k in range(13)]
    for _ in range(150):
        t = draw_diff_expr(rng, cfg)
        s = simplify(t)
        for a in grid:
            before = eval_real(t, a)
            after = eval_real(s, a)
            if before.is_defined:
                assert after.is_defined, (to_infix(t), to_infix(s), a)
                tol = 1e-12 * max(1.0, abs(before.value))
                assert abs(after.value - before.value) <= tol


# -- eval_real definedness rules ------------------------------------------


def test_eval_real_division_and_inverse():
    assert not eval_real(dx("inv(x)"), 0.0).is_defined
    assert eval_real(dx("inv(x)"), 4.0).value == 0.25
    assert not eval_real(dx("1 / (x - x)"), 1.0).is_defined


def test_eval_real_logarithm_domain():
    assert not eval_real(dx("ln(x)"), 0.0).is_defined
    assert not eval_real(dx("ln(x)"), -1.0).is_defined
    assert abs(eval_real(dx("ln(x)"), math.e).value - 1.0) < 1e-12


def test_eval_real_power_cases():
    # Positive base: always defined.
    assert abs(eval_real(dx("x^(1/2)"), 4.0).value - 2.0) < 1e-12
    # Zero base: defined only for positive exponents.
    assert eval_real(dx("x^2"), 0.0).value == 0.0
    assert eval_real(dx("x^(1/2)"), 0.0).value == 0.0
    assert not eval_real(dx("x^-1"), 0.0).is_defined
    assert not eval_real(dx("x^0"), 0.0).is_defined
    # Negative base: defined only when the reduced denominator is odd.
    assert eval_real(dx("x^(1/3)"), -8.0).value == pytest.approx(-2.0)
    assert eval_real(dx("x^(2/3)"), -8.0).value == pytest.approx(4.0)
    assert not eval_real(dx("x^(1/2)"), -4.0).is_defined
    assert eval_real(dx("x^3"), -2.0).value == -8.0


def test_eval_real_tan_pole_and_overflow():
    assert not eval_real(dx("tan(x)"), math.pi / 2).is_defined
    assert abs(eval_real(dx("tan(x)"), math.pi / 4).value - 1.0) < 1e-12
    # exp overflow collapses to undefined rather than raising.
    assert not eval_real(dx("exp(exp(x))"), 100.0).is_defined


def test_eval_real_strictness_of_undefined_subterms():
    # 0 * ln(x) at x = -1: the dead branch still poisons the product.
    assert not eval_real(dx("0 * ln(x)"), -1.0).is_defined


def test_eval_real_rejects_off_language_terms():
    with pytest.raises(ValueError):
        eval_real(IntLit(1), 0.0)


def test_literal_too_large_for_a_float_is_undefined():
    huge = r_lit(10**400)
    assert not eval_real(huge, 1.0).is_defined
    assert not eval_real(r_add(X_R, huge), 1.0).is_defined
    assert domain_sample(r_sin(huge), -1.0, 1.0, 3).defined_points() == []
    # As an exponent the literal is read exactly, not as a float: the
    # power is defined at 0 alone.
    assert eval_real(r_pow(X_R, huge), 0.0).value == 0.0
    for a in (0.5, 1.0, 2.0, -1.0):
        assert not eval_real(r_pow(X_R, huge), a).is_defined


def test_deep_terms_evaluate_without_recursion():
    t, want = X_R, 0.5
    for _ in range(3000):
        t, want = r_sin(t), math.sin(want)
    assert eval_real(t, 0.5).value == want
    assert domain_sample(t, -1.0, 1.0, 3).undefined_points() == []


def test_deep_nest_is_member_without_recursion():
    t = X_R
    for _ in range(3000):
        t = r_sin(t)
    assert is_diff_expr(t)
    assert not is_diff_expr(r_pow(X_R, t))


def test_diff_and_simplify_of_a_deep_sum_without_recursion():
    total = dx(" + ".join(["x"] * 3000))
    assert diff(total) == r_lit(3000)
    assert same_term(simplify(total), total)


def test_diff_and_simplify_of_a_deep_nest_without_recursion():
    t = X_R
    for _ in range(3000):
        t = r_sin(t)
    assert same_term(simplify(t), t)
    # d sin^n(x) = cos(x) * cos(sin(x)) * ... * cos(sin^(n-1)(x)), a
    # left-nested product whose cosines' arguments each wrap the last
    d, inner = diff(t), None
    for _ in range(2999):
        d, factor = match_binary(d, MUL_R)
        arg = match_unary(factor, COS_R)
        assert inner is None or match_unary(inner, SIN_R) is arg
        inner = arg
    assert match_unary(d, COS_R) == X_R
    assert match_unary(inner, SIN_R) is match_unary(d, COS_R)


def test_diff_of_an_alternating_sin_exp_nest_without_recursion():
    t, v, dv = X_R, 0.3, 1.0  # the value and derivative at 0.3, by the chain rule
    for i in range(200):
        if i % 2:
            t, v = r_exp(t), math.exp(v)
            dv *= v
        else:
            t, v, dv = r_sin(t), math.sin(v), dv * math.cos(v)
    assert same_term(simplify(t), t)
    assert eval_real(diff(t), 0.3).value == pytest.approx(dv, rel=1e-9)


def test_non_finite_points_are_undefined():
    for a in (math.inf, -math.inf, math.nan):
        assert not eval_real(X_R, a).is_defined
        assert not eval_real(r_sin(X_R), a).is_defined
        assert not eval_real(r_lit(3), a).is_defined
        assert not deriv_numeric(X_R, a).is_defined
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="need finite lo and hi"):
            domain_sample(X_R, lo, hi, 3)


@pytest.mark.parametrize("a", [10**400, -(10**400), Fraction(10**400, 3)], ids=["1e400", "-1e400", "1e400/3"])
def test_eval_real_at_a_point_too_large_for_a_float_is_undefined(a):
    assert not eval_real(X_R, a).is_defined
    assert not eval_real(r_lit(3), a).is_defined


def test_deriv_numeric_at_a_point_too_large_for_a_float_is_undefined():
    assert not deriv_numeric(X_R, 10**400).is_defined
    assert not deriv_numeric(r_sin(X_R), Fraction(-(10**400), 7)).is_defined


def test_check_spec_diff_skips_a_point_too_large_for_a_float():
    report = check_spec_diff(r_mul(X_R, X_R), [10**400, 1, Fraction(10**400, 3)])
    assert (report.checked, report.skipped, report.ok) == (1, 2, True)


def test_domain_sample_needs_bounds_that_are_finite_as_floats():
    for lo, hi in ((-(10**400), 0), (0, 10**400), (Fraction(-(10**400), 3), 1)):
        with pytest.raises(ValueError, match="need finite lo and hi"):
            domain_sample(X_R, lo, hi, 3)


def test_a_literal_only_in_an_exponent_takes_no_register():
    # The exponent's register is handed back, so the later 2 is the
    # first literal; one already in a register keeps it.
    assert compile_real(r_add(r_pow(X_R, r_lit(2)), r_lit(2))).init == (0.0, 2.0)
    assert compile_real(r_pow(X_R, r_lit(3))).init == (0.0,)
    both = compile_real(r_pow(r_mul(r_lit(3), X_R), r_lit(3)))
    assert both.init == (0.0, 3.0) and len(both.steps) == 2
    assert compile_real(r_pow(r_pow(X_R, r_lit(2)), r_lit(2)))(3.0) == 81.0


def test_lowering_shares_repeated_subterms():
    u = r_sin(r_add(X_R, r_lit(1)))
    prog = compile_real(r_mul(u, r_add(u, r_lit(1))))
    # x and the literal 1 are registers; sin(x + 1) is computed once.
    assert len(prog.init) == 2
    assert len(prog.steps) == 4
    assert prog.uses_x and not compile_real(r_lit(3)).uses_x


def _sin_ladder(levels: int):
    """f <- sin(f) * f from f = x: a DAG of two nodes a level, whose
    tree has 2^levels paths."""
    f = X_R
    for _ in range(levels):
        f = r_mul(r_sin(f), f)
    return f


def _sin_ladder_tree(levels: int):
    """The same term as _sin_ladder(levels) with no node shared."""
    if levels == 0:
        return X_R
    return r_mul(r_sin(_sin_ladder_tree(levels - 1)), _sin_ladder_tree(levels - 1))


def test_shared_sin_ladder_is_walked_once_per_node():
    # 40 levels have 2^40 paths.
    budget = 5.0
    t0 = time.monotonic()
    f = _sin_ladder(40)
    member = is_diff_expr(f)
    d = diff(f)
    progs = [compile_real(t) for t in (f, simplify(f), d, simplify(d))]
    typed = infer_type(f)
    elapsed = time.monotonic() - t0
    # Forward mode along the ladder at x = 2, where f tends to pi/2 and
    # each level's factor sin(f) + f cos(f) to 1.
    v, dv = 2.0, 1.0
    for _ in range(40):
        v, dv = math.sin(v) * v, (math.cos(v) * v + math.sin(v)) * dv
    f_at, sf_at, d_at, sd_at = (p(2.0) for p in progs)
    assert member
    assert typed is REAL
    assert f_at == sf_at == pytest.approx(v, rel=1e-12)
    assert d_at == sd_at == pytest.approx(dv, rel=1e-9)
    assert elapsed < budget, f"{elapsed:.1f}s exceeds the {budget:.0f}s budget"


def test_compile_real_lowers_a_dag_as_its_tree():
    # Lowering the tree visits every path, as a walk without memory
    # does; the DAG must give the same program.
    dag, tree = _sin_ladder(10), _sin_ladder_tree(10)
    assert compile_real(dag) == compile_real(tree)
    for a in (-1.5, 0.25, 2.0):
        assert compile_real(dag)(a) == compile_real(tree)(a)


def test_compile_real_reads_copies_of_registered_constants():
    r1, r3 = Arrow(REAL, REAL), Arrow(REAL, Arrow(REAL, REAL))
    sin, power = Const("sin", r1), Const("^", r3)
    t = App(sin, App(App(power, X_R), r_lit(2)))
    assert t == dx("sin(x^2)") and sin is SIN_R and power is POW_R
    assert compile_real(t) == compile_real(dx("sin(x^2)"))
    assert compile_real(t)(2.0) == math.sin(4.0)


def test_lowering_and_is_diff_expr_agree_on_membership():
    terms = [
        r_pow(X_R, X_R),
        App(App(INV_R, X_R), X_R),
        App(App(NEG_R, X_R), X_R),
        App(SUB_R, X_R),
        App(COS_R, App(SUB_R, X_R)),
        r_add(X_R, Const("pi", REAL)),
        Const("+", REAL),
        Var("x", RAT),
        r_mul(X_R, Var("x", RAT)),
        r_pow(X_R, r_lit(Fraction(-7, 2))),
        r_lit(10**400),
    ]
    rng = random.Random(0)
    terms += [draw_non_member(rng, "diffexpr") for _ in range(60)]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(100):
            t = draw_diff_expr(rng, GenConfig(seed=seed))
            terms += [t, diff(t)]
    for t in terms:
        assert (compile_real(t) is not None) == is_diff_expr(t), to_infix(t)


def test_diff_and_simplify_decide_membership_in_their_one_walk():
    """diff and simplify read membership off their own fold, as
    is_diff_expr does: a leaf other than x or a literal, or a power
    whose exponent is not a bare literal (even one that simplifies to a
    literal, or is shared with a member), puts the term outside."""
    two = r_lit(2)
    squared = r_pow(two, r_lit(1))
    outside = [
        r_pow(X_R, r_add(r_lit(1), r_lit(1))),
        r_pow(X_R, squared),
        r_mul(squared, r_pow(two, squared)),
        r_pow(X_R, r_neg(two)),
        r_add(r_pow(X_R, two), IntLit(1)),
        r_add(X_R, Const("pi", REAL)),
        r_add(r_pow(two, r_lit(20000)), IntLit(1)),  # the member part is past the digit limit
    ]
    rng = random.Random(0)
    outside += [draw_non_member(rng, "diffexpr") for _ in range(200)]
    for t in outside:
        assert not is_diff_expr(t), t
        assert diff(t) is None, t
        with pytest.raises(ValueError, match="not in the differentiable language"):
            simplify(t)
    rng = random.Random(1)
    for _ in range(100):
        t = draw_diff_expr(rng, GenConfig(seed=1))
        assert diff(t) is not None and is_diff_expr(simplify(t)), to_infix(t)


@pytest.mark.parametrize("op", [diff, simplify], ids=["diff", "simplify"])
@pytest.mark.parametrize("src", ["3^100000000", "(1/3)^-100000000", "(2^3)^100000000"])
def test_a_constant_power_past_the_digit_limit_raises_before_it_is_computed(op, src):
    # 3^100000000 has about 4.8e7 digits; computing it took more than a
    # minute, and only then did the digit limit refuse the literal.
    t = dx(src)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="integer string conversion"):
        op(t)
    assert time.perf_counter() - start < 3.0


def test_a_constant_power_is_refused_only_past_the_digit_limit():
    for src in ("1^100000000", "(-1)^100000001", "0^100000000", "x^100000000"):
        assert is_diff_expr(simplify(dx(src))), src
    assert simplify(dx("2^14000")) == r_lit(2**14000)  # 4215 digits
    with pytest.raises(ValueError, match="integer string conversion"):
        simplify(dx("2^14300"))  # 4305 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit
    try:
        assert simplify(dx("2^20000")) == r_lit(2**20000)
    finally:
        sys.set_int_max_str_digits(limit)


# -- the numeric oracle ----------------------------------------------------


def test_deriv_numeric_matches_closed_forms():
    cases = [
        (dx("x^2"), 1.5, 3.0),
        (dx("sin(x)"), 0.7, math.cos(0.7)),
        (dx("exp(x)"), 1.0, math.e),
        (dx("ln(x)"), 2.0, 0.5),
        (dx("inv(x)"), 2.0, -0.25),
    ]
    for t, a, want in cases:
        got = deriv_numeric(t, a)
        assert got.is_defined
        assert abs(got.value - want) <= 1e-6 * max(1.0, abs(want))


def test_deriv_numeric_undefined_near_domain_edge():
    # ln needs room on both sides of the sample point.
    assert not deriv_numeric(dx("ln(x)"), 0.0005).is_defined
    assert not deriv_numeric(dx("inv(x)"), 0.0).is_defined
    assert deriv_numeric(dx("ln(x)"), 1.0).is_defined


def test_deriv_numeric_abstains_when_floats_absorb_x():
    # exp(576) is about 2.5e250, so adding x to it changes no bits;
    # the sampled window is flat and a quotient of 0 would be a
    # statement about the float function, not the real one.
    assert not deriv_numeric(dx("cos(x - exp(576))"), -2.5).is_defined
    # A genuinely constant term still gets its zero derivative.
    d = deriv_numeric(dx("7"), -2.5)
    assert d.is_defined and d.value == 0.0
    # Terms that mention x but evaluate flat are also abstained on,
    # even when the true derivative happens to be 0.
    assert not deriv_numeric(dx("x - x"), 0.25).is_defined


def test_check_spec_diff_reports():
    rep = check_spec_diff(dx("sin(x^2 + x)"), [-1.0, -0.25, 0.5, 2.0])
    assert rep.ok
    assert rep.checked == 4
    assert rep.skipped == 0
    assert rep.violations == ()
    rep2 = check_spec_diff(dx("ln(x)"), [-1.0, 1.0, 2.0])
    assert rep2.ok
    assert rep2.checked == 2
    assert rep2.skipped == 1
    assert rep2.derivative == dx("inv(x)")
    with pytest.raises(ValueError):
        check_spec_diff(IntLit(1), [0.0])


# -- the batched run against an independent evaluator -----------------------


def _reference_value(t, a: float) -> Optional[float]:
    """The value of t at x = a by the documented rules, walking the term
    tree recursively with math alone: None at a non-finite point and
    where a subterm is undefined or non-finite.  Shares no code with
    compile_real."""
    return _reference(t, a, {}) if math.isfinite(a) else None


def _reference(t, a: float, memo: dict) -> Optional[float]:
    """memo, keyed by node id, keeps shared subterms of derivatives from
    being re-walked."""
    key = id(t)
    if key not in memo:
        memo[key] = _reference_node(t, a, memo)
    return memo[key]


def _reference_node(t, a: float, memo: dict) -> Optional[float]:
    if t == X_R:
        v = a
    elif isinstance(t, RealLit):
        try:
            v = float(t.value)
        except OverflowError:
            return None
    else:
        for op in (ADD_R, SUB_R, MUL_R):
            parts = match_binary(t, op)
            if parts is not None:
                u, w = (_reference(p, a, memo) for p in parts)
                if u is None or w is None:
                    return None
                v = u + w if op is ADD_R else u - w if op is SUB_R else u * w
                return v if math.isfinite(v) else None
        parts = match_binary(t, POW_R)
        if parts is not None:
            return _reference_pow(_reference(parts[0], a, memo), parts[1].value)
        for op in (NEG_R, INV_R, EXP_R, LN_R, SIN_R, COS_R, TAN_R):
            arg = match_unary(t, op)
            if arg is not None:
                break
        u = _reference(arg, a, memo)
        if u is None:
            return None
        if op is NEG_R:
            v = -u
        elif op is INV_R:
            if u == 0.0:
                return None
            v = 1.0 / u
        elif op is EXP_R:
            try:
                v = math.exp(u)
            except OverflowError:
                return None
        elif op is LN_R:
            if u <= 0.0:
                return None
            v = math.log(u)
        elif op is SIN_R:
            v = math.sin(u)
        elif op is COS_R:
            v = math.cos(u)
        else:
            c = math.cos(u)
            if abs(c) <= 1e-12:  # within 1e-12 of a pole
                return None
            v = math.sin(u) / c
    return v if math.isfinite(v) else None


def _reference_pow(u: Optional[float], c: Fraction) -> Optional[float]:
    """u^(p/q): defined for u > 0, for u = 0 when c > 0, and for u < 0
    when q is odd, with the sign of (-1)^p."""
    if u is None:
        return None
    if u == 0.0:
        return 0.0 if c > 0 else None
    if u < 0.0 and c.denominator % 2 == 0:
        return None
    try:
        mag = math.pow(abs(u), float(c))
    except OverflowError:
        return None
    v = -mag if u < 0.0 and c.numerator % 2 == 1 else mag
    return v if math.isfinite(v) else None


_HOSTILE = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.pi / 2, -math.pi / 2, 709.78, 710.0,
            -745.2, 1e8, math.nan, math.inf, -math.inf, 1.0, -1.0]


def _bits(v: Optional[float]) -> Optional[str]:
    return None if v is None else v.hex()


@given(
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.lists(st.sampled_from(_HOSTILE) | st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=30),
)
@settings(max_examples=300, deadline=None)
def test_batched_run_matches_an_independent_evaluator(seed, derivative, points):
    t = draw_diff_expr(random.Random(seed), GenConfig(seed=seed))
    if derivative:
        t = diff(t)
    prog = compile_real(t)
    got = prog.run(points)
    assert [_bits(v) for v in got] == [_bits(_reference_value(t, a)) for a in points], to_infix(t)
    # a point alone has the value it has inside a longer list
    assert [_bits(prog(a)) for a in points] == [_bits(v) for v in got]
    assert [_bits(eval_real(t, a).value) for a in points[:3]] == [_bits(v) for v in got[:3]]


# An intermediate that overflows to +-inf before each step that would
# otherwise hide it: 1/inf is 0, exp(-inf) is 0, sin(inf) raises.
_PAST_AN_OVERFLOW = [
    "inv(x * x)", "inv(-(x * x))", "exp(-(x * x))", "exp(x * x)", "sin(x * x)", "cos(-(x * x))",
    "tan(x * x)", "ln(x * x)", "(x * x)^(1/3)", "(-(x * x))^(1/3)", "(x * x)^0", "x * x - x * x",
    "0 * (x * x)", "exp(x) * 0", "inv(exp(x) - exp(x))", "3", "x^(1/2)",
]


@pytest.mark.parametrize("src", _PAST_AN_OVERFLOW)
def test_batched_run_matches_the_reference_past_an_overflow(src):
    t = dx(src)
    got = compile_real(t).run(_HOSTILE)
    assert [_bits(v) for v in got] == [_bits(_reference_value(t, a)) for a in _HOSTILE]


def test_runs_in_blocks_give_the_values_of_single_points():
    t = dx("tan(x)^(1/3) + ln(x) * exp(x^2) - inv(sin(x))")
    prog = compile_real(t)
    points = [-3.0 + 6.0 * i / 2600 for i in range(2601)] + _HOSTILE
    got = prog.run(points)
    assert len(got) == len(points)
    assert [_bits(v) for v in got] == [_bits(prog(a)) for a in points]
    assert [_bits(v) for v in got] == [_bits(_reference_value(t, a)) for a in points]
    assert prog.run([]) == []


def test_check_spec_diff_runs_each_program_once(monkeypatch):
    """t's program once over all the abscissae, then the derivative's
    once over the points with an estimate, or not at all."""
    runs = []
    real_run = RealProgram.run

    def counted(self, points):
        points = list(points)
        runs.append(len(points))
        return real_run(self, points)

    monkeypatch.setattr(RealProgram, "run", counted)
    grid = [-2.5 + 5.0 * i / 24 for i in range(25)]
    rng = random.Random(17)
    cfg = GenConfig(seed=17)
    for _ in range(60):
        runs.clear()
        rep = check_spec_diff(draw_diff_expr(rng, cfg), grid)
        assert runs[0] == 7 * len(grid)
        assert runs[1:] == ([rep.checked] if rep.checked else [])
    runs.clear()
    rep = check_spec_diff(dx("ln(x)"), [-2.0, -1.0, 0.0])
    assert (rep.checked, rep.skipped, runs) == (0, 3, [21])


def test_domain_sample_memory_is_bounded_in_blocks():
    """20,000 points through a 52-step program: the columns live one
    block at a time, so the peak stays near what the report itself
    takes (about 2.6 MB); unblocked columns would take about 33 MB."""
    s = "x/7"
    for i in range(50):
        s = f"exp({s})" if i % 2 else f"sin({s})"
    t = dx(s)
    assert len(compile_real(t).steps) == 52
    tracemalloc.start()
    try:
        rep = domain_sample(t, -2.0, 2.0, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.entries) == 20_000
    assert peak < 8_000_000, peak


# -- domain sampling -------------------------------------------------------


def test_domain_sample_grid_and_validation():
    rep = domain_sample(dx("x"), -1.0, 1.0, 5)
    assert [e.point for e in rep.entries] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(e.defined for e in rep.entries)
    with pytest.raises(ValueError):
        domain_sample(dx("x"), 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        domain_sample(dx("x"), 1.0, 0.0, 5)


def test_domain_discrepancy_between_term_and_derivative():
    t = dx("ln(x^2 - 1)")
    d = diff(t)
    grid_t = domain_sample(t, -2.0, 2.0, 41)
    grid_d = domain_sample(d, -2.0, 2.0, 41)
    def_t = {e.point for e in grid_t.entries if e.defined}
    def_d = {e.point for e in grid_d.entries if e.defined}
    assert def_t < def_d  # strict containment
    inside = [e for e in grid_t.entries if abs(e.point) < 1]
    assert inside and all(not e.defined for e in inside)
    # The derivative expression only misses the two singular points.
    assert {e.point for e in grid_d.entries if not e.defined} == {-1.0, 1.0}


def test_domain_report_partitions():
    rep = domain_sample(dx("ln(x)"), -1.0, 1.0, 5)
    assert set(rep.defined_points()) | set(rep.undefined_points()) == {
        e.point for e in rep.entries
    }
    assert rep.defined_points() == [0.5, 1.0]


def test_builders_round_trip_through_printer():
    t = r_div(r_sub(r_exp(X_R), r_lit(1)), r_add(X_R, r_lit(2)))
    assert parse(to_infix(t), "diffexpr") == t
    u = r_tan(r_mul(r_lit(Fraction(1, 3)), X_R))
    assert parse(to_infix(u), "diffexpr") == u
    v = r_inv(r_cos(X_R))
    assert to_infix(v) == "inv(cos(x))"
    w = r_sin(r_pow(X_R, r_lit(Fraction(-5, 2))))
    assert parse(to_infix(w), "diffexpr") == w
