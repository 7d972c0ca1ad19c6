"""Rational-expression normalization and rational-function
quasinormalization.

Two independent value routes exist for a rational expression: the
reduced CanonicalFraction semantics (frac_value) and the raw flattening
into an unreduced numerator/denominator pair (flatten_raw).  Their
agreement through cross-multiplication is the oracle used throughout.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microcas.harness import GenConfig, _rat_denote, draw_rat_expr, draw_rat_fun
from microcas.parser import parse
from microcas.polynomials import ONE, Poly, poly_gcd
from microcas.printing import to_infix
from microcas.rational import (
    CanonicalFraction,
    X_Q,
    _poly_term,
    body,
    compile_rat,
    eval_pointwise,
    flatten_raw,
    frac_term,
    frac_to_term,
    frac_value,
    is_norm,
    is_quasinorm,
    is_rat_expr,
    is_rat_fun,
    norm_rat_expr,
    norm_rat_fun,
    q_add,
    q_div,
    q_inv,
    q_lit,
    q_mul,
    q_neg,
    q_pow,
    q_sub,
    quasi_equal_at,
    quasinorm_rat_expr,
    singular_points,
)
from microcas.terms import INT, App, Arrow, Const, IntLit, Lambda, RAT, RatLit, Var, infer_type


def rx(src: str):
    return parse(src, "ratexpr")


def rf(src: str):
    return parse(src, "ratfun")


# -- canonical fractions ------------------------------------------------


def test_canonical_fraction_invariants():
    c = CanonicalFraction.make(Poly([2, 2]), Poly([4]))
    assert c.num == Poly([Fraction(1, 2), Fraction(1, 2)])
    assert c.den == Poly([1])
    with pytest.raises(ZeroDivisionError):
        CanonicalFraction.make(Poly([1]), Poly())
    with pytest.raises(ValueError):
        CanonicalFraction(Poly([1, 1]), Poly([2]))  # non-monic denominator
    with pytest.raises(ValueError):
        CanonicalFraction(Poly([1, 1]), Poly([1, 1]))  # not reduced


def test_canonical_fraction_field_operations():
    x = CanonicalFraction(Poly([0, 1]), Poly([1]))
    one = CanonicalFraction(Poly([1]), Poly([1]))
    inv_x = x.inv()
    assert inv_x is not None
    assert x * inv_x == one
    zero = CanonicalFraction.make(Poly(), Poly([1]))
    assert zero.inv() is None
    assert x + (-x) == zero


_SMALL_POLYS = st.lists(st.integers(-3, 3), max_size=4).map(Poly)
_NONZERO_POLYS = _SMALL_POLYS.filter(lambda p: not p.is_zero())


@st.composite
def _operand_pairs(draw):
    """Two fractions built by make, whose denominators share a drawn
    factor (a constant one shares nothing)."""
    shared = draw(_NONZERO_POLYS)
    return tuple(
        CanonicalFraction.make(draw(_SMALL_POLYS), draw(_NONZERO_POLYS) * shared)
        for _ in range(2)
    )


_POLYS = st.lists(st.integers(-50, 50), max_size=6).map(Poly)
_UNITS = st.integers(-9, 9).filter(bool).map(lambda c: Poly([c]))


@settings(max_examples=300, deadline=None)
@given(_POLYS, _UNITS, _POLYS, _UNITS)
# (x + 1) + -(x + 1) = 0, which must be the one zero 0/1
@example(Poly([2, 2]), Poly([2]), Poly([-3, -3]), Poly([3]))
def test_polynomial_fast_path_agrees_with_make(p, c, q, d):
    # make over a constant rescales to a new Poly equal to 1, not ONE itself
    a, b = CanonicalFraction.make(p, c), CanonicalFraction.make(q, d)
    assert a.den == ONE and b.den == ONE
    make = CanonicalFraction.make
    for got, want in ((a + b, make(a.num + b.num, ONE)), (a * b, make(a.num * b.num, ONE))):
        assert got == want
        assert _is_canonical(got)


def _is_canonical(c: CanonicalFraction) -> bool:
    if c.num.is_zero():
        return c.den == ONE
    return c.den.leading == 1 and poly_gcd(c.num, c.den).degree == 0


_X_X_MINUS_1 = Poly([0, -1, 1])
_X_X_PLUS_1 = Poly([0, 1, 1])


@settings(max_examples=300, deadline=None)
@given(_operand_pairs())
# 1/(x(x-1)) + 1/(x(x+1)) = 2/((x-1)(x+1)): both gcds of + are x
@example((CanonicalFraction.make(ONE, _X_X_MINUS_1), CanonicalFraction.make(ONE, _X_X_PLUS_1)))
# x/(x(x+1)) - 1/(x+1) = 0 over a shared denominator
@example((CanonicalFraction.make(Poly([0, 1]), _X_X_PLUS_1), CanonicalFraction.make(Poly([-1]), Poly([1, 1]))))
# (x-1)/(2x+2) * (4x+4)/(x^2-x): cancels crosswise to 2/x
@example((CanonicalFraction.make(Poly([-1, 1]), Poly([2, 2])), CanonicalFraction.make(Poly([4, 4]), _X_X_MINUS_1)))
def test_field_operations_agree_with_make(pair):
    a, b = pair
    make = CanonicalFraction.make
    results = [
        (a + b, make(a.num * b.den + b.num * a.den, a.den * b.den)),
        (a * b, make(a.num * b.num, a.den * b.den)),
        (-a, make(-a.num, a.den)),
    ]
    if a.num.is_zero():
        assert a.inv() is None
    else:
        results.append((a.inv(), make(a.den, a.num)))
    for got, want in results:
        assert got == want
        assert _is_canonical(got)


# -- the value routes ---------------------------------------------------


def test_frac_value_reduces_but_eval_pointwise_stays_strict():
    t = rx("x / x")
    v = frac_value(t)
    assert v == CanonicalFraction(Poly([1]), Poly([1]))
    assert eval_pointwise(t, Fraction(0)) is None
    assert eval_pointwise(t, Fraction(5)) == 1


def test_flatten_raw_keeps_unreduced_pair():
    num, den, invs = flatten_raw(rx("x / x"))
    assert num == Poly([0, 1])
    assert den == Poly([0, 1])
    assert invs == [Poly([0, 1])]


def test_flatten_raw_undefined_when_inverting_zero_polynomial():
    assert flatten_raw(rx("1 / (x - x)")) is None
    assert frac_value(rx("1 / (x - x)")) is None
    # 1/x - 1/x flattens to 0 over a nonzero denominator: defined in the field.
    got = flatten_raw(rx("1/x - 1/x"))
    assert got is not None
    assert got[0].is_zero()


def _cross_match(t) -> bool:
    """frac_value and flatten_raw agree through cross-multiplication."""
    v = frac_value(t)
    raw = flatten_raw(t)
    if v is None or raw is None:
        return v is None and raw is None
    num, den, _ = raw
    return v.num * den == num * v.den


def test_value_routes_cross_multiply_on_generated_terms():
    cfg = GenConfig(seed=311)
    rng = random.Random(311)
    for _ in range(300):
        assert _cross_match(draw_rat_expr(rng, cfg))


# -- normalization ------------------------------------------------------


def test_normal_form_flagship_cases():
    assert norm_rat_expr(rx("(x^4 - 1) / (x^2 - 1)")) == rx("x^2 + 1")
    assert norm_rat_expr(rx("x / x")) == rx("1")
    assert norm_rat_expr(rx("1/x - 1/x")) == rx("0")
    assert norm_rat_expr(rx("1 / (x - x)")) == rx("1 / 0")


def test_normal_form_renderings():
    for src, want in [
        ("(x^4 - 1) / (x^2 - 1)", "x^2 + 1"),
        ("x / x", "1"),
        ("1/x - 1/x", "0"),
        ("1 / (x - x)", "1 / 0"),
        ("(3*x + 3) / (x + 1)", "3"),
        ("(x^2 + 2*x + 1) / (x + 1)", "x + 1"),
        ("1 / (2*x + 2)", "1/2 / (x + 1)"),
    ]:
        assert to_infix(norm_rat_expr(rx(src))) == want


def test_norm_is_undefined_off_language():
    assert norm_rat_expr(IntLit(3)) is None
    assert norm_rat_expr(Var("x", INT)) is None
    assert norm_rat_expr(parse("sin(x)", "diffexpr")) is None


def test_norm_outputs_are_normal_and_idempotent():
    cfg = GenConfig(seed=97)
    rng = random.Random(97)
    for _ in range(250):
        t = draw_rat_expr(rng, cfg)
        n = norm_rat_expr(t)
        assert n is not None
        assert is_norm(n)
        assert norm_rat_expr(n) == n


def test_norm_canonicality_equal_values_same_form():
    pairs = [
        ("(x^4 - 1) / (x^2 - 1)", "x^2 + 1"),
        ("x + x", "2 * x"),
        ("(x + 1) * (x - 1)", "x^2 - 1"),
        ("1 / (1/x)", "x"),
        ("x^3 / x", "x * x"),
        ("(1/2) * x + (1/2) * x", "x"),
    ]
    for a_src, b_src in pairs:
        a, b = rx(a_src), rx(b_src)
        va, vb = frac_value(a), frac_value(b)
        assert va == vb
        assert norm_rat_expr(a) == norm_rat_expr(b)


def test_norm_separates_distinct_values():
    a, b = rx("x / (x + 1)"), rx("x / (x - 1)")
    assert frac_value(a) != frac_value(b)
    assert norm_rat_expr(a) != norm_rat_expr(b)


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=5))
def test_norm_of_literal_arithmetic_is_single_literal(p, q):
    t = q_div(q_lit(p), q_lit(q))
    n = norm_rat_expr(t)
    v = Fraction(p, q)
    # Canonical renderings carry no negative literals: the sign is a
    # negation node around the positive literal.
    want = q_lit(v) if v >= 0 else q_neg(q_lit(-v))
    assert n == want


def test_norm_value_quasi_equality_on_generated_terms():
    cfg = GenConfig(seed=613)
    rng = random.Random(613)
    for _ in range(250):
        t = draw_rat_expr(rng, cfg)
        n = norm_rat_expr(t)
        assert frac_value(n) == frac_value(t)


# -- the is_* predicates ------------------------------------------------


def test_is_rat_expr_gate():
    assert is_rat_expr(rx("x^2 + 1/2"))
    assert is_rat_expr(q_pow(X_Q, -3))
    assert not is_rat_expr(IntLit(1))
    assert not is_rat_expr(parse("sin(x)", "diffexpr"))
    assert not is_rat_expr(Var("y", RAT))  # only x is in the language


def test_is_norm_examples():
    assert is_norm(rx("x^2 + 1"))
    assert is_norm(rx("1 / 0"))
    assert is_norm(norm_rat_expr(rx("x / (x^2 - 2)")))
    assert not is_norm(rx("x / x"))
    assert not is_norm(rx("1 + 1"))


def test_is_quasinorm_accepts_surviving_linear_factors():
    assert is_quasinorm(quasinorm_rat_expr(rx("x / x")))
    # A shared linear factor is exactly what quasinormal forms permit.
    assert is_quasinorm(rx("(x^2 + 2*x + 1) / (x + 1)"))
    # Common irreducible quadratic factors are forbidden.
    assert not is_quasinorm(rx("(x^2 + 1) / (x^2 + 1)"))
    # Terms that are not canonical fraction renderings are not quasinormal.
    assert not is_quasinorm(rx("x + x"))
    assert not is_quasinorm(rx("1 + 1"))


@pytest.mark.parametrize("src", ["(x + 1)^200", "(x^400 - 1) / (x - 1)"])
def test_norm_predicates_on_deep_normal_forms(src):
    # The rendered x^k chains share their nodes: each predicate walks
    # them once, not once per monomial.
    budget = 0.5
    n = norm_rat_expr(rx(src))
    t0 = time.monotonic()
    assert is_norm(n)
    assert is_quasinorm(n)
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{elapsed:.2f}s exceeds the {budget}s budget"
    assert not is_norm(q_add(n, q_lit(0)))
    assert not is_quasinorm(q_add(n, q_lit(0)))


# -- rendering and literal leaves on the integer form -------------------


@pytest.mark.parametrize(
    "src, want",
    [
        # a unit leading coefficient over a common denominator > 1
        ("x/2 + x^2", "x^2 + 1/2 * x"),
        # constant terms of +1 and -1
        ("x + 1", "x + 1"),
        ("-x^2 - 1", "-x^2 - 1"),
        ("-1", "-1"),
        # negative leading coefficients, unit and not
        ("1 - x", "-x + 1"),
        ("-3*x^2 + x", "-(3 * x^2) + x"),
        ("-x^3/2 + 1/3", "-(1/2 * x^3) + 1/3"),
        # the zero polynomial
        ("x - x", "0"),
        # a numerator and a denominator rescaled by a negative leading coefficient
        ("-2/(-4*x+1)", "1/2 / (x - 1/4)"),
        ("1/(1-x)", "-1 / (x - 1)"),
        ("(x+1)^5/(2*x-4)", "(1/2 * x^5 + 5/2 * x^4 + 5 * x^3 + 5 * x^2 + 5/2 * x + 1/2) / (x - 2)"),
    ],
)
def test_rendering_edge_cases(src, want):
    n = norm_rat_expr(rx(src))
    assert to_infix(n) == want
    assert is_norm(n)
    assert rx(want) == n


def _reference_poly_term(p: Poly):
    """The renderer written on the Fraction coefficients, term for term:
    the reference the integer walk of ``_poly_term`` is checked against."""
    cs = p.coeffs
    if not cs:
        return q_lit(0)
    powers = [None, X_Q]
    while len(powers) < len(cs):
        powers.append(q_mul(X_Q, powers[-1]))
    out = None
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        a = abs(c)
        if k == 0:
            mono = q_lit(a)
        elif a == 1:
            mono = powers[k]
        else:
            mono = q_mul(q_lit(a), powers[k])
        if out is None:
            out = q_neg(mono) if c < 0 else mono
        elif c < 0:
            out = q_add(out, q_neg(mono))
        else:
            out = q_add(out, mono)
    return out


# Mixed signs, units and zeros over mixed denominators, some of them huge.
_COEFFICIENTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)
_MIXED_POLYS = st.lists(_COEFFICIENTS, max_size=7).map(Poly)


@settings(max_examples=300, deadline=None)
@given(_MIXED_POLYS, _MIXED_POLYS.filter(lambda p: not p.is_zero()))
@example(Poly([0, Fraction(1, 2), 1]), ONE)
@example(Poly([-2]), Poly([1, -4]))
@example(Poly([1, 5, 10, 10, 5, 1]), Poly([-4, 2]))
def test_rendering_matches_the_fraction_reference(p, q):
    assert _poly_term(p) == _reference_poly_term(p)
    c = CanonicalFraction.make(p, q)
    assert _poly_term(c.den) == _reference_poly_term(c.den)
    assert frac_value(frac_term(c.num, c.den)) == c


@pytest.mark.parametrize(
    "c", [Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(-5, 4), Fraction(2**300, 3)]
)
def test_literal_leaves_are_constant_polynomials(c):
    v = frac_value(RatLit(c))
    num, den, inverted = flatten_raw(RatLit(c))
    assert v.num == Poly([c]) and v.den == ONE
    assert num == Poly([c]) and den == ONE and inverted == []
    if c == 0:
        assert v.num.is_zero() and num.is_zero()
    else:
        assert num.ints == ((c.numerator,), c.denominator)


# -- quasinormalization and rational functions --------------------------


def test_quasinorm_keeps_rational_singularities():
    t = quasinorm_rat_expr(rx("x / x"))
    assert eval_pointwise(t, Fraction(0)) is None
    assert eval_pointwise(t, Fraction(3)) == 1
    assert singular_points(t) == [Fraction(0)]


def test_quasinorm_drops_nonsingular_common_factors():
    t = quasinorm_rat_expr(rx("(x^2 + 1) / (x^2 + 1)"))
    assert t == rx("1")


def test_quasinorm_rejects_off_language_terms():
    with pytest.raises(ValueError):
        quasinorm_rat_expr(IntLit(1))


def test_norm_rat_fun_flagship_cases():
    f = norm_rat_fun(rf("fun x -> x / x"))
    assert to_infix(f) == "fun x -> x / x"
    g = norm_rat_fun(rf("fun x -> (x^2 + 1) / (x^2 + 1)"))
    assert to_infix(g) == "fun x -> 1"


def test_norm_rat_fun_shape_and_gate():
    f = norm_rat_fun(rf("fun x -> (x^2 - 1) / (x - 1)"))
    assert isinstance(f, Lambda)
    assert is_rat_fun(f)
    assert is_quasinorm(body(f))
    assert norm_rat_fun(rx("x + 1")) is None
    assert norm_rat_fun(IntLit(2)) is None


def test_norm_rat_fun_pointwise_quasi_equality():
    cfg = GenConfig(seed=401)
    rng = random.Random(401)
    for _ in range(120):
        f = draw_rat_fun(rng, cfg)
        g = norm_rat_fun(f)
        assert g is not None
        points = set(singular_points(body(f))) | {
            Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(20)
        }
        for a in points:
            assert quasi_equal_at(f, g, a), (to_infix(f), to_infix(g), a)


def test_quasi_equal_at_counts_shared_undefinedness():
    f = rf("fun x -> x / x")
    g = rf("fun x -> (2 * x) / (2 * x)")
    assert quasi_equal_at(f, g, Fraction(0))
    assert quasi_equal_at(f, g, Fraction(7))
    h = rf("fun x -> 1")
    assert not quasi_equal_at(f, h, Fraction(0))
    with pytest.raises(ValueError):
        quasi_equal_at(rx("x"), h, Fraction(0))


def test_singular_points_sorted_and_complete():
    t = rx("1 / ((x - 1) * (x + 2)) + 1 / x")
    assert singular_points(t) == [Fraction(-2), Fraction(0), Fraction(1)]
    assert singular_points(rx("x + 1")) == []
    assert singular_points(rx("1 / (x^2 + 1)")) == []
    # Nothing to report when the whole expression is undefined in the field.
    assert singular_points(rx("1 / (x - x)")) == []


def test_singular_points_of_a_quadratic_with_a_huge_constant():
    # Listing the divisors of N means factoring it; the roots need not.
    n = (2**127 - 1) * (2**89 - 1)
    assert singular_points(parse(f"1 / (x^2 - {n})", "ratexpr")) == []


def test_frac_term_and_frac_to_term_round_trip_values():
    c = frac_value(rx("x / (x^2 - 1)"))
    t = frac_to_term(c)
    assert frac_value(t) == c
    bare = frac_term(Poly([1, 2]), Poly([1]))
    assert bare == rx("2 * x + 1")


def test_builders_match_parser():
    assert q_add(X_Q, q_lit(1)) == rx("x + 1")
    assert q_sub(X_Q, q_lit(1)) == rx("x - 1")
    assert q_mul(q_lit(2), X_Q) == rx("2 * x")
    assert q_div(X_Q, q_lit(3)) == rx("x / 3")
    assert q_neg(X_Q) == rx("-x")
    assert q_inv(X_Q) == rx("inv(x)")
    assert q_pow(X_Q, 3) == rx("x^3")
    assert q_pow(X_Q, -2) == rx("x^-2")
    assert q_pow(X_Q, 0) == rx("1")


# -- the fold: depth, strictness, order ---------------------------------


def _deep_sum(n: int = 3000):
    """inv(x - 1) + x + x + ... with n terms, nested n deep on the left."""
    t = q_inv(q_sub(X_Q, q_lit(1)))
    for _ in range(n - 1):
        t = q_add(t, X_Q)
    return t


DEEP_SUM = _deep_sum()
# 1/(x - 1) + 2999 x = (2999 x^2 - 2999 x + 1) / (x - 1)
DEEP_SUM_VALUE = CanonicalFraction(Poly([1, -2999, 2999]), Poly([-1, 1]))


@pytest.mark.parametrize(
    "check",
    [
        lambda: is_rat_expr(DEEP_SUM),
        lambda: frac_value(DEEP_SUM) == DEEP_SUM_VALUE,
        lambda: eval_pointwise(DEEP_SUM, 2) == 5999 and eval_pointwise(DEEP_SUM, 1) is None,
        lambda: compile_rat(DEEP_SUM)(2) == 5999 and compile_rat(DEEP_SUM)(1) is None,
        lambda: flatten_raw(DEEP_SUM)[2] == [Poly([-1, 1])],
        lambda: norm_rat_expr(DEEP_SUM) == frac_to_term(DEEP_SUM_VALUE),
        lambda: singular_points(DEEP_SUM) == [Fraction(1)],
    ],
    ids=[
        "is_rat_expr",
        "frac_value",
        "eval_pointwise",
        "compile_rat",
        "flatten_raw",
        "norm_rat_expr",
        "singular_points",
    ],
)
def test_deep_sum_without_recursion(check):
    assert check()


def test_undefined_operand_poisons_its_term():
    assert eval_pointwise(q_mul(q_lit(0), q_inv(X_Q)), 0) is None
    assert eval_pointwise(q_mul(q_lit(0), q_inv(X_Q)), 1) == 0


def test_flatten_raw_lists_inverted_numerators_left_to_right():
    _, _, invs = flatten_raw(rx("1/x + 1/(x - 1)"))
    assert invs == [Poly([0, 1]), Poly([-1, 1])]
    # Each distinct numerator once, where it first occurs.
    _, _, invs = flatten_raw(rx("1/(x - 1) + 1/x + 2/(x - 1) + 1/(1/x)"))
    assert invs == [Poly([-1, 1]), Poly([0, 1]), ONE]


@pytest.mark.parametrize(
    "fn",
    [
        frac_value,
        flatten_raw,
        lambda t: eval_pointwise(t, 1),
        pytest.param(lambda t: compile_rat(t)(1), id="compile_rat"),
    ],
)
def test_value_functions_raise_off_language(fn):
    for t in (Var("y", RAT), IntLit(1), q_add(X_Q, Var("x", INT)), Lambda("x", RAT, X_Q)):
        with pytest.raises(ValueError):
            fn(t)


# -- values at a point through the lowered program ---------------------


def _reference_value(t, a: Fraction):
    """The value of a rational expression at x = a, folded recursively
    over reduced Fractions: None under any inverse of zero."""
    if t == X_Q:
        return a
    if isinstance(t, RatLit):
        return t.value
    if isinstance(t.fun, App):
        u, v = _reference_value(t.fun.arg, a), _reference_value(t.arg, a)
        if u is None or v is None:
            return None
        return u + v if t.fun.fun.symbol == "+" else u * v
    u = _reference_value(t.arg, a)
    if u is None:
        return None
    if t.fun.symbol == "-":
        return -u
    return None if u == 0 else 1 / u


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compile_rat_matches_a_fraction_reference(seed):
    rng = random.Random(seed)
    t = draw_rat_expr(rng, GenConfig(seed=seed))
    prog = compile_rat(t)
    singular = singular_points(t)
    points = set(singular) | {Fraction(0), Fraction(1), Fraction(-1)}
    points |= {Fraction(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(12)}
    for a in sorted(points):
        want = _reference_value(t, a)
        got = prog(a)
        assert got == want and type(got) is type(want), (to_infix(t), a)
        assert got is None or a not in singular


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 6)), max_size=8),
)
def test_program_pair_is_the_value_unreduced(seed, draws):
    # The norm-fun suite compares these pairs; row by row they must be
    # the value that calling the program and the harness's own
    # denotation give, with (0, 0) where it is undefined.
    t = draw_rat_expr(random.Random(seed), GenConfig(seed=seed))
    prog = compile_rat(t)
    points = [(a.numerator, a.denominator) for a in singular_points(t)] + draws + [(0, 1), (2, 2)]
    nums, dens = prog.run([n for n, _ in points], [d for _, d in points])
    assert len(nums) == len(dens) == len(points)
    for (n, d), u, v in zip(points, nums, dens):
        got, want = prog(Fraction(n, d)), _rat_denote(t, Fraction(n, d))
        if v == 0:
            assert u == 0 and got is None and want is None, (to_infix(t), n, d)
        else:
            assert v > 0 and Fraction(u, v) == got == want, (to_infix(t), n, d)


@pytest.mark.parametrize("seed", range(5))
def test_run_agrees_with_the_one_point_call_row_by_row(seed):
    # Harness draws over one column of their singular points and a
    # spread of points around them, among them unreduced ones.
    rng = random.Random(seed)
    cfg = GenConfig(seed=seed)
    for _ in range(40):
        t = draw_rat_fun(rng, cfg).body
        points = [(a.numerator, a.denominator) for a in singular_points(t)]
        points += [(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(10)]
        prog = compile_rat(t)
        for (n, d), u, v in zip(points, *prog.run([n for n, _ in points], [d for _, d in points])):
            want = prog(Fraction(n, d))
            assert (u, v) == (0, 0) if want is None else v > 0 and Fraction(u, v) == want, (to_infix(t), n, d)


def test_run_keeps_an_undefined_row_beside_a_reduced_one():
    # x^3000 + 1/(x - 1): at x = 2/6 the power's denominator 6^3000
    # passes the reduce bound, and its row is reduced, while the row at
    # x = 1 next to it is undefined and must stay (0, 0) through the
    # gcd.  At x = -2/3 the inverse is of a negative value.
    t = q_add(q_pow(X_Q, 3000), q_inv(q_sub(X_Q, q_lit(1))))
    prog = compile_rat(t)
    points = [(2, 6), (1, 1), (-2, 3), (3, 1)]
    nums, dens = prog.run([n for n, _ in points], [d for _, d in points])
    assert (nums[1], dens[1]) == (0, 0)
    assert dens[0] < 6**3000
    for (n, d), u, v in zip(points, nums, dens):
        want = prog(Fraction(n, d))
        assert (u, v) == (0, 0) if want is None else v > 0 and Fraction(u, v) == want
    assert Fraction(nums[0], dens[0]) == Fraction(1, 3**3000) - Fraction(3, 2)
    assert Fraction(nums[2], dens[2]) == Fraction(-2, 3) ** 3000 - Fraction(3, 5)
    inv = compile_rat(q_inv(X_Q))
    assert inv.run([-2, 0], [3, 1]) == ([-3, 0], [2, 0])
    assert inv.run([], []) == ([], [])
    assert compile_rat(X_Q).run([], []) == ([], [])


def test_compile_rat_reads_copies_of_registered_constants():
    rr = Arrow(RAT, RAT)
    plus, inv = Const("+", Arrow(RAT, rr)), Const("inv", rr)
    t = App(App(plus, X_Q), App(inv, X_Q))
    assert t == rx("x + inv(x)") and t.fun.fun is rx("x + 1").fun.fun
    prog = compile_rat(t)
    assert prog(2) == Fraction(5, 2)
    assert prog(0) is None
    assert eval_pointwise(t, Fraction(1, 3)) == Fraction(10, 3)


def test_compile_rat_computes_a_shared_subterm_once():
    # (x + 1)^200 is 199 products over one node x + 1: one step for the
    # sum, one per product
    prog = compile_rat(rx("(x + 1)^200"))
    assert len(prog.steps) == 200
    assert prog(Fraction(-1, 2)) == Fraction(1, 2**200)


def test_unreduced_growth_stays_bounded():
    """Registers keep unreduced integer pairs; without a bound on their
    size the denominators would grow with every step.  Each of these is
    evaluated exactly within a wall-time budget."""
    budget = 5.0
    t0 = time.monotonic()
    t = X_Q
    for _ in range(2999):
        t = q_add(t, X_Q)
    assert compile_rat(t)(Fraction(1, 6)) == 500
    for src, c in (("(x + 1)^200", 1), ("(x - 1)^200", -1)):
        prog = compile_rat(rx(src))
        for k in range(-8, 8):
            a = Fraction(k, 7)
            assert prog(a) == (a + c) ** 200
    # t_{k+1} = t_k * x + t_k shares t_k: without reduction each level
    # squares the denominator of the pair, here past 40,000 bits
    t = X_Q
    for _ in range(14):
        t = q_add(q_mul(t, X_Q), t)
    assert compile_rat(t)(Fraction(1, 6)) == Fraction(1, 6) * Fraction(7, 6) ** 14
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{elapsed:.1f}s exceeds the {budget:.0f}s budget"


def _ladder(levels: int, factor=X_Q):
    """t <- t * factor + t from t = x, as a DAG of three nodes a level."""
    t = X_Q
    for _ in range(levels):
        t = q_add(q_mul(t, factor), t)
    return t


def _ladder_tree(levels: int):
    """The same term as _ladder(levels) with no node shared."""
    if levels == 0:
        return X_Q
    return q_add(q_mul(_ladder_tree(levels - 1), X_Q), _ladder_tree(levels - 1))


def test_shared_ladder_is_walked_once_per_node():
    # 60 levels have 2^60 paths: every walk below must visit each
    # distinct node once.  The value is x (x + 1)^60.
    budget = 5.0
    t0 = time.monotonic()
    t = _ladder(60)
    member = is_rat_expr(t)
    value = frac_value(t)
    flat = flatten_raw(t)
    n = norm_rat_expr(t)
    normal = is_norm(n), is_norm(t), frac_value(n) == value
    prog = compile_rat(t)
    points = (Fraction(1, 6), Fraction(-2), Fraction(0))
    got = [prog(a) for a in points]
    typed = infer_type(t)
    elapsed = time.monotonic() - t0
    want = Poly([0, 1]) * Poly([1, 1]) ** 60
    assert member
    assert typed is RAT
    assert value == CanonicalFraction.make(want, ONE)
    assert flat == (want, ONE, [])
    assert normal == (True, False, True)
    assert got == [a * (a + 1) ** 60 for a in points]
    assert elapsed < budget, f"{elapsed:.1f}s exceeds the {budget:.0f}s budget"


def test_inverted_numerators_of_a_dag_are_listed_once():
    # Each level of t <- t * u + t lists u's inverted numerators once
    # more per path: 2^levels times in all, were the list kept per path.
    # With u = 1/x the unreduced fraction has degree 2^levels, so that
    # ladder stays at 14 levels; with u = 1/(1/x), the polynomial x, the
    # fraction is x (x + 1)^20 at 20 levels.
    budget = 2.0
    t0 = time.monotonic()
    inv_x, inv_inv_x = _ladder(14, q_inv(X_Q)), _ladder(20, q_inv(q_inv(X_Q)))
    listed = flatten_raw(inv_x)[2], flatten_raw(inv_inv_x)[2]
    singular = singular_points(inv_x), singular_points(inv_inv_x)
    normal = norm_rat_fun(Lambda("x", RAT, inv_inv_x))
    elapsed = time.monotonic() - t0
    assert listed == ([Poly([0, 1])], [Poly([0, 1]), ONE])
    assert singular == ([Fraction(0)], [Fraction(0)])
    # x^2 (x + 1)^20 / x keeps the singular point 0.
    assert flatten_raw(normal.body)[:2] == (Poly([0, 1]) ** 2 * Poly([1, 1]) ** 20, Poly([0, 1]))
    assert elapsed < budget, f"{elapsed:.1f}s exceeds the {budget:.0f}s budget"


def test_compile_rat_lowers_a_dag_as_its_tree():
    # Lowering the tree visits every path, as a walk without memory
    # does; the DAG must give the same program.
    dag, tree = _ladder(12), _ladder_tree(12)
    assert compile_rat(dag) == compile_rat(tree)
    for a in (Fraction(1, 3), Fraction(-1), Fraction(5, 2)):
        assert compile_rat(dag)(a) == compile_rat(tree)(a) == a * (a + 1) ** 12
