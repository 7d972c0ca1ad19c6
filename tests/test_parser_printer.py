"""Concrete syntax: the four input languages, error reporting, and the
print/parse round-trip that makes the CLI loss-free.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from microcas.harness import (
    GenConfig,
    draw_diff_expr,
    draw_int_expr,
    draw_rat_expr,
    draw_rat_fun,
)
from microcas.parser import LANGS, ParseError, PredicateViolation, parse
from microcas.printing import FORMATS, format_term, to_infix, to_json, to_sexpr
from microcas.rational import X_Q, q_inv, q_lit, q_mul, q_pow
from microcas.terms import (
    App,
    Const,
    INT,
    IntLit,
    Lambda,
    Quote,
    RAT,
    RatLit,
    REAL,
    Var,
    quote,
)


# -- parsing basics ------------------------------------------------------


def test_integer_language():
    assert parse("12", "int") == IntLit(12)
    t = parse("-(2 + 3) * 4", "int")
    from microcas.factoring import i_add, i_mul, i_neg

    assert t == i_mul(i_neg(i_add(IntLit(2), IntLit(3))), IntLit(4))
    # Subtraction is sugar for adding the negation.
    assert parse("5 - 2", "int") == i_add(IntLit(5), i_neg(IntLit(2)))


def test_integer_language_rejects_rational_syntax():
    with pytest.raises(PredicateViolation):
        parse("1 / 2", "int")
    with pytest.raises(PredicateViolation):
        parse("1.5", "int")
    with pytest.raises(PredicateViolation):
        parse("x", "int")


def test_rational_expression_language():
    assert parse("x", "ratexpr") == X_Q
    assert parse("3/2", "ratexpr") == q_lit(Fraction(3, 2))
    assert parse("1.5", "ratexpr") == q_lit(Fraction(3, 2))
    assert parse("x^3", "ratexpr") == q_pow(X_Q, 3)
    assert parse("x^-2", "ratexpr") == q_pow(X_Q, -2)
    assert parse("inv(x)", "ratexpr") == q_inv(X_Q)


def test_rational_language_rejects_transcendental_calls():
    with pytest.raises(PredicateViolation):
        parse("sin(x)", "ratexpr")
    with pytest.raises(PredicateViolation):
        parse("ln(x + 1)", "ratexpr")


def test_literal_quotient_folding():
    # A quotient of two literals is one literal when the divisor is not 0,
    assert parse("3 / 4", "ratexpr") == q_lit(Fraction(3, 4))
    # but 1 / 0 must survive as a term: it is the undefined normal form.
    assert parse("1 / 0", "ratexpr") == q_mul(q_lit(1), q_inv(q_lit(0)))


def test_function_language():
    f = parse("fun x -> x / x", "ratfun")
    assert isinstance(f, Lambda)
    assert f.var == "x" and f.var_ty == RAT
    with pytest.raises(ParseError):
        parse("x / x", "ratfun")
    with pytest.raises(ParseError):
        parse("fun y -> y", "ratfun")


def test_diff_language_exponents():
    from microcas.differentiation import X_R, r_lit, r_pow

    assert parse("x^(3/2)", "diffexpr") == r_pow(X_R, r_lit(Fraction(3, 2)))
    assert parse("x^(-3/2)", "diffexpr") == r_pow(X_R, r_lit(Fraction(-3, 2)))
    assert parse("x^2", "diffexpr") == r_pow(X_R, r_lit(2))
    # Parenthesized fractional exponents belong to this language only.
    with pytest.raises(ParseError):
        parse("x^(3/2)", "ratexpr")
    # An exponent must be a literal, not an arbitrary expression.
    with pytest.raises(ParseError):
        parse("x^x", "diffexpr")


def test_unknown_language_rejected():
    with pytest.raises(ValueError):
        parse("x", "complex")
    assert set(LANGS) == {"int", "ratexpr", "ratfun", "diffexpr"}


# -- error positions -----------------------------------------------------


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("x +", "ratexpr")
    assert exc.value.line == 1
    assert exc.value.col == 4
    assert str(exc.value).startswith("1:4:")

    with pytest.raises(ParseError) as exc2:
        parse("x + $", "ratexpr")
    assert exc2.value.col == 5

    with pytest.raises(ParseError) as exc3:
        parse("(x + 1", "ratexpr")
    assert "expected" in exc3.value.message


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse("x + 1 2", "ratexpr")
    with pytest.raises(ParseError):
        parse("1 1", "int")


def test_predicate_violation_is_a_parse_error():
    assert issubclass(PredicateViolation, ParseError)
    with pytest.raises(ParseError):
        parse("sin(x)", "ratexpr")


# -- printing conventions --------------------------------------------------


def test_infix_spellings():
    assert to_infix(parse("x + 1", "ratexpr")) == "x + 1"
    assert to_infix(parse("x - 1", "ratexpr")) == "x - 1"
    assert to_infix(parse("x / (x + 1)", "ratexpr")) == "x / (x + 1)"
    assert to_infix(parse("1 / 0", "ratexpr")) == "1 / 0"
    assert to_infix(q_pow(X_Q, 4)) == "x^4"
    assert to_infix(q_pow(X_Q, -4)) == "x^-4"
    assert to_infix(q_inv(parse("x + 1", "ratexpr"))) == "(x + 1)^-1"
    assert to_infix(parse("fun x -> 1 / x", "ratfun")) == "fun x -> 1 / x"


def test_infix_literal_quotient_avoids_refolding():
    # Mul(lit, Inv(lit)) cannot print as "a / b" or parsing would fold it.
    t = q_mul(q_lit(3), q_inv(q_lit(4)))
    s = to_infix(t)
    assert parse(s, "ratexpr") == t


def test_sexpr_forms():
    assert to_sexpr(IntLit(5)) == "(int 5)"
    assert to_sexpr(q_lit(Fraction(3, 2))) == "(rat 3/2)"
    assert to_sexpr(X_Q) == "(var x rat)"
    s = to_sexpr(parse("x + 1", "ratexpr"))
    assert s.startswith("(app (app (const + ")
    assert to_sexpr(quote(IntLit(1))) == "(quote (int 1))"
    f = parse("fun x -> x", "ratfun")
    assert to_sexpr(f) == "(lam x rat (var x rat))"


def test_json_form_is_valid_and_typed():
    t = parse("fun x -> x / (x + 1)", "ratfun")
    doc = json.loads(to_json(t))
    assert doc["node"] == "lam"
    assert doc["var"] == "x"

    def nodes(d):
        yield d["node"]
        for v in d.values():
            if isinstance(v, dict):
                yield from nodes(v)

    kinds = set(nodes(doc))
    assert kinds <= {"lam", "app", "const", "var", "rat", "int", "quote"}


def test_format_term_dispatch():
    t = IntLit(7)
    assert format_term(t, "infix") == "7"
    assert format_term(t, "sexpr") == "(int 7)"
    assert json.loads(format_term(t, "json"))["node"] == "int"
    assert set(FORMATS) == {"infix", "sexpr", "json"}
    with pytest.raises(ValueError):
        format_term(t, "latex")


def test_printer_rejects_foreign_trees():
    with pytest.raises(ValueError):
        to_infix(Var("y", INT))
    with pytest.raises(ValueError):
        to_infix(Quote(IntLit(1)))
    # Lambdas print only at the top level.
    with pytest.raises(ValueError):
        to_infix(
            Lambda("x", RAT, Lambda("x", RAT, X_Q))
        )



def test_printer_error_names_only_the_operator():
    t = parse("sin(" * 3000 + "x" + ")" * 3000, "diffexpr")
    with pytest.raises(ValueError, match=r"^no infix form for the operator 'foo'$"):
        to_infix(App(Const("foo", REAL), t))


# -- the round-trip law ----------------------------------------------------


def _round_trip_case(t, lang):
    s = to_infix(t)
    assert parse(s, lang) == t, f"{lang}: {s}"


def test_round_trip_on_generated_terms():
    cfg = GenConfig(seed=1009)
    rng = random.Random(1009)
    for _ in range(250):
        _round_trip_case(draw_rat_expr(rng, cfg), "ratexpr")
    for _ in range(250):
        _round_trip_case(draw_diff_expr(rng, cfg), "diffexpr")
    for _ in range(125):
        _round_trip_case(draw_rat_fun(rng, cfg), "ratfun")
    for _ in range(125):
        _round_trip_case(draw_int_expr(rng, cfg), "int")


def test_round_trip_on_normal_forms_and_derivatives():
    from microcas.differentiation import diff
    from microcas.rational import norm_rat_expr

    cfg = GenConfig(seed=222)
    rng = random.Random(222)
    for _ in range(120):
        n = norm_rat_expr(draw_rat_expr(rng, cfg))
        _round_trip_case(n, "ratexpr")
    for _ in range(120):
        d = diff(draw_diff_expr(rng, cfg))
        _round_trip_case(d, "diffexpr")


def test_whitespace_and_nesting_insensitivity():
    a = parse("x+1", "ratexpr")
    b = parse("  x   +   1 ", "ratexpr")
    c = parse("((x) + (1))", "ratexpr")
    assert a == b == c


# -- depth -------------------------------------------------------------------


def _deep_inputs(n: int = 3000):
    for lang, leaf, calls in (
        ("int", "1", ()),
        ("ratexpr", "x", ("inv",)),
        ("ratfun", "x", ("inv",)),
        ("diffexpr", "x", ("sin", "inv")),
    ):
        head = "fun x -> " if lang == "ratfun" else ""
        nest = "1 + (" * n + leaf + ")" * n
        srcs = {
            "parens": "(" * n + leaf + ")" * n,
            "minus": "-" * n + leaf,
            "sum": " + ".join([leaf] * n),
            # equal deep operands, which the rational printer writes as a
            # square
            "square": f"({nest}) * ({nest})",
        } | {name: f"{name}(" * n + leaf + ")" * n for name in calls}
        for shape, src in srcs.items():
            yield pytest.param(lang, head + src, id=f"{lang}-{shape}")


@pytest.mark.parametrize("lang, src", _deep_inputs())
def test_deep_terms_round_trip_and_serialize(lang, src):
    # Trees are compared by their s-expressions: term == still recurses.
    t = parse(src, lang)
    sexpr = to_sexpr(t)
    assert to_sexpr(parse(to_infix(t), lang)) == sexpr
    assert to_json(t).count('"node": "app"') == sexpr.count("(app ")
