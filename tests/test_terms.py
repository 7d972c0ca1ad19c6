"""Syntax trees, typing, quotation, and typed evaluation.

The quotation law under test: evaluating the quotation of a closed term
at the term's own type recovers its value; at any other type the result
is undefined (None).
"""

from __future__ import annotations

import copy
import importlib
import operator
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import microcas
from microcas.differentiation import X_R, is_diff_expr, r_add, r_lit, r_pow, r_sin
from microcas.factoring import ADD_I, i_add, i_mul, i_neg, i_pow
from microcas.parser import parse
from microcas.printing import to_infix, to_sexpr
from microcas.rational import (
    ADD_Q, INV_Q, MUL_Q, NEG_Q, X_Q, frac_value, is_rat_expr, q_add, q_inv, q_lit, q_mul, q_neg,
)
from microcas.terms import (
    FRAC,
    INT,
    RAT,
    REAL,
    REPR_LIMIT,
    SYNTAX,
    App,
    Arrow,
    Const,
    FnQQ,
    FracV,
    IntLit,
    IntV,
    Lambda,
    Quote,
    RatLit,
    RatV,
    RealLit,
    TermV,
    Var,
    builder,
    eval_as,
    fold,
    infer_type,
    match_binary,
    match_unary,
    op_table,
    quote,
    register_constant,
    same_term,
)


def test_type_names():
    assert str(INT) == "int"
    assert str(RAT) == "rat"
    assert str(Arrow(RAT, RAT)) == "(rat -> rat)"
    assert str(Arrow(INT, Arrow(INT, INT))) == "(int -> (int -> int))"


def test_literal_and_variable_typing():
    assert infer_type(IntLit(3)) == INT
    assert infer_type(RatLit(Fraction(1, 2))) == RAT
    assert infer_type(Var("x", RAT)) == RAT
    assert infer_type(Var("x", REAL)) == REAL
    assert infer_type(Quote(IntLit(1))) == SYNTAX
    # A real literal is REAL; a constant is typed only when registered,
    # whatever its symbol reads as.
    assert infer_type(r_lit(Fraction(3, 2))) is REAL
    assert infer_type(Const("3/2", REAL)) is None
    assert infer_type(parse("sin(x) + 1", "diffexpr")) is REAL
    assert infer_type(parse("sin(x)", "diffexpr")) is REAL
    assert infer_type(Const("pi", REAL)) is None
    assert infer_type(App(Const("pi", REAL), Var("x", REAL))) is None
    assert infer_type(Const("frob", Arrow(REAL, REAL))) is None


def test_same_name_different_type_are_distinct_variables():
    assert Var("x", RAT) != Var("x", REAL)
    assert infer_type(Var("x", RAT)) != infer_type(Var("x", REAL))


def test_application_typing_with_registry():
    plus_i = Const("+", Arrow(INT, Arrow(INT, INT)))
    assert register_constant("+", Arrow(INT, Arrow(INT, INT))) is ADD_I
    t = App(App(plus_i, IntLit(1)), IntLit(2))
    assert infer_type(t) == INT
    # Ill-typed application: integer plus rational literal.
    bad = App(App(plus_i, IntLit(1)), RatLit(Fraction(1)))
    assert infer_type(bad) is None
    # Unregistered constants have no type at all.
    assert infer_type(Const("+", Arrow(RAT, INT))) is None


def test_lambda_typing():
    f = Lambda("x", RAT, q_add(X_Q, q_lit(1)))
    assert infer_type(f) == Arrow(RAT, RAT)
    broken = Lambda("x", RAT, Const("mystery", INT))
    assert infer_type(broken) is None


def test_typing_of_deep_terms():
    t, q = IntLit(1), q_lit(1)
    for _ in range(3000):
        t, q = i_add(t, IntLit(1)), q_add(q, q_lit(1))
    assert infer_type(t) == INT
    assert infer_type(q) == RAT
    assert infer_type(Lambda("x", RAT, q)) == Arrow(RAT, RAT)
    with pytest.raises(TypeError):
        infer_type(i_add(t, "1"))


def test_match_helpers():
    plus_q = Const("+", Arrow(RAT, Arrow(RAT, RAT)))
    t = q_add(q_lit(1), q_lit(2))
    assert match_binary(t, plus_q) == (q_lit(1), q_lit(2))
    assert match_binary(q_lit(1), plus_q) is None
    n = q_neg(q_lit(5))
    neg_q = Const("-", Arrow(RAT, RAT))
    assert match_unary(n, neg_q) == q_lit(5)
    assert match_unary(t, neg_q) is None


def test_eval_as_requires_quotation():
    with pytest.raises(ValueError):
        eval_as(IntLit(2), INT)


def test_integer_evaluation():
    t = i_add(i_mul(IntLit(2), IntLit(3)), i_neg(IntLit(1)))
    assert eval_as(quote(t), INT) == IntV(5)
    assert eval_as(quote(i_pow(IntLit(2), IntLit(10))), INT) == IntV(1024)
    # Negative exponents denote nothing over the integers.
    assert eval_as(quote(i_pow(IntLit(2), i_neg(IntLit(1)))), INT) is None


def test_rational_evaluation_strictness():
    t = q_mul(q_lit(Fraction(1, 2)), q_add(q_lit(1), q_lit(1)))
    assert eval_as(quote(t), RAT) == RatV(Fraction(1))
    assert eval_as(quote(q_inv(q_lit(0))), RAT) is None
    # Undefinedness propagates: 0 * (1/0) is undefined, not 0.
    dead = q_mul(q_lit(0), q_inv(q_lit(0)))
    assert eval_as(quote(dead), RAT) is None


def test_fraction_evaluation_reads_x_as_indeterminate():
    got = eval_as(quote(q_mul(X_Q, q_inv(X_Q))), FRAC)
    assert isinstance(got, FracV)
    assert got.value.num.coeffs == (Fraction(1),)
    assert got.value.den.coeffs == (Fraction(1),)


def test_function_evaluation():
    f = Lambda("x", RAT, q_inv(X_Q))
    got = eval_as(quote(f), Arrow(RAT, RAT))
    assert isinstance(got, FnQQ)
    assert got(Fraction(2)) == Fraction(1, 2)
    assert got(Fraction(0)) is None
    # the body is lowered once and kept; equality and hash read the term
    assert got._program is got._program
    assert got == FnQQ(f) and hash(got) == hash(FnQQ(f))


def test_syntax_evaluation_peels_one_quotation():
    t = q_add(X_Q, q_lit(1))
    got = eval_as(quote(quote(t)), SYNTAX)
    assert got == TermV(t)
    # A single quotation read at SYNTAX carries no inner quotation.
    assert eval_as(quote(t), SYNTAX) is None


def test_type_mismatch_is_undefined():
    assert eval_as(quote(IntLit(2)), RAT) is None
    assert eval_as(quote(RatLit(Fraction(1, 2))), INT) is None
    assert eval_as(quote(X_Q), RAT) is None  # open term, no value
    assert eval_as(quote(r_add(X_R, r_lit(1))), FRAC) is None
    assert eval_as(quote(r_lit(3)), REAL) is None  # no evaluator at real
    assert eval_as(quote(IntLit(3)), Arrow(RAT, RAT)) is None


def test_terms_are_hashable_values():
    seen = {quote(IntLit(1)), quote(IntLit(1)), quote(IntLit(2))}
    assert len(seen) == 2
    assert IntLit(3) == IntLit(3)
    assert RatLit(Fraction(2, 4)) == RatLit(Fraction(1, 2))


def test_terms_with_copied_operator_nodes_read_the_same():
    # Folds match the registered operator nodes by identity; a copy of a
    # term has the same operator nodes.
    rat = q_mul(q_neg(X_Q), q_inv(q_add(X_Q, q_lit(1))))
    real = r_pow(r_sin(X_R), r_lit(2))
    closed = i_add(i_pow(IntLit(2), IntLit(3)), i_neg(IntLit(1)))
    rat2, real2, closed2 = copy.deepcopy((rat, real, closed))
    assert rat2 is not rat and rat2.fun.fun is rat.fun.fun
    assert is_rat_expr(rat2) and frac_value(rat2) == frac_value(rat)
    assert is_diff_expr(real2)
    assert eval_as(quote(closed2), INT) == IntV(7)
    assert [to_infix(t) for t in (rat2, real2, closed2)] == [to_infix(t) for t in (rat, real, closed)]


def test_integer_and_rational_evaluation_of_deep_terms():
    t, q = IntLit(1), q_lit(1)
    for _ in range(3000):
        t, q = i_add(t, IntLit(1)), q_add(q, q_lit(1))
    assert eval_as(quote(t), INT) == IntV(3001)
    assert eval_as(quote(q), RAT) == RatV(Fraction(3001))
    assert eval_as(quote(t), RAT) is None
    assert eval_as(quote(q), INT) is None
    # Ill-typed: the value exists for neither type.
    mixed = i_add(IntLit(1), q_lit(1))
    assert eval_as(quote(mixed), INT) is None
    assert eval_as(quote(mixed), RAT) is None


def test_same_term_agrees_with_equality_without_recursion():
    small = [q_add(X_Q, q_lit(1)), q_add(X_Q, q_lit(2)), q_add(q_lit(1), X_Q), IntLit(1), RatLit(1),
             Lambda("x", RAT, X_Q), Lambda("y", RAT, X_Q), Lambda("x", INT, X_Q), quote(X_Q), quote(q_lit(1))]
    for a in small:
        for b in small:
            assert same_term(a, b) == (a == b)
        assert same_term(a, copy.deepcopy(a))
    a, b, c = q_lit(1), q_lit(1), q_lit(2)
    for _ in range(3000):
        a, b, c = q_add(X_Q, a), q_add(X_Q, b), q_add(X_Q, c)
    assert same_term(quote(a), quote(b))
    assert not same_term(a, c)


# -- shared subterms ---------------------------------------------------------


def _ladder(bottom, levels: int, factor=X_Q):
    """t <- t * factor + t, levels times: each level refers to the one
    below twice, so the tree has 2^levels paths and the DAG three nodes
    a level."""
    t = bottom
    for _ in range(levels):
        t = q_add(q_mul(t, factor), t)
    return t


def test_fold_applies_each_operator_once_per_distinct_node():
    calls = Counter()

    def counted(name, op):
        def apply(*args):
            calls[name] += 1
            return op(*args)

        return apply

    unary = op_table({
        NEG_Q: counted("-", operator.neg),
        INV_Q: counted("inv", lambda u: 1 / u if u else None),
    })
    binary = op_table({ADD_Q: counted("+", operator.add), MUL_Q: counted("*", operator.mul)})

    def leaf(t):
        return t.value if type(t) is RatLit else Fraction(2)

    # At x = 2 each level is t * -2 + t = -t.  Twelve levels have 4096
    # paths, so a fold that walked paths would count thousands.
    value = fold(_ladder(X_Q, 12, q_neg(X_Q)), leaf, unary, binary)
    assert value == 2
    assert calls == {"+": 12, "*": 12, "-": 1}
    # A shared undefined node is reused as undefined, not folded again.
    calls.clear()
    zero = q_inv(q_add(X_Q, q_neg(X_Q)))
    value = fold(_ladder(zero, 12), leaf, unary, binary)
    assert value is None
    assert calls == {"+": 1, "-": 1, "inv": 1}


def test_only_fold_reads_reference_counts():
    """Sharing is detected in one walk: every other walk of a term is a
    fold, so no other module reads CPython's reference counts."""
    package = Path(microcas.__file__).parent
    readers = sorted(p.name for p in package.glob("*.py") if "getrefcount" in p.read_text())
    assert readers == ["terms.py"]


def test_same_term_compares_each_pair_of_shared_nodes_once():
    a, b, c = _ladder(X_Q, 60), _ladder(X_Q, 60), _ladder(q_lit(1), 60)
    distinct = a is not b and a.fun.arg.fun.arg is not b.fun.arg.fun.arg
    verdicts = same_term(a, b), same_term(a, c)
    assert distinct
    assert verdicts == (True, False)


def test_repr_of_a_shared_ladder_is_cut_short():
    # 60 levels have 2^60 paths; a repr that wrote each path out would
    # never end.  The repr is the s-expression, cut.
    t = _ladder(X_Q, 60)
    t0 = time.monotonic()
    text = repr(t)
    elapsed = time.monotonic() - t0
    assert text == to_sexpr(t, REPR_LIMIT)
    assert len(text) == REPR_LIMIT + 3 and text.endswith("...")
    assert text.startswith("(app (app (const + (rat -> (rat -> rat))) (app (app (const *")
    assert elapsed < 0.5
    # Short terms show whole, and so do values that hold terms.
    assert repr(q_add(X_Q, q_lit(1))) == "(app (app (const + (rat -> (rat -> rat))) (var x rat)) (rat 1))"
    assert repr(TermV(IntLit(2))) == "TermV(term=(int 2))"
    assert repr(App(IntLit(1), 5)) == "<App with no s-expression>"
    small = q_mul(X_Q, q_lit(2))
    whole = to_sexpr(small)
    assert to_sexpr(small, len(whole)) == whole
    assert to_sexpr(small, len(whole) - 1) == whole[:-1] + "..."


# Each operator constructor of the three languages, with its operator
# and arity as the signature declares them.
_CONSTRUCTORS = [
    ("rational", "q_add", "ADD_Q", 2), ("rational", "q_mul", "MUL_Q", 2),
    ("rational", "q_neg", "NEG_Q", 1), ("rational", "q_inv", "INV_Q", 1),
    ("differentiation", "r_add", "ADD_R", 2), ("differentiation", "r_mul", "MUL_R", 2),
    ("differentiation", "r_sub", "SUB_R", 2), ("differentiation", "r_pow", "POW_R", 2),
    ("differentiation", "r_neg", "NEG_R", 1), ("differentiation", "r_inv", "INV_R", 1),
    ("differentiation", "r_exp", "EXP_R", 1), ("differentiation", "r_ln", "LN_R", 1),
    ("differentiation", "r_sin", "SIN_R", 1), ("differentiation", "r_cos", "COS_R", 1),
    ("differentiation", "r_tan", "TAN_R", 1),
    ("factoring", "i_add", "ADD_I", 2), ("factoring", "i_mul", "MUL_I", 2),
    ("factoring", "i_pow", "POW_I", 2), ("factoring", "i_neg", "NEG_I", 1),
]


@pytest.mark.parametrize("module, name, op_name, arity", _CONSTRUCTORS, ids=[c[1] for c in _CONSTRUCTORS])
def test_constructors_build_the_registered_operator(module, name, op_name, arity):
    make = getattr(importlib.import_module(f"microcas.{module}"), name)
    op = getattr(microcas.terms, op_name)
    assert register_constant(op.symbol, op.ty) is op
    a, b = Var("a", op.ty.dom), Var("b", op.ty.dom)
    if arity == 2:
        t = make(a, b)
        assert type(t) is App and type(t.fun) is App
        assert t.fun.fun is op and t.fun.arg is a and t.arg is b
    else:
        t = make(a)
        assert type(t) is App and t.fun is op and t.arg is a
    assert infer_type(t) is op.ty.dom


def test_builder_refuses_what_is_not_a_registered_operator():
    for c in (Const("frob", Arrow(REAL, REAL)), Const("+", Arrow(RAT, INT)), register_constant("X", FRAC)):
        with pytest.raises(ValueError):
            builder(c)


@pytest.mark.parametrize("c", [0, 7, -3, Fraction(2, 3), 2**300])
def test_literal_constructors_are_the_literal_classes(c):
    q, r = q_lit(c), r_lit(c)
    assert (type(q), type(r)) == (RatLit, RealLit)
    assert q == RatLit(Fraction(c)) and r == RealLit(Fraction(c))
    assert type(q.value) is Fraction and type(r.value) is Fraction
    assert q.value == c and r.value == c
