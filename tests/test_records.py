"""The kernel's immutable classes: types, terms, values and records.

Each is a plain ``__slots__`` class.  Its fields are set once; two
instances of one class are equal when their fields are, and equal ones
hash alike; the repr is the one a dataclass with the same fields prints
(terms and types print their own); copies and pickles are rebuilt
through the constructor.  A type, a variable and a constant are one
object each, which copies and pickles return.  ``==``, ``hash``,
copies and pickles of terms run on explicit stacks, so a term's depth is
bounded by memory only.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import microcas
from microcas import harness, parse, terms, to_infix, to_json, to_sexpr
from microcas.differentiation import (
    X_R,
    DiffCheckReport,
    DiffViolation,
    DomainPoint,
    DomainReport,
    RealProgram,
    RealResult,
    check_spec_diff,
    compile_real,
    domain_sample,
    eval_real,
    r_add,
    r_inv,
    r_lit,
    r_sin,
)
from microcas.factoring import PrimeFactorization, factor_int
from microcas.harness import BranchTally, GenConfig, Report
from microcas.polynomials import ONE, ZERO, Poly
from microcas.rational import (
    ADD_Q, X_Q, CanonicalFraction, RatProgram, compile_rat, frac_value, norm_rat_expr, q_add, q_inv, q_lit, q_mul,
)
from microcas.terms import (
    ADD_I,
    FRAC,
    INT,
    RAT,
    REAL,
    SYNTAX,
    App,
    Arrow,
    BaseType,
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
    Record,
    TermV,
    Var,
    literal_value,
    quote,
)

_F = Lambda("x", RAT, q_inv(q_add(X_Q, q_lit(1))))


def _frozen() -> list:
    """One instance of each immutable class."""
    return [
        IntLit(3), RatLit(Fraction(1, 2)), RealLit(Fraction(3, 2)), Var("x", RAT),
        Const("+", Arrow(RAT, Arrow(RAT, RAT))),
        q_add(X_Q, q_lit(1)), _F, Quote(X_Q),
        INT, Arrow(RAT, RAT),
        IntV(3), RatV(Fraction(1, 2)), FracV(frac_value(q_inv(X_Q))), FnQQ(_F), TermV(IntLit(2)),
        frac_value(_F.body), compile_rat(_F.body), factor_int(-360),
        eval_real(r_sin(X_R), 0.5), compile_real(r_sin(X_R)),
        DiffViolation(0.5, 1.0, None), DomainPoint(0.5, True), domain_sample(r_inv(X_R), -1, 1, 3),
        GenConfig(seed=3, cases=20),
        check_spec_diff(r_sin(X_R), [0.25, 0.5]), BranchTally("value-agreement", 2, 1, "(int 1)"),
        Report("factor", 0, (BranchTally("value-agreement", 1, 0, None),)),
    ]


def _record_classes() -> set:
    """Every record class of the package, found after importing each of
    its modules, but the abstract bases."""
    for module in pkgutil.iter_modules(microcas.__path__):
        if module.name != "__main__":
            importlib.import_module(f"microcas.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("microcas."):
                found.add(cls)
    return found - {terms._Interned, terms._Term, terms._Literal, terms._Tree}


def test_every_class_is_covered_and_has_no_instance_dict():
    objs = _frozen()
    assert len({type(o) for o in objs}) == len(objs)
    assert {type(o) for o in objs} == _record_classes()
    assert not hasattr(terms, "MutableRecord")
    for cls in _record_classes():  # every record is frozen
        assert cls.__setattr__ is Record.__setattr__ and cls.__delattr__ is Record.__delattr__, cls.__name__
        assert cls.__hash__ is not None, cls.__name__
    for obj in objs:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


# The records that take their fields as they are, through Record's own
# constructor.
_PLAIN = [
    IntV, RatV, FracV, FnQQ, TermV, RealResult, RealProgram, RatProgram, DiffViolation, DomainReport,
    DiffCheckReport, BranchTally, Report,
]


@pytest.mark.parametrize("cls", _PLAIN, ids=lambda c: c.__name__)
def test_a_plain_record_takes_exactly_its_fields(cls):
    assert "__init__" not in vars(cls)
    n = len(cls._fields)
    obj = cls(*range(n))
    assert [getattr(obj, f) for f in cls._fields] == list(range(n))
    for wrong in (n - 1, n + 1):
        with pytest.raises(TypeError):
            cls(*range(wrong))


# -- one object per type and per registered operator -------------------------


def _canonical() -> list:
    return [INT, RAT, FRAC, REAL, SYNTAX, Arrow(RAT, Arrow(INT, INT)), *terms._CONSTANTS.values()]


def test_types_and_registered_constants_are_one_object_each():
    assert Arrow(RAT, RAT) is Arrow(RAT, RAT) and BaseType("rat") is RAT
    assert Const("+", Arrow(INT, Arrow(INT, INT))) is ADD_I
    assert Const("+", Arrow(RAT, Arrow(RAT, RAT))) is ADD_Q
    for cls in (BaseType, Arrow):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    assert not hasattr(terms, "op_entry")
    for obj in _canonical():
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) is obj, (obj, protocol)


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1, max_size=3), st.sampled_from([INT, RAT, REAL, SYNTAX, Arrow(REAL, REAL)]))
def test_every_constant_and_variable_is_one_object(name, ty):
    for make in (Var, Const):
        obj = make(name, ty)
        assert make(name, ty) is obj and obj == make(name, ty) and hash(obj) == object.__hash__(obj)
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) is obj, (obj, protocol)
    assert Var(name, ty) != Const(name, ty)


def test_constants_and_variables_compare_by_identity_alone():
    for cls in (Var, Const):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    for gone in ("_const", "_read_literal", "type_name", "_Type"):
        assert not hasattr(terms, gone), gone
    made = len(terms._Interned._made)
    with pytest.raises(ValueError):
        Var("", RAT)
    assert len(terms._Interned._made) == made
    # A real literal is a RealLit, and no registered constant is REAL.
    assert type(r_lit(2)) is RealLit and r_lit(2) == r_lit(Fraction(2)) and r_lit(2) != IntLit(2)
    assert all(c.ty is not REAL for c in terms._CONSTANTS.values())


@pytest.mark.parametrize("obj", _frozen(), ids=lambda o: type(o).__name__)
def test_fields_cannot_be_assigned_or_deleted(obj):
    for name in type(obj)._fields:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("obj", _frozen(), ids=lambda o: type(o).__name__)
def test_copies_and_pickles_are_equal(obj):
    for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(other) is type(obj)
        assert other == obj and obj == other and not other != obj
        assert hash(other) == hash(obj)


_OWN_REPR = (BaseType, Arrow, IntLit, RatLit, RealLit, Var, Const, App, Lambda, Quote)


@pytest.mark.parametrize(
    "obj", [o for o in _frozen() if not isinstance(o, _OWN_REPR)], ids=lambda o: type(o).__name__
)
def test_the_repr_is_a_dataclass_repr(obj):
    names = type(obj)._fields
    like = dataclasses.make_dataclass(type(obj).__name__, names)
    assert repr(obj) == repr(like(*(getattr(obj, n) for n in names)))


def test_reprs_read_as_before():
    assert repr(IntV(3)) == "IntV(value=3)"
    assert repr(RatV(Fraction(1, 2))) == "RatV(value=Fraction(1, 2))"
    assert repr(GenConfig(seed=3)) == "GenConfig(seed=3, max_depth=6, cases=500)"
    assert repr(factor_int(-360)) == "PrimeFactorization(sign=-1, factors=((2, 3), (3, 2), (5, 1)))"
    assert repr(DomainPoint(0.5, True)) == "DomainPoint(point=0.5, defined=True)"
    assert repr(BranchTally("b", 0, 0, None)) == "BranchTally(name='b', cases=0, failures=0, first_counterexample=None)"
    assert repr(FnQQ(Lambda("x", RAT, X_Q))) == "FnQQ(term=(lam x rat (var x rat)))"
    assert repr(Arrow(RAT, Arrow(INT, INT))) == "(rat -> (int -> int))" and repr(INT) == "int"


def test_validations_are_kept():
    assert RatLit(3).value == Fraction(3) and type(RatLit(3).value) is Fraction
    with pytest.raises(ValueError):
        Var("", RAT)
    with pytest.raises(ValueError):
        GenConfig(seed=-1)
    with pytest.raises(ValueError):
        GenConfig(seed=0, cases=0)
    with pytest.raises(ValueError):
        PrimeFactorization(1, ((4, 1),))
    with pytest.raises(ValueError):
        CanonicalFraction(ONE, Poly([2]))
    with pytest.raises(ZeroDivisionError):
        CanonicalFraction(ONE, ZERO)


def test_a_function_value_lowers_its_body_once(monkeypatch):
    from microcas import rational

    calls = []

    def counting(body):
        calls.append(body)
        return compile_rat(body)

    monkeypatch.setattr(rational, "compile_rat", counting)
    f = FnQQ(_F)
    assert [f(Fraction(k)) for k in (0, 1, 2, -1)] == [Fraction(1), Fraction(1, 2), Fraction(1, 3), None]
    assert len(calls) == 1
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g(Fraction(1)) == Fraction(1, 2) and g(Fraction(3)) == Fraction(1, 4)
    assert len(calls) == 2


# -- equality and hashing of deep and shared terms ----------------------------


def test_a_normal_form_reparses_equal_with_an_equal_hash():
    n = norm_rat_expr(parse("(x + 1)^200", "ratexpr"))
    m = parse(to_infix(n), "ratexpr")
    assert m is not n
    tracemalloc.start()
    try:
        assert m == n and n == m and not m != n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hash(m) == hash(n)
    # The parsed side is a tree of about 20,000 applications, so no pair
    # recurs and the walk keeps no record of the pairs it compared.
    assert peak < 200_000


def _nests(depth: int, bottom) -> list:
    """Terms depth levels deep, with bottom at their deepest leaf: sums
    deep on either side, a sin nest, nested abstractions and nested
    quotations."""
    right = left = nest = body = quoted = bottom
    for _ in range(depth):
        right, left = q_add(X_Q, right), q_add(left, X_Q)
        nest = r_sin(r_add(nest, X_R))
        body = Lambda("x", RAT, body)
        quoted = Quote(quoted)
    return [right, left, nest, body, quoted]


def test_deep_terms_compare_and_hash_without_recursion():
    depth = 3000
    assert depth > sys.getrecursionlimit()
    a, b, c = _nests(depth, q_lit(1)), _nests(depth, q_lit(1)), _nests(depth, q_lit(2))
    for u, v, w in zip(a, b, c):
        assert u == v and hash(u) == hash(v)
        assert u != w and not u == w
        assert quote(u) == quote(v) and hash(quote(u)) == hash(quote(v))


def test_hashes_are_the_hashes_of_the_fields():
    t = q_add(X_Q, q_lit(1))
    assert hash(t) == hash((t.fun, t.arg))
    assert hash(_F) == hash(("x", RAT, _F.body))
    x = Var("x", RAT)
    assert hash(IntLit(3)) == hash((3,)) and hash(x) == object.__hash__(x)
    assert hash(IntV(3)) == hash((3,)) and hash(GenConfig(seed=1)) == hash((1, 6, 500))


def _ladder(levels: int):
    """t <- t * x + t, levels times: 2^levels paths over four
    applications a level."""
    t = X_Q
    for _ in range(levels):
        t = q_add(q_mul(t, X_Q), t)
    return t


def test_a_shared_ladder_hashes_in_linear_time():
    t0 = time.monotonic()
    a, b = _ladder(60), _ladder(60)
    assert hash(a) == hash(b) and a == b and a != _ladder(59)
    assert time.monotonic() - t0 < 0.5


def _copies(t) -> list:
    return [copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)), pickle.loads(pickle.dumps(t, 0))]


def test_deep_terms_copy_and_pickle_without_recursion():
    depth = 3000
    assert depth > sys.getrecursionlimit()
    for t in _nests(depth, q_lit(1)):
        assert copy.copy(t) is t  # a term is immutable
        for other in _copies(t)[1:]:
            assert type(other) is type(t) and other is not t
            assert other == t and hash(other) == hash(t)
    for t in _frozen():
        if isinstance(t, terms._Term):
            assert copy.copy(t) is t, type(t).__name__
    right = _nests(depth, q_lit(1))[0]
    assert pickle.loads(pickle.dumps(right)).fun.fun is ADD_Q


def _distinct(t) -> int:
    """The number of distinct objects among t's nodes."""
    seen, todo = set(), [t]
    while todo:
        u = todo.pop()
        if id(u) not in seen:
            seen.add(id(u))
            if type(u) is App:
                todo += (u.fun, u.arg)
    return len(seen)


def test_copies_and_pickles_keep_the_sharing():
    t = _ladder(60)
    assert _distinct(t) == 4 * 60 + 3  # with x, + and *
    for other in _copies(t):
        assert _distinct(other) == _distinct(t) and other == t


# -- == against a field-by-field comparison written here ---------------------

_FIELDS = {
    IntLit: ("value",), RatLit: ("value",), RealLit: ("value",), Var: ("name", "ty"), Const: ("symbol", "ty"),
    App: ("fun", "arg"), Lambda: ("var", "var_ty", "body"), Quote: ("term",),
    BaseType: ("name",), Arrow: ("dom", "cod"),
}
_SUBTERMS = {App: ("fun", "arg"), Lambda: ("body",), Quote: ("term",)}


def _same_fields(a, b) -> bool:
    """Equality read field by field on a stack of pairs: node classes by
    their fields, and everything else (ints, fractions, strings) by
    Python's ==."""
    todo = [(a, b)]
    while todo:
        u, v = todo.pop()
        if type(u) is not type(v):
            return False
        names = _FIELDS.get(type(u))
        if names is None:
            if u != v:
                return False
        else:
            todo += [(getattr(u, n), getattr(v, n)) for n in names]
    return True


def _other_leaf(u, delta: int):
    """A new leaf: equal to u when delta is 0, else differing from it in
    one field."""
    if type(u) in (IntLit, RatLit, RealLit):
        return type(u)(u.value + delta)
    name = u.name if type(u) is Var else u.symbol
    if delta > 0:
        name += "'"
    return type(u)(name, u.ty if delta >= 0 else Arrow(u.ty, u.ty))


def _with_leaf(t, k: int, delta: int):
    """t rebuilt with its k-th leaf (in preorder) replaced by
    ``_other_leaf``, and the number of leaves.  The bound variable of an
    abstraction counts as a leaf too."""
    seen = 0

    def walk(u):
        nonlocal seen
        if type(u) is Lambda:
            seen += 1
            if seen - 1 == k:
                bound = _other_leaf(Var(u.var, u.var_ty), delta)
                return Lambda(bound.name, bound.ty, walk(u.body))
        if type(u) in _SUBTERMS:
            return type(u)(*[walk(getattr(u, n)) if n in _SUBTERMS[type(u)] else getattr(u, n)
                             for n in _FIELDS[type(u)]])
        seen += 1
        return _other_leaf(u, delta) if seen - 1 == k else u

    out = walk(t)
    return out, seen


_DRAWS = {
    "numeral": harness.draw_numeral, "int": harness.draw_int_expr, "closed-rat": harness.draw_closed_rat,
    "ratexpr": harness.draw_rat_expr, "ratfun": harness.draw_rat_fun, "diffexpr": harness.draw_diff_expr,
}


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(_DRAWS)), st.integers(0, 2**32 - 1), st.integers(0, 10**6), st.integers(-1, 1),
    st.booleans(),
)
def test_equality_agrees_with_a_field_by_field_comparison(lang, seed, k, delta, quoted):
    t = _DRAWS[lang](random.Random(seed), GenConfig(seed=0))
    if quoted:
        t = quote(t)
    _, leaves = _with_leaf(t, -1, 0)
    u, _ = _with_leaf(t, k % leaves, delta)
    same = _same_fields(t, u)
    assert same is (delta == 0)
    assert (t == u) is same and (u == t) is same and (t != u) is not same
    if same:
        assert hash(t) == hash(u)
    assert t == copy.deepcopy(t) and hash(t) == hash(copy.deepcopy(t))


# -- the text of a real literal ----------------------------------------------


def test_a_real_literal_is_the_text_of_its_fraction():
    for c in (0, 1, -1, 7, -12, 10**40, -(10**40), True, False, Fraction(3, 4), Fraction(-6, 8), Fraction(5),
              0.5, -0.25, "3/4"):
        assert r_lit(c) == RealLit(Fraction(c)), c
        assert to_sexpr(r_lit(c)) == f"(const {Fraction(c)} real)", c
    # A value past the int/str digit limit is kept; only its text fails.
    for c in (10**5000, Fraction(10**5000, 3)):
        assert literal_value(r_lit(c)) == c
        with pytest.raises(ValueError):
            to_sexpr(r_lit(c))


@settings(max_examples=300, deadline=None)
@given(st.fractions())
def test_a_real_literal_prints_and_reads_as_its_value(c):
    t = r_lit(c)
    assert to_sexpr(t) == f"(const {c} real)"
    assert to_json(t) == f'{{"node": "const", "symbol": "{c}", "type": "real"}}'
    assert literal_value(t) == c and type(literal_value(t)) is Fraction
    assume(c >= 0)
    assert parse(to_infix(t), "diffexpr") == t
