"""Syntax trees, semantic types, and the quote/eval bridge between them.

The kernel keeps two worlds strictly apart.  Terms (``SynTerm``) are
plain immutable trees: they are compared structurally, they carry no
values, and nothing stops you from building an ill-typed one such as
``App(Var("x", RAT), Var("x", RAT))``.  Values (``Value``) live on the
host side: integers, exact rationals, reduced fractions of polynomials,
rational functions, and terms-as-data.

Types, terms and values, and the records of the other modules (the
contract reports among them), are ``Record`` classes: plain
``__slots__`` classes whose fields are set once, when the value is
built.  Each type, variable and constant is one object, which its
constructor, copies and pickles return, so ``==`` and ``hash`` on it
are identity.  A literal (``IntLit``, ``RatLit``, ``RealLit``) holds its
exact value, read once when the node is built, and compares by class
and value.  The other terms compare structurally, on explicit stacks,
and a composite term keeps its hash once computed.

``quote`` wraps a term so it can be handled as data of type SYNTAX.
``eval_as`` goes the other way: given a quotation and a target type it
returns the value the quoted term stands for, or None when the term
does not have that type or the value does not exist.  Evaluation is a
host-level operation; there is no evaluation node in the term language,
so every term is trivially evaluation-free.

The one signature of the term languages is declared here: every typed
operator constant of the integer, rational and real languages, the
variable x of each expression language, and the literal classes with
``literal_value``, the one reader of a literal of any language.  The
term constructors come from it: ``builder(op)`` is the constructor of
op's applications, its arity read off op's registered type, and a
literal's constructor is its class.  The evaluator of each type but
SYNTAX is registered by the module that owns it (factoring the
integers; rational the rationals, the field of fractions and the
rational functions), and ``eval_as`` loads that module the first time
a term is read at the type, so nothing needs importing beforehand.  Membership tests, exact values and the
lowerings to straight-line code (with ``Steps``) are computed bottom-up
with ``fold``, the one walk with the one strictness rule: an undefined
operand makes its whole term undefined.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from importlib import import_module
from sys import getrefcount
from typing import Callable, Optional, Union

# Writes a field of a frozen instance, from its __init__.
_set = object.__setattr__


class Record:
    """Base of the immutable classes: types, terms, values, and the
    records of the other modules.

    A subclass lists its fields as its ``__slots__`` (or as ``_fields``,
    where a further slot caches something).  ``Name(*values)`` sets them
    once, in order, and raises TypeError on a wrong count; a class that
    checks its fields or has defaults writes its own ``__init__``.
    Assigning or deleting an attribute afterwards raises AttributeError.
    Two instances of the same class are equal when their fields are, and
    equal instances hash alike; the repr is ``Name(field=value, ...)``;
    ``copy`` and ``pickle`` rebuild an instance through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}, given {len(values)} values")
        for name, value in zip(fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class _Interned(Record):
    """Base of the types, variables and constants: one object per class
    and fields, so ``==`` and ``hash`` are identity.  The constructor
    returns the one object of its fields, and ``copy``, ``deepcopy`` and
    ``pickle`` go through it.  The table keeps every object built; the
    signature's are built at import, so it costs nothing at run time."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __init__ = object.__init__  # __new__ sets the fields
    _made: dict[tuple, _Interned] = {}  # every object built, by its class and fields

    def __new__(cls, *values):
        obj = cls._made.get((cls, values))
        if obj is None:
            obj = object.__new__(cls)
            Record.__init__(obj, *values)
            obj = cls._made.setdefault((cls, values), obj)  # one winner if threads race
        return obj


# ---------------------------------------------------------------------------
# semantic types


class BaseType(_Interned):
    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name

    __repr__ = __str__


class Arrow(_Interned):
    __slots__ = ("dom", "cod")

    def __str__(self) -> str:
        return f"({self.dom} -> {self.cod})"

    __repr__ = __str__


SemType = Union[BaseType, Arrow]

INT = BaseType("int")  # integers
RAT = BaseType("rat")  # exact rationals
FRAC = BaseType("frac")  # field of fractions of polynomials over the rationals
REAL = BaseType("real")  # reals (evaluated pointwise, never as a Value)
SYNTAX = BaseType("syntax")  # terms as data


# ---------------------------------------------------------------------------
# terms

# Characters of s-expression a term's repr shows before it is cut.  A
# repr of the fields would write a shared subterm out once per path.
REPR_LIMIT = 200


class _Term(Record):
    """Base of the term classes, for their repr: the s-expression, cut
    at REPR_LIMIT characters.  A term is immutable, so ``copy.copy``
    returns it."""

    __slots__ = ()

    def __copy__(self) -> _Term:
        return self

    def __repr__(self) -> str:
        from .printing import to_sexpr

        try:
            return to_sexpr(self, REPR_LIMIT)
        except ValueError:  # an operand that is no term, or an int past the digit limit
            return f"<{type(self).__name__} with no s-expression>"


class _Tree(_Term):
    """Base of the term classes whose fields hold terms: applications,
    abstractions and quotations.  ``==`` is identity, then ``same_term``;
    the hash is that of the fields, kept in the ``_hash`` slot; a deep
    copy or pickle is a table of the distinct nodes.  None of them
    recurses."""

    __slots__ = ()

    def __eq__(self, other: object):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return same_term(self, other)

    def __hash__(self) -> int:
        # The nodes below that have no hash yet are hashed first,
        # children before parents, on an explicit stack.
        try:
            return self._hash
        except AttributeError:
            pass
        todo = [self]
        while todo:
            node = todo[-1]
            fields = node._values()
            deeper = [c for c in fields if type(c) in _TREES and not hasattr(c, "_hash")]
            if deeper:
                todo += deeper
            else:
                _set(todo.pop(), "_hash", hash(fields))
        return self._hash

    def __reduce__(self) -> tuple:
        # The term's distinct objects, each after its fields and the term
        # last: a node of these classes as (class, i, ...), with i, ...
        # the places of its fields, and any other object as (object,).
        at: dict[int, int] = {}  # id of an object to its place in the table
        table, todo = [], [self]
        while todo:
            node = todo.pop()
            fields = node._values() if type(node) in _TREES else ()
            new = [f for f in fields if id(f) not in at]
            if new:
                todo += (node, *new)
            elif id(node) not in at:
                at[id(node)] = len(table)
                table.append((type(node), *[at[id(f)] for f in fields]) if fields else (node,))
        return _rebuild, (table,)


class _Literal(_Term):
    """Base of the literal classes, whose one field is the exact value,
    read when the node is built: two literals are equal when their
    classes and values are.  A rational or real literal's value is a
    Fraction."""

    __slots__ = ()

    def __init__(self, value: Fraction) -> None:
        _set(self, "value", value if type(value) is Fraction else Fraction(value))

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value,))


class IntLit(_Literal):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        _set(self, "value", value)


class RatLit(_Literal):
    __slots__ = ("value",)


class RealLit(_Literal):
    """A rational constant of the real language."""

    __slots__ = ("value",)


class Var(_Term, _Interned):
    __slots__ = ("name", "ty")

    def __new__(cls, name: str, ty: SemType) -> Var:
        if not name:
            raise ValueError("variable name must be nonempty")
        return _Interned.__new__(cls, name, ty)


class Const(_Term, _Interned):
    """A symbol of the signature: an operator constant, typed by
    ``infer_type`` only when it is registered.  Folds match operators by
    identity."""

    __slots__ = ("symbol", "ty")


class App(_Tree):
    __slots__ = ("fun", "arg", "_hash")
    _fields = ("fun", "arg")

    def __init__(self, fun: SynTerm, arg: SynTerm) -> None:
        _set(self, "fun", fun)
        _set(self, "arg", arg)


class Lambda(_Tree):
    __slots__ = ("var", "var_ty", "body", "_hash")
    _fields = ("var", "var_ty", "body")

    def __init__(self, var: str, var_ty: SemType, body: SynTerm) -> None:
        _set(self, "var", var)
        _set(self, "var_ty", var_ty)
        _set(self, "body", body)


class Quote(_Tree):
    __slots__ = ("term", "_hash")
    _fields = ("term",)

    def __init__(self, term: SynTerm) -> None:
        _set(self, "term", term)


SynTerm = Union[IntLit, RatLit, RealLit, Var, Const, App, Lambda, Quote]
_TREES = (App, Lambda, Quote)  # the term classes whose fields hold terms


def _rebuild(table: list[tuple]) -> SynTerm:
    """The term a ``_Tree.__reduce__`` table lists, built in one loop."""
    nodes: list = []
    for kind, *fields in table:
        nodes.append(kind(*[nodes[i] for i in fields]) if fields else kind)
    return nodes[-1]


# ---------------------------------------------------------------------------
# values


class IntV(Record):
    __slots__ = ("value",)  # an int


class RatV(Record):
    __slots__ = ("value",)  # a Fraction


class FracV(Record):
    __slots__ = ("value",)  # a rational.CanonicalFraction


class FnQQ(Record):
    """A rational function, carried as the Lambda term that denotes it.

    Calling it evaluates the body at a point exactly; the body is
    lowered by ``rational.compile_rat`` once, on the first call, and the
    program is kept in the ``_program`` slot.  Equality, hashing, copies
    and pickles read the term only.
    """

    __slots__ = ("term", "_program")
    _fields = ("term",)

    def __call__(self, a: Fraction) -> Optional[Fraction]:
        try:
            program = self._program
        except AttributeError:
            from .rational import compile_rat

            program = compile_rat(self.term.body)
            _set(self, "_program", program)
        return program(a)


class TermV(Record):
    __slots__ = ("term",)


Value = Union[IntV, RatV, FracV, FnQQ, TermV]

# ---------------------------------------------------------------------------
# constant signature and evaluator registry

_CONSTANTS: dict[tuple[str, SemType], Const] = {}
_EVALUATORS: dict[SemType, Callable[[SynTerm], Optional[Value]]] = {}


def register_constant(symbol: str, ty: SemType) -> Const:
    """Add a constant to the signature, so ``infer_type`` types it, and
    return its node: the one node that ``Const(symbol, ty)`` and every
    copy and pickle of it return."""
    return _CONSTANTS.setdefault((symbol, ty), Const(symbol, ty))


def builder(op: Const) -> Callable[..., App]:
    """The constructor of op's applications: ``App(op, a)`` for a unary
    operator, ``App(App(op, a), b)`` for a binary one, the arity read off
    op's registered type.  Raises ValueError for a constant that is not
    a registered operator."""
    ty = op.ty
    if _CONSTANTS.get((op.symbol, ty)) is not op or type(ty) is not Arrow:
        raise ValueError(f"not a registered operator: {op!r}")
    if type(ty.cod) is Arrow:
        return lambda a, b: App(App(op, a), b)
    return partial(App, op)


def register_evaluator(ty: SemType, fn: Callable[[SynTerm], Optional[Value]]) -> None:
    """Install the evaluator used by eval_as for terms aimed at ``ty``.

    The evaluator receives the quoted term (already unwrapped) and is
    responsible for its own membership gate; it returns None for
    undefined.
    """
    _EVALUATORS[ty] = fn


# ---------------------------------------------------------------------------
# the signature: the operator constants of the three languages, their
# variables, and the real language's literals

# integer operators
ADD_I: Const = register_constant("+", Arrow(INT, Arrow(INT, INT)))
MUL_I: Const = register_constant("*", Arrow(INT, Arrow(INT, INT)))
POW_I: Const = register_constant("^", Arrow(INT, Arrow(INT, INT)))
NEG_I: Const = register_constant("-", Arrow(INT, INT))

# rational field operators
ADD_Q: Const = register_constant("+", Arrow(RAT, Arrow(RAT, RAT)))
MUL_Q: Const = register_constant("*", Arrow(RAT, Arrow(RAT, RAT)))
NEG_Q: Const = register_constant("-", Arrow(RAT, RAT))
INV_Q: Const = register_constant("inv", Arrow(RAT, RAT))

# operators of the field of fractions itself, registered so terms aimed
# straight at that type check; the artifact never builds them
register_constant("+", Arrow(FRAC, Arrow(FRAC, FRAC)))
register_constant("*", Arrow(FRAC, Arrow(FRAC, FRAC)))
register_constant("-", Arrow(FRAC, FRAC))
register_constant("inv", Arrow(FRAC, FRAC))
register_constant("X", FRAC)

# real operators
_R1 = Arrow(REAL, REAL)
_R3 = Arrow(REAL, Arrow(REAL, REAL))

ADD_R: Const = register_constant("+", _R3)
MUL_R: Const = register_constant("*", _R3)
SUB_R: Const = register_constant("-", _R3)
POW_R: Const = register_constant("^", _R3)
NEG_R: Const = register_constant("-", _R1)
INV_R: Const = register_constant("inv", _R1)
EXP_R: Const = register_constant("exp", _R1)
LN_R: Const = register_constant("ln", _R1)
SIN_R: Const = register_constant("sin", _R1)
COS_R: Const = register_constant("cos", _R1)
TAN_R: Const = register_constant("tan", _R1)

# the concrete names of the real unary operators, read by the parser
# and, inverted, by the printer
FUNCTIONS = {"sin": SIN_R, "cos": COS_R, "tan": TAN_R, "exp": EXP_R, "ln": LN_R, "inv": INV_R}

X_Q = Var("x", RAT)
X_R = Var("x", REAL)


# the rational constant c of the real language, its value Fraction(c)
r_lit = RealLit


def literal_value(t: SynTerm) -> Optional[Fraction]:
    """The exact value of a literal of any of the languages (an integer
    literal, a rational literal, or a rational constant of the real
    language) as a Fraction, else None.  Each literal holds its value,
    so nothing is parsed here."""
    if type(t) is RealLit or type(t) is RatLit:
        return t.value
    if type(t) is IntLit:
        return Fraction(t.value)
    return None


# ---------------------------------------------------------------------------
# quotation and typing


def quote(t: SynTerm) -> Quote:
    """Wrap a term as data.  Injective by construction; terms contain no
    evaluation nodes, so the operand is always evaluation-free."""
    return Quote(t)


def infer_type(t: SynTerm) -> Optional[SemType]:
    """The unique type of ``t`` under the registered signature, or None.

    Variables carry their own types (two variables with the same name
    but different types are simply different variables), so no
    environment is needed and open terms type fine.  A constant has its
    type only when it is registered.  Every distinct node outside a
    quotation is visited, on an explicit stack, so a node that is not a
    term raises TypeError wherever it sits and depth is bounded by
    memory only.  The type of each application and abstraction is kept
    by ``id(node)`` for the call, so a shared subterm is typed once.
    """
    types: list = []
    todo: list = [t]
    pop = todo.pop
    kept: dict[int, Optional[SemType]] = {}
    while todo:
        node = pop()
        if isinstance(node, (App, Lambda)):
            if id(node) in kept:
                types.append(kept[id(node)])
            elif isinstance(node, App):
                todo += (node, _APPLY, node.arg, node.fun)
            else:
                todo += (node, node.var_ty, _ABSTRACT, node.body)
        elif node is _APPLY:
            at = types.pop()
            ft = types[-1]
            ok = isinstance(ft, Arrow) and at is not None and ft.dom == at
            types[-1] = ft.cod if ok else None
            kept[id(pop())] = types[-1]
        elif node is _ABSTRACT:
            var_ty = pop()
            if types[-1] is not None:
                types[-1] = Arrow(var_ty, types[-1])
            kept[id(pop())] = types[-1]
        elif isinstance(node, IntLit):
            types.append(INT)
        elif isinstance(node, RatLit):
            types.append(RAT)
        elif isinstance(node, RealLit):
            types.append(REAL)
        elif isinstance(node, Var):
            types.append(node.ty)
        elif isinstance(node, Const):
            types.append(node.ty if (node.symbol, node.ty) in _CONSTANTS else None)
        elif isinstance(node, Quote):
            types.append(SYNTAX)
        else:
            raise TypeError(f"not a term: {node!r}")
    return types[0]


_APPLY = object()  # on infer_type's work stack, above an application's operands and the application
_ABSTRACT = object()  # above an abstraction's body, its variable type and the abstraction


# ---------------------------------------------------------------------------
# structural helpers shared by every module that walks terms: matching
# one operator at the root, and folding a whole term bottom-up


def match_unary(t: SynTerm, op: Const) -> Optional[SynTerm]:
    """The operand of ``op`` if t == App(op, u), else None."""
    if isinstance(t, App) and t.fun is op:
        return t.arg
    return None


def match_binary(t: SynTerm, op: Const) -> Optional[tuple[SynTerm, SynTerm]]:
    """The operands if t == App(App(op, a), b), else None."""
    if isinstance(t, App) and isinstance(t.fun, App) and t.fun.fun is op:
        return t.fun.arg, t.arg
    return None


# Pairs of applications that same_term compares before it starts to
# record them.  Two trees repeat no pair, so comparing trees of up to
# this many applications keeps no record.
_UNRECORDED_PAIRS = 1 << 16


def same_term(a: SynTerm, b: SynTerm) -> bool:
    """Structural equality of two terms, which ``==`` of an application,
    abstraction or quotation calls: on an explicit stack, so depth is
    bounded by memory only.  A node shared by both sides is equal
    without a walk.  Past the first ``_UNRECORDED_PAIRS`` pairs of
    applications, each distinct pair is recorded and compared once, so
    the walk is linear in the number of distinct pairs even where shared
    subterms make the trees exponentially larger."""
    todo = [(a, b)]
    seen: set[tuple[int, int]] = set()
    unrecorded = _UNRECORDED_PAIRS
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if type(a) is App:
            if unrecorded:
                unrecorded -= 1
            else:
                pair = (id(a), id(b))
                if pair in seen:
                    continue
                seen.add(pair)
            todo += ((a.arg, b.arg), (a.fun, b.fun))
        elif type(a) is Lambda:
            if a.var != b.var or a.var_ty != b.var_ty:
                return False
            todo.append((a.body, b.body))
        elif type(a) is Quote:
            todo.append((a.term, b.term))
        elif a != b:
            return False
    return True


class NotInLanguage(ValueError):
    """A fold met a node outside the language it reads."""


def op_table(ops: dict[Const, Callable]) -> dict[int, Callable]:
    """An operator table for ``fold``: registered constant nodes keyed by
    identity, which costs no structural hash or comparison per node."""
    return {id(c): f for c, f in ops.items()}


_UNARY_STEP = object()  # on fold's work stack, above the operator to apply
_BINARY_STEP = object()
_KEEP = object()  # above an application whose value fold keeps

# What sys.getrefcount reads for a node that a walk has just popped into
# one local name, when one operand slot refers to the node: that slot,
# the local and getrefcount's own argument.  A larger count means another
# referrer, so the walk may reach the node again; the walk's root, which
# its caller holds, it never reaches again.
ONE_REFERRER = 3


def fold(t: SynTerm, leaf: Callable, unary: dict, binary: dict):
    """Fold t bottom-up: App(c, a) with c in ``unary`` is unary[c](a's
    value), App(App(c, a), b) with c in ``binary`` is binary[c](a's value,
    b's value), and every other node is leaf(node).

    Undefinedness is strict, here once for every fold: a None operand
    makes its node None without calling the operator.  Operands are
    visited left to right, on an explicit stack, so term depth is bounded
    by memory only.  ``leaf`` may raise NotInLanguage; the tables come
    from ``op_table``.

    Each distinct application is folded once, so the walk is linear in
    the number of distinct nodes, however often a subterm is shared.
    The value of a node that more than one place refers to is kept by
    ``id(node)`` and reused wherever the walk reaches the node again; a
    node with one referrer, as in a plain tree, keeps nothing.  The
    referrer count only decides what is kept: a node whose value was not
    kept is folded again, to the same value, since operators and
    ``leaf`` must be pure.
    """
    vals: list = []
    todo: list = [t]
    pop = todo.pop
    kept: dict[int, object] = {}
    while todo:
        node = pop()
        if type(node) is App:
            if kept and id(node) in kept:
                vals.append(kept[id(node)])
                continue
            if getrefcount(node) > ONE_REFERRER and node is not t:
                todo += (node, _KEEP)
            f = node.fun
            if type(f) is App:
                op = binary.get(id(f.fun))
                if op is not None:
                    todo += (op, _BINARY_STEP, node.arg, f.arg)
                    continue
            else:
                op = unary.get(id(f))
                if op is not None:
                    todo += (op, _UNARY_STEP, node.arg)
                    continue
            vals.append(leaf(node))
        elif node is _UNARY_STEP:
            op = pop()
            if vals[-1] is not None:
                vals[-1] = op(vals[-1])
        elif node is _BINARY_STEP:
            op = pop()
            b = vals.pop()
            a = vals[-1]
            vals[-1] = None if a is None or b is None else op(a, b)
        elif node is _KEEP:
            kept[id(pop())] = vals[-1]
        else:
            vals.append(leaf(node))
    return vals[0]


class Steps:
    """The steps of a term lowered by one ``fold`` to straight-line code,
    numbered by value.  The fold's values are operand ids: ~k is register
    k (x, or a literal that the caller's leaf has given a register), and
    k >= 0 is step k.  ``emit`` adds the step ``(op, i, j)`` unless that
    triple is already there, and returns its id, so a repeated subterm
    is computed once."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}  # each step, in order, to its id

    def emit(self, op: int, i: int, j=None) -> int:
        return self.ids.setdefault((op, i, j), len(self.ids))

    def table(self, opcodes: dict[int, int]) -> dict[int, Callable]:
        """A fold operator table from an ``op_table`` of opcodes: each
        entry emits its opcode's step."""
        return {c: partial(self.emit, op) for c, op in opcodes.items()}

    def lowered(self, registers: int, last_binary: int) -> tuple:
        """The steps over register numbers, step k writing register
        ``registers + k``.  Opcodes up to ``last_binary`` read registers
        i and j; the others read register i and keep j as it is."""
        return tuple([
            (op, i + registers if i >= 0 else ~i, (j + registers if j >= 0 else ~j) if op <= last_binary else j)
            for op, i, j in self.ids
        ])


# ---------------------------------------------------------------------------
# evaluation

# The module that registers each type's evaluator, loaded by eval_as the
# first time a term is read at that type.
_EVALUATOR_MODULES = {
    INT: ".factoring", RAT: ".rational", FRAC: ".rational", Arrow(RAT, RAT): ".rational",
}


def eval_as(t: SynTerm, ty: SemType) -> Optional[Value]:
    """Value of the term quoted inside ``t``, read at type ``ty``.

    ``t`` must be a quotation (anything else is a caller error, not an
    undefined result).  Returns None when the quoted term is not an
    expression of the requested type, or when it has no value there
    (free variables, inverse of zero, ...).  For FRAC and RAT->RAT the
    registered evaluators accept rational-expression syntax, where the
    variable x is read as the indeterminate rather than a free variable.
    """
    if not isinstance(t, Quote):
        raise ValueError("eval_as needs a quotation")
    b = t.term
    fn = _EVALUATORS.get(ty)
    if fn is None and ty in _EVALUATOR_MODULES:
        import_module(_EVALUATOR_MODULES[ty], __package__)  # it registers the evaluator
        fn = _EVALUATORS[ty]
    if fn is not None:
        return fn(b)
    if ty == SYNTAX and isinstance(b, Quote):
        return TermV(b.term)
    return None
