"""Pretty-printers: infix (parse-exact), s-expression, and JSON.

The infix printer inverts the parser: for any term the parser can
produce, parse(to_infix(t), lang) is structurally equal to t.  It
leans on the types the operator constants carry, so no language
argument is needed.  The conventions that make the inversion exact:

* rational-language power chains a*(a*...*a) print as a^n, and an
  inverse prints as a^-n, matching how the parser expands '^';
* a * inv(b) prints as a / b, except when both sides are literals of
  nonzero value: there "a / b" would re-fold into one literal, so the
  inverse is spelled out;
* real-language subtraction is its own operator, so a sum whose right
  side is a negation prints "a + -b" (the rational and integer
  languages print "a - b", which is how their parser spells that tree);
* real-language inverses print as inv(u), because "u^-1" already means
  a power node there.

Negative literal leaves (IntLit(-5) and friends) have no spelling of
their own; they print with a minus sign and re-parse as a negation
applied to the positive literal.  Canonical constructors and the
generators never produce them.

to_sexpr and to_json are total on syntax trees and keep every node;
both are stable serializations intended for tooling, not reparsing.

All three are one driver, ``_write``, over a layout per format: a
node's layout is the precedence level its text parses at and a list
of pieces, each a string or a (subterm, level) slot.  The driver
expands slots top-down on an explicit stack and parenthesizes a
subterm whose level is below its slot's, so depth is bounded by memory
only.

The printers write a shared subterm out once per path, as the parser
would read it back, so text grows with the tree, not the DAG.  What
they compute about a subterm is computed once per distinct node: each
``to_infix`` call keeps the length of every power chain it reads, by
the identities of its base and rest, so printing the shared chains of
a rendered polynomial reads each link once, and operands are compared
with ``==``, which checks identity first.
"""

from __future__ import annotations

from typing import Callable, Optional

from .terms import (
    ADD_I,
    ADD_Q,
    ADD_R,
    FUNCTIONS,
    INV_Q,
    INV_R,
    MUL_I,
    MUL_Q,
    MUL_R,
    NEG_I,
    NEG_Q,
    NEG_R,
    POW_I,
    POW_R,
    RAT,
    REAL,
    SUB_R,
    App,
    Const,
    IntLit,
    Lambda,
    Quote,
    RatLit,
    RealLit,
    SynTerm,
    Var,
    literal_value,
    match_binary,
    match_unary,
    op_table,
)

_ATOM = 5
_POWER = 4
_UNARY = 3
_TERM = 2
_EXPR = 1

Layout = tuple[int, list]


def _write(layout: Callable[[SynTerm, dict], Layout], pieces: list, limit: int = 0) -> str:
    """The text of pieces, left to right: a string as it is, a slot as
    its subterm's layout, in parentheses below the slot's level.  Every
    layout call gets the same dict, which lives for this one call, for
    what a layout learns about shared subterms.  A positive ``limit``
    cuts the text: once it is longer than that, the walk stops and the
    first ``limit`` characters are returned with "..." after them."""
    out: list[str] = []
    memo: dict = {}
    todo = pieces[::-1]
    size = 0
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            if limit:
                size += len(item)
                if size > limit:
                    return "".join(out)[:limit] + "..."
            continue
        node, level = item
        have, parts = layout(node, memo)
        if have < level:
            todo += (")", *parts[::-1], "(")
        else:
            todo += parts[::-1]
    return "".join(out)


# ---------------------------------------------------------------------------
# infix


def to_infix(t: SynTerm) -> str:
    """Concrete syntax for t; the parser maps it back to t exactly.

    Raises ValueError on trees with no infix form (quotations, bare
    operator constants, abstractions below the top level), and Python's
    own ValueError on a literal with more decimal digits than it
    converts to text (``sys.get_int_max_str_digits()``, 4300 by
    default); the CLI maps the latter to its resource-limit exit code, 5.
    """
    if isinstance(t, Lambda):
        if t.var != "x":
            raise ValueError("only functions of x have an infix form")
        return _write(_infix, ["fun x -> ", (t.body, 0)])
    return _write(_infix, [(t, 0)])


def _infix(t: SynTerm, chains: dict) -> Layout:
    """t's infix layout; ``chains`` holds the power-chain lengths this
    ``to_infix`` call has read (see ``_as_power_chain``)."""
    if type(t) is App:
        f = t.fun
        if type(f) is App:
            make = _INFIX_BINARY.get(id(f.fun))
            if make is not None:
                return make(f.arg, t.arg, chains)
        else:
            make = _INFIX_UNARY.get(id(f))
            if make is not None:
                return make(t.arg, chains)
        # Name the operator only, not the subtree it heads.
        head = f.fun if type(f) is App else f
        name = repr(head.symbol) if isinstance(head, Const) else type(head).__name__
        raise ValueError(f"no infix form for the operator {name}")
    v = literal_value(t)
    if v is not None:
        if v.denominator != 1:
            return _TERM, [str(v)]
        return (_ATOM if v >= 0 else _UNARY), [str(v)]
    if isinstance(t, Var):
        # Only the distinguished variable of the two expression languages
        # has a concrete spelling the parser will read back.
        if t.name == "x" and t.ty in (RAT, REAL):
            return _ATOM, ["x"]
        raise ValueError(f"no infix form for the variable {t.name!r}")
    if isinstance(t, Const):
        raise ValueError(f"no infix form for a bare operator {t.symbol!r}")
    if isinstance(t, (Lambda, Quote)):
        raise ValueError("no infix form inside an expression")
    raise ValueError(f"no infix form for {t!r}")


def _sum(neg: Optional[Const]) -> Callable[[SynTerm, SynTerm, dict], Layout]:
    """a + b, or a - u for b = -u where the language spells '-' as sugar."""

    def layout(a: SynTerm, b: SynTerm, chains: dict) -> Layout:
        u = match_unary(b, neg) if neg is not None else None
        if u is not None:
            return _EXPR, [(a, _EXPR), " - ", (u, _TERM)]
        return _EXPR, [(a, _EXPR), " + ", (b, _TERM)]

    return layout


def _product(inv: Optional[Const]) -> Callable[[SynTerm, SynTerm, dict], Layout]:
    """a * b, or a / d for b = inv(d) unless both are literals that
    "a / d" would fold into one."""

    def layout(a: SynTerm, b: SynTerm, chains: dict) -> Layout:
        d = match_unary(b, inv) if inv is not None else None
        if d is not None:
            dv = literal_value(d)
            if literal_value(a) is None or not dv:
                return _TERM, [(a, _TERM), " / ", (d, _UNARY)]
        return _TERM, [(a, _TERM), " * ", (b, _UNARY)]

    return layout


_rat_quotient = _product(INV_Q)


def _rat_product(a: SynTerm, b: SynTerm, chains: dict) -> Layout:
    n = _as_power_chain(a, b, chains)
    if n is not None:
        return _POWER, [(a, _ATOM), f"^{n}"]
    return _rat_quotient(a, b, chains)


def _rat_inverse(u: SynTerm, chains: dict) -> Layout:
    parts = match_binary(u, MUL_Q)
    n = _as_power_chain(*parts, chains) if parts is not None else None
    if n is None:
        return _POWER, [(u, _ATOM), "^-1"]
    return _POWER, [(parts[0], _ATOM), f"^-{n}"]


def _power(base: SynTerm, exponent: SynTerm, chains: dict) -> Layout:
    c = literal_value(exponent)
    if c is None:
        raise ValueError("no infix form for a power with a compound exponent")
    return _POWER, [(base, _ATOM), f"^{c}" if c.denominator == 1 else f"^({c})"]


def _negation(u: SynTerm, chains: dict) -> Layout:
    return _UNARY, ["-", (u, _UNARY)]


def _call(name: str) -> Callable[[SynTerm, dict], Layout]:
    return lambda u, chains: (_ATOM, [f"{name}(", (u, 0), ")"])


def _as_power_chain(base: SynTerm, rest: SynTerm, chains: dict) -> Optional[int]:
    """The number of factors if base * rest is base*(base*(...*base)),
    the shape integer powers expand to in the rational language.

    ``chains`` maps (id(base), id(rest)), for a product rest, to the
    number of factors base has in rest, 0 when rest is no such chain;
    every link this call walks is added, so a chain shared by many
    products is walked once.
    """
    links = []
    while True:
        inner = match_binary(rest, MUL_Q)
        if inner is None:
            n = int(rest == base)
            break
        key = (id(base), id(rest))
        n = chains.get(key)
        if n is not None:
            break
        if inner[0] != base:
            n = chains[key] = 0
            break
        links.append(key)
        rest = inner[1]
    for key in reversed(links):
        if n:
            n += 1
        chains[key] = n
    return n + 1 if n else None


_INFIX_BINARY = op_table({
    ADD_I: _sum(NEG_I),
    ADD_Q: _sum(NEG_Q),
    ADD_R: _sum(None),
    SUB_R: lambda a, b, chains: (_EXPR, [(a, _EXPR), " - ", (b, _TERM)]),
    MUL_I: _product(None),
    MUL_Q: _rat_product,
    MUL_R: _product(INV_R),
    POW_I: _power,
    POW_R: _power,
})
_INFIX_UNARY = op_table(
    {NEG_I: _negation, NEG_Q: _negation, NEG_R: _negation, INV_Q: _rat_inverse}
    | {op: _call(name) for name, op in FUNCTIONS.items()}
)


# ---------------------------------------------------------------------------
# structural formats


def to_sexpr(t: SynTerm, limit: int = 0) -> str:
    """Fully parenthesized prefix form, one node per parenthesis pair;
    with a positive ``limit``, cut after that many characters and marked
    with "...", so the cost is bounded by the limit, not the tree."""
    return _write(_sexpr, [(t, 0)], limit)


def _sexpr(t: SynTerm, memo: dict) -> Layout:
    if isinstance(t, App):
        return 0, ["(app ", (t.fun, 0), " ", (t.arg, 0), ")"]
    if isinstance(t, IntLit):
        return 0, [f"(int {t.value})"]
    if isinstance(t, RatLit):
        return 0, [f"(rat {t.value})"]
    if isinstance(t, RealLit):
        return 0, [f"(const {t.value} real)"]
    if isinstance(t, Var):
        return 0, [f"(var {t.name} {t.ty})"]
    if isinstance(t, Const):
        return 0, [f"(const {t.symbol} {t.ty})"]
    if isinstance(t, Lambda):
        return 0, [f"(lam {t.var} {t.var_ty} ", (t.body, 0), ")"]
    if isinstance(t, Quote):
        return 0, ["(quote ", (t.term, 0), ")"]
    raise ValueError(f"not a syntax tree: {t!r}")


def to_json(t: SynTerm) -> str:
    """One-line JSON with node kinds and literal values as strings,
    keys sorted."""
    from json import dumps

    return _write(lambda node, memo: _json(node, dumps), [(t, 0)])


def _json(t: SynTerm, s: Callable[[str], str]) -> Layout:
    """t's JSON layout; ``s`` quotes a string as JSON."""
    if isinstance(t, App):
        return 0, ['{"arg": ', (t.arg, 0), ', "fun": ', (t.fun, 0), ', "node": "app"}']
    if isinstance(t, IntLit):
        return 0, [f'{{"node": "int", "value": {s(str(t.value))}}}']
    if isinstance(t, RatLit):
        return 0, [f'{{"node": "rat", "value": {s(str(t.value))}}}']
    if isinstance(t, RealLit):
        return 0, [f'{{"node": "const", "symbol": {s(str(t.value))}, "type": "real"}}']
    if isinstance(t, Var):
        return 0, [f'{{"name": {s(t.name)}, "node": "var", "type": {s(str(t.ty))}}}']
    if isinstance(t, Const):
        return 0, [f'{{"node": "const", "symbol": {s(t.symbol)}, "type": {s(str(t.ty))}}}']
    if isinstance(t, Lambda):
        tail = f', "node": "lam", "var": {s(t.var)}, "var_type": {s(str(t.var_ty))}}}'
        return 0, ['{"body": ', (t.body, 0), tail]
    if isinstance(t, Quote):
        return 0, ['{"node": "quote", "term": ', (t.term, 0), "}"]
    raise ValueError(f"not a syntax tree: {t!r}")


FORMATS = ("infix", "sexpr", "json")


def format_term(t: SynTerm, fmt: str) -> str:
    if fmt == "infix":
        return to_infix(t)
    if fmt == "sexpr":
        return to_sexpr(t)
    if fmt == "json":
        return to_json(t)
    raise ValueError(f"unknown format {fmt!r}")
