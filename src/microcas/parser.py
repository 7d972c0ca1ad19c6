"""Concrete syntax for the four term languages.

One grammar serves all of them; the requested language decides which
leaves and operators the parsed tree may use and how the sugar comes
apart:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?
    atom   := number | 'x' | ident '(' expr ')' | '(' expr ')'

* "int": integer literals with +, *, ^ and negation.  Binary '-' is
  sugar for adding a negation; '/' has no meaning and is rejected.
* "ratexpr": rational expressions in x.  '-' as above, '/' is sugar
  for multiplying with an inverse, '^' for repeated multiplication.
  A quotient of two literals folds to one rational literal, except
  over a zero denominator, so "3/2" is a number and "1/0" is not.
* "ratfun": `fun x -> E` with E a ratexpr, parsed to an abstraction.
* "diffexpr": the real language.  Binary '-' and '^' are operators in
  their own right (the exponent must be a rational constant), and the
  usual function names apply: sin, cos, tan, exp, ln.

"inv(u)" is accepted as a function atom in ratexpr and diffexpr so
every inverse node has a concrete spelling; exponents may carry a
minus sign, and in diffexpr a parenthesized fraction: x^-2, x^(1/2).

Each language is one table of tree builders, made from the
constructors of the module that owns the language the first time the
language is parsed, so parsing one language loads no other.  The
grammar is read by one operator-precedence loop on two explicit stacks
(Dijkstra's shunting-yard), so nesting depth is bounded by memory only.

Syntax problems raise ParseError with line and column.  Text that
parses but steps outside the requested language (sin in a ratexpr,
division of integers) raises PredicateViolation, a ParseError subtype.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional

from .terms import FUNCTIONS, RAT, IntLit, Lambda, SynTerm, builder, literal_value

LANGS = ("int", "ratexpr", "ratfun", "diffexpr")


class ParseError(ValueError):
    """Bad syntax, with the offending position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class PredicateViolation(ParseError):
    """Well-formed text whose tree falls outside the requested language."""


class _Token(NamedTuple):
    kind: str  # "num", "ident", "op", "eof"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>->|[-+*/^()])
      | (?P<stray>.)
    """,
    re.VERBOSE,
)


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, start = 1, 0  # start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "ws":
            if "\n" in text:
                line += text.count("\n")
                start = m.start() + text.rfind("\n") + 1
        elif kind == "stray":
            raise ParseError(f"stray character {text!r}", line, m.start() - start + 1)
        else:
            tokens.append(_Token(kind, text, line, m.start() - start + 1))
    tokens.append(_Token("eof", "", line, len(src) - start + 1))
    return tokens


def _error(message: str, tok: _Token) -> ParseError:
    return ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# the languages' tree builders


class _Syntax(NamedTuple):
    """How one language builds each construct.  An entry is a builder,
    or the message of the PredicateViolation raised at the construct's
    token, with {} standing for the token's text."""

    binary: dict  # '+', '-', '*', '/' -> builder(left, right)
    neg: Callable  # prefix minus
    power: Callable  # builder(base, exponent as a Fraction)
    integer: Callable  # builder(value) of a numeral with an integer value
    fraction: Callable  # builder(value) of a numeral like 1.5
    x: Callable  # builder() of the variable
    calls: dict  # function name -> builder(argument)
    other_call: Optional[str]  # entry for every other name; None: unknown
    fraction_exponents: bool  # x^(1/2)


def _quotient(lit: Callable, div: Callable) -> Callable:
    """'/' that folds two literals into one, unless the divisor is zero:
    "1/0" stays a division."""

    def make(a: SynTerm, b: SynTerm) -> SynTerm:
        va, vb = literal_value(a), literal_value(b)
        return lit(va / vb) if va is not None and vb else div(a, b)

    return make


@cache
def _int_syntax() -> _Syntax:
    from . import factoring as fx

    return _Syntax(
        binary={
            "+": fx.i_add,
            "-": lambda a, b: fx.i_add(a, fx.i_neg(b)),
            "*": fx.i_mul,
            "/": "the integer language has no division",
        },
        neg=fx.i_neg,
        power=lambda a, n: fx.i_pow(a, IntLit(int(n))),
        integer=lambda v: IntLit(int(v)),
        fraction="integer literal expected",
        x="the integer language has no variable",
        calls={},
        other_call="{} is not part of the integer language",
        fraction_exponents=False,
    )


@cache
def _rat_syntax() -> _Syntax:
    from . import rational as rq

    return _Syntax(
        binary={"+": rq.q_add, "-": rq.q_sub, "*": rq.q_mul, "/": _quotient(rq.q_lit, rq.q_div)},
        neg=rq.q_neg,
        power=lambda a, n: rq.q_pow(a, int(n)),
        integer=rq.q_lit,
        fraction=rq.q_lit,
        x=lambda: rq.X_Q,
        calls=dict.fromkeys(FUNCTIONS, "{} is not part of the rational-expression language")
        | {"inv": rq.q_inv},
        other_call=None,
        fraction_exponents=False,
    )


@cache
def _real_syntax() -> _Syntax:
    from . import differentiation as dr

    return _Syntax(
        binary={"+": dr.r_add, "-": dr.r_sub, "*": dr.r_mul, "/": _quotient(dr.r_lit, dr.r_div)},
        neg=dr.r_neg,
        power=lambda a, c: dr.r_pow(a, dr.r_lit(c)),
        integer=dr.r_lit,
        fraction=dr.r_lit,
        x=lambda: dr.X_R,
        calls={name: builder(op) for name, op in FUNCTIONS.items()},
        other_call=None,
        fraction_exponents=True,
    )


# Each language's table, made on first use.
_SYNTAX = {"int": _int_syntax, "ratexpr": _rat_syntax, "ratfun": _rat_syntax, "diffexpr": _real_syntax}


def _make(make, tok: _Token, *args) -> SynTerm:
    if isinstance(make, str):
        raise PredicateViolation(make.format(tok.text), tok.line, tok.col)
    return make(*args)


# ---------------------------------------------------------------------------
# the grammar

_LEVELS = {"+": 1, "-": 1, "*": 2, "/": 2}
_PREFIX = 3  # prefix minus: tighter than '*', looser than '^'


def _expression(toks: list[_Token], i: int, syn: _Syntax) -> SynTerm:
    """The expression from toks[i] to the end of the input.

    ``terms`` holds finished operands.  ``pending`` holds operators
    waiting for their right operand as (level, builder, token), and open
    groups as (0, the call's name token or None, '(' token).  An operator
    is applied once the next token binds no tighter, so everything before
    a token has been built when the token is found to be out of place.
    """
    terms: list[SynTerm] = []
    pending: list[tuple] = []
    while True:
        tok = toks[i]
        i += 1
        if tok.text == "-":
            pending.append((_PREFIX, syn.neg, tok))
            continue
        if tok.text == "(":
            pending.append((0, None, tok))
            continue
        if tok.kind == "num":
            value = Fraction(tok.text)
            terms.append(_make(syn.integer if value.denominator == 1 else syn.fraction, tok, value))
        elif tok.text == "x":
            terms.append(_make(syn.x, tok))
        elif tok.kind == "ident":
            if toks[i].text != "(":
                raise _error("expected '('", toks[i])
            pending.append((0, tok, toks[i]))
            i += 1
            continue
        else:
            raise _error("expected a number, name, or '('", tok)
        # after an operand: at most one '^', then operators and ')'
        while True:
            if toks[i].text == "^":
                exponent, i = _exponent(toks, i + 1, syn.fraction_exponents)
                terms[-1] = syn.power(terms[-1], exponent)
            tok = toks[i]
            i += 1
            level = _LEVELS.get(tok.text, 1)
            while pending and pending[-1][0] >= level:
                op_level, make, op = pending.pop()
                if op_level == _PREFIX:
                    terms[-1] = _make(make, op, terms[-1])
                else:
                    b = terms.pop()
                    terms[-1] = _make(make, op, terms[-1], b)
            if tok.text in _LEVELS:
                pending.append((level, syn.binary[tok.text], tok))
                break
            if tok.text == ")" and pending:
                name = pending.pop()[1]
                if name is not None:
                    make = syn.calls.get(name.text, syn.other_call)
                    if make is None:
                        raise _error(f"unknown function {name.text!r}", name)
                    terms[-1] = _make(make, name, terms[-1])
                continue
            if pending:
                raise _error("expected ')'", tok)
            if tok.kind != "eof":
                raise _error(f"unexpected {tok.text!r}", tok)
            return terms[0]


def _exponent(toks: list[_Token], i: int, fractions: bool) -> tuple[Fraction, int]:
    """The exponent from toks[i] and the index after it: a signed
    integer or, with ``fractions``, a parenthesized signed fraction:
    3, -2, (1/2), (-3/2)."""
    paren = toks[i].text == "("
    if paren:
        if not fractions:
            raise _error("exponent must be an integer", toks[i])
        i += 1
    sign = 1
    if toks[i].text == "-":
        sign = -1
        i += 1
    tok = toks[i]
    i += 1
    if tok.kind != "num" or "." in tok.text:
        raise _error("expected an integer", tok)
    value = Fraction(int(tok.text))
    if paren:
        if toks[i].text == "/":
            den = toks[i + 1]
            i += 2
            if den.kind != "num" or "." in den.text:
                raise _error("expected an integer denominator", den)
            if int(den.text) == 0:
                raise _error("zero denominator in exponent", den)
            value /= int(den.text)
        if toks[i].text != ")":
            raise _error("expected ')'", toks[i])
        i += 1
    return sign * value, i


def parse(src: str, lang: str) -> SynTerm:
    """Parse src as a term of the named language.

    lang is one of "int", "ratexpr", "ratfun", "diffexpr".  The result
    always satisfies the corresponding membership predicate.

    A numeral with more decimal digits than Python converts from text
    (``sys.get_int_max_str_digits()``, 4300 by default) raises Python's
    own ValueError, not a ParseError.  The CLI maps that error to its
    resource-limit exit code, 5.
    """
    if lang not in LANGS:
        raise ValueError(f"unknown language {lang!r}")
    toks = _tokenize(src)
    syn = _SYNTAX[lang]()
    if lang != "ratfun":
        return _expression(toks, 0, syn)
    if toks[0].text != "fun":
        raise _error("a function starts with 'fun'", toks[0])
    var = toks[1]
    if var.text != "x":
        raise _error("the bound variable must be x", var)
    if toks[2].text != "->":
        raise ParseError("expected '->'", var.line, var.col + len(var.text))
    return Lambda("x", RAT, _expression(toks, 3, syn))
