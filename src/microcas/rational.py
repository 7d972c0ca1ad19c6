"""Rational expressions in x, their values, and two normalizers.

A rational expression is a term over the rational variable x, rational
literals, +, *, unary - and the (partial!) multiplicative inverse.  Its
value, when it exists, lives in the field of fractions of polynomials
(``CanonicalFraction``); its constructors are ``terms.builder`` of the
operators and the class ``RatLit``, plus sugar.  Two different
syntax-to-syntax maps sit on top of that value:

``norm_rat_expr``
    full normalization: render the reduced fraction.  Expressions whose
    value does not exist (a division by the zero polynomial somewhere)
    all map to the one distinguished term 1 * 0^-1 ("1/0").

``quasinorm_rat_expr``
    the function-preserving variant used on rational-function bodies.
    It cancels only common irreducible factors of degree >= 2 and keeps
    every linear factor that witnesses a point where the original
    expression is undefined, so the output denotes the same partial
    function on the rationals, point for point.  x/x stays x/x;
    (x^2+1)/(x^2+1) becomes 1.

The two outputs are recognized by one reader, which reads p/q off a
rendered term without reducing it: ``is_norm`` holds when q is monic
and gcd(p, q) = 1, and ``is_quasinorm`` when q is monic and gcd(p, q)
is a product of linear factors.

The pointwise story needs care for nested inverses: 1/(1/x) flattens to
the polynomial x, yet the original is undefined at 0.  Flattening a
term bottom-up into an unreduced fraction shows that the rational
points where the term is undefined are exactly the rational roots of
the flattened numerators of inverted subterms, so quasinormalization
collects those numerators and pins each lost root a back into the
result by multiplying numerator and denominator by (x - a).

Values at a point are computed on the original tree, where that
strictness lives: ``compile_rat`` checks membership and lowers a term
once, in one ``fold``, to a straight-line ``RatProgram`` over unreduced
integer pairs whose shared subterms are computed once.  Calling the
program runs it at one point; its ``run`` runs it over a column of
points, a step at a time.  ``eval_pointwise`` is one lowering and one
call.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .polynomials import ONE, Poly, X, ZERO, linear_part, poly_gcd, rational_roots
from .terms import (
    ADD_Q,
    FRAC,
    INV_Q,
    MUL_Q,
    NEG_Q,
    RAT,
    X_Q,
    Arrow,
    FnQQ,
    FracV,
    Lambda,
    NotInLanguage,
    RatLit,
    Record,
    RatV,
    Steps,
    SynTerm,
    Value,
    builder,
    fold,
    match_binary,
    match_unary,
    op_table,
    register_evaluator,
)


q_lit = RatLit  # the literal c, its value Fraction(c)
q_add, q_mul, q_neg, q_inv = map(builder, (ADD_Q, MUL_Q, NEG_Q, INV_Q))


def q_sub(a: SynTerm, b: SynTerm) -> SynTerm:
    """Binary subtraction is sugar: a - b == a + (-b)."""
    return q_add(a, q_neg(b))


def q_div(a: SynTerm, b: SynTerm) -> SynTerm:
    """Division is sugar: a / b == a * b^-1."""
    return q_mul(a, q_inv(b))


def q_pow(a: SynTerm, n: int) -> SynTerm:
    """Integer powers are sugar for repeated multiplication, nested to
    the right; negative powers invert, a^0 is the literal 1."""
    if n < 0:
        return q_inv(q_pow(a, -n))
    if n == 0:
        return q_lit(1)
    out = a
    for _ in range(n - 1):
        out = q_mul(a, out)
    return out


# the one undefined normal form
UNDEFINED_NORMAL_FORM: SynTerm = q_mul(q_lit(1), q_inv(q_lit(0)))


# ---------------------------------------------------------------------------
# folds over the language: each membership test, value and lowering
# below is one terms.fold with a leaf from _leaf and a pair of operator
# tables


def _leaf(lit: Callable[[Fraction], object], x: object) -> Callable[[SynTerm], object]:
    """A fold leaf: a literal's value through ``lit``, the variable as
    ``x``; any other node is not a rational expression."""

    def leaf(t: SynTerm) -> object:
        if type(t) is RatLit:
            return lit(t.value)
        if t == X_Q:
            return x
        raise NotInLanguage("not a rational expression")

    return leaf


# Values in the rationals, for the closed evaluator.
_Q_UNARY = op_table({NEG_Q: operator.neg, INV_Q: lambda u: 1 / u if u != 0 else None})
_Q_BINARY = op_table({ADD_Q: operator.add, MUL_Q: operator.mul})
_UNDEFINED_LEAF = _leaf(lambda c: None, None)


def is_rat_expr(t: SynTerm) -> bool:
    """Terms over x, rational literals, +, *, -, inv. Nothing else."""
    # Every leaf is undefined, so the fold applies no operator: it only
    # visits each node and raises off the language.
    try:
        fold(t, _UNDEFINED_LEAF, _Q_UNARY, _Q_BINARY)
    except NotInLanguage:
        return False
    return True


def is_rat_fun(t: SynTerm) -> bool:
    """Abstractions fun x -> body with a rational-expression body."""
    return (
        isinstance(t, Lambda)
        and t.var == "x"
        and t.var_ty == RAT
        and is_rat_expr(t.body)
    )


def body(t: SynTerm) -> SynTerm:
    """Body of an abstraction."""
    if not isinstance(t, Lambda):
        raise ValueError("body of a non-abstraction")
    return t.body


# ---------------------------------------------------------------------------
# values in the field of fractions


class CanonicalFraction(Record):
    """Reduced fraction of polynomials: gcd(num, den) = 1, den monic.

    Zero is 0/1.  Use ``make`` to build one from an arbitrary pair; the
    public constructor checks that its pair is already canonical.

    The field operations rely on their operands being canonical
    (Henrici's reduced-operand arithmetic, Knuth TAOCP 4.5.1), so each
    takes only the gcds that can be nontrivial and none to check its
    result: ``*`` cancels gcd(n1, d2) and gcd(n2, d1) crosswise; ``+``
    takes g = gcd(d1, d2), and where g is not 1 cancels gcd(t, g) from
    t = n1 (d2/g) + n2 (d1/g).  Every quotient of monic polynomials is
    monic, so results need no rescaling; ``inv`` rescales by the
    numerator's leading coefficient and ``-`` negates the numerator.
    Polynomials, the fractions over 1, take no gcd at all in ``+`` and
    ``*``: a monic denominator of degree 0 is 1.
    """

    __slots__ = ("num", "den")

    @classmethod
    def make(cls, num: Poly, den: Poly) -> "CanonicalFraction":
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        if num.is_zero():
            return _ZERO_FRAC
        g = poly_gcd(num, den)
        if g.degree != 0:
            num, den = num // g, den // g
        return _monic_den(num, den)

    def __init__(self, num: Poly, den: Poly) -> None:
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        if not num.is_zero():
            if den.leading != 1:
                raise ValueError("denominator must be monic")
            if poly_gcd(num, den).degree != 0:
                raise ValueError("fraction must be reduced")
        elif den != ONE:
            raise ValueError("zero must be 0/1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __add__(self, other: "CanonicalFraction") -> "CanonicalFraction":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.degree == 0 and d2.degree == 0:
            return _canonical(n1 + n2, ONE)
        g = poly_gcd(d1, d2)
        if g.degree != 0:
            d1, d2 = d1 // g, d2 // g
        num = n1 * d2 + n2 * d1
        if num.is_zero():
            return _ZERO_FRAC
        if g.degree != 0:
            g2 = poly_gcd(num, g)
            if g2.degree != 0:
                num, g = num // g2, g // g2
            d2 = d2 * g
        return _canonical(num, d1 * d2)

    def __mul__(self, other: "CanonicalFraction") -> "CanonicalFraction":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n1.is_zero() or n2.is_zero():
            return _ZERO_FRAC
        if d1.degree == 0 and d2.degree == 0:
            return _canonical(n1 * n2, ONE)
        g1, g2 = poly_gcd(n1, d2), poly_gcd(n2, d1)
        if g1.degree != 0:
            n1, d2 = n1 // g1, d2 // g1
        if g2.degree != 0:
            n2, d1 = n2 // g2, d1 // g2
        return _canonical(n1 * n2, d1 * d2)

    def __neg__(self) -> "CanonicalFraction":
        return _canonical(-self.num, self.den)

    def inv(self) -> Optional["CanonicalFraction"]:
        """Multiplicative inverse, None for zero."""
        if self.num.is_zero():
            return None
        return _monic_den(self.den, self.num)


def _canonical(num: Poly, den: Poly) -> CanonicalFraction:
    """A CanonicalFraction from a pair already known to be canonical,
    without the public constructor's checks."""
    c = object.__new__(CanonicalFraction)
    object.__setattr__(c, "num", num)
    object.__setattr__(c, "den", den)
    return c


def _monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den rescaled so that den, nonzero, is monic: on integers,
    both times den's denominator over its leading numerator."""
    (n, d), (dn, dd) = num.ints, den.ints
    if dn[-1] == dd:
        return num, den
    return Poly.from_ints([c * dd for c in n], d * dn[-1]), Poly.from_ints(dn, dn[-1])


def _monic_den(num: Poly, den: Poly) -> CanonicalFraction:
    """The canonical fraction of a coprime pair, rescaled by ``_monic``."""
    return _canonical(*_monic(num, den))


_ZERO_FRAC = _canonical(ZERO, ONE)
FRAC_X = _canonical(X, ONE)

_FRAC_LEAF = _leaf(lambda c: _canonical(Poly.from_ints([c.numerator], c.denominator), ONE), FRAC_X)
_FRAC_UNARY = op_table({NEG_Q: operator.neg, INV_Q: CanonicalFraction.inv})


def frac_value(t: SynTerm) -> Optional[CanonicalFraction]:
    """Value of a rational expression in the field of fractions, with x
    read as the indeterminate; None where the value does not exist
    (strict: an inverse of the zero fraction poisons everything above).
    Raises NotInLanguage, a ValueError, off the language.
    """
    return fold(t, _FRAC_LEAF, _FRAC_UNARY, _Q_BINARY)


# ---------------------------------------------------------------------------
# values at a point: a body lowered once, run at each point


# Step opcodes of a lowered rational expression; the binary ones (two
# register operands) come first.
_ADD, _MUL, _NEG, _INV = range(4)
_STEP_BINARY = op_table({ADD_Q: _ADD, MUL_Q: _MUL})
_STEP_UNARY = op_table({NEG_Q: _NEG, INV_Q: _INV})
# A register whose denominator passes 4096 bits is reduced by its gcd.
# Below that the pairs stay unreduced, since a gcd per step costs more
# than the larger products it saves.  A common factor of a pair divides
# its denominator, so the denominator alone shows unreduced growth.
_REDUCE_ABOVE = 1 << 4096


class RatProgram(Record):
    """A rational expression lowered to straight-line code over exact
    integer pairs, the exact counterpart of ``compile_real``'s program.

    Register 0 holds x and the next ``len(nums) - 1`` registers the
    term's distinct literals; register k is the pair ``(nums[k],
    dens[k])`` for the rational nums[k]/dens[k], with dens[k] > 0 and
    the pair not necessarily reduced.  Step k, an ``(op, i, j)`` triple,
    writes register ``len(nums) + k`` from registers i and j (j is
    unused by unary steps).  The last register is the term's value.
    Shared subterms are computed once.

    Calling the program runs the steps at one point and builds the one
    reduced ``Fraction`` of the last register.  ``run`` evaluates the
    steps over a column of points at once, each step one pass over its
    operands' columns, and returns the last register's unreduced pairs;
    callers that hold many points, such as the norm-fun contract, use
    it and compare the pairs by cross-multiplying.
    """

    __slots__ = ("nums", "dens", "steps")

    def __call__(self, a: Fraction | int) -> Optional[Fraction]:
        """Value at x = a, or None where it is undefined: the first
        inverse of zero ends the run, since every step is a subterm and
        undefinedness is strict."""
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        n = list(self.nums)
        d = list(self.dens)
        n[0], d[0] = a.numerator, a.denominator
        put_n, put_d = n.append, d.append
        for op, i, j in self.steps:
            if op == _MUL:
                nv, dv = n[i] * n[j], d[i] * d[j]
            elif op == _ADD:
                di, dj = d[i], d[j]
                nv, dv = n[i] * dj + n[j] * di, di * dj
            elif op == _NEG:
                nv, dv = -n[i], d[i]
            else:  # _INV
                nv, dv = d[i], n[i]
                if dv <= 0:
                    if dv == 0:
                        return None
                    nv, dv = -nv, -dv
            if dv > _REDUCE_ABOVE:
                g = gcd(nv, dv)
                nv, dv = nv // g, dv // g
            put_n(nv)
            put_d(dv)
        return Fraction(n[-1], d[-1])

    def run(self, nums: list[int], dens: list[int]) -> tuple[list[int], list[int]]:
        """Values at x = nums[k]/dens[k], each dens[k] > 0, as the
        columns (n, d) of unreduced pairs, d > 0 where defined.  An
        undefined row is (0, 0): an inverse maps a zero numerator, and
        so an undefined operand, to (0, 0), and +, * and negation carry
        it on, since every product with it is 0.  As in a one-point
        call, a pair whose denominator passes ``_REDUCE_ABOVE`` is
        reduced by its gcd; an undefined row never is."""
        m = len(nums)
        n = [list(nums)] + [[c] * m for c in self.nums[1:]]
        d = [list(dens)] + [[c] * m for c in self.dens[1:]]
        put_n, put_d = n.append, d.append
        mul = operator.mul
        for op, i, j in self.steps:
            if op == _MUL:
                nv, dv = list(map(mul, n[i], n[j])), list(map(mul, d[i], d[j]))
            elif op == _ADD:
                di, dj = d[i], d[j]
                nv = [a * q + b * p for a, p, b, q in zip(n[i], di, n[j], dj)]
                dv = list(map(mul, di, dj))
            elif op == _NEG:
                nv, dv = [-a for a in n[i]], d[i]
            else:  # _INV
                nv = [b if a > 0 else -b if a else 0 for a, b in zip(n[i], d[i])]
                dv = list(map(abs, n[i]))
            if max(dv, default=0) > _REDUCE_ABOVE:
                nv, dv = _reduced(nv, dv)
            put_n(nv)
            put_d(dv)
        return n[-1], d[-1]


def _reduced(nums: list[int], dens: list[int]) -> tuple[list[int], list[int]]:
    """The columns with each pair whose denominator passes
    ``_REDUCE_ABOVE`` divided by its gcd."""
    out_n, out_d = [], []
    for a, b in zip(nums, dens):
        if b > _REDUCE_ABOVE:
            g = gcd(a, b)
            a, b = a // g, b // g
        out_n.append(a)
        out_d.append(b)
    return out_n, out_d


def compile_rat(t: SynTerm) -> RatProgram:
    """Lower a rational expression to a RatProgram in one ``fold``.
    Raises NotInLanguage, a ValueError, when t is not a rational
    expression.

    The leaf gives x register 0 and each distinct literal, read once,
    the next free register; the operator entries emit steps through
    ``Steps``, numbered by value, so a step whose (op, i, j) triple
    already exists reuses its register.  Like every fold, the pass is
    iterative, reads copies of registered constants and lowers each
    distinct node once.
    """
    literals: dict[tuple[int, int], int] = {}  # each literal, in order, to its operand id
    leaf = _leaf(lambda c: literals.setdefault((c.numerator, c.denominator), ~(len(literals) + 1)), -1)
    steps = Steps()
    fold(t, leaf, steps.table(_STEP_UNARY), steps.table(_STEP_BINARY))
    nums, dens = zip((0, 1), *literals)
    return RatProgram(nums, dens, steps.lowered(len(nums), _MUL))


def eval_pointwise(t: SynTerm, a: Fraction | int) -> Optional[Fraction]:
    """Value of a rational expression at x = a, on the original term
    tree: every inverse of a zero value is undefined and undefinedness
    is strict.  This is the map a rational function really computes.
    One ``compile_rat`` lowering and one run of its program, whose
    unreduced integer pair becomes one reduced ``Fraction``.  Raises
    NotInLanguage, a ValueError, off the language.
    """
    return compile_rat(t)(a)


# ---------------------------------------------------------------------------
# rendering values back to terms


def _poly_term(p: Poly) -> SynTerm:
    """Descending-power sum; negative coefficients ride on unary minus
    so the result survives a print/parse round trip.  Each power x^k is
    x * x^(k-1) on the node of the one before, so the chains share.
    The walk is over the integer numerators and their one common
    denominator: a coefficient n/den is a unit when |n| == den."""
    nums, den = p.ints
    if not nums:
        return q_lit(0)
    powers = [None, X_Q]  # powers[k] is x^k for k >= 1
    while len(powers) < len(nums):
        powers.append(q_mul(X_Q, powers[-1]))
    out: SynTerm | None = None
    for k in range(len(nums) - 1, -1, -1):
        n = nums[k]
        if not n:
            continue
        if k and abs(n) == den:
            mono = powers[k]
        else:
            lit = RatLit(Fraction(abs(n), den))
            mono = q_mul(lit, powers[k]) if k else lit
        if n < 0:
            mono = q_neg(mono)
        out = mono if out is None else q_add(out, mono)
    assert out is not None
    return out


def frac_term(num: Poly, den: Poly) -> SynTerm:
    """num * den^-1 in rendered form, a bare polynomial when den = 1."""
    if den == ONE:
        return _poly_term(num)
    return q_mul(_poly_term(num), q_inv(_poly_term(den)))


def frac_to_term(c: CanonicalFraction) -> SynTerm:
    """The canonical rendering of a fraction value as a term."""
    return frac_term(c.num, c.den)


# ---------------------------------------------------------------------------
# predicates on shapes


def is_norm(t: SynTerm) -> bool:
    """Normal forms, the canonical renderings of values: rendered p/q
    with q monic and gcd(p, q) = 1, plus the undefined form 1/0."""
    return _shape_gcd(t) == ONE


def _shape_gcd(t: SynTerm) -> Optional[Poly]:
    """gcd(p, q) of a term rendered as p/q (a bare p when q = 1) with q
    nonzero and monic, read without reducing; ONE for the undefined
    form 1/0, and None for any other term.  The one reader of both
    normal-form predicates."""
    if t == UNDEFINED_NORMAL_FORM:
        return ONE
    shape = _read_fraction_shape(t)
    if shape is None or shape[1].is_zero() or shape[1].leading != 1:
        return None
    return poly_gcd(*shape)


def _read_fraction_shape(t: SynTerm) -> Optional[tuple[Poly, Poly]]:
    """Read p/q off a canonically rendered term without reducing; None
    when t is not exactly a rendering shape."""
    parts = match_binary(t, MUL_Q)
    if parts is not None:
        inv_arg = match_unary(parts[1], INV_Q)
        if inv_arg is not None:
            num = _read_poly(parts[0])
            den = _read_poly(inv_arg)
            if num is None or den is None:
                return None
            if frac_term(num, den) != t:
                return None
            return num, den
    num = _read_poly(t)
    if num is None or _poly_term(num) != t:
        return None
    return num, ONE


def _read_poly(t: SynTerm) -> Optional[Poly]:
    """Polynomial value of an inverse-free rational expression: one that
    flattens with no inverted numerator, and so over the denominator 1."""
    try:
        fl = flatten_raw(t)
    except NotInLanguage:
        return None
    if fl is None or fl[2]:
        return None
    return fl[0]


def is_quasinorm(t: SynTerm) -> bool:
    """Quasinormal forms: rendered p/q (bare p when q = 1) with q monic
    whose common factors are all linear -- gcd(p, q) equals its own
    linear part -- so only rational singularities remain; plus the
    distinguished 1/0."""
    g = _shape_gcd(t)
    return g is not None and g == linear_part(g)


# ---------------------------------------------------------------------------
# normalization


def norm_rat_expr(t: SynTerm) -> Optional[SynTerm]:
    """Canonical rendering of the value; 1/0 when the value does not
    exist; None on terms that are not rational expressions."""
    try:
        v = frac_value(t)
    except NotInLanguage:
        return None
    return UNDEFINED_NORMAL_FORM if v is None else frac_to_term(v)


def _union(s1: list[Poly], s2: list[Poly]) -> list[Poly]:
    """s1 then the polynomials of s2 not in it: both lists hold distinct
    polynomials in first-occurrence order, and so does the result.  The
    lists are shared between the values of a fold, so none is changed."""
    if not s2 or s2 is s1:
        return s1
    if not s1:
        return s2
    seen = set(s1)
    return s1 + [p for p in s2 if p not in seen]


def _flat_add(a: tuple, b: tuple) -> tuple:
    (n1, d1, s1), (n2, d2, s2) = a, b
    return n1 * d2 + n2 * d1, d1 * d2, _union(s1, s2)


def _flat_mul(a: tuple, b: tuple) -> tuple:
    (n1, d1, s1), (n2, d2, s2) = a, b
    return n1 * n2, d1 * d2, _union(s1, s2)


def _flat_inv(a: tuple) -> Optional[tuple]:
    n, d, s = a
    return None if n.is_zero() else (d, n, _union(s, [n]))


_FLAT_UNARY = op_table({NEG_Q: lambda a: (-a[0], a[1], a[2]), INV_Q: _flat_inv})
_FLAT_BINARY = op_table({ADD_Q: _flat_add, MUL_Q: _flat_mul})


def flatten_raw(t: SynTerm) -> Optional[tuple[Poly, Poly, list[Poly]]]:
    """Unreduced fraction of a rational expression plus the flattened
    numerators of its inverted subterms, each distinct polynomial once,
    in the order of its first occurrence left to right; None when the
    value does not exist in the field of fractions.  Raises
    NotInLanguage, a ValueError, off the language.  On a term with
    shared subterms the list grows with the distinct numerators, not
    with the paths to them."""
    leaf = _leaf(lambda c: (Poly.from_ints([c.numerator], c.denominator), ONE, []), (X, ONE, []))
    return fold(t, leaf, _FLAT_UNARY, _FLAT_BINARY)


def singular_points(t: SynTerm) -> list[Fraction]:
    """The rational points where a rational expression is undefined,
    sorted; empty when its value does not exist (undefined everywhere,
    so there is nothing to single out)."""
    fl = flatten_raw(t)
    return [] if fl is None else _roots_of(fl[2])


def _roots_of(inv_nums: list[Poly]) -> list[Fraction]:
    """The rational roots of the flattened numerators of the inverted
    subterms, sorted: the points where the expression is undefined."""
    return sorted({r for n in inv_nums for r, _ in rational_roots(n)})


def quasinorm_rat_expr(t: SynTerm) -> SynTerm:
    """Quasinormalize: reduce to p/q cancelling only irreducible common
    factors of degree >= 2, then restore any rational singularity of
    the original that the flattening lost (nested inverses).  The
    result denotes the same partial function on the rationals.  Raises
    NotInLanguage, a ValueError, off the language."""
    fl = flatten_raw(t)
    if fl is None:
        return UNDEFINED_NORMAL_FORM
    num, den, inv_nums = fl
    g = poly_gcd(num, den)
    stripped = g // linear_part(g)
    num, den = _monic(num // stripped, den // stripped)
    for a in _roots_of(inv_nums):
        if den.eval_at(a) != 0:
            factor = Poly([-a, 1])
            num, den = num * factor, den * factor
    return frac_term(num, den)


def norm_rat_fun(t: SynTerm) -> Optional[SynTerm]:
    """Quasinormalize the body of a rational function; None on
    anything that is not one.  The body is walked once: its flattening
    raises NotInLanguage off the language."""
    if not (isinstance(t, Lambda) and t.var == "x" and t.var_ty == RAT):
        return None
    try:
        return Lambda("x", RAT, quasinorm_rat_expr(t.body))
    except NotInLanguage:
        return None


def quasi_equal_at(f: SynTerm, g: SynTerm, a: Fraction | int) -> bool:
    """Do two rational functions agree at the point a, counting 'both
    undefined' as agreement?"""
    if not is_rat_fun(f) or not is_rat_fun(g):
        raise ValueError("quasi_equal_at compares rational functions")
    va = eval_pointwise(f.body, a)
    vb = eval_pointwise(g.body, a)
    return va == vb


# ---------------------------------------------------------------------------
# typed evaluation hooks


def _closed_leaf(t: SynTerm) -> Optional[Fraction]:
    return t.value if type(t) is RatLit else None


def _eval_rat(b: SynTerm) -> Optional[Value]:
    """Value of a closed rational term; inverse of zero is undefined, and
    so is any term of another type (see factoring._eval_int)."""
    v = fold(b, _closed_leaf, _Q_UNARY, _Q_BINARY)
    return RatV(v) if v is not None else None


def _eval_frac(b: SynTerm) -> Optional[Value]:
    try:
        v = frac_value(b)
    except NotInLanguage:
        return None
    return FracV(v) if v is not None else None


def _eval_fn_qq(b: SynTerm) -> Optional[Value]:
    if not is_rat_fun(b):
        return None
    return FnQQ(b)


register_evaluator(RAT, _eval_rat)
register_evaluator(FRAC, _eval_frac)
register_evaluator(Arrow(RAT, RAT), _eval_fn_qq)
