"""Symbolic differentiation over a small real-valued language, and the
numeric machinery that keeps it honest.

The language: the real variable x, rational constants, +, *, binary and
unary -, the multiplicative inverse, powers with a rational-literal
exponent, exp, ln, sin, cos, tan.  ``diff`` builds the derivative term
in one bottom-up fold, tidied by ``simplify``'s rules as it goes; the
rewrite is purely syntactic and never sees a number.

Terms are lowered once and evaluated many times.  ``compile_real``
decides membership and lowers a term, in one ``fold``, to a
straight-line program whose literals are floats read once and whose
shared subterms are computed once; a power's exponent is read exactly,
from the literal's value, and takes no register of its own.  Running the program over a list of
points, a step at a time with one column of floats per register, is the
only float evaluator of the language.  It is strict and partial:
inverse of zero, ln of a nonpositive value, fractional powers outside
their domain, tangent too close to a pole and anything non-finite are
undefined.  ``eval_real`` runs it at one point, ``domain_sample`` over
a grid, and ``deriv_numeric`` over the seven abscissae of a
central-difference estimate with a convergence check, so the symbolic
result can be audited pointwise: that is what ``check_spec_diff`` does,
running the term's program once over every abscissa of every point and
the derivative's once over the points where the estimate exists.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Optional

from .terms import (
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
    NotInLanguage,
    RealLit,
    Record,
    Steps,
    SynTerm,
    builder,
    fold,
    literal_value,
    match_unary,
    op_table,
    r_lit,
)


def _leaf_value(t: SynTerm) -> Optional[Fraction]:
    """The exact value of a leaf of the language: a literal's value, or
    None for x.  Any other node raises NotInLanguage."""
    if type(t) is RealLit:
        return t.value
    if t is not X_R:
        raise NotInLanguage("not in the differentiable language")
    return None


def _signed_lit(t: SynTerm) -> Optional[Fraction]:
    """The value of a literal of a member of the language, read through
    one negation, so the folding rules treat -(2) and a bare -2 constant
    alike."""
    v = literal_value(t)
    if v is not None:
        return v
    arg = match_unary(t, NEG_R)
    if arg is not None:
        v = literal_value(arg)
        if v is not None:
            return -v
    return None


def _emit_lit(c: Fraction) -> SynTerm:
    """Literal for c in the printable discipline: negative values are a
    negation wrapped around the positive literal.  Raises Python's
    ValueError where c has more decimal digits than it converts to
    text, as printing it would: a literal folded from others, such as a
    power of a power, would otherwise grow without bound."""
    str(c)  # the int/str digit limit, sys.get_int_max_str_digits()
    return r_lit(c) if c >= 0 else r_neg(r_lit(-c))


r_add, r_mul, r_sub, r_pow = map(builder, (ADD_R, MUL_R, SUB_R, POW_R))
r_neg, r_inv, r_exp, r_ln, r_sin, r_cos, r_tan = map(builder, (NEG_R, INV_R, EXP_R, LN_R, SIN_R, COS_R, TAN_R))


def r_div(a: SynTerm, b: SynTerm) -> SynTerm:
    """Division is sugar: a / b == a * b^-1."""
    return r_mul(a, r_inv(b))


# ---------------------------------------------------------------------------
# membership


def _member_leaf(t: SynTerm) -> bool:
    """A member's value in the membership fold: whether it is a bare
    literal, which is what the exponent of a power must be."""
    return _leaf_value(t) is not None


def _member_pow(base: bool, exponent: bool) -> bool:
    if not exponent:
        raise NotInLanguage("a power needs a rational-literal exponent")
    return False


def _compound(*operands: bool) -> bool:
    return False


_MEMBER_UNARY = op_table(dict.fromkeys((NEG_R, INV_R, EXP_R, LN_R, SIN_R, COS_R, TAN_R), _compound))
_MEMBER_BINARY = op_table(dict.fromkeys((ADD_R, MUL_R, SUB_R), _compound) | {POW_R: _member_pow})


def is_diff_expr(t: SynTerm) -> bool:
    """The differentiable language; power exponents must be rational
    literals, not arbitrary subterms."""
    try:
        fold(t, _member_leaf, _MEMBER_UNARY, _MEMBER_BINARY)
    except NotInLanguage:
        return False
    return True


# ---------------------------------------------------------------------------
# the rewrite


def diff(t: SynTerm) -> Optional[SynTerm]:
    """Derivative term, simplified; None outside the language.

    One bottom-up fold gives each subterm u the quadruple (simplify(u),
    simplify(u'), w', c), u' built by the simplifier's own rules from
    the operands' quadruples; w' is set only when u is exp(w), for the
    rule d ln(exp(w)) = w' (exp(w) is nonzero wherever w is defined),
    and c only when u is a literal, whose value it is.  The same walk
    decides membership: the leaf takes only x and literals, and a power
    only a literal exponent.
    """
    try:
        return fold(t, _d_leaf, _D_UNARY, _D_BINARY)[1]
    except ValueError as e:
        if _outside(t, e):
            return None
        raise


def _outside(t: SynTerm, e: ValueError) -> bool:
    """Whether the error e of diff's or simplify's fold over t means t is
    outside the language: NotInLanguage, or an error (such as the int/str
    digit limit) met in a member subterm before the walk reached the
    node outside."""
    return isinstance(e, NotInLanguage) or not is_diff_expr(t)


def _d_leaf(u: SynTerm) -> tuple:
    c = _leaf_value(u)
    return u, r_lit(1 if c is None else 0), None, c


def _linear(simp):
    """The fold step for + or -, which commute with d/dx."""
    return lambda a, b: (simp(a[0], b[0]), simp(a[1], b[1]), None, None)


def _d_mul(a: tuple, b: tuple) -> tuple:
    (u, du, _, _), (v, dv, _, _) = a, b
    return _simp_mul(u, v), _simp_add(_simp_mul(du, v), _simp_mul(u, dv)), None, None


def _d_pow(a: tuple, e: tuple) -> tuple:
    c = e[3]
    if c is None:
        raise NotInLanguage("a power needs a rational-literal exponent")
    u, du, _, _ = a
    # c * u^(c-1) * u', which is 0 when c = 0 and u' itself when c = 1
    d = du if c == 1 else _simp_mul(_simp_mul(_emit_lit(c), _simp_pow(u, r_lit(c - 1))), du)
    return _simp_pow(u, e[0]), d, None, None


def _d_neg(a: tuple) -> tuple:
    return _simp_neg(a[0]), _simp_neg(a[1]), None, None


def _d_exp(a: tuple) -> tuple:
    e = r_exp(a[0])
    return e, _simp_mul(a[1], e), a[1], None


def _d_ln(a: tuple) -> tuple:
    u, du, dw, _ = a
    return r_ln(u), dw if dw is not None else _simp_mul(du, _simp_inv(u)), None, None


def _chain(simp, outer, negate: bool = False):
    """The fold step for f(u) with simplified form simp(u) and
    derivative u' * outer(u), negated when ``negate``."""

    def step(a: tuple) -> tuple:
        u, du, _, _ = a
        d = _simp_mul(du, outer(u))
        return simp(u), _simp_neg(d) if negate else d, None, None

    return step


def simplify(t: SynTerm) -> SynTerm:
    """Clean literal artifacts out of a derivative: fold constants,
    drop +0/*1, collapse *0 and --u, unwrap ^1.  Local rules only,
    applied in one bottom-up pass, whose result no rule changes again;
    where the input is defined the value is unchanged (dropping 0*u may
    enlarge the domain, never shrink it).  Output keeps negative
    constants as negations of positive literals, the only form the
    concrete syntax has for them.

    The fold gives each subterm the pair (its simplified form, its
    value if it is a literal, else None), and decides membership in the
    same walk, as ``diff``'s does.
    """
    try:
        return fold(t, _simp_leaf, _SIMP_UNARY, _SIMP_BINARY)[0]
    except ValueError as e:
        if _outside(t, e):
            raise ValueError("not in the differentiable language") from None
        raise


def _simp_leaf(u: SynTerm) -> tuple:
    return u, _leaf_value(u)


def _simp_neg(a: SynTerm) -> SynTerm:
    inner = match_unary(a, NEG_R)
    if inner is not None:
        return inner
    v = _signed_lit(a)
    return _emit_lit(-v) if v is not None else r_neg(a)


def _simp_inv(a: SynTerm) -> SynTerm:
    v = _signed_lit(a)
    if v is not None and v != 0:
        return _emit_lit(Fraction(1) / v)
    return r_inv(a)


def _simp_add(a: SynTerm, b: SynTerm) -> SynTerm:
    va, vb = _signed_lit(a), _signed_lit(b)
    if va is not None and vb is not None:
        return _emit_lit(va + vb)
    if va == 0:
        return b
    if vb == 0:
        return a
    return r_add(a, b)


def _simp_sub(a: SynTerm, b: SynTerm) -> SynTerm:
    va, vb = _signed_lit(a), _signed_lit(b)
    if va is not None and vb is not None:
        return _emit_lit(va - vb)
    if vb == 0:
        return a
    if va == 0:
        return _simp_neg(b)
    return r_sub(a, b)


def _simp_mul(a: SynTerm, b: SynTerm) -> SynTerm:
    va, vb = _signed_lit(a), _signed_lit(b)
    if va is not None and vb is not None:
        return _emit_lit(va * vb)
    if va == 0 or vb == 0:
        return r_lit(0)
    if va == 1:
        return b
    if vb == 1:
        return a
    if va == -1:
        return _simp_neg(b)
    if vb == -1:
        return _simp_neg(a)
    return r_mul(a, b)


def _simp_pow(base: SynTerm, exp_term: SynTerm) -> SynTerm:
    c = literal_value(exp_term)
    assert c is not None
    if c == 1:
        return base
    v = _signed_lit(base)
    if v is not None and c.denominator == 1 and (v != 0 or c > 0):
        _check_power_digits(v, int(c))
        return _emit_lit(v ** int(c))
    return r_pow(base, exp_term)


def _check_power_digits(v: Fraction, k: int) -> None:
    """Raise the ValueError of the int/str digit limit before v**k is
    computed, where its numerator or denominator is sure to pass that
    limit: one of them has at least |k| * (b - 1) * log10(2) digits, b
    the larger bit length of v's numerator and denominator."""
    limit = sys.get_int_max_str_digits()
    bits = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    if limit and abs(k) * (bits - 1) * 0.30102 > limit:
        raise ValueError(
            f"Exceeds the limit ({limit} digits) for integer string conversion; "
            "use sys.set_int_max_str_digits() to increase the limit"
        )


def _on_pairs(simp):
    """simplify's fold step for a rule on simplified operands."""
    return lambda *operands: (simp(*[u for u, _ in operands]), None)


def _simp_power(a: tuple, e: tuple) -> tuple:
    if e[1] is None:
        raise NotInLanguage("a power needs a rational-literal exponent")
    return _simp_pow(a[0], e[0]), None


_SIMP_UNARY = op_table({op: _on_pairs(simp) for op, simp in {
    NEG_R: _simp_neg, INV_R: _simp_inv, EXP_R: r_exp, LN_R: r_ln, SIN_R: r_sin, COS_R: r_cos, TAN_R: r_tan,
}.items()})
_SIMP_BINARY = op_table({ADD_R: _on_pairs(_simp_add), SUB_R: _on_pairs(_simp_sub), MUL_R: _on_pairs(_simp_mul),
                         POW_R: _simp_power})
_D_UNARY = op_table({
    NEG_R: _d_neg,
    INV_R: _chain(_simp_inv, lambda u: _simp_pow(u, r_lit(-2)), negate=True),
    EXP_R: _d_exp,
    LN_R: _d_ln,
    SIN_R: _chain(r_sin, r_cos),
    COS_R: _chain(r_cos, r_sin, negate=True),
    TAN_R: _chain(r_tan, lambda u: _simp_pow(r_cos(u), r_lit(-2))),
})
_D_BINARY = op_table({ADD_R: _linear(_simp_add), SUB_R: _linear(_simp_sub), MUL_R: _d_mul, POW_R: _d_pow})


# ---------------------------------------------------------------------------
# pointwise real evaluation


class RealResult(Record):
    """A real value or nothing; defined values are always finite."""

    __slots__ = ("value",)

    @property
    def is_defined(self) -> bool:
        return self.value is not None


_TAN_POLE_EPS = 1e-12
_NAN = math.nan
# Points per block of a run: the columns of one block are live at once.
_BLOCK = 1024

# Step opcodes of a lowered term; the binary ones (two register
# operands) come first.
_ADD, _MUL, _SUB, _NEG, _POW, _INV, _SIN, _COS, _EXP, _LN, _TAN = range(11)
_STEP_BINARY = op_table({ADD_R: _ADD, MUL_R: _MUL, SUB_R: _SUB})
_STEP_UNARY = op_table({
    NEG_R: _NEG, INV_R: _INV, EXP_R: _EXP, LN_R: _LN, SIN_R: _SIN, COS_R: _COS, TAN_R: _TAN,
})


class RealProgram(Record):
    """A term of the real language lowered to straight-line code.

    Register 0 holds x and the next ``len(init) - 1`` registers the
    term's literals, as floats (±inf for one too large for a float, so
    everything it reaches is undefined); step k, an ``(op, i, j)``
    triple, writes register ``len(init) + k`` from registers i and j (j
    is a power's exponent as ``_exponent`` reads it, unused by unary
    steps).  The
    last register is the term's value.  Shared subterms are computed
    once.

    ``run`` evaluates the program over a list of points a step at a
    time: each register is a column of floats, one per point, and each
    step is one pass over its operands' columns.  In a column NaN
    stands for "undefined".  +, -, * and negation carry a non-finite
    value on to the last register, and every other step maps a
    non-finite operand to NaN before it applies, so a value is defined
    exactly when no step on the way is undefined or non-finite.
    """

    __slots__ = ("init", "steps", "uses_x")

    def __call__(self, a: float) -> Optional[float]:
        """Value at x = a, or None where eval_real calls it undefined."""
        return self.run((a,))[0]

    def run(self, points) -> list[Optional[float]]:
        """Values at x = each point, in order; None where undefined: at a
        non-finite point (a point too large for a float reads as ±inf),
        or where some step is undefined or non-finite.  Runs in blocks of _BLOCK points, so the columns of one block are
        all that is live beyond the points and the values."""
        try:
            xs = list(map(float, points))
        except OverflowError:
            xs = list(map(_to_float, points))
        return [v for s in range(0, len(xs), _BLOCK) for v in self._run_block(xs[s:s + _BLOCK])]

    def _run_block(self, xs: list[float]) -> list[Optional[float]]:
        n = len(xs)
        r = [xs]
        r += [[c] * n for c in self.init[1:]]
        push = r.append
        for op, i, j in self.steps:
            push(_COLUMN[op](r[i], r[j] if op <= _SUB else j))
        col = r[-1]
        if not all(map(math.isfinite, xs)):  # undefined there even where x is unused
            col = [v if a - a == 0.0 else _NAN for v, a in zip(col, xs)]
        return [v if v - v == 0.0 else None for v in col]


def _trig(fn):
    def step(u: list, _=None) -> list:
        try:
            return list(map(fn, u))
        except ValueError:  # an infinity
            return [fn(v) if v - v == 0.0 else _NAN for v in u]

    return step


_sin, _cos = _trig(math.sin), _trig(math.cos)


def _tan(u: list, _) -> list:
    return [s / c if abs(c) > _TAN_POLE_EPS else _NAN for s, c in zip(_sin(u), _cos(u))]


def _inv(u: list, _) -> list:
    return [1.0 / v if v - v == 0.0 and v != 0.0 else _NAN for v in u]


def _ln(u: list, _) -> list:
    return [math.log(v) if v > 0.0 else _NAN for v in u]


def _exp(u: list, _) -> list:
    exp = math.exp
    # a finite v below 709 cannot overflow; the rest take the slow path
    return [exp(v) if -math.inf < v < 709.0 else _exp_edge(v) for v in u]


def _exp_edge(v: float) -> float:
    if v - v != 0.0:
        return _NAN
    try:
        return math.exp(v)
    except OverflowError:
        return _NAN


def _pow(u: list, e: tuple) -> list:
    """u**c for the exponent e = _exponent(c), c = p/q: defined for
    u > 0, for u = 0 when c > 0, and for u < 0 when q is odd."""
    fc, positive, odd_p, odd_q = e
    pow_ = math.pow
    out = []
    push = out.append
    for v in u:
        if v == 0.0:
            push(0.0 if positive else _NAN)
        elif fc is None or v - v != 0.0 or (v < 0.0 and not odd_q):
            push(_NAN)
        else:
            try:
                if v > 0.0:
                    push(pow_(v, fc))
                else:
                    mag = pow_(-v, fc)
                    push(-mag if odd_p else mag)
            except OverflowError:
                push(_NAN)
    return out


# Each opcode's step on columns: (register column i, register column j)
# for the binary ones, (register column i, j) for the others.
_COLUMN = (
    lambda u, v: list(map(add, u, v)),
    lambda u, v: list(map(mul, u, v)),
    lambda u, v: list(map(sub, u, v)),
    lambda u, _: list(map(neg, u)),
    _pow, _inv, _sin, _cos, _exp, _ln, _tan,
)


def compile_real(t: SynTerm) -> Optional[RealProgram]:
    """Lower t to a RealProgram in one ``fold``, or None when t is not in
    the differentiable language (exactly when is_diff_expr(t) is
    false).

    The leaf gives x register 0 and each distinct literal value, keyed
    by its numerator and denominator, the next free register; the
    operator entries emit steps through ``Steps``, numbered by value,
    so a step whose (op, i, j) triple already exists reuses its
    register.  A power reads its exponent's exact value from the leaf's
    side table of literal registers, and hands back the register when
    the leaf has just made it for the exponent alone, so a literal used
    only as an exponent takes none.
    Like every fold, the pass is iterative, reads copies of registered
    constants and lowers each distinct node once.
    """
    literals: dict[tuple[int, int], int] = {}  # each literal value's (numerator, denominator) to its operand id
    values: dict[int, Fraction] = {}  # each literal's operand id, in order, to its value
    made: Optional[tuple[int, int]] = None  # the literal that the last literal leaf registered
    uses_x = False

    def leaf(node: SynTerm) -> int:
        nonlocal made, uses_x
        if type(node) is RealLit:
            c = node.value
            key = c.numerator, c.denominator
            made = None
            k = literals.get(key)
            if k is None:
                made = key
                k = literals[key] = ~(len(values) + 1)
                values[k] = c
            return k
        if node is X_R:
            uses_x = True
            return -1
        raise NotInLanguage("not in the differentiable language")

    def power(i: int, j: int) -> int:
        c = values.get(j)
        if c is None:
            raise NotInLanguage("a power needs a rational-literal exponent")
        if made is not None:  # the exponent's leaf, just now: give the register back
            del values[literals.pop(made)]
        return steps.emit(_POW, i, _exponent(c))

    steps = Steps()
    binary = steps.table(_STEP_BINARY)
    binary[id(POW_R)] = power
    try:
        fold(t, leaf, steps.table(_STEP_UNARY), binary)
    except NotInLanguage:
        return None
    init = (0.0, *map(_to_float, values.values()))
    return RealProgram(init, steps.lowered(len(init), _SUB), uses_x)


def _to_float(a) -> float:
    """a as a float: ±inf where it is too large for one."""
    try:
        return float(a)
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def _lowered(t: SynTerm) -> RealProgram:
    prog = compile_real(t)
    if prog is None:
        raise ValueError("not in the differentiable language")
    return prog


def eval_real(t: SynTerm, a: float) -> RealResult:
    """Strict partial evaluation at x = a.

    Undefined exactly when some subterm forces it: inverse of zero, ln
    of a nonpositive number, u^(p/q) with u < 0 and q even (or u = 0
    and the exponent not positive), tan within 1e-12 of a pole, a
    non-finite point (an int or Fraction too large for a float reads as
    ±inf), or any literal or intermediate value that is non-finite as a
    float.  Lowers t and runs its program over the
    one-point list [a]; to evaluate at many points, lower once with
    compile_real and call its ``run``.
    """
    return RealResult(_lowered(t)(a))


def _exponent(c: Fraction) -> tuple:
    """A power's exponent c = p/q in lowest terms, read once for
    _pow: float(c) (None when too large for a float), whether
    c > 0, whether p is odd and whether q is odd."""
    try:
        fc = float(c)
    except OverflowError:
        fc = None
    return fc, c > 0, c.numerator % 2 == 1, c.denominator % 2 == 1


# ---------------------------------------------------------------------------
# numeric derivative and the pointwise audit

# the three steps of the estimate, each ten times the next, as its
# Richardson extrapolation assumes
_H_STEPS = (1e-3, 1e-4, 1e-5)
_CONVERGENCE_REL = 1e-3


def deriv_numeric(t: SynTerm, a: float) -> RealResult:
    """Central-difference derivative with a convergence check.

    Quotients at h = 1e-3, 1e-4, 1e-5 must successively agree within
    relative 1e-3; the reported value is the Richardson extrapolation
    of the two finest.  Undefined whenever the term is undefined at a
    or any a +- h, or the quotients do not settle.

    Two further abstentions keep the estimate trustworthy.  Sampled
    values of size M leave about eps * M of rounding noise in each
    difference, so when that noise (amplified by the division by 2h)
    reaches the agreement threshold, the convergence test could pass on
    rounding artifacts alone and no value is claimed.  And when a term
    that mentions x produces bit-identical values across the whole
    sample window, floating-point evaluation has provably absorbed the
    contribution of x (as in x - exp(576)); the flat window says
    nothing about the real-valued derivative, so none is reported.

    The term's program runs once, over the seven abscissae.
    """
    f = _lowered(t)
    return RealResult(_estimate(f.run(_abscissae(_to_float(a))), f.uses_x))


def _abscissae(a: float) -> list[float]:
    """Where the estimate at a samples: a, then a + h and a - h for each
    step h of _H_STEPS."""
    out = [a]
    for h in _H_STEPS:
        out += (a + h, a - h)
    return out


def _estimate(ys: list, uses_x: bool) -> Optional[float]:
    """deriv_numeric's value from the values at _abscissae(a), in their
    order; None where it abstains."""
    if None in ys:
        return None
    mid, p1, m1, p2, m2, p3, m3 = ys
    if uses_x and p1 == mid and m1 == mid and p2 == mid and m2 == mid and p3 == mid and m3 == mid:
        return None
    h1, h2, h3 = _H_STEPS
    q1, q2, q3 = (p1 - m1) / (2.0 * h1), (p2 - m2) / (2.0 * h2), (p3 - m3) / (2.0 * h3)
    if not (abs(q1 - q2) <= _CONVERGENCE_REL * max(abs(q1), abs(q2))
            and abs(q2 - q3) <= _CONVERGENCE_REL * max(abs(q2), abs(q3))):
        return None
    d = (100.0 * q3 - q2) / 99.0
    peak = max(abs(p1), abs(m1), abs(p2), abs(m2), abs(p3), abs(m3))
    noise = math.ulp(1.0) * peak / h3
    if noise > _CONVERGENCE_REL * max(1.0, abs(d)) or not math.isfinite(d):
        return None
    return d


_ABS_TOL = 1e-4
_REL_TOL = 1e-4


class DiffViolation(Record):
    __slots__ = ("point", "expected", "got")


class DiffCheckReport(Record):
    __slots__ = ("term", "derivative", "checked", "skipped", "violations")  # violations: a tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_spec_diff(t: SynTerm, points: list[float]) -> DiffCheckReport:
    """Audit diff(t) against deriv_numeric at the given points.

    Points where the numeric derivative does not exist are skipped (no
    claim is made there); where it does, the symbolic derivative must
    be defined and agree within max(1e-4, 1e-4 * |numeric|).  The
    report carries the derivative it audited.

    Each program runs once: t's over all the points' abscissae, then
    the derivative's over the points where the estimate exists, and not
    at all when there are none.  A derivative outside the differentiable
    language has no value anywhere, so every checked point is a
    violation with ``got`` None.
    """
    dt = diff(t)
    if dt is None:
        raise ValueError("not in the differentiable language")
    f, df = _lowered(t), compile_real(dt)
    width = 1 + 2 * len(_H_STEPS)
    ys = f.run([b for a in points for b in _abscissae(_to_float(a))])
    wants = [_estimate(ys[k:k + width], f.uses_x) for k in range(0, len(ys), width)]
    checked = [(a, want) for a, want in zip(points, wants) if want is not None]
    gots = df.run([a for a, _ in checked]) if checked and df is not None else [None] * len(checked)
    violations = tuple(
        DiffViolation(a, want, got)
        for (a, want), got in zip(checked, gots)
        if got is None or abs(got - want) > max(_ABS_TOL, _REL_TOL * abs(want))
    )
    return DiffCheckReport(t, dt, len(checked), len(wants) - len(checked), violations)


class DomainPoint(Record):
    __slots__ = ("point", "defined")

    # domain_sample builds one per grid point: through Record's own
    # constructor, perfbench's `oneshot` eval_per_s read 3.0% lower.
    def __init__(self, point: float, defined: bool) -> None:
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "defined", defined)

    @property
    def status(self) -> str:
        return "defined" if self.defined else "undefined"


class DomainReport(Record):
    __slots__ = ("entries",)


def domain_sample(t: SynTerm, lo: float, hi: float, n: int) -> DomainReport:
    """Evaluate on n evenly spaced points of [lo, hi], inclusive.

    The grid is lo + (hi-lo)*i/(n-1), which lands exactly on integer
    grid points, so singularities at integers are actually hit.  lo and
    hi must be finite as floats.
    """
    if n < 2:
        raise ValueError("need at least two sample points")
    if not (math.isfinite(_to_float(lo)) and math.isfinite(_to_float(hi))):
        raise ValueError("need finite lo and hi")
    if not lo < hi:
        raise ValueError("need lo < hi")
    f = _lowered(t)
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return DomainReport(tuple(DomainPoint(a, v is not None) for a, v in zip(grid, f.run(grid))))
