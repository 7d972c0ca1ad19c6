"""Independent checks for the microcas benchmark.

Nothing here imports microcas.  Infix text, both the benchmark's own
generated inputs and microcas's printed outputs, is read by a
shunting-yard parser into a postfix program, which two evaluators run
without recursion, so deep inputs are no problem:

* `rat_value`: exact `Fraction` evaluation, strict: undefined as soon
  as any subterm divides by zero.
* `dual_value`: forward-mode dual numbers over floats, giving the value
  and the derivative, with the definedness rules of the real language
  (ln of a nonpositive number, even roots of negatives, tan near a
  pole and non-finite intermediates are undefined).

`is_prime` is trial division, used to check printed factorizations.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(->|[-+*/^()]))")
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "inv")
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


class OracleError(ValueError):
    """Text the oracle parser does not accept."""


class IllConditioned(OracleError):
    """A value that floating point cannot pin down: a trigonometric
    function of an argument so large that its last bit already moves
    the result by more than the checks' tolerance."""


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleError(f"bad character at {pos} in {text[:60]!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def _read_exponent(toks: list[str], i: int) -> tuple[Fraction, int]:
    """Exponent after '^': a signed integer or '(' signed p/q ')'."""
    paren = toks[i] == "("
    if paren:
        i += 1
    sign = 1
    if toks[i] == "-":
        sign, i = -1, i + 1
    if not toks[i].isdigit():
        raise OracleError("exponent must be a number")
    value = Fraction(int(toks[i]))
    i += 1
    if paren:
        if toks[i] == "/":
            value /= int(toks[i + 1])
            i += 2
        if toks[i] != ")":
            raise OracleError("unclosed exponent")
        i += 1
    return sign * value, i


def compile_infix(text: str) -> list[tuple]:
    """Postfix program for one infix expression; a leading 'fun x ->'
    is dropped.  Grammar as printed by microcas: '^' binds tightest and
    takes a literal exponent, then unary minus, then * and /, then + and
    -, all binary operators left-associative."""
    toks = _tokens(text) + ["<end>"]
    i = 0
    if toks[:3] == ["fun", "x", "->"]:
        i = 3
    out: list[tuple] = []
    ops: list[str] = []
    expect_operand = True
    while True:
        tok = toks[i]
        i += 1
        if expect_operand:
            if tok == "-":
                ops.append("neg")
            elif tok == "(":
                ops.append("(")
            elif tok.isdigit():
                out.append(("num", Fraction(int(tok))))
                expect_operand = False
            elif tok == "x":
                out.append(("x",))
                expect_operand = False
            elif tok in FUNCTIONS and toks[i] == "(":
                ops.append(tok)
                ops.append("(")
                i += 1
            else:
                raise OracleError(f"unexpected {tok!r}")
            continue
        if tok == "^":
            c, i = _read_exponent(toks, i)
            out.append(("pow", c))
        elif tok in ("+", "-", "*", "/"):
            while ops and ops[-1] in _PREC and _PREC[ops[-1]] >= _PREC[tok]:
                out.append((ops.pop(),))
            ops.append(tok)
            expect_operand = True
        elif tok == ")":
            while ops and ops[-1] != "(":
                out.append((ops.pop(),))
            if not ops:
                raise OracleError("unbalanced ')'")
            ops.pop()
            if ops and ops[-1] in FUNCTIONS:
                out.append((ops.pop(),))
        elif tok == "<end>":
            while ops:
                op = ops.pop()
                if op == "(":
                    raise OracleError("unbalanced '('")
                out.append((op,))
            return out
        else:
            raise OracleError(f"unexpected {tok!r}")


def rat_value(prog: list[tuple], a: Fraction) -> Optional[Fraction]:
    """Exact value at x = a, or None where any subterm is undefined."""
    st: list[Fraction] = []
    for ins in prog:
        op = ins[0]
        if op == "num":
            st.append(ins[1])
        elif op == "x":
            st.append(a)
        elif op == "neg":
            st.append(-st.pop())
        elif op == "inv":
            u = st.pop()
            if u == 0:
                return None
            st.append(1 / u)
        elif op == "pow":
            c = ins[1]
            if c.denominator != 1:
                raise OracleError("fractional exponent in a rational term")
            u = st.pop()
            if u == 0 and c < 0:
                return None
            st.append(u ** int(c))
        elif op in FUNCTIONS:
            raise OracleError(f"{op} in a rational term")
        else:
            v = st.pop()
            u = st.pop()
            if op == "+":
                st.append(u + v)
            elif op == "-":
                st.append(u - v)
            elif op == "*":
                st.append(u * v)
            else:
                if v == 0:
                    return None
                st.append(u / v)
    (result,) = st
    return result


def _finite(v: float) -> Optional[float]:
    return v if math.isfinite(v) else None


def _real_pow(u: float, c: Fraction) -> Optional[float]:
    try:
        if u > 0.0:
            return _finite(math.pow(u, float(c)))
        if u == 0.0:
            return 0.0 if c > 0 else None
        if c.denominator % 2 == 1:
            mag = math.pow(-u, float(c))
            return _finite(-mag if c.numerator % 2 else mag)
    except OverflowError:
        pass
    return None


TAN_POLE = 1e-12
# Past this size one ulp of a trigonometric argument is about 1e-8.
TRIG_ARG_LIMIT = 1e8


def _dual_step(op: str, ins: tuple, st: list) -> bool:
    """Apply one instruction to a stack of (value, derivative) pairs.
    A derivative of None means the value is defined there but the
    derivative is not.  Returns False when the value is undefined."""
    if op == "num":
        st.append((float(ins[1]), 0.0))
        return True
    if op in ("+", "-", "*", "/"):
        v, dv = st.pop()
        u, du = st.pop()
        both = du is not None and dv is not None
        if op == "+":
            r, dr = u + v, (du + dv if both else None)
        elif op == "-":
            r, dr = u - v, (du - dv if both else None)
        elif op == "*":
            r, dr = u * v, (du * v + u * dv if both else None)
        else:
            if v == 0.0:
                return False
            r = u / v
            dr = (du * v - u * dv) / (v * v) if both else None
        st.append((r, dr))
        return math.isfinite(r)
    u, du = st.pop()
    if op in ("sin", "cos", "tan") and abs(u) > TRIG_ARG_LIMIT:
        raise IllConditioned(f"{op} of {u:g}")
    if op == "neg":
        r, dr = -u, (-du if du is not None else None)
    elif op == "inv":
        if u == 0.0:
            return False
        r = 1.0 / u
        dr = -du / (u * u) if du is not None else None
    elif op == "pow":
        c = ins[1]
        r = _real_pow(u, c)
        if r is None:
            return False
        if c == 0 or du is None:
            dr = 0.0 if c == 0 else None
        else:
            p = _real_pow(u, c - 1)
            dr = float(c) * p * du if p is not None else None
    elif op == "exp":
        try:
            r = math.exp(u)
        except OverflowError:
            return False
        dr = r * du if du is not None else None
    elif op == "ln":
        if u <= 0.0:
            return False
        r = math.log(u)
        dr = du / u if du is not None else None
    elif op == "sin":
        r = math.sin(u)
        dr = math.cos(u) * du if du is not None else None
    elif op == "cos":
        r = math.cos(u)
        dr = -math.sin(u) * du if du is not None else None
    elif op == "tan":
        c = math.cos(u)
        if abs(c) <= TAN_POLE:
            return False
        r = math.sin(u) / c
        dr = du / (c * c) if du is not None else None
    else:
        raise OracleError(f"unknown instruction {op!r}")
    if dr is not None and not math.isfinite(dr):
        dr = None
    st.append((r, dr))
    return math.isfinite(r)


def dual_value(prog: list[tuple], a: float) -> Optional[tuple[float, Optional[float]]]:
    """(value, derivative) at x = a; None where the value is undefined,
    derivative None where only the derivative is.  Raises IllConditioned
    where no floating-point evaluation is meaningful."""
    st: list = []
    for ins in prog:
        op = ins[0]
        if op == "x":
            st.append((a, 1.0))
        elif not _dual_step(op, ins, st):
            return None
    (result,) = st
    return result


def close(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def is_prime(n: int) -> bool:
    """Trial division by 2, 3 and 6k +- 1."""
    if n < 2:
        return False
    if n % 2 == 0 or n % 3 == 0:
        return n in (2, 3)
    k, limit = 5, math.isqrt(n)
    while k <= limit:
        if n % k == 0 or n % (k + 2) == 0:
            return False
        k += 6
    return True


def factorization_ok(printed: str, n: int) -> bool:
    """A printed prime decomposition such as '-1 * (2^3 * 5^1)': the
    product is n, every powered base is prime, and no base repeats."""
    prog = compile_infix(printed)
    if rat_value(prog, Fraction(0)) != n:
        return False
    bases = [
        int(prog[k - 1][1])
        for k, ins in enumerate(prog)
        if ins[0] == "pow" and prog[k - 1][0] == "num"
    ]
    return len(set(bases)) == len(bases) and all(is_prime(p) for p in bases)
