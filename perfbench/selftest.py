"""Self-test of the benchmark's independent checks against values
worked out by hand.  Every benchmark run calls `failures()` before it
times anything; run this file directly to see the result:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction as F

from oracle import IllConditioned, compile_infix, dual_value, factorization_ok, is_prime, rat_value


def _rat(text, a):
    return rat_value(compile_infix(text), F(a))


def _dual(text, a):
    return dual_value(compile_infix(text), a)


def _cases():
    # exact evaluation, strict at zero denominators
    yield "(x^4-1)/(x^2-1) at 3/2", _rat("(x^4 - 1)/(x^2 - 1)", F(3, 2)) == F(13, 4)
    yield "(x^4-1)/(x^2-1) at 1", _rat("(x^4 - 1)/(x^2 - 1)", 1) is None
    yield "x^2 + 1 at 1", _rat("x^2 + 1", 1) == 2
    yield "x/x at 0", _rat("fun x -> x / x", 0) is None
    yield "x^-2 at 0", _rat("x^-2", 0) is None
    yield "x^-2 at 2", _rat("x^-2", 2) == F(1, 4)
    yield "precedence", _rat("-x^2 + 2 * -3 - 1/2 / (x + 1)", 1) == F(-1 - 6) - F(1, 4)
    yield "inv", _rat("inv(x - 2) * 4", 3) == 4
    yield "printed normal form", _rat("1/2 / (x + 1)", 0) == F(1, 2)
    # dual numbers: d/dx sin(x^2 + x) = (2x + 1) cos(x^2 + x)
    v, d = _dual("sin(x^2 + x)", 0.5)
    yield "sin value", math.isclose(v, math.sin(0.75))
    yield "sin derivative", math.isclose(d, 2.0 * math.cos(0.75))
    v, d = _dual("x^(3/2)", 4.0)
    yield "x^(3/2) at 4", math.isclose(v, 8.0) and math.isclose(d, 3.0)
    yield "x^(1/2) at -1", _dual("x^(1/2)", -1.0) is None
    yield "x^(1/3) at -8", math.isclose(_dual("x^(1/3)", -8.0)[0], -2.0)
    yield "x^(1/2) at 0 has no derivative", _dual("x^(1/2)", 0.0) == (0.0, None)
    yield "ln at 0", _dual("ln(x)", 0.0) is None
    v, d = _dual("ln(x^2 + 1) / (x^2 + 2)", 1.0)
    yield "quotient rule", math.isclose(d, (1.0 * 3 - math.log(2) * 2) / 9)
    yield "exp overflow", _dual("exp(x)", 1000.0) is None
    yield "tan pole", _dual("tan(x)", math.pi / 2) is None
    try:
        _dual("cos(x^2)", 1e5)
        yield "cos of 1e10 is rounding noise", False
    except IllConditioned:
        yield "cos of 1e10 is rounding noise", True
    # factorizations
    yield "360", factorization_ok("1 * (2^3 * (3^2 * 5^1))", 360)
    yield "-360", factorization_ok("-1 * (2^3 * (3^2 * 5^1))", -360)
    yield "wrong product", not factorization_ok("1 * (2^3 * 5^1)", 360)
    yield "composite base", not factorization_ok("1 * (4^1 * 9^1)", 36)
    yield "primes", [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    yield "Mersenne 2^31-1", is_prime(2**31 - 1) and not is_prime((2**31 - 1) * 65537)


def failures() -> list[str]:
    bad = []
    for name, ok in _cases():
        if not ok:
            bad.append(name)
    return bad


if __name__ == "__main__":
    bad = failures()
    print("self-test: " + ("ok" if not bad else "FAILED: " + ", ".join(bad)))
    sys.exit(1 if bad else 0)
