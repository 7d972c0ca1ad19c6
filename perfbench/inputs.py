"""Seeded input generators for the microcas benchmark.

Every generator takes a `random.Random` and returns infix text in the
concrete syntax microcas parses.  Nothing here imports microcas; the
rational generators also return the rational roots they put into
denominators, which the checks use as sample points.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _lit(rng: random.Random) -> str:
    if rng.random() < 0.7:
        return str(rng.randint(1, 9))
    return f"({rng.randint(1, 9)}/{rng.randint(2, 5)})"


def linear(root: Fraction) -> str:
    """'(q*x - p)' for the root p/q."""
    xs = "x" if root.denominator == 1 else f"{root.denominator}*x"
    p = root.numerator
    return f"({xs} - {p})" if p >= 0 else f"({xs} + {-p})"


def _root(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _denominator(rng: random.Random, roots: set) -> str:
    parts = []
    for _ in range(rng.randint(1, 2)):
        r = _root(rng)
        roots.add(r)
        f = linear(r)
        parts.append(f + "^2" if rng.random() < 0.2 else f)
    if rng.random() < 0.15:
        roots.add(Fraction(0))
        parts.append(f"x^{rng.randint(1, 2)}")
    return " * ".join(parts)


def rat_expr(rng: random.Random, depth: int, roots: set) -> str:
    """A rational expression in x of nesting depth at most `depth`."""
    if depth <= 0 or rng.random() < 0.2:
        return "x" if rng.random() < 0.5 else _lit(rng)
    roll = rng.random()
    a = rat_expr(rng, depth - 1, roots)
    if roll < 0.45:
        op = rng.choice("+-*")
        return f"({a} {op} {rat_expr(rng, depth - 1, roots)})"
    if roll < 0.75:
        return f"{a} / ({_denominator(rng, roots)})"
    if roll < 0.9:
        return f"({a})^{rng.randint(2, 3)}"
    return f"-({a})"


def rat_fun(rng: random.Random, depth: int, roots: set) -> str:
    """A rational function; half of them carry a factor common to
    numerator and denominator, whose root stays a singular point."""
    body = rat_expr(rng, depth, roots)
    if rng.random() < 0.5:
        r = _root(rng)
        roots.add(r)
        body = f"({linear(r)} * ({body})) / ({linear(r)} * {_denominator(rng, roots)})"
    return "fun x -> " + body


_FUNS = ("sin", "cos", "exp", "ln", "tan")
_EXPONENTS = ("2", "3", "-1", "(1/2)", "(3/2)", "(-1/2)", "(1/3)")


def real_expr(rng: random.Random, depth: int) -> str:
    """An expression of the real (differentiable) language."""
    if depth <= 0 or rng.random() < 0.2:
        return "x" if rng.random() < 0.6 else _lit(rng)
    roll = rng.random()
    a = real_expr(rng, depth - 1)
    if roll < 0.35:
        op = rng.choice("+-*")
        return f"({a} {op} {real_expr(rng, depth - 1)})"
    if roll < 0.5:
        return f"{a} / (x^2 + {rng.randint(1, 4)})"
    if roll < 0.65:
        return f"({a})^{rng.choice(_EXPONENTS)}"
    fun = rng.choice(_FUNS)
    if fun == "ln":
        return f"ln(({a})^2 + {rng.randint(1, 3)})"
    if fun == "exp":
        return f"exp(sin({a}))"
    return f"{fun}({a})"


def nest(depth: int, inner: str = "x") -> str:
    """sin(exp(sin(...(inner)...))) with `depth` function calls."""
    s = inner
    for i in range(depth):
        s = f"exp({s})" if i % 2 else f"sin({s})"
    return s


def rational_points(rng: random.Random, k: int) -> list[Fraction]:
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(k)]


def prime(rng: random.Random, bits: int) -> int:
    """A random prime of exactly `bits` bits (Miller-Rabin with the
    deterministic bases for 64-bit numbers)."""
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime64(n):
            return n


def _is_prime64(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
