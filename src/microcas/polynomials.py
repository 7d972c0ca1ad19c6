"""Dense univariate polynomials over exact rationals.

Coefficients are stored ascending (coeffs[i] multiplies x**i) with no
trailing zeros, so structural equality is semantic equality.  Division
and gcd are exact; the gcd is the monic Euclidean one.  rational_roots
and linear_part expose the rational-root structure the normalization
code needs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Union

NEG_INFINITY = float("-inf")

_RatLike = Union[int, Fraction]


class Poly:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[_RatLike] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    # -- basic views --------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        """Degree, with the zero polynomial at minus infinity."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
        return " + ".join(parts)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self._coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def scale(self, c: _RatLike) -> "Poly":
        c = Fraction(c)
        return Poly(c * k for k in self._coeffs)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self._coeffs) - len(other._coeffs) + 1, 0)
        r = list(self._coeffs)
        d = other._coeffs
        lead = d[-1]
        while len(r) >= len(d):
            c = r[-1] / lead
            k = len(r) - len(d)
            q[k] = c
            for i, dc in enumerate(d):
                r[i + k] -= c * dc
            while r and r[-1] == 0:
                r.pop()
            if not r:
                break
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- other operations ----------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        return self.scale(1 / self.leading)

    def eval_at(self, a: _RatLike) -> Fraction:
        a = Fraction(a)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * a + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self._coeffs) if k > 0)


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd; gcd(p, 0) is monic p, gcd(0, 0) is an error.

    A nonzero constant operand makes the gcd 1 at once.  The result is
    monic, so dividing a monic polynomial by it leaves a monic quotient:
    the fraction arithmetic in ``rational`` relies on that to keep its
    denominators monic without rescaling.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.degree == 0 or q.degree == 0:
        return ONE
    while not q.is_zero():
        p, q = q, p % q
    return p.monic()


def _int_clear(p: Poly) -> list[int]:
    """Integer coefficient list (ascending) proportional to p."""
    mult = lcm(*(c.denominator for c in p.coeffs)) if p.coeffs else 1
    return [int(c * mult) for c in p.coeffs]


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, sorted by value.

    Classic rational-root theorem: after clearing denominators, any
    root a/b in lowest terms has a dividing the constant term and b
    dividing the leading one; multiplicities come from repeated exact
    deflation.
    """
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    if p.degree == 0:
        return []
    roots: dict[Fraction, int] = {}
    work = p
    zero_mult = 0
    while work.coeff(0) == 0:
        work = Poly(work.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    if work.degree >= 1:
        from .factoring import divisors  # local: factoring has no poly deps

        ints = _int_clear(work)
        content = 0
        for c in ints:
            content = gcd(content, c)
        ints = [c // content for c in ints]
        bound = 1 + max(abs(Fraction(c, ints[-1])) for c in ints)
        nums = divisors(ints[0])
        dens = divisors(ints[-1])
        seen: set[Fraction] = set()
        for num in nums:
            for den in dens:
                cand = Fraction(num, den)
                if cand in seen or cand > bound:
                    continue
                seen.add(cand)
                for r in (cand, -cand):
                    mult = 0
                    while work.degree >= 1 and work.eval_at(r) == 0:
                        work = _deflate(work, r)
                        mult += 1
                    if mult:
                        roots[r] = mult
    return sorted(roots.items())


def _deflate(p: Poly, r: Fraction) -> Poly:
    """Exact synthetic division of p by (x - r); p(r) must be 0."""
    out: list[Fraction] = []
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * r + c
        out.append(acc)
    assert out[-1] == 0, "deflation by a non-root"
    return Poly(list(reversed(out[:-1])))


def linear_part(p: Poly) -> Poly:
    """Monic product of (x - a)^m over the rational roots a of p."""
    out = ONE
    for r, m in rational_roots(p):
        out = out * (Poly([-r, 1]) ** m)
    return out
