"""Dense univariate polynomials over the exact rationals, computed over Z.

A polynomial is stored as an integer numerator and a common denominator:
``_num`` holds integer coefficients ascending (``_num[i]`` multiplies
x**i) with no trailing zeros, and ``_den`` is an int >= 1 coprime to the
content of ``_num``.  Every polynomial has exactly one such form, so
structural equality is semantic equality; ``_poly`` is the one place
that form is made.  The public views (``coeffs``, ``leading``,
``eval_at``, ...) speak ``Fraction``; all arithmetic behind them is on
integers.  ``ints`` and ``from_ints`` read and build the stored form.
The unit has the one form ``(1,)`` over 1, so a product with a unit
factor is the other operand itself and builds nothing.
Division is integer pseudo-division divided through once, and the gcd is
the monic end of Collins's primitive remainder sequence.  rational_roots
and linear_part expose the rational-root structure the normalization
code needs: roots are found by p-adic lifting (Loos) and each is checked
by exact integer division, so no coefficient is ever factored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Union

NEG_INFINITY = float("-inf")

_RatLike = Union[int, Fraction]


class Poly:
    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[_RatLike] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        self._num, self._den = p._num, p._den

    @staticmethod
    def from_ints(num: Iterable[int], den: int) -> "Poly":
        """The Poly num/den: integer coefficients ascending over a nonzero int."""
        return _poly(list(num), den)

    # -- basic views --------------------------------------------------

    @property
    def ints(self) -> tuple[tuple[int, ...], int]:
        """The stored form ``(num, den)``, as the module docstring has it."""
        return self._num, self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int | float:
        """Degree, with the zero polynomial at minus infinity."""
        return len(self._num) - 1 if self._num else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        (a, da), (b, db) = (self._num, self._den), (other._num, other._den)
        g = gcd(da, db)
        a, b = _times(a, db // g), _times(b, da // g)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _poly(a, da // g * db)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self._num], self._den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """The product; a unit factor returns the other operand itself."""
        a, b = self._num, other._num
        if b == (1,) and other._den == 1:
            return self
        if a == (1,) and self._den == 1:
            return other
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _poly(out, self._den * other._den)

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
        # s * self._num = q * other._num + r, so
        # self = (q * other._den / (s * self._den)) * other + r / (s * self._den).
        q, r, s = _pdiv(self._num, other._num)
        den = s * self._den
        return _poly(_times(q, other._den), den), _poly(r, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- other operations ----------------------------------------------

    def eval_at(self, a: _RatLike) -> Fraction:
        a = Fraction(a)
        if not self._num:
            return Fraction(0)
        # Horner's rule on q^n f(p/q) = sum c_i p^i q^(n-i), a = p/q.
        p, q = a.numerator, a.denominator
        acc, qk = 0, 1
        for c in reversed(self._num):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, self._den * qk // q)

    def derivative(self) -> "Poly":
        return _poly(_derivative(self._num), self._den)


def _content(cs: Iterable[int], g: int = 0) -> int:
    """gcd(g, *cs), stopping as soon as it reaches 1."""
    for c in cs:
        if g == 1:
            break
        g = gcd(g, c)
    return g


def _derivative(cs: Iterable[int]) -> list[int]:
    return [k * c for k, c in enumerate(cs) if k]


def _times(cs: Iterable[int], k: int) -> list[int]:
    return list(cs) if k == 1 else [k * c for c in cs]


def _poly(num: list[int], den: int) -> Poly:
    """The Poly num/den in its one stored form; den is a nonzero int.
    Strips trailing zeros and divides out gcd(content(num), den)."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den < 0:
        num, den = [-c for c in num], -den
    if den != 1:
        g = _content(num, den)
        if g != 1:
            num, den = [c // g for c in num], den // g
    p = object.__new__(Poly)
    p._num, p._den = tuple(num), den
    return p


def _pdiv(a: Iterable[int], b: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of a by nonzero b: (q, r, s) with
    s * a = q * b + r, deg r < deg b and s a power of lc(b).  A step
    scales by lc(b) only when the top coefficient is not already a
    multiple of it, so dividing by an integer monic b never scales."""
    r = list(a)
    n, lead = len(b) - 1, b[-1]
    q = [0] * max(len(r) - n, 0)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        if not c:
            continue
        if c % lead:
            r, q, s, c = _times(r, lead), _times(q, lead), s * lead, c * lead
        t = c // lead
        q[k] = t
        for i in range(n):
            r[k + i] -= t * b[i]
    return q, r, s


ZERO = _poly([], 1)
ONE = _poly([1], 1)
X = _poly([0, 1], 1)


def _primitive(cs: Iterable[int]) -> list[int]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    g = _content(cs)
    return cs if g <= 1 else [c // g for c in cs]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd; gcd(p, 0) is monic p, gcd(0, 0) is an error.

    A nonzero constant operand makes the gcd 1 at once.  Otherwise
    ``_prs_gcd`` runs on the integer numerators, and its result is made
    monic.  The result is monic, so dividing a monic polynomial by it
    leaves a monic quotient: the fraction arithmetic in ``rational``
    relies on that to keep its denominators monic without rescaling.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.degree == 0 or q.degree == 0:
        return ONE
    g = _prs_gcd(p._num, q._num)
    return _poly(g, g[-1])


def _prs_gcd(a: Iterable[int], b: Iterable[int]) -> list[int]:
    """A primitive gcd of two integer polynomials, not both zero, by
    Collins's primitive remainder sequence: the primitive part of every
    pseudo-remainder, up to the last nonzero one."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        a, b = b, _primitive(_pdiv(a, b)[1])
    return [1] if b else a


def _eval_mod(cs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_mod(s: list[int], ds: list[int]) -> tuple[int, list[int]]:
    """(l, roots): the smallest odd prime l not dividing lc(s) at which
    every root of s mod l is simple (ds = s' is a unit there), and
    those roots.  Only primes dividing lc(s) * disc(s) are passed over,
    so for a square-free s the search ends."""
    ell = 1
    while True:
        ell += 2
        if not s[-1] % ell or any(not ell % d for d in range(3, isqrt(ell) + 1, 2)):
            continue
        sm, dm = [c % ell for c in s], [c % ell for c in ds]
        roots = [r for r in range(ell) if not _eval_mod(sm, r, ell)]
        if all(_eval_mod(dm, r, ell) for r in roots):
            return ell, roots


def _root_candidates(s: list[int]) -> list[Fraction]:
    """Rationals among which are all rational roots of the primitive
    square-free s of degree >= 1, by Loos's p-adic method.

    Take l as in ``_simple_roots_mod``.  A root a/b of s in lowest
    terms has b | lc(s), so it reduces to one of the simple roots of s
    mod l, and Newton's iteration lifts that root to the unique l-adic
    root above it.  B = |lc(s)| + max|c_i| (Cauchy's bound) bounds
    |lc(s) * a/b|, so once the modulus m exceeds 2B the symmetric
    residue of lc(s) * root mod m is lc(s) * a/b exactly.
    """
    lead = s[-1]
    if len(s) == 2:
        return [Fraction(-s[0], lead)]
    ds = _derivative(s)
    top = 2 * (abs(lead) + max(abs(c) for c in s))
    ell, residues = _simple_roots_mod(s, ds)
    out = []
    for r in residues:
        m = ell
        while m <= top:
            m *= m
            r = (r - _eval_mod(s, r, m) * pow(_eval_mod(ds, r, m), -1, m)) % m
        v = lead * r % m
        out.append(Fraction(v - m if 2 * v > m else v, lead))
    return out


def _deflate(cs: list[int], p: int, q: int) -> Optional[list[int]]:
    """The integer quotient of cs by (q x - p), or None when (q x - p)
    does not divide it.  For a primitive cs and coprime p, q, Gauss's
    lemma makes the quotient integral when p/q is a root, so a step that
    does not divide exactly proves p/q is no root."""
    out = []
    acc = 0
    for c in reversed(cs[1:]):
        acc, rem = divmod(c + p * acc, q)
        if rem:
            return None
        out.append(acc)
    if cs[0] + p * acc:
        return None
    out.reverse()
    return out


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, sorted by value.

    No coefficient is factored.  ``_root_candidates`` lists candidates
    from the square-free part s = f / gcd(f, f') of the primitive
    integer numerator f.  Each is tried by exact integer division of f
    by (b x - a), repeated for its multiplicity; a spurious candidate
    fails the first division.
    """
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    if p.degree == 0:
        return []
    roots: dict[Fraction, int] = {}
    zero_mult = 0
    while not p._num[zero_mult]:
        zero_mult += 1
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    work = _primitive(p._num[zero_mult:])
    if len(work) > 1:
        g = _prs_gcd(work, _derivative(work))
        s = work if len(g) == 1 else _primitive(_pdiv(work, g)[0])
        for a in _root_candidates(s):
            mult = 0
            while len(work) > 1 and (quotient := _deflate(work, a.numerator, a.denominator)) is not None:
                work, mult = quotient, mult + 1
            if mult:
                roots[a] = mult
    return sorted(roots.items())


def linear_part(p: Poly) -> Poly:
    """Monic product of (x - a)^m over the rational roots a of p."""
    out = ONE
    for r, m in rational_roots(p):
        out = out * (Poly([-r, 1]) ** m)
    return out
