"""Integer factorization, syntactic and numeric.

The numeric side (``factor_int``) maps any integer to a sign and an
ordered list of (prime, exponent) pairs.  The syntactic side turns that
data into a product term ``s * (p0^e0 * (p1^e1 * ...))`` over the
integer operators and recognizes exactly those terms.  ``factor`` is
the syntax-to-syntax operation: defined on numerals only.

Algorithm: trial division by the 6,542 primes below 2**16 (sieved on
first use, not at import), stopping once p*p exceeds what is left;
whatever cofactor survives is split with Brent's variant of Pollard's
rho, certifying primes with a Miller-Rabin test that runs as many prime
bases as the size of n needs.  Up to 13 bases (2 to 41) make it exact
below psi_13 = 3317044064679887385961981, about 3.3e24, so in particular
for anything 64-bit; above that a 14th base (43) runs and a prime is
probable.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .terms import (
    INT,
    App,
    Arrow,
    Const,
    IntLit,
    IntV,
    SynTerm,
    Value,
    fold,
    match_binary,
    op_table,
    register_constant,
    register_evaluator,
)

_TRIAL_LIMIT = 1 << 16

# integer operator constants (registering makes them well-typed)
ADD_I: Const = register_constant("+", Arrow(INT, Arrow(INT, INT)))
MUL_I: Const = register_constant("*", Arrow(INT, Arrow(INT, INT)))
POW_I: Const = register_constant("^", Arrow(INT, Arrow(INT, INT)))
NEG_I: Const = register_constant("-", Arrow(INT, INT))


def i_add(a: SynTerm, b: SynTerm) -> SynTerm:
    return App(App(ADD_I, a), b)


def i_mul(a: SynTerm, b: SynTerm) -> SynTerm:
    return App(App(MUL_I, a), b)


def i_pow(a: SynTerm, b: SynTerm) -> SynTerm:
    return App(App(POW_I, a), b)


def i_neg(a: SynTerm) -> SynTerm:
    return App(NEG_I, a)


_INT_UNARY = op_table({NEG_I: operator.neg})
_INT_BINARY = op_table(
    {ADD_I: operator.add, MUL_I: operator.mul, POW_I: lambda a, b: a**b if b >= 0 else None}
)


def _eval_int(b: SynTerm) -> Value | None:
    """Value of a closed integer term; None where no value exists (a free
    variable, a negative exponent) and on terms of other types: the fold
    is defined only where every leaf is an integer literal and every
    operator an integer one."""
    v = fold(b, lambda t: t.value if type(t) is IntLit else None, _INT_UNARY, _INT_BINARY)
    return IntV(v) if v is not None else None


register_evaluator(INT, _eval_int)


# ---------------------------------------------------------------------------
# primality and splitting

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

# _PSI[k - 1] is psi_k, the least odd composite that is a strong
# pseudoprime to each of the first k prime bases (OEIS A014233;
# Sorenson & Webster, Math. Comp. 2017).  Below psi_k those k bases
# decide primality exactly.
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first k prime bases, k = 1 + #{j : psi_j <= n}.

    So a 20-bit n takes two bases and a 64-bit one at most twelve, and
    the answer is exact below psi_13 = 3317044064679887385961981 (about
    3.3e24).  Bases 2 to 37 alone are exact only below psi_12 =
    318665857834031151167461 = 399165290221 * 798330580441.  From
    psi_13 on, all 14 bases (2 to 43) run, which rejects psi_13 itself,
    and True means probable prime.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, Brent's cycle variant.

    The constant c steps deterministically, so runs are reproducible.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


@functools.cache
def _small_primes() -> tuple[int, ...]:
    """The primes below _TRIAL_LIMIT, by a bytearray sieve on first use."""
    sieve = bytearray([1]) * _TRIAL_LIMIT
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(_TRIAL_LIMIT - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, _TRIAL_LIMIT, i)))
    return tuple(itertools.compress(range(_TRIAL_LIMIT), sieve))


def _split(n: int, out: list[int]) -> None:
    # n > 1 and has no prime factor below _TRIAL_LIMIT here
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT or is_probable_prime(n):
        out.append(n)
        return
    d = _brent_rho(n)
    _split(d, out)
    _split(n // d, out)


def factor_int(n: int) -> "PrimeFactorization":
    """Sign and ordered prime powers of n; remult inverts it exactly."""
    if n == 0:
        return PrimeFactorization(0, ())
    sign = 1 if n > 0 else -1
    n = abs(n)
    powers: dict[int, int] = {}
    root = math.isqrt(n)
    for p in _small_primes():
        if p > root:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            powers[p] = e
            root = math.isqrt(n)
    if n > 1:
        rest: list[int] = []
        _split(n, rest)
        for p in rest:
            powers[p] = powers.get(p, 0) + 1
    factors = tuple(sorted(powers.items()))
    return PrimeFactorization(sign, factors)


@dataclass(frozen=True)
class PrimeFactorization:
    """sign in {-1, 0, +1} plus strictly increasing (prime, exponent) pairs.

    sign 0 means the value 0 and carries no factors; signs +-1 with an
    empty factor list mean +-1.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.sign == 0 and self.factors:
            raise ValueError("zero has no prime factors")
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p


def remult(pf: PrimeFactorization) -> int:
    """Multiply a factorization back out (construction already validates)."""
    n = pf.sign
    for p, e in pf.factors:
        n *= p**e
    return n


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n != 0, via its prime factorization."""
    if n == 0:
        raise ValueError("zero has infinitely many divisors")
    ds = [1]
    for p, e in factor_int(abs(n)).factors:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


# ---------------------------------------------------------------------------
# the syntactic side


def is_numeral(t: SynTerm) -> bool:
    """Numerals are the nonnegative integer literals."""
    return isinstance(t, IntLit) and t.value >= 0


def decomp_to_term(pf: PrimeFactorization) -> SynTerm:
    """The canonical product term for a factorization.

    0 and +-1 are bare literals (0, 1, -1); otherwise the shape is
    sign * (p0^e0 * (p1^e1 * ...)) with the power chain nested to the
    right.
    """
    if pf.sign == 0:
        return IntLit(0)
    sign_term: SynTerm = IntLit(1) if pf.sign > 0 else i_neg(IntLit(1))
    if not pf.factors:
        return sign_term
    chain: SynTerm | None = None
    for p, e in reversed(pf.factors):
        power = i_pow(IntLit(p), IntLit(e))
        chain = power if chain is None else i_mul(power, chain)
    return i_mul(sign_term, chain)


def is_prime_decomp(t: SynTerm) -> bool:
    """Exactly the terms decomp_to_term can produce."""
    if t == IntLit(0) or t == IntLit(1) or t == i_neg(IntLit(1)):
        return True
    parts = match_binary(t, MUL_I)
    if parts is None:
        return False
    sign_term, chain = parts
    if sign_term != IntLit(1) and sign_term != i_neg(IntLit(1)):
        return False
    last = 1
    while True:
        inner = match_binary(chain, MUL_I)
        if inner is None:
            power, rest = chain, None
        else:
            power, rest = inner
        pe = match_binary(power, POW_I)
        if pe is None:
            return False
        p_term, e_term = pe
        if not isinstance(p_term, IntLit) or not isinstance(e_term, IntLit):
            return False
        if p_term.value <= last or e_term.value < 1:
            return False
        if not is_probable_prime(p_term.value):
            return False
        last = p_term.value
        if rest is None:
            return True
        chain = rest


def factor(t: SynTerm) -> SynTerm | None:
    """Prime-decomposition term of a numeral; None on anything else."""
    if not is_numeral(t):
        return None
    return decomp_to_term(factor_int(t.value))


def to_maple_list(pf: PrimeFactorization) -> str:
    """Render as the Maple ifactors list, e.g. "[1, [[2, 2], [3, 1]]]"."""
    if pf.sign == 0:
        raise ValueError("no list shape for zero")
    pairs = ", ".join(f"[{p}, {e}]" for p, e in pf.factors)
    return f"[{pf.sign}, [{pairs}]]"
