"""Integer factorization, syntactic and numeric.

The numeric side (``factor_int``) maps any integer to a sign and an
ordered list of (prime, exponent) pairs.  The syntactic side turns that
data into a product term ``s * (p0^e0 * (p1^e1 * ...))`` over the
integer operators and recognizes exactly those terms.  ``factor`` is
the syntax-to-syntax operation: defined on numerals only.

Algorithm: trial division by the 6,542 primes below 2**16 (sieved on
first use, not at import), stopping once p*p exceeds what is left; a
block of 64 consecutive table primes whose product is prime to n is
skipped with one gcd.  A cofactor that survives and is not prime is
first tested for a perfect power; otherwise Brent's rho runs for a
fixed budget of about 2,000 steps, past which a first curve is the
cheaper next step, and if that finds nothing, Lenstra's elliptic-curve
method does, on a fixed schedule of stage bounds and curves whose last
stage repeats.  A curve's ladder starts from an affine point, and its
stage 2 makes every point affine with one batch inversion, so that each
prime pair costs one modular multiply.  Primes are certified by a
Miller-Rabin test that runs as many prime bases as the size of n needs.
Up to 13 bases (2 to 41) make it exact below psi_13 =
3317044064679887385961981, about 3.3e24, so in particular for anything
64-bit; above that a 14th base (43) runs and a prime is probable.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator

from .terms import (
    ADD_I,
    INT,
    MUL_I,
    NEG_I,
    POW_I,
    App,
    IntLit,
    IntV,
    Record,
    SynTerm,
    Value,
    fold,
    match_binary,
    match_unary,
    op_table,
    register_evaluator,
)

_TRIAL_LIMIT = 1 << 16
_BLOCK = 64  # table primes per gcd block in the trial walk


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


def _sieve(limit: int) -> bytearray:
    """flags[i] == 1 exactly when 0 <= i < limit is prime (Eratosthenes)."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


@functools.cache
def _small_primes() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The primes below _TRIAL_LIMIT in blocks of _BLOCK consecutive
    ones, each block with its product; sieved on first use."""
    primes = tuple(itertools.compress(range(_TRIAL_LIMIT), _sieve(_TRIAL_LIMIT)))
    blocks = (primes[i : i + _BLOCK] for i in range(0, len(primes), _BLOCK))
    return tuple((math.prod(b), b) for b in blocks)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with r**k == n and k > 1 least, else (n, 1).  n has no
    prime factor below _TRIAL_LIMIT = 2**16, so k < n.bit_length() / 16."""
    for k in range(2, n.bit_length() // 16 + 1):
        r = math.isqrt(n) if k == 2 else _iroot(n, k)
        if r**k == n:
            return r, k
    return n, 1


# Brent's rho gives up once its cycle length r passes this, after about
# 2,000 steps (0.4-0.7 ms), by which it splits about 9 in 10 products of
# two 20-bit primes.  One more doubling costs 0.6 ms and splits under half
# of the rest at 48 bits, none at 56-64; a first curve costs 1.0-1.2 ms.
_RHO_BUDGET = 1 << 9


def _rho(n: int) -> int | None:
    """A nontrivial factor of odd composite n by Brent's variant of
    Pollard's rho with x -> x*x + 1, or None within _RHO_BUDGET."""
    y, m, g, r, q = 2, 128, 1, 1, 1
    x = ys = y
    while g == 1:
        if r > _RHO_BUDGET:
            return None
        x = y
        for _ in range(r):
            y = (y * y + 1) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + 1) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + 1) % n
            g = math.gcd(x - ys, n)
    return g if g != n else None


# Elliptic-curve stages (B1, B2, curves): each curve runs stage 1 to B1
# and stage 2 to B2, on a new sigma; after the last stage's curves that
# stage runs again, so a factor always turns up.  B1 > D/2 keeps the
# first giant step at m >= 1.
_ECM_STAGES = ((200, 10_000, 20), (500, 50_000, 40), (2_000, 200_000, 60), (11_000, 1_100_000, 100))
_ECM_D = 210
# Odd j < D/2 prime to D: every prime q > 7 is m*D + j or m*D - j.
_ECM_BABY = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)


@functools.cache
def _ecm_stage(i: int) -> tuple[int, int, tuple[bytes, ...]]:
    """The tables of stage _ECM_STAGES[i], built on first use: the
    stage-1 multiplier lcm(1..B1), the first giant step m0, and for each
    giant step m = m0, m0 + 1, ... the indices into _ECM_BABY of the j
    with m*D - j or m*D + j a prime in (B1, B2]."""
    b1, b2, _ = _ECM_STAGES[i]
    flags = _sieve(b2 + 1)
    k = 1
    for p in itertools.compress(range(b1 + 1), flags[: b1 + 1]):
        pe = p
        while pe * p <= b1:
            pe *= p
        k *= pe
    d = _ECM_D
    m0 = (b1 + d // 2) // d
    index = {j: i for i, j in enumerate(_ECM_BABY)}
    steps: list[set[int]] = [set() for _ in range(m0, (b2 + d // 2) // d + 1)]
    for q in itertools.compress(range(b1 + 1, b2 + 1), flags[b1 + 1 :]):
        m = (q + d // 2) // d
        steps[m - m0].add(index[abs(q - m * d)])
    giants = tuple(bytes(sorted(s)) for s in steps)
    return k, m0, giants


def _ladder(k: int, x: int, n: int, a24: int) -> tuple[int, int, int, int]:
    """k*P and (k+1)*P on the Montgomery curve with (A + 2)/4 = a24,
    for P = (x : 1) and k >= 1, as x-only projective coordinates."""
    x1, z1 = x, 1
    s, d = x + 1, x - 1
    ss, dd = s * s % n, d * d % n
    t = ss - dd
    x2, z2 = ss * dd % n, t * (dd + a24 * t) % n
    for bit in bin(k)[3:]:
        a, b = (x1 - z1) * (x2 + z2) % n, (x1 + z1) * (x2 - z2) % n
        xa, za = (a + b) ** 2 % n, x * (a - b) ** 2 % n
        if bit == "1":
            s, d = x2 + z2, x2 - z2
            x1, z1 = xa, za
        else:
            s, d = x1 + z1, x1 - z1
            x2, z2 = xa, za
        ss, dd = s * s % n, d * d % n
        t = ss - dd
        if bit == "1":
            x2, z2 = ss * dd % n, t * (dd + a24 * t) % n
        else:
            x1, z1 = ss * dd % n, t * (dd + a24 * t) % n
    return x1, z1, x2, z2


def _ecm_curve(n: int, sigma: int, stage: tuple[int, int, tuple[bytes, ...]]) -> int:
    """gcd(n, ...) from one curve, Suyama's curve for sigma: stage 1 by
    an x-only ladder, then stage 2 from its point made affine.  1 and n
    mean this curve found no proper factor."""
    k, m0, giants = stage
    u, v = sigma * sigma - 5, 4 * sigma
    c = 16 * u**3 * v**4 % n
    try:
        inv = pow(c, -1, n)
    except ValueError:
        return math.gcd(c, n)
    x = 16 * u**6 * v * inv % n  # u^3 / v^3
    a24 = (v - u) ** 3 * (3 * u + v) * v**3 * inv % n  # (v-u)^3 (3u+v) / (16 u^3 v)
    x, z, _, _ = _ladder(k, x, n, a24)
    try:
        x = x * pow(z, -1, n) % n
    except ValueError:
        return math.gcd(z, n)
    return _ecm_stage2(n, x, a24, m0, giants)


def _ecm_stage2(n: int, x: int, a24: int, m0: int, giants: tuple[bytes, ...]) -> int:
    """Baby-step/giant-step stage 2 from Q = (x : 1): gcd(n, product of
    x(m*D*Q) - x(j*Q) over the (m, j) that giants lists), x affine."""
    # baby steps: j*Q for odd j < D/2, from (j + 2)Q = jQ + 2Q
    _, _, x2, z2 = _ladder(1, x, n, a24)
    xs, zs = [], []
    xp, zp, xj, zj = x, 1, x, 1  # (j - 2)Q and jQ, from j = 1: x(-Q) = x(Q)
    for j in range(1, _ECM_D // 2, 2):
        if math.gcd(j, _ECM_D) == 1:
            xs.append(xj)
            zs.append(zj)
        a, b = (xj - zj) * (x2 + z2) % n, (xj + zj) * (x2 - z2) % n
        xp, zp, xj, zj = xj, zj, zp * (a + b) ** 2 % n, xp * (a - b) ** 2 % n
    # giant steps m*D*Q for m = m0, m0 + 1, ..., laddered from the affine D*Q
    xd, zd, _, _ = _ladder(_ECM_D, x, n, a24)
    try:
        xd = xd * pow(zd, -1, n) % n
    except ValueError:
        return math.gcd(zd, n)
    xm, zm, xn, zn = _ladder(m0, xd, n, a24)
    for _ in giants:
        xs.append(xm)
        zs.append(zm)
        a, b = (xn - zn) * (xd + 1) % n, (xn + zn) * (xd - 1) % n
        xm, zm, xn, zn = xn, zn, zm * (a + b) ** 2 % n, xm * (a - b) ** 2 % n
    # every x made affine with one inversion (Montgomery's batch trick)
    prefix = list(itertools.accumulate(zs, lambda p, z: p * z % n, initial=1))
    try:
        inv = pow(prefix[-1], -1, n)
    except ValueError:
        return math.gcd(prefix[-1], n)
    for i in range(len(zs) - 1, -1, -1):
        xs[i] = xs[i] * prefix[i] % n * inv % n
        inv = inv * zs[i] % n
    # x(mDQ) = x(jQ) mod p when (mD - j)Q or (mD + j)Q is the identity mod p
    acc = 1
    for xm, idx in zip(xs[len(_ECM_BABY) :], giants):
        for i in idx:
            acc = acc * (xm - xs[i]) % n
    return math.gcd(acc, n)


def _ecm(n: int) -> int:
    """A nontrivial factor of n, composite and not a perfect power, by
    Lenstra's elliptic-curve method (Ann. Math. 1987) on Montgomery
    curves (Math. Comp. 1987), with sigma = 6, 7, 8, ... in turn."""
    sigma, i = 6, 0
    while True:
        stage = _ecm_stage(i)
        for _ in range(_ECM_STAGES[i][2]):
            g = _ecm_curve(n, sigma, stage)
            sigma += 1
            if 1 < g < n:
                return g
        i = min(i + 1, len(_ECM_STAGES) - 1)


def _split(n: int, out: list[int]) -> None:
    # n > 1 and has no prime factor below _TRIAL_LIMIT here
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT or is_probable_prime(n):
        out.append(n)
        return
    r, k = _perfect_power(n)
    if k > 1:
        primes: list[int] = []
        _split(r, primes)
        out.extend(primes * k)
        return
    d = _rho(n) or _ecm(n)
    _split(d, out)
    _split(n // d, out)


def factor_int(n: int) -> "PrimeFactorization":
    """Sign and ordered prime powers of n; remult inverts it exactly."""
    if n == 0:
        return _factorization(0, ())
    sign = 1 if n > 0 else -1
    n = abs(n)
    powers: dict[int, int] = {}
    root = math.isqrt(n)
    for prod, block in _small_primes():
        if block[0] > root:
            break
        if math.gcd(prod, n) == 1:
            continue
        for p in block:
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
    return _factorization(sign, tuple(sorted(powers.items())))


class PrimeFactorization(Record):
    """sign in {-1, 0, +1} plus strictly increasing (prime, exponent) pairs.

    sign 0 means the value 0 and carries no factors; signs +-1 with an
    empty factor list mean +-1.
    """

    __slots__ = ("sign", "factors")

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]) -> None:
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if sign == 0 and factors:
            raise ValueError("zero has no prime factors")
        last = 1
        for p, e in factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "factors", factors)


def _factorization(sign: int, factors: tuple[tuple[int, int], ...]) -> PrimeFactorization:
    """A PrimeFactorization from factors already known to be increasing
    primes, without the public constructor's checks."""
    pf = object.__new__(PrimeFactorization)
    object.__setattr__(pf, "sign", sign)
    object.__setattr__(pf, "factors", factors)
    return pf


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


def _is_unit(t: SynTerm) -> bool:
    """t is the literal 1 or its negation, the sign of a decomposition."""
    lit = match_unary(t, NEG_I) or t
    return type(lit) is IntLit and lit.value == 1


def is_prime_decomp(t: SynTerm) -> bool:
    """Exactly the terms decomp_to_term can produce."""
    if (type(t) is IntLit and t.value == 0) or _is_unit(t):
        return True
    parts = match_binary(t, MUL_I)
    if parts is None or not _is_unit(parts[0]):
        return False
    chain = parts[1]
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
