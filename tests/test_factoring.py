"""Integer factoring: decomposition terms, the Maple-style listing, and
the numeral gate, all checked against an independent trial-division
oracle defined below (written before the implementation was consulted).
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microcas import factoring
from microcas.factoring import (
    PrimeFactorization,
    decomp_to_term,
    divisors,
    factor,
    factor_int,
    is_numeral,
    is_prime_decomp,
    is_probable_prime,
    remult,
    to_maple_list,
)
from microcas.terms import INT, IntLit, IntV, RatLit, Var, eval_as, quote


def trial_division_oracle(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Reference factorization by pure trial division.

    Returns (sign, ((p, e), ...)) with primes strictly increasing.
    Deliberately naive and slow so it shares no code with the library.
    """
    if n == 0:
        return 0, ()
    sign = 1 if n > 0 else -1
    n = abs(n)
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return sign, tuple(out)


def sieve(limit: int) -> list[bool]:
    """Eratosthenes: sieve(limit)[n] says whether n < limit is prime."""
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, limit):
        if flags[i] and i * i < limit:
            for j in range(i * i, limit, i):
                flags[j] = False
    return flags


SIEVE_LIMIT = 1 << 18
SIEVE = sieve(SIEVE_LIMIT)
SIEVE_PRIMES = [p for p in range(SIEVE_LIMIT) if SIEVE[p]]


def reference_is_prime(n: int) -> bool:
    """Exact below 2**36, by trial division with the sieved primes; above
    that a strong probable-prime test to 32 bases drawn at random, which
    calls a composite prime with probability below 4**-32."""
    if n < SIEVE_LIMIT:
        return SIEVE[n]
    for p in SIEVE_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    rng = random.Random(n)
    return all(strong_probable_prime(n, rng.randrange(2, n - 1)) for _ in range(32))


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the strong test to base a (Miller)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# psi_k, the least odd composite that is a strong pseudoprime to each of
# the first k prime bases (OEIS A014233), with its prime factors.
PSI = {
    1: (2047, (23, 89)),
    2: (1373653, (829, 1657)),
    3: (25326001, (2251, 11251)),
    4: (3215031751, (151, 751, 28351)),
    5: (2152302898747, (6763, 10627, 29947)),
    6: (3474749660383, (1303, 16927, 157543)),
    7: (341550071728321, (10670053, 32010157)),
    8: (341550071728321, (10670053, 32010157)),
    9: (3825123056546413051, (149491, 747451, 34233211)),
    10: (3825123056546413051, (149491, 747451, 34233211)),
    11: (3825123056546413051, (149491, 747451, 34233211)),
    12: (318665857834031151167461, (399165290221, 798330580441)),
    13: (3317044064679887385961981, (1287836182261, 2575672364521)),
}
FIRST_PRIMES = SIEVE_PRIMES[:13]


def test_oracle_sanity():
    assert trial_division_oracle(0) == (0, ())
    assert trial_division_oracle(1) == (1, ())
    assert trial_division_oracle(-1) == (-1, ())
    assert trial_division_oracle(12) == (1, ((2, 2), (3, 1)))
    assert trial_division_oracle(-97) == (-1, ((97, 1),))
    assert trial_division_oracle(2**10) == (1, ((2, 10),))


@given(st.integers(min_value=-(10**6), max_value=10**6))
@settings(max_examples=300)
def test_factor_int_matches_oracle(n):
    pf = factor_int(n)
    assert (pf.sign, pf.factors) == trial_division_oracle(n)


@given(st.integers(min_value=-(10**9), max_value=10**9))
@settings(max_examples=200)
def test_remult_inverts_factor_int(n):
    assert remult(factor_int(n)) == n


def test_factor_int_structure_is_sorted_primes():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 10**7)
        pf = factor_int(n)
        primes = [p for p, _ in pf.factors]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        for p, e in pf.factors:
            assert e >= 1
            assert trial_division_oracle(p) == (1, ((p, 1),))


def test_factor_int_large_semiprime_and_prime_power():
    # 2^64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417
    pf = factor_int(2**64 - 1)
    assert pf.sign == 1
    assert pf.factors == (
        (3, 1),
        (5, 1),
        (17, 1),
        (257, 1),
        (641, 1),
        (65537, 1),
        (6700417, 1),
    )
    big = 1_000_003  # prime just above the trial-division bound's comfort zone
    pf2 = factor_int(big * big)
    assert pf2.factors == ((big, 2),)


def test_is_probable_prime_agrees_with_sieve():
    # Crosses psi_1 = 2047, where the test goes from one base to two.
    for n in range(SIEVE_LIMIT):
        assert is_probable_prime(n) == SIEVE[n], n


def test_reference_is_prime_sanity():
    assert reference_is_prime(2**31 - 1)
    assert reference_is_prime(2**61 - 1)
    assert reference_is_prime(2**89 - 1)
    assert not reference_is_prime((2**31 - 1) * (2**61 - 1))
    assert not reference_is_prime(PSI[13][0])


@pytest.mark.parametrize("k", sorted(PSI))
def test_psi_k_is_rejected_though_the_first_k_bases_pass_it(k):
    n, primes = PSI[k]
    assert math.prod(primes) == n
    assert all(reference_is_prime(q) for q in primes)
    # So a test that stopped after k bases would call n prime.
    assert all(strong_probable_prime(n, a) for a in FIRST_PRIMES[:k])
    assert not is_probable_prime(n)


@pytest.mark.parametrize("k", sorted(PSI))
def test_is_probable_prime_near_psi_k(k):
    # Each psi_k is where the test adds a base.  The window holds the
    # nearest primes on both sides, which must be accepted.
    n = PSI[k][0]
    window = range(n - 300, n + 301)
    primes = [m for m in window if reference_is_prime(m)]
    assert min(primes) < n < max(primes)
    for m in window:
        assert is_probable_prime(m) == reference_is_prime(m), m


def test_psi_12_factors_and_prints_both_primes():
    # Bases 2 to 37 alone call psi_12 prime; base 41 exposes it.
    n = PSI[12][0]
    pf = factor_int(n)
    assert (pf.sign, pf.factors) == (1, ((399165290221, 1), (798330580441, 1)))
    assert remult(pf) == n
    proc = subprocess.run(
        [sys.executable, "-m", "microcas", "factor", str(n)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 * (399165290221^1 * 798330580441^1)"


TABLE_EDGE = [
    65521**2,  # the largest table prime, squared
    65521 * 65537,  # ... times the first prime past the table
    65537**2,
    65521**2 * 65537,
    2 * 65537,
    65536,
    65537 * 65539,
    *range(2**32 - 16, 2**32 + 17),
    4294967311,  # the least prime above 2**32
    3 * 4294967311,
    65521 * 4294967311,
    2**16 * 4294967311,
]


@pytest.mark.parametrize("n", TABLE_EDGE)
def test_factor_int_matches_oracle_at_the_table_limit(n):
    pf = factor_int(n)
    assert (pf.sign, pf.factors) == trial_division_oracle(n)


PRIMES_15_17 = [p for p in SIEVE_PRIMES if p >= 1 << 15]


@given(st.sampled_from(PRIMES_15_17), st.sampled_from(PRIMES_15_17))
@settings(max_examples=100, deadline=None)
def test_factor_int_on_two_primes_across_the_table_limit(p, q):
    pf = factor_int(p * q)
    assert (pf.sign, pf.factors) == trial_division_oracle(p * q)


def prime_at_or_below(n: int) -> int:
    while not reference_is_prime(n):
        n -= 1
    return n


def oracle_of_product(*primes: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The oracle's factorization of a product of primes, each certified
    by trial_division_oracle (cheap, because each factor is small)."""
    powers: dict[int, int] = {}
    for p in primes:
        assert trial_division_oracle(p) == (1, ((p, 1),))
        powers[p] = powers.get(p, 0) + 1
    return 1, tuple(sorted(powers.items()))


PRIMES_16_34 = st.integers(min_value=(1 << 16) + 2, max_value=1 << 34).map(prime_at_or_below)


@given(PRIMES_16_34, PRIMES_16_34)
@settings(max_examples=60, deadline=None)
def test_factor_int_on_two_primes_past_the_table(p, q):
    # Rho's budget of about 2,000 steps splits most products of two
    # 20-bit primes; past about 2**20 the curves split what rho leaves.
    pf = factor_int(p * q)
    assert (pf.sign, pf.factors) == oracle_of_product(p, q)


POWERS_PAST_THE_TABLE = [
    (65537, 2),
    (4294967311, 2),
    (2**31 - 1, 3),
    (65537, 5),
    (2**61 - 1, 2),
    (2**89 - 1, 2),  # no splitter would find an 89-bit factor
]


@pytest.mark.parametrize("p, e", POWERS_PAST_THE_TABLE)
def test_prime_powers_past_the_table_need_no_splitter(p, e, monkeypatch):
    def refuse(n):
        raise AssertionError(f"splitter called on {n}")

    monkeypatch.setattr(factoring, "_rho", refuse)
    monkeypatch.setattr(factoring, "_ecm", refuse)
    pf = factor_int(p**e)
    assert (pf.sign, pf.factors) == (1, ((p, e),))


def test_prime_power_times_a_prime_past_the_table():
    p, q = 4294967311, 65537
    pf = factor_int(p**2 * q**3)
    assert pf.factors == ((q, 3), (p, 2))


def test_products_of_three_17_bit_primes():
    rng = random.Random(17)
    primes = [p for p in SIEVE_PRIMES if p >= 1 << 16 and p < 1 << 17]
    cases = [(65537, 65539, 65543), (131071, 131071, 65537)]
    cases += [tuple(rng.sample(primes, 3)) for _ in range(20)]
    for ps in cases:
        n = math.prod(ps)
        pf = factor_int(n)
        assert (pf.sign, pf.factors) == oracle_of_product(*ps), n


# Chernick's (6k+1)(12k+1)(18k+1) with all three factors prime: strong
# liars to no base, but Fermat liars to every base prime to them.
CARMICHAEL = [
    (1171, 2341, 3511),  # k = 195, the least of this form above 2**32
    (1237, 2473, 3709),
    (65851, 131701, 197551),  # k = 10975, the first with all factors past the table
    (66271, 132541, 198811),
]


@pytest.mark.parametrize("ps", CARMICHAEL)
def test_carmichael_numbers_above_2_32(ps):
    n = math.prod(ps)
    assert n > 2**32
    assert all(pow(a, n - 1, n) == 1 for a in (2, 3, 5, 7))
    assert not is_probable_prime(n)
    pf = factor_int(n)
    assert (pf.sign, pf.factors) == oracle_of_product(*ps)


def test_a_curve_that_finds_all_of_n_in_stage_1_gives_way_to_the_next(monkeypatch):
    # The first curve (sigma = 6) of the first stage reaches the identity
    # in stage 1 modulo each of these primes, so its stage-1 gcd is n.
    p, q = 131111, 131171
    n = p * q
    stage = factoring._ecm_stage(0)

    def no_stage_2(*args):
        raise AssertionError("stage 2 ran")

    with monkeypatch.context() as m:
        m.setattr(factoring, "_ecm_stage2", no_stage_2)
        assert factoring._ecm_curve(n, 6, stage) == n
    assert factoring._ecm(n) in (p, q)
    assert factor_int(n).factors == ((p, 1), (q, 1))


def test_stage_2_finds_every_prime_order_in_its_range(monkeypatch):
    # Modulo a prime p, stage 2 must reach the identity whenever the
    # stage-1 point Q has a prime order q in (B1, B2]: checked against
    # q*Q computed by the ladder for every such q.
    p = 1048573
    b1, b2, _ = factoring._ECM_STAGES[0]
    stage = factoring._ecm_stage(0)
    primes = [q for q in range(b1 + 1, b2 + 1) if SIEVE[q]]
    stage_1_points = []
    stage_2 = factoring._ecm_stage2

    def record(n, x, a24, m0, giants):
        stage_1_points.append((x, a24))
        return stage_2(n, x, a24, m0, giants)

    monkeypatch.setattr(factoring, "_ecm_stage2", record)
    found = 0
    for sigma in range(6, 46):
        del stage_1_points[:]
        g = factoring._ecm_curve(p, sigma, stage)
        if not stage_1_points:
            continue  # stage 1 already reached the identity
        x, a24 = stage_1_points[0]
        has_prime_order = any(
            factoring._ladder(q, x, p, a24)[1] % p == 0 for q in primes
        )
        if has_prime_order:
            assert g == p, sigma
            found += 1
    assert found >= 5


# Products of two 20-bit primes (seeded draws).
RHO_PAIRS = [
    (949633, 824893), (706751, 666607), (890597, 867619), (868999, 844717),
    (778717, 561091), (612107, 790021), (727123, 695573), (583021, 537899),
    (756331, 978217), (688631, 817651), (759193, 544723), (727079, 793253),
]


def test_rho_budget_splits_most_20_bit_factors_and_leaves_32_bit_ones(monkeypatch):
    def refuse(n):
        raise AssertionError(f"curves called on {n}")

    # The budget splits 11 of these 12 (r <= 2**8 splits 4, r <= 2**10
    # all 12), and leaves a product of two 32-bit primes to the curves.
    monkeypatch.setattr(factoring, "_ecm", refuse)
    split = [(p, q) for p, q in RHO_PAIRS if factoring._rho(p * q) in (p, q)]
    assert len(split) >= 10
    for p, q in split:
        pf = factor_int(p * q)
        assert (pf.sign, pf.factors) == oracle_of_product(p, q)
    assert factoring._rho(4294967291 * 4294967279) is None


# One semiprime of each integer size that the `large` benchmark factors.
RUNG_SEMIPRIMES = {
    40: (763111, 789149),
    48: (14628167, 10547351),
    56: (257790919, 159849847),
    64: (4217855573, 3106278779),
}


@pytest.mark.parametrize("bits", sorted(RUNG_SEMIPRIMES))
def test_semiprime_of_each_benchmark_size(bits):
    p, q = RUNG_SEMIPRIMES[bits]
    assert (p * q).bit_length() == bits
    pf = factor_int(p * q)
    assert (pf.sign, pf.factors) == oracle_of_product(p, q)


def test_the_splitters_are_deterministic():
    n = 4294967311 * 4294967357
    assert factoring._rho(n) is None  # past rho's budget: the curves split it
    d = factoring._ecm(n)
    assert d in (4294967311, 4294967357)
    assert factoring._ecm(n) == d
    assert factor_int(n) == factor_int(n) == PrimeFactorization(
        1, ((4294967311, 1), (4294967357, 1))
    )


def test_each_prime_past_2_32_is_tested_once(monkeypatch):
    calls: list[int] = []
    test = factoring.is_probable_prime

    def counted(n):
        calls.append(n)
        return test(n)

    monkeypatch.setattr(factoring, "is_probable_prime", counted)
    p, q = 4294967311, 4294967357
    assert factor_int(6 * p * q).factors == ((2, 1), (3, 1), (p, 1), (q, 1))
    # the composite cofactor, then each prime once; none for 2 and 3
    assert sorted(calls) == sorted([p * q, p, q])


F7 = 2**128 + 1
F7_FACTORS = ((59649589127497217, 1), (5704689200685129054721, 1))


def test_f7_factors_within_budget():
    # Rho alone needs about 2.4e8 steps for the 17-digit factor; the
    # curves take 1.2-1.6 s on a 2-CPU virtual machine (Python 3.11).
    start = time.perf_counter()
    pf = factor_int(F7)
    assert time.perf_counter() - start < 10.0
    assert (pf.sign, pf.factors) == (1, F7_FACTORS)
    assert remult(pf) == F7


def test_cli_factors_f7():
    proc = subprocess.run(
        [sys.executable, "-m", "microcas", "factor", str(F7)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 * (59649589127497217^1 * 5704689200685129054721^1)"


def test_importing_microcas_leaves_the_prime_table_unbuilt():
    # The sieve and its block products cost about 2 ms, and the curve
    # tables more; only factoring may pay for them, not `import microcas`
    # or a CLI subcommand that never factors.
    code = (
        "import contextlib, io, microcas\n"
        "from microcas import cli, factoring\n"
        "def built():\n"
        "    return [f.cache_info().currsize for f in (factoring._small_primes, factoring._ecm_stage)]\n"
        "assert built() == [0, 0]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['norm-expr', 'x + 1/x'])\n"
        "    cli.main(['diff', 'sin(x) * x'])\n"
        "print(built())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0]"


def test_divisors_of_perfect_number():
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert divisors(1) == [1]
    assert sum(divisors(28)) == 2 * 28


def test_maple_listing_exact_strings():
    assert to_maple_list(factor_int(12)) == "[1, [[2, 2], [3, 1]]]"
    assert to_maple_list(factor_int(-360)) == "[-1, [[2, 3], [3, 2], [5, 1]]]"
    assert to_maple_list(factor_int(1)) == "[1, []]"
    assert to_maple_list(factor_int(97)) == "[1, [[97, 1]]]"
    with pytest.raises(ValueError):
        to_maple_list(factor_int(0))


def test_decomp_term_shape_and_value():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(0, 10**6)
        t = decomp_to_term(factor_int(n))
        assert is_prime_decomp(t)
        assert eval_as(quote(t), INT) == IntV(n)


def test_is_prime_decomp_rejects_wrong_shapes():
    from microcas.factoring import i_mul, i_neg, i_pow

    # Special literals are decompositions; other bare literals are not.
    assert is_prime_decomp(IntLit(0))
    assert is_prime_decomp(IntLit(1))
    assert is_prime_decomp(i_neg(IntLit(1)))
    assert not is_prime_decomp(IntLit(6))
    assert not is_prime_decomp(IntLit(2))
    assert not is_prime_decomp(IntLit(-1))
    assert not is_prime_decomp(RatLit(1))
    assert not is_prime_decomp(i_neg(IntLit(2)))
    assert not is_prime_decomp(i_mul(RatLit(1), i_pow(IntLit(2), IntLit(1))))

    good = decomp_to_term(factor_int(12))
    assert is_prime_decomp(good)
    # Non-increasing primes, composite bases, zero exponents all fail.
    assert not is_prime_decomp(
        i_mul(IntLit(1), i_mul(i_pow(IntLit(3), IntLit(1)), i_pow(IntLit(2), IntLit(1))))
    )
    assert not is_prime_decomp(
        i_mul(IntLit(1), i_pow(IntLit(4), IntLit(1)))
    )
    assert not is_prime_decomp(
        i_mul(IntLit(1), i_pow(IntLit(2), IntLit(0)))
    )


def test_is_numeral_gate():
    assert is_numeral(IntLit(0))
    assert is_numeral(IntLit(41))
    from microcas.factoring import i_neg

    assert not is_numeral(i_neg(IntLit(3)))
    assert not is_numeral(RatLit(3))
    assert not is_numeral(Var("x", INT))


def test_factor_is_undefined_off_numerals():
    from fractions import Fraction

    from microcas.factoring import i_add

    assert factor(IntLit(12)) is not None
    assert factor(RatLit(Fraction(1, 2))) is None
    assert factor(i_add(IntLit(1), IntLit(2))) is None
    assert factor(Var("n", INT)) is None


def test_factor_output_contract_on_numerals():
    rng = random.Random(23)
    for _ in range(100):
        t = IntLit(rng.randint(0, 10**5))
        d = factor(t)
        assert d is not None
        assert is_prime_decomp(d)
        assert eval_as(quote(d), INT) == eval_as(quote(t), INT)


def test_prime_factorization_value_object():
    pf = PrimeFactorization(1, ((2, 2), (3, 1)))
    assert remult(pf) == 12
    assert remult(PrimeFactorization(0, ())) == 0
    assert remult(PrimeFactorization(-1, ((5, 1),))) == -5
    # factor_int skips these checks; the public constructor keeps them
    for sign, factors in (
        (2, ()),
        (0, ((2, 1),)),
        (1, ((3, 1), (2, 1))),
        (1, ((2, 0),)),
        (1, ((65537 * 65539, 1),)),
    ):
        with pytest.raises(ValueError):
            PrimeFactorization(sign, factors)
