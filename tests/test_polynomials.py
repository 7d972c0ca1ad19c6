"""Dense univariate polynomials over the exact rationals: ring laws,
Euclidean division, monic gcd, rational roots, and the product of
linear factors used by quasinormalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import microcas.factoring
from microcas.parser import parse
from microcas.polynomials import Poly, _simple_roots_mod, linear_part, poly_gcd, rational_roots
from microcas.printing import to_infix
from microcas.rational import norm_rat_fun

NEG_INF = float("-inf")

coeffs = st.lists(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6),
    max_size=6,
)
polys = coeffs.map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_constructor_strips_trailing_zero_coefficients():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([0, 0]).coeffs == ()
    assert Poly([]).is_zero()
    assert Poly([0]).degree == NEG_INF


def test_basic_accessors():
    p = Poly([Fraction(1, 2), 0, 3])
    assert p.degree == 2
    assert p.leading == 3
    assert p.coeff(0) == Fraction(1, 2)
    assert p.coeff(1) == 0
    assert p.coeff(99) == 0
    with pytest.raises(ValueError):
        Poly().leading


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly() == p
    assert p * Poly([1]) == p
    assert p + (-p) == Poly()


@given(polys, nonzero_polys)
def test_euclidean_division_round_trip(a, b):
    q, r = divmod(a, b)
    assert a == q * b + r
    assert r.is_zero() or r.degree < b.degree


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly([1]), Poly())


@given(polys, polys)
@settings(max_examples=60)
def test_gcd_is_monic_common_divisor(p, q):
    if p.is_zero() and q.is_zero():
        with pytest.raises(ValueError):
            poly_gcd(p, q)
        return
    g = poly_gcd(p, q)
    assert g.leading == 1
    assert (p % g).is_zero() and (q % g).is_zero()


@given(polys, nonzero_polys)
@settings(max_examples=60)
def test_gcd_detects_planted_common_factor(p, d):
    if p.is_zero():
        return
    g = poly_gcd(p * d, Poly([0, 1]) * d)
    assert (g % d.monic()).is_zero()


def test_rational_roots_on_constructed_product():
    # (x - 1)^2 (x + 3/2) (x^2 + 1): rational roots 1 (twice) and -3/2.
    p = (
        Poly([-1, 1])
        * Poly([-1, 1])
        * Poly([Fraction(3, 2), 1])
        * Poly([1, 0, 1])
    )
    assert rational_roots(p) == [(Fraction(-3, 2), 1), (Fraction(1), 2)]


def test_rational_roots_none_for_irreducible():
    assert rational_roots(Poly([1, 0, 1])) == []
    assert rational_roots(Poly([2, 0, 0, 1])) == []  # x^3 + 2


def test_rational_roots_respects_multiplicity_and_scaling():
    p = (Poly([0, 1]) ** 3 * Poly([-2, 1])).scale(Fraction(7, 3))
    roots = dict(rational_roots(p))
    assert roots == {Fraction(0): 3, Fraction(2): 1}


def test_rational_roots_skip_primes_with_a_repeated_root():
    # The roots 1..12 collide mod every odd prime below 13, so the
    # residues are taken mod 13; x^2 + 2 has no root mod 13.
    p = Poly([2, 0, 1])
    for i in range(1, 13):
        p = p * Poly([-i, 1])
    assert _simple_roots_mod(list(p._num), list(p.derivative()._num))[0] == 13
    assert rational_roots(p) == [(Fraction(i), 1) for i in range(1, 13)]


def test_rational_roots_with_64_bit_numerators_and_denominators():
    a = Fraction(2**64 - 59, 2**63 - 25)
    b = Fraction(-(2**61 - 1), 2**64 - 59)
    p = Poly([-a, 1]) ** 2 * Poly([-b, 1]) * Poly([-3, 0, 0, 1])
    assert rational_roots(p) == [(b, 1), (a, 2)]
    assert linear_part(p) == Poly([-a, 1]) ** 2 * Poly([-b, 1])


def test_rational_roots_factor_no_coefficient(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factor_int({n}) called")

    monkeypatch.setattr(microcas.factoring, "factor_int", refuse)
    # (p1 x - p2)(p3 x - p4) for 32-bit primes: both outer coefficients
    # are 64-bit semiprimes.
    p1, p2, p3, p4 = 4294967291, 4294967279, 4294967231, 4294967197
    a, b, c = p1 * p3, -(p1 * p4 + p2 * p3), p2 * p4
    assert rational_roots(Poly([c, b, a])) == sorted([(Fraction(p2, p1), 1), (Fraction(p4, p3), 1)])
    f = norm_rat_fun(parse(f"fun x -> 1 / ({a}*x^2 - {-b}*x + {c})", "ratfun"))
    assert to_infix(f) == f"fun x -> {Fraction(1, a)} / (x^2 - {Fraction(-b, a)} * x + {Fraction(c, a)})"


def test_rational_roots_of_zero_poly_raises():
    with pytest.raises(ValueError):
        rational_roots(Poly())


@given(st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4), min_size=1, max_size=4))
@settings(max_examples=60)
def test_rational_roots_recovers_planted_linear_factors(rs):
    p = Poly([1])
    for r in rs:
        p = p * Poly([-r, 1])
    found = rational_roots(p)
    want: dict[Fraction, int] = {}
    for r in rs:
        want[r] = want.get(r, 0) + 1
    assert dict(found) == want
    assert [r for r, _ in found] == sorted(want)


def test_linear_part_splits_off_rational_root_factors():
    p = Poly([-1, 1]) * Poly([1, 1]) * Poly([1, 0, 1])
    lp = linear_part(p)
    assert lp == Poly([-1, 1]) * Poly([1, 1])
    q, r = divmod(p, lp)
    assert r.is_zero()
    assert rational_roots(q) == []


def test_linear_part_of_rootless_poly_is_one():
    assert linear_part(Poly([1, 0, 1])) == Poly([1])
    assert linear_part(Poly([5])) == Poly([1])


@given(polys)
@settings(max_examples=60)
def test_derivative_is_linear_and_drops_degree(p):
    q = p.derivative()
    if p.degree <= 0:
        assert q.is_zero()
    else:
        assert q.degree == p.degree - 1
        assert q.leading == p.leading * p.degree


@given(polys, polys)
@settings(max_examples=60)
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


@given(polys, st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8))
def test_eval_at_matches_power_expansion(p, a):
    want = sum((c * a**i for i, c in enumerate(p.coeffs)), Fraction(0))
    assert p.eval_at(a) == want


def test_monic_and_scale():
    p = Poly([2, 4])
    assert p.monic() == Poly([Fraction(1, 2), 1])
    assert p.scale(Fraction(1, 2)) == Poly([1, 2])
    with pytest.raises(ValueError):
        Poly().monic()


# -- the integer kernel against a Fraction reference ----------------------
#
# The reference below works on tuples of Fractions (ascending, no
# trailing zeros), the representation the kernel had before it moved to
# integer numerators over a common denominator.

F = Fraction


def ref(cs) -> tuple[Fraction, ...]:
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ref(out)


def ref_divmod(a, b):
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, d in enumerate(b):
            r[i + k] -= c * d
        r = list(ref(r))
    return ref(q), ref(r)


def ref_monic(a):
    return tuple(c / a[-1] for c in a)


def ref_gcd(a, b):
    if len(a) == 1 or len(b) == 1:
        return (F(1),)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_eval(a, x):
    return sum((c * x**i for i, c in enumerate(a)), F(0))


def assert_form(p: Poly) -> None:
    """The stored form: integer numerator without trailing zeros over a
    positive denominator coprime to the numerator's content."""
    num, den = p._num, p._den
    assert type(den) is int and den >= 1
    assert all(type(c) is int for c in num)
    assert not num or num[-1] != 0
    g = den
    for c in num:
        g = gcd(g, c)
    assert g == 1
    assert p.coeffs == tuple(F(c, den) for c in num)


def build(cs) -> Poly:
    p = Poly(cs)
    assert_form(p)
    assert p.coeffs == ref(cs)
    return p


big = st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**80))
small = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=6)
coefficient = st.one_of(small, big, st.integers(-3, 3))
ref_coeffs = st.lists(coefficient, max_size=6).map(ref)
ref_nonzero = ref_coeffs.filter(bool)
# A negative leading coefficient and a constant, explicitly.
NEG_LEAD = (F(3, 7), F(-2), F(-5, 3))
CONST = (F(-7, 2**70),)


@given(ref_coeffs, ref_coeffs)
@example(NEG_LEAD, CONST)
@example((), NEG_LEAD)
def test_add_sub_mul_match_reference(a, b):
    p, q = build(a), build(b)
    for got, want in (
        (p + q, ref_add(a, b)),
        (p - q, ref_add(a, tuple(-c for c in b))),
        (-p, tuple(-c for c in a)),
        (p * q, ref_mul(a, b)),
    ):
        assert_form(got)
        assert got.coeffs == want


@given(ref_coeffs, ref_nonzero)
@example(NEG_LEAD, NEG_LEAD[:2])
@example(NEG_LEAD, CONST)
@example(CONST, NEG_LEAD)
def test_divmod_matches_reference(a, b):
    q, r = divmod(build(a), build(b))
    assert_form(q)
    assert_form(r)
    assert (q.coeffs, r.coeffs) == ref_divmod(a, b)


@given(ref_coeffs, ref_coeffs)
@settings(max_examples=150)
@example(NEG_LEAD, CONST)
@example(NEG_LEAD, ())
def test_gcd_matches_reference(a, b):
    if not a and not b:
        return
    g = poly_gcd(build(a), build(b))
    assert_form(g)
    assert g.coeffs == ref_gcd(a, b)


@given(ref_nonzero, ref_nonzero, ref_nonzero)
@settings(max_examples=60)
def test_gcd_of_planted_common_factor_matches_reference(a, b, d):
    g = poly_gcd(build(a) * build(d), build(b) * build(d))
    assert_form(g)
    assert g.coeffs == ref_gcd(ref_mul(a, d), ref_mul(b, d))


@given(ref_coeffs, st.integers(-(2**70), 2**70).filter(bool))
@example(NEG_LEAD, -6)
@example((), 4)
def test_integer_view_reads_and_builds_the_stored_form(a, k):
    p = build(a)
    num, den = p.ints
    assert (num, den) == (p._num, p._den)
    assert Poly.from_ints(num, den) == p
    # Any integer pair for the same polynomial, scaled by k (of either
    # sign) and padded with zeros, is brought to the one stored form.
    q = Poly.from_ints([k * c for c in num] + [0, 0], k * den)
    assert_form(q)
    assert q == p


@given(ref_nonzero, coefficient)
@example(NEG_LEAD, F(-1, 3))
@example(CONST, F(0))
def test_monic_scale_derivative_match_reference(a, c):
    p = build(a)
    for got, want in (
        (p.monic(), ref_monic(a)),
        (p.scale(c), ref(x * F(c) for x in a)),
        (p.derivative(), ref(k * x for k, x in enumerate(a) if k)),
    ):
        assert_form(got)
        assert got.coeffs == want
    assert p.leading == a[-1]


@given(ref_coeffs, coefficient)
@example(NEG_LEAD, F(-5, 3))
@example((), F(1, 2))
def test_eval_at_matches_reference(a, x):
    assert build(a).eval_at(x) == ref_eval(a, F(x))


def brute_roots(a) -> list[tuple[Fraction, int]]:
    """Rational roots of an integer polynomial by trying every p/q with
    |p| at most the largest coefficient and q at most the leading one."""
    roots = []
    top = max(abs(int(c)) for c in a)
    for p in range(-top, top + 1):
        for q in range(1, abs(int(a[-1])) + 1):
            r = F(p, q)
            if gcd(p, q) != 1 or ref_eval(a, r) != 0:
                continue
            m, work = 0, a
            while True:
                quo, rem = ref_divmod(work, (-r, F(1)))
                if rem:
                    break
                m, work = m + 1, quo
            roots.append((r, m))
    return sorted(roots)


@given(st.lists(st.integers(-12, 12), min_size=2, max_size=5).map(ref).filter(lambda a: len(a) >= 2))
@settings(max_examples=150)
@example((F(-6), F(1), F(-1)))
def test_rational_roots_match_brute_force(a):
    assert rational_roots(build(a)) == brute_roots(a)


@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=F(-7), max_value=F(7), max_denominator=5),
            st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
        ),
        max_size=5,
    ),
    st.sampled_from([(F(1),), (F(2), F(0), F(1)), (F(-3), F(0), F(0), F(1))]),
    st.one_of(st.integers(-(2**70), 2**70), big).filter(bool),
)
@settings(max_examples=80)
def test_rational_roots_and_linear_part_of_planted_product(rs, cofactor, lead):
    # lead * prod(x - r) * cofactor, where the cofactor (1, x^2 + 2 or
    # x^3 - 3) has no rational root.
    a = (F(lead),)
    lin = (F(1),)
    for r in rs:
        a = ref_mul(a, (-r, F(1)))
        lin = ref_mul(lin, (-r, F(1)))
    a = ref_mul(a, cofactor)
    want: dict[Fraction, int] = {}
    for r in rs:
        want[r] = want.get(r, 0) + 1
    p = build(a)
    assert rational_roots(p) == sorted(want.items())
    lp = linear_part(p)
    assert_form(lp)
    assert lp.coeffs == lin
