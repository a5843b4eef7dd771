"""Coefficient domains: integer helpers, field laws, and canonical forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powerstable import (
    GF,
    QQ,
    ZZ,
    CoefficientError,
    FpElement,
    Polynomial,
    RingSpec,
    example_3_12,
    ext_gcd,
    format_poly,
    is_prime_u64,
)

from oracles import euclid_gcd


class TestExtGcd:
    def test_matches_euclid_oracle_on_random_pairs(self):
        rng = random.Random("ext_gcd:0")
        for _ in range(200):
            a = rng.randint(-(10**30), 10**30)
            b = rng.randint(-(10**30), 10**30)
            d, s, t = ext_gcd(a, b)
            assert d == euclid_gcd(a, b)
            assert d == s * a + t * b
            assert d >= 0

    @given(st.integers(), st.integers())
    def test_bezout_identity(self, a, b):
        d, s, t = ext_gcd(a, b)
        assert d == s * a + t * b
        assert d >= 0
        if a or b:
            assert a % d == 0 and b % d == 0

    def test_edge_cases(self):
        assert ext_gcd(0, 0) == (0, ext_gcd(0, 0)[1], ext_gcd(0, 0)[2])
        assert ext_gcd(0, 0)[0] == 0
        assert ext_gcd(0, 7)[0] == 7
        assert ext_gcd(-7, 0)[0] == 7
        assert ext_gcd(6, 4)[0] == 2


class TestPrimality:
    def test_small_primes_and_composites(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime_u64(n) == (n in primes)

    def test_known_large_values(self):
        assert is_prime_u64(2**61 - 1)
        assert not is_prime_u64(2**61)
        assert is_prime_u64(1_000_000_007)
        assert not is_prime_u64(1_000_000_007 * 998_244_353)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime_u64(n)

    def test_refuses_numbers_beyond_its_proven_range(self):
        assert is_prime_u64(2**64 - 59)  # the largest prime below 2^64
        assert not is_prime_u64(2**64 - 1)
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to all 12
        # bases; example_3_12 and GF, which call the test, refuse it too
        psi_12 = 318665857834031151167461
        for n in (2**64, psi_12):
            with pytest.raises(CoefficientError, match="exceeds the 2\\^64 bound"):
                is_prime_u64(n)
        with pytest.raises(CoefficientError):
            example_3_12(psi_12)
        with pytest.raises(CoefficientError):
            GF(psi_12)


coeff_domains = pytest.mark.parametrize(
    "dom", [ZZ, QQ, GF(5), GF(97)], ids=["ZZ", "QQ", "GF5", "GF97"]
)


@coeff_domains
@given(a=st.integers(-50, 50), b=st.integers(-50, 50), c=st.integers(-50, 50))
def test_ring_axioms(dom, a, b, c):
    x, y, z = dom.from_int(a), dom.from_int(b), dom.from_int(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + dom.zero == x
    assert x * dom.one == x
    assert x + (-x) == dom.zero
    assert x - y == x + (-y)


def test_from_int_canonical_types():
    assert ZZ.from_int(3) == 3 and isinstance(ZZ.from_int(3), int)
    assert QQ.from_int(3) == Fraction(3) and isinstance(QQ.from_int(3), Fraction)
    e = GF(7).from_int(10)
    assert e == FpElement(3, 7)


def test_literal_parsing_rules():
    assert ZZ.literal(6, 3) == 2
    with pytest.raises(CoefficientError):
        ZZ.literal(1, 2)
    assert QQ.literal(1, 2) == Fraction(1, 2)
    with pytest.raises(CoefficientError):
        QQ.literal(1, 0)
    assert GF(5).literal(1, 2) == FpElement(3, 5)  # 1/2 = 3 mod 5
    with pytest.raises(CoefficientError):
        GF(5).literal(1, 10)  # denominator vanishes mod 5


class TestFpElement:
    def test_modulus_mismatch_refused(self):
        with pytest.raises(CoefficientError):
            FpElement(1, 5) + FpElement(1, 7)
        with pytest.raises(CoefficientError):
            FpElement(1, 5) * 3  # plain ints never silently coerce

    def test_inverse(self):
        p = 97
        for r in range(1, p):
            e = FpElement(r, p)
            assert e * e.inverse() == FpElement(1, p)
        with pytest.raises(CoefficientError):
            FpElement(0, p).inverse()

    def test_truthiness_and_negation(self):
        assert not FpElement(0, 5)
        assert FpElement(2, 5)
        assert -FpElement(2, 5) == FpElement(3, 5)

    def test_residues_canonical(self):
        assert GF(5).from_int(-1) == FpElement(4, 5)
        assert GF(5).from_int(5) == FpElement(0, 5)


def test_gf_validates_modulus():
    with pytest.raises(CoefficientError):
        GF(6)
    with pytest.raises(CoefficientError):
        GF(1)
    with pytest.raises(CoefficientError):
        GF(2**64 + 13)
    assert GF(2).from_int(3) == FpElement(1, 2)


def test_domain_formatting():
    def constant(ring, c):
        return format_poly(Polynomial.constant(RingSpec.parse(ring), c))

    assert constant("ZZ[X]", -3) == "-3"
    assert constant("QQ[X]", Fraction(1, 2)) == "1/2"
    assert constant("Fp(7)[X]", FpElement(5, 7)) == "5"
    assert ZZ.is_negative(-1) and not ZZ.is_negative(1)
    assert QQ.is_negative(Fraction(-1, 2))
    assert not GF(7).is_negative(FpElement(5, 7))  # prime fields carry no sign
