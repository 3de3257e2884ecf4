import random
import time
from fractions import Fraction

import pytest

from saito_forge.field import (DivisionByZero, FieldError, PrimeField, QQ, _is_prime,
                               check_char_policy, field_from_spec)
from saito_forge.poly import Poly, PolySyntaxError, parse

F101 = PrimeField(101)


def test_rational_add():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)


def test_prime_mul_annihilator():
    assert F101.mul(5, 0) == 0


def test_prime_division_via_inverse():
    # inverse of 3 mod 101 is 34, and 7 * 34 = 238 = 36 mod 101
    assert F101.inv(3) == 34
    assert F101.div(7, 3) == 36


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.div(Fraction(1), Fraction(0))
    with pytest.raises(DivisionByZero):
        F101.inv(0)


def test_field_equality_and_spec():
    assert PrimeField(101) == F101
    assert PrimeField(103) != F101
    assert QQ == field_from_spec("q")
    assert field_from_spec("fp:1009") == PrimeField(1009)
    with pytest.raises(FieldError):
        field_from_spec("fp:1000")  # not prime
    with pytest.raises(FieldError):
        field_from_spec("gf:4")


def test_char_policy():
    assert check_char_policy(QQ, 11)
    assert check_char_policy(PrimeField(1009), 11)
    assert not check_char_policy(PrimeField(31), 11)  # needs p > 33


@pytest.mark.parametrize("fld", [QQ, F101, PrimeField(1009)])
def test_field_axioms_random(fld):
    rng = random.Random(20240601)
    for _ in range(1000):
        a, b, c = (fld.random(rng) for _ in range(3))
        assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.add(a, fld.neg(a)) == fld.zero
        if not fld.is_zero(b):
            assert fld.mul(b, fld.inv(b)) == fld.one
            assert fld.mul(fld.div(a, b), b) == a


@pytest.mark.parametrize("fld", [QQ, F101])
def test_scalar_roundtrip(fld):
    rng = random.Random(7)
    for _ in range(1000):
        s = fld.random(rng)
        # `poly.parse` reads every scalar the program reads
        assert parse(fld.render(s), fld) == Poly.constant(fld, s)


def test_rational_text_forms():
    assert parse("-3/7") == Poly.constant(QQ, Fraction(-3, 7))
    assert parse("12") == Poly.constant(QQ, Fraction(12))
    assert QQ.render(Fraction(-3, 7)) == "-3/7"
    with pytest.raises(PolySyntaxError):
        parse("3/")
    with pytest.raises(PolySyntaxError):
        parse("3/0")


def test_prime_field_residue_text():
    assert parse("100", F101) == Poly.constant(F101, 100)
    assert F101.render(F101.from_int(-1)) == "100"


def test_composite_modulus_rejected():
    with pytest.raises(FieldError):
        PrimeField(91)


def test_large_prime_spec_parses_fast():
    t0 = time.perf_counter()
    fld = field_from_spec("fp:2305843009213693951")  # the Mersenne prime 2^61 - 1
    assert time.perf_counter() - t0 < 1.0
    assert fld.p == 2**61 - 1


@pytest.mark.parametrize("n", [561, 3215031751])  # Carmichael; strong pseudoprime to 2, 3, 5, 7
def test_pseudoprimes_rejected(n):
    with pytest.raises(FieldError):
        PrimeField(n)


def test_primality_beyond_exact_range_refused():
    with pytest.raises(FieldError, match="cannot certify"):
        PrimeField(2**89 - 1)  # prime, but above the range where the test is exact


def test_primality_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(2000) if _is_prime(n)] == [n for n in range(2000) if by_trial_division(n)]
