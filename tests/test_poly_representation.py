"""`Poly` as integer numerators over one denominator, against plain
``{mono: scalar}`` maps (`reference`): over the rationals with random
rational coefficients, over fp:1009, and over fp:5, where partials drop
the multiples of p.  Every result is canonical, equality and hashing agree
with the term maps, every operation matches the reference, and none
writes to an operand, bivariate forms mixed with forms holding z included."""

from fractions import Fraction
from math import gcd

import pytest

from saito_forge.field import PrimeField, QQ
from saito_forge.poly import Poly, det3, divides, dot, parse, render
from reference import (ref_add, ref_det3, ref_divides, ref_mul, ref_partial, ref_scale,
                       ref_terms)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = {"q": QQ, "fp:1009": PrimeField(1009), "fp:5": PrimeField(5)}
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)


def scalars(fld):
    if fld.char:
        return st.integers(0, fld.p - 1)
    return st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9, 12, 35]))


def term_maps(fld, nvars=3, max_size=5):
    mono = st.tuples(st.integers(0, 6), st.integers(0, 6),
                     st.integers(0, 6) if nvars == 3 else st.just(0))
    return st.dictionaries(mono, scalars(fld), max_size=max_size)


@st.composite
def field_and_maps(draw, n=2, nvars=3):
    fld = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    return (fld, *[draw(term_maps(fld, nvars)) for _ in range(n)])


@st.composite
def field_one_term_and_maps(draw):
    """Over q or fp:1009, a one-term map with coefficient 1, -1, a non-unit
    integer or a rational with den > 1, and two term maps."""
    fld = FIELDS[draw(st.sampled_from(["q", "fp:1009"]))]
    c = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(-12), Fraction(7, 6)]))
    mono = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    one = {mono: fld.div(fld.from_int(c.numerator), fld.from_int(c.denominator))}
    return fld, one, draw(term_maps(fld)), draw(term_maps(fld))


def assert_canonical(p: Poly):
    assert all(type(c) is int and c for c in p.num.values())
    if p.field.char:
        assert p.den == 1 and all(0 < c < p.field.p for c in p.num.values())
    else:
        assert type(p.den) is int and p.den > 0 and gcd(p.den, *p.num.values()) == 1


def check(p: Poly, expected: dict):
    """p is canonical and holds the reference terms."""
    assert_canonical(p)
    assert dict(p.terms) == expected
    assert all(type(c) is (int if p.field.char else Fraction) for c in p.terms.values())


def snapshot(*polys):
    return [(dict(p.num), p.den) for p in polys]


@SETTINGS
@hypothesis.given(field_and_maps(n=3))
def test_arithmetic_matches_the_reference(case):
    fld, a, b, c = case
    p, q, r = (Poly(fld, t) for t in (a, b, c))
    a, b, c = (ref_terms(t, fld) for t in (a, b, c))
    before = snapshot(p, q, r)
    check(p, a)
    check(p + q, ref_add(a, b, fld))
    check(p - q, ref_add(a, b, fld, -1))
    check(-p, ref_scale(a, fld.from_int(-1), fld))
    check(p * q, ref_mul(a, b, fld))
    check(3 * p, ref_scale(a, fld.from_int(3), fld))
    s = next(iter(c.values()), fld.zero)
    check(p.scale(s), ref_scale(a, s, fld))
    check(p.scale(fld.zero), {})
    for i, var in enumerate("xyz"):
        check(p.partial(var), ref_partial(a, i, fld))
    check(dot([p, q], [q, r]), ref_add(ref_mul(a, b, fld), ref_mul(b, c, fld), fld))
    assert snapshot(p, q, r) == before


@SETTINGS
@hypothesis.given(field_and_maps(n=9, nvars=3))
def test_det3_matches_the_cofactor_expansion(case):
    fld, *maps = case
    polys = [Poly(fld, t) for t in maps]
    before = snapshot(*polys)
    rows = [polys[3 * i:3 * i + 3] for i in range(3)]
    check(det3(rows), ref_det3([[ref_terms(t, fld) for t in maps[3 * i:3 * i + 3]]
                                for i in range(3)], fld))
    assert snapshot(*polys) == before


@SETTINGS
@hypothesis.given(field_and_maps(n=3))
def test_divides_matches_the_reference(case):
    fld, a, b, c = case
    hypothesis.assume(ref_terms(a, fld))
    d, q, r = (Poly(fld, t) for t in (a, b, c))
    before = snapshot(d, q, r)
    for p in (d * q, d * q + r):
        ok, quot = divides(d, p)
        ref_ok, ref_quot = ref_divides(ref_terms(a, fld), dict(p.terms), fld)
        assert ok == ref_ok
        if ok:
            check(quot, ref_quot)
    assert divides(d, d * q)[0]
    assert snapshot(d, q, r) == before


@SETTINGS
@hypothesis.given(field_one_term_and_maps())
def test_one_term_operands_match_the_reference(case):
    """Products and divisions with a one-term operand on either side, and
    one-term divisions short in x, in y and in z."""
    fld, t, a, b = case
    m, p, q = Poly(fld, t), Poly(fld, a), Poly(fld, b)
    a, b = ref_terms(a, fld), ref_terms(b, fld)
    before = snapshot(m, p, q)
    check(m * p, ref_mul(t, a, fld))
    check(p * m, ref_mul(a, t, fld))
    check(m * m, ref_mul(t, t, fld))
    short = []  # m*var divides no term m*u with u free of var
    for i, var in enumerate("xyz"):
        mv = m * Poly.variable(fld, var)
        free = m * Poly.monomial(fld, tuple(0 if k == i else 1 for k in range(3)))
        short += [(mv, mv * p + free), (mv, free)]
    for d, dividend in [(m, m * p), (m, m * p + q), (m, m), (p, m), (p, p * m)] + short:
        if d.is_zero():
            continue
        ok, quot = divides(d, dividend)
        ref_ok, ref_quot = ref_divides(dict(d.terms), dict(dividend.terms), fld)
        assert ok == ref_ok
        if ok:
            check(quot, ref_quot)
    assert all(divides(d, dividend) == (False, None) for d, dividend in short)
    assert snapshot(m, p, q) == before


@SETTINGS
@hypothesis.given(field_and_maps(n=2))
def test_equality_and_hash_follow_the_terms(case):
    fld, a, b = case
    p, q = Poly(fld, a), Poly(fld, b)
    assert (p == q) == (ref_terms(a, fld) == ref_terms(b, fld))
    # one polynomial reached along different routes: one canonical form
    again = (p + q) - q
    assert again == p and hash(again) == hash(p) and again.num == p.num and again.den == p.den
    unit = fld.from_int(7)
    assert p.scale(unit).scale(fld.inv(unit)) == p
    assert hash(Poly(fld, dict(p.terms))) == hash(p)


@SETTINGS
@hypothesis.given(field_and_maps(n=1))
def test_render_parse_round_trip(case):
    fld, a = case
    p = Poly(fld, a)
    back = parse(render(p), fld)
    check(back, ref_terms(a, fld))
    assert back == p and render(back) == render(p)


@SETTINGS
@hypothesis.given(field_and_maps(n=2, nvars=2))
def test_bivariate_forms_mix_with_z_and_no_result_writes_them(case):
    fld, a, b = case
    p, q = Poly(fld, a), Poly(fld, b)
    before = snapshot(p, q)
    z = Poly.variable(fld, "z")
    results = [p + q, p - q, -p, p * q, p * z, 2 * p, p.scale(fld.from_int(3)),
               p.partial("x"), dot([p, q], [q, p]), det3([[p, q, z], [q, z, p], [z, p, q]])]
    assert snapshot(p, q) == before
    assert all(r.num is not p.num and r.num is not q.num for r in results)


def test_terms_are_read_only():
    for fld in FIELDS.values():
        p = parse("x^2 + 2*x*y", fld)
        with pytest.raises(TypeError):
            p.terms[(0, 0, 2)] = fld.one
        with pytest.raises(TypeError):
            del p.terms[(2, 0, 0)]
        assert p == parse("x^2 + 2*x*y", fld)
