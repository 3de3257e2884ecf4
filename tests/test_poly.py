import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from saito_forge.field import FieldMismatch, PrimeField, QQ
from saito_forge.poly import (EulerViolation, Poly, PolyError, PolySyntaxError,
                              UnknownVariable, ZeroPolynomial, det3, det_unit, divides, dot,
                              is_squarefree_bivariate, monomial_index, monomials, parse,
                              render)
from reference import split_pure_power

F1009 = PrimeField(1009)


def rand_homog(fld, rng, deg, nvars=3):
    terms = {}
    for m in monomials(deg, nvars):
        c = fld.random(rng)
        if not fld.is_zero(c):
            terms[m] = c
    return Poly(fld, terms)


# ----- parsing and printing -------------------------------------------------

def test_parse_basic():
    p = parse("x^5 + y^4*z")
    assert p.terms == {(5, 0, 0): Fraction(1), (0, 4, 1): Fraction(1)}


def test_parse_cancellation():
    assert parse("2*x - 2*x").is_zero()


def test_parse_product_form():
    lhs = parse("x^2*y^3 + x*y^4 + y^5")
    rhs = parse("y^3") * parse("x^2 + x*y + y^2")
    assert lhs == rhs


def test_parse_errors():
    with pytest.raises(PolySyntaxError):
        parse("x +")
    with pytest.raises(PolySyntaxError):
        parse("")
    with pytest.raises(PolySyntaxError) as err:
        parse("x^2 $ y")
    assert err.value.pos == 4
    with pytest.raises(UnknownVariable):
        parse("x + w")
    with pytest.raises(UnknownVariable):
        parse("x + z", nvars=2)


def test_parse_fraction_coefficients():
    p = parse("-3/7*x^2 + 1/2*x*y")
    assert p.coeff_of((2, 0, 0)) == Fraction(-3, 7)
    assert p.coeff_of((1, 1, 0)) == Fraction(1, 2)


def test_render_canonical_order():
    p = parse("y^2 + x*y + x^2 + z^2")
    assert render(p) == "x^2 + x*y + y^2 + z^2"
    assert render(parse("x - y")) == "x - y"
    assert render(parse("-x + y")) == "-x + y"
    assert render(Poly.zero(QQ)) == "0"


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_roundtrip_random(fld):
    rng = random.Random(99)
    for _ in range(1000):
        p = rand_homog(fld, rng, rng.randint(0, 6))
        assert parse(render(p), fld) == p


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_render_matches_the_fraction_reference(fld):
    """Rendering from the numerators gives the text `reference.fraction_render`
    builds from the field scalars, and parses back: negative coefficients,
    den > 1, unit coefficients and constants, and numerators past 64 bits."""
    rng = random.Random(100)
    big = fld.div(fld.from_int(-3**90), fld.from_int(2**75 * 7))
    cases = [parse(t, fld) for t in ("-1", "1", "-x + 1", "-1/2*x^2*y - 3*y^3 + 5/4",
                                      "x*y*z - 7/3*z^3 - 2")]
    for _ in range(300):
        p = rand_form(fld, rng, rng.randint(0, 5), rng.choice((2, 3)))
        cases += [p, -p, p.scale(big)]
    for p in cases:
        assert render(p) == reference.fraction_render(p)
        assert parse(render(p), fld) == p


# ----- ring arithmetic ------------------------------------------------------

def test_arith_examples():
    x, y = parse("x"), parse("y")
    assert x * (x + y) == parse("x^2 + x*y")
    assert (x + y) * (x - y) == parse("x^2 - y^2")
    assert parse("x^2 + x*y + y^2") * (x - y) == parse("x^3 - y^3")


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        parse("x", QQ) + parse("x", F1009)
    # a z-free form and a form holding z are polynomials of one ring
    a, b = parse("2/3*x + y", QQ, nvars=2), parse("x*z - 5*y^2 + 1/4*z^2", QQ)
    assert a * b == Poly(QQ, reference.ref_mul(a.terms, b.terms, QQ))


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_ring_axioms_random(fld):
    rng = random.Random(31337)
    for _ in range(200):
        p = rand_homog(fld, rng, rng.randint(0, 4))
        q = rand_homog(fld, rng, rng.randint(0, 4))
        r = rand_homog(fld, rng, rng.randint(0, 4))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree() == p.degree() + q.degree()


# ----- int-accumulator kernels against a naive Field reference ----------------

DIFF_FIELDS = [QQ, F1009, PrimeField(2**61 - 1)]


def rand_form(fld, rng, deg, nvars):
    """A sparse random form; over QQ with non-integral coefficients."""
    terms = {}
    for m in monomials(deg, nvars):
        if rng.random() < 0.5:
            terms[m] = (fld.random(rng) if fld.char
                        else Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
    return Poly(fld, terms)


# one-term operand coefficients: units, a non-unit integer, a rational with den > 1
ONE_TERM_COEFFS = (Fraction(1), Fraction(-1), Fraction(6), Fraction(-5, 6))


def rand_one_term(fld, rng, coeff=None, nvars=3):
    """c * x^i y^j z^k (k = 0 with two variables) with c from ONE_TERM_COEFFS
    mapped into the field."""
    c = rng.choice(ONE_TERM_COEFFS) if coeff is None else coeff
    c = fld.div(fld.from_int(c.numerator), fld.from_int(c.denominator))
    exps = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3) if nvars == 3 else 0)
    return Poly.monomial(fld, exps, c)


def ref_add(p, q, sign=1):
    f = p.field
    out = dict(p.terms)
    for m, c in q.terms.items():
        out[m] = f.add(out.get(m, f.zero), c if sign > 0 else f.neg(c))
    return Poly(f, out)


def ref_mul(p, q):
    f = p.field
    out: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = f.add(out.get(m, f.zero), f.mul(c1, c2))
    return Poly(f, out)


def ref_det3(m):
    def minor(a, b, c, d):
        return ref_add(ref_mul(a, b), ref_mul(c, d), -1)
    return ref_add(ref_add(ref_mul(m[0][0], minor(m[1][1], m[2][2], m[1][2], m[2][1])),
                           ref_mul(m[0][1], minor(m[1][0], m[2][2], m[1][2], m[2][0])), -1),
                   ref_mul(m[0][2], minor(m[1][0], m[2][1], m[1][1], m[2][0])))


def ref_det_unit(f, matrix):
    """The divisibility form of the det = c*F test."""
    det = ref_det3(matrix)
    if det.is_zero():
        return det, None
    ok, q = divides(f, det)
    return det, (q.coeff_of((0, 0, 0)) if ok and q.degree() == 0 else None)


def assert_canonical(p):
    fld = p.field
    for c in p.terms.values():
        if fld.char:
            assert type(c) is int and 0 < c < fld.p
        else:
            assert type(c) is Fraction and c != 0


def rand_matrix(fld, rng, nvars=3):
    # entry (i, j) has degree r_i + s_j, so the determinant is homogeneous;
    # trivariate matrices mix bivariate forms with trivariate ones
    r = [rng.randint(0, 1) for _ in range(3)]
    s = [rng.randint(0, 2) for _ in range(3)]
    return [[(rand_form(fld, rng, r[i] + s[j], 2)
              if nvars == 3 and rng.random() < 0.3
              else rand_form(fld, rng, r[i] + s[j], nvars)) for j in range(3)]
            for i in range(3)]


@pytest.mark.parametrize("fld", DIFF_FIELDS)
@pytest.mark.parametrize("nvars", [2, 3])
def test_kernels_match_field_reference(fld, nvars):
    rng = random.Random(8)
    for _ in range(150):
        p = rand_form(fld, rng, rng.randint(0, 4), nvars)
        q = rand_form(fld, rng, rng.randint(0, 4), nvars)
        c = fld.random_nonzero(rng) if fld.char else Fraction(rng.randint(-9, 9) or 1,
                                                               rng.randint(1, 9))
        r = ref_add(q, p, -1)  # p + r cancels every term of p
        t = rand_one_term(fld, rng, nvars=nvars)  # a one-term operand on either side
        results = [(t * p, ref_mul(t, p)), (p * t, ref_mul(p, t)), (t * t, ref_mul(t, t)),
                   (p + q, ref_add(p, q)), (p - q, ref_add(p, q, -1)),
                   (-p, Poly(fld, {m: fld.neg(v) for m, v in p.terms.items()})),
                   (p * q, ref_mul(p, q)), (p * r, ref_mul(p, r)),
                   (p.scale(c), Poly(fld, {m: fld.mul(v, c) for m, v in p.terms.items()})),
                   (p + r, q), (p - p, Poly.zero(fld)), (p + -p, Poly.zero(fld)),
                   (p * Poly.zero(fld), Poly.zero(fld))]
        for got, want in results:
            assert got == want
            assert got.is_bivariate() or nvars == 3
            assert_canonical(got)


@pytest.mark.parametrize("fld", DIFF_FIELDS)
@pytest.mark.parametrize("nvars", [2, 3])
def test_dot_matches_field_reference(fld, nvars):
    rng = random.Random(10)
    for _ in range(60):
        k = rng.randint(1, 4)
        ps = [rand_form(fld, rng, 2, nvars) for _ in range(k)]
        qs = [rand_form(fld, rng, rng.randint(0, 3), nvars) for _ in range(k)]
        qs[0] = Poly.zero(fld)  # a zero factor contributes nothing
        want = Poly.zero(fld)
        for p, q in zip(ps, qs):
            want = ref_add(want, ref_mul(p, q))
        got = dot(ps, qs)
        assert got == want and (got.is_bivariate() or nvars == 3)
        assert_canonical(got)
    p = rand_form(fld, rng, 2, nvars)
    assert dot([p, p], [p, -p]).is_zero()  # cancels to the zero polynomial


@pytest.mark.parametrize("fld", DIFF_FIELDS)
@pytest.mark.parametrize("nvars", [2, 3])
def test_det3_matches_field_reference(fld, nvars):
    rng = random.Random(9)
    for _ in range(40):
        m = rand_matrix(fld, rng, nvars)
        det = det3(m)
        assert det == ref_det3(m)
        assert_canonical(det)
        # equal rows cancel to the zero polynomial
        twin = [m[0], m[1], m[0]]
        assert det3(twin).is_zero() and ref_det3(twin).is_zero()


def test_det3_rejects_mixed_entries():
    ident = [[parse("x"), parse("0"), parse("0")],
             [parse("0"), parse("y"), parse("0")],
             [parse("0"), parse("0"), parse("z")]]
    assert det3(ident) == parse("x*y*z")
    with pytest.raises(FieldMismatch):
        det3([ident[0], ident[1], [parse("0"), parse("x", F1009), parse("z")]])
    # a z-free entry among forms holding z is no mismatch
    mixed = [ident[0], ident[1], [parse("x*z"), parse("x", nvars=2), parse("z")]]
    assert det3(mixed) == Poly(QQ, reference.ref_det3([[e.terms for e in row] for row in mixed], QQ))


@pytest.mark.parametrize("fld", DIFF_FIELDS)
def test_det_unit_matches_field_reference(fld):
    rng = random.Random(10)
    x = Poly.variable(fld, "x")
    checked = 0
    while checked < 25:
        m = rand_matrix(fld, rng)
        det = ref_det3(m)
        if det.is_zero() or det.degree() == 0:
            continue
        checked += 1
        c = fld.random_nonzero(rng) if fld.char else Fraction(rng.randint(1, 9), rng.randint(1, 9))
        f = det.scale(fld.inv(c))
        extra = Poly.monomial(fld, monomials(det.degree())[rng.randrange(
            len(monomials(det.degree())))])
        wrong_degree = [[e * x for e in m[0]], m[1], m[2]]  # det = x * det(m)
        cases = [(f, m, c),                                   # det = c*F
                 (ref_add(f, extra), m, None),                # c*F plus one extra term
                 (f, [m[0], m[1], m[1]], None),               # zero det
                 (f, wrong_degree, None)]                     # x*c*F: wrong degree
        for poly, matrix, unit in cases:
            got = det_unit(poly, matrix)
            assert got == ref_det_unit(poly, matrix)
            assert got[1] == unit
            assert_canonical(got[0])


# ----- calculus -------------------------------------------------------------

def test_partial_examples():
    assert parse("x^3*y^4*z").partial("z") == parse("x^3*y^4")
    assert parse("y^5").partial("x").is_zero()
    assert parse("x^5 + x^2*y^3").partial("x") == parse("5*x^4 + 2*x*y^3")


def test_partial_commutes():
    rng = random.Random(271828)
    for _ in range(200):
        p = rand_homog(QQ, rng, rng.randint(0, 5))
        assert p.partial("x").partial("y") == p.partial("y").partial("x")


def test_euler_check():
    assert parse("x^5 + y^4*z").euler_check() == Fraction(5)
    assert parse("x*y*z").euler_check() == Fraction(3)
    with pytest.raises(ZeroPolynomial):
        Poly.zero(QQ).euler_check()
    with pytest.raises(EulerViolation):
        parse("x + y^2").euler_check()


def test_euler_check_prime_field():
    assert parse("x^5 + y^4*z", F1009).euler_check() == 5


# ----- division -------------------------------------------------------------

def test_divides_examples():
    assert divides(parse("y"), parse("x^5 + y^4*z")) == (False, None)
    ok, q = divides(parse("x"), parse("x^2*y"))
    assert ok and q == parse("x*y")
    ok, q = divides(parse("x + y"), parse("x^2 - y^2"))
    assert ok and q == parse("x - y")


def test_divides_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divides(Poly.zero(QQ), parse("x"))


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_divides_random_products(fld):
    rng = random.Random(55)
    for _ in range(100):
        d = rand_homog(fld, rng, rng.randint(1, 3))
        q = rand_homog(fld, rng, rng.randint(0, 3))
        if d.is_zero():
            continue
        ok, q2 = divides(d, d * q)
        assert ok and q2 == q


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_one_term_division_matches_the_reference(fld):
    """One-term divisors with every coefficient kind, exact and short in
    each variable, and one-term dividends, against `reference.ref_divides`."""
    rng = random.Random(56)
    for k in range(120):
        t = rand_one_term(fld, rng, ONE_TERM_COEFFS[k % len(ONE_TERM_COEFFS)])
        p = rand_form(fld, rng, rng.randint(0, 3), 3)
        var = Poly.variable(fld, "xyz"[k % 3])
        # a term free of var: t*var does not divide it, t does
        free = Poly.monomial(fld, [(0, 2, 1), (1, 0, 2), (2, 1, 0)][k % 3])
        short = t * free
        for d, dividend in ((t, t * p), (t, t * p + short), (t * var, t * var * p + short),
                            (p, t), (p, p * t)):
            if d.is_zero():
                continue
            got = divides(d, dividend)
            ok, quot = reference.ref_divides(dict(d.terms), dict(dividend.terms), fld)
            assert got == (ok, None if quot is None else Poly(fld, quot))
            if ok:
                assert_canonical(got[1])
        assert divides(t, t * p + short) == (True, p + free)
        assert divides(t * var, t * var * p + short) == (False, None)


# ----- square-freeness ------------------------------------------------------

def test_squarefree_examples():
    x, y = parse("x", nvars=2), parse("y", nvars=2)
    assert is_squarefree_bivariate(x * y * (x + y))
    assert not is_squarefree_bivariate(parse("x^2 + 2*x*y + y^2", nvars=2))
    assert is_squarefree_bivariate(parse("x^2 + x*y + y^2", nvars=2))
    assert not is_squarefree_bivariate(x * x * (x + y))
    assert is_squarefree_bivariate(parse("1", nvars=2))
    with pytest.raises(ZeroPolynomial):
        is_squarefree_bivariate(Poly.zero(QQ))


def test_squarefree_prime_field():
    sq = parse("x^2 + 2*x*y + y^2", F1009, nvars=2)
    assert not is_squarefree_bivariate(sq)
    assert is_squarefree_bivariate(parse("x^2 + x*y + y^2", F1009, nvars=2))


def test_squarefree_random_squares_detected():
    rng = random.Random(4242)
    for _ in range(100):
        p = rand_homog(QQ, rng, rng.randint(1, 3), nvars=2)
        if p.is_zero():
            continue
        sq = p * p
        ex = min(m[0] for m in sq.terms)
        ey = min(m[1] for m in sq.terms)
        if ex > 1 or ey > 1 or sq.degree() - ex - ey > 0:
            assert not is_squarefree_bivariate(sq)


# ----- coefficient access and splits ----------------------------------------

def test_coeff_of():
    p = parse("x^2 + x*y + y^2")
    assert p.coeff_of((2, 0, 0)) == 1
    assert p.coeff_of((3, 0, 0)) == 0


def test_coeff_of_bracket_combination():
    # y*dF2/dy + (d-v+alpha)*F2 at d=5, alpha=0, F2 = x^2+x*y+y^2: y^2 coefficient is 2+3
    f2 = parse("x^2 + x*y + y^2", nvars=2)
    y = parse("y", nvars=2)
    bracket = y * f2.partial("y") + 3 * f2
    assert bracket.coeff_of((0, 2, 0)) == Fraction(5)


def test_split_pure_power():
    p = parse("x^2 + x*y + y^2", nvars=2)
    q, c = split_pure_power(p, "x")
    assert q == parse("x + y", nvars=2) and c == 1
    q, c = split_pure_power(parse("x^3", nvars=2), "y")
    assert q.is_zero() and c == 1


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_bivariate_preconditions_reject_z_terms(fld):
    # bivariate is a property of the terms: one z term fails the precondition
    for p in (parse("x*z", fld), parse("x^2 + x*y + y*z", fld), Poly(fld, {(1, 0, 1): 3, (2, 0, 0): 1})):
        assert not p.is_bivariate()
        with pytest.raises(PolyError):
            split_pure_power(p, "x")
        with pytest.raises(PolyError):
            split_pure_power(p, "y")
        with pytest.raises(PolyError):
            is_squarefree_bivariate(p)
    assert parse("x^2 + x*y + y^2", fld).is_bivariate() and Poly.zero(fld).is_bivariate()


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_split_recomposes(fld):
    rng = random.Random(606)
    x = parse("x", fld, nvars=2)
    y = parse("y", fld, nvars=2)
    for _ in range(1000):
        m = rng.randint(0, 6)
        p = rand_homog(fld, rng, m, nvars=2)
        if p.is_zero():
            continue
        q, c = split_pure_power(p, "x")
        assert x * q + Poly.monomial(fld, (0, m, 0), c) == p
        q, c = split_pure_power(p, "y")
        assert y * q + Poly.monomial(fld, (m, 0, 0), c) == p


def test_monomials_order():
    assert monomials(2, 2) == [(2, 0, 0), (1, 1, 0), (0, 2, 0)]
    ms = monomials(2, 3)
    assert ms[0] == (2, 0, 0) and ms[-1] == (0, 0, 2)
    assert len(ms) == 6
    for u in range(7):
        assert [monomial_index(m) for m in monomials(u)] == list(range(len(monomials(u))))


def test_invariant_guards_survive_python_O():
    # the guards are raises, not asserts, so -O cannot strip them
    with pytest.raises(PolyError):
        split_pure_power(parse("x*z"), "x")
    probe = ("from saito_forge.poly import PolyError, is_squarefree_bivariate, parse\n"
             "for call in (lambda: is_squarefree_bivariate(parse('x*z')),\n"
             "             lambda: is_squarefree_bivariate(parse('0')),\n"
             "             lambda: parse('z', nvars=2)):\n"
             "    try:\n"
             "        call()\n"
             "    except PolyError:\n"
             "        continue\n"
             "    raise SystemExit('guard stripped')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
