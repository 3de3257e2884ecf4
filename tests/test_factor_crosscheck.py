"""Coprimality, square-freeness and irreducibility against sympy's gcd,
square-free factorization and factorization: a route independent of the
Sylvester matrices.  Test-only; sympy is not a dependency of the package."""

import random

import pytest

from saito_forge.family import is_irreducible
from saito_forge.field import PrimeField, QQ
from saito_forge.poly import Poly, coprime_forms, is_squarefree_bivariate

sympy = pytest.importorskip("sympy")
X, Y, Z, T = sympy.symbols("x y z t")
FIELDS = [pytest.param(QQ, {}, id="q"), pytest.param(PrimeField(1009), {"modulus": 1009}, id="fp1009")]


def to_sympy(p):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i * Y**j * Z**k
               for (i, j, k), c in p.terms.items())


def random_form(fld, m, rng):
    """A nonzero form of degree m with coefficients in -3..3, zeros included."""
    while True:
        p = Poly(fld, {(i, m - i, 0): fld.from_int(rng.randint(-3, 3)) for i in range(m + 1)})
        if not p.is_zero():
            return p


def random_factor(fld, rng):
    """x, y or a random form of degree 1..3."""
    r = rng.random()
    if r < 0.3:
        return Poly.variable(fld, "x" if r < 0.15 else "y")
    return random_form(fld, rng.randint(1, 3), rng)


def forms(fld, rng, count=80):
    """Forms of degree 0..7: a constant, a linear form, c*y^m (zero x-partial),
    then random products of x, y and random forms, each to the power 1 or 2."""
    yield Poly.constant(fld, fld.from_int(5))
    yield Poly.variable(fld, "x") + Poly.variable(fld, "y").scale(fld.from_int(3))
    for m in range(1, 8):
        yield Poly.monomial(fld, (0, m, 0), fld.from_int(-2))
    for _ in range(count):
        p = Poly.constant(fld, fld.from_int(rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3)):
            g = random_factor(fld, rng) ** rng.choice((1, 1, 2))
            if p.degree() + g.degree() <= 7:
                p = p * g
        yield p


def sympy_squarefree(p, opts) -> bool:
    """With u(t) = p(t, 1) of degree m - e, p = y^e * y^(m-e) u(x/y) is
    square-free exactly when e <= 1 and u is (sympy's sqf_list takes no
    multivariate polynomial over a finite field)."""
    u = sympy.Poly(to_sympy(p).subs({X: T, Y: 1}), T, **opts)
    e = p.degree() - u.degree()
    return e <= 1 and all(k == 1 for _, k in u.sqf_list()[1])


def sympy_coprime(a, b, opts) -> bool:
    return sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b), X, Y, **opts), X, Y).total_degree() == 0


@pytest.mark.parametrize("fld,opts", FIELDS)
def test_squarefree_matches_sqf_list(fld, opts):
    seen = set()
    for p in forms(fld, random.Random(3)):
        expected = sympy_squarefree(p, opts)
        assert is_squarefree_bivariate(p) == expected, p
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("fld,opts", FIELDS)
def test_coprime_forms_matches_gcd(fld, opts):
    rng = random.Random(5)
    seen = set()
    for p in forms(fld, rng):
        m = p.degree()
        q = p * random_factor(fld, rng) if rng.random() < 0.5 else random_form(fld, rng.randint(0, 4), rng)
        pairs = [(p, q, m, q.degree())]
        if m >= 1:  # the partials, one of them zero for c*y^m
            pairs.append((p.partial("x"), p.partial("y"), m - 1, m - 1))
        for a, b, da, db in pairs:
            expected = sympy_coprime(a, b, opts)
            assert coprime_forms(a, b, da, db) == expected, (a, b)
            seen.add(expected)
    assert seen == {True, False}


def linear_in_z(fld, rng):
    """F = g*(A + B*z) for a random common factor g (often 1), with B a
    random form, a monomial or zero."""
    k = rng.choice((0, 0, 1, 2))
    g = Poly.constant(fld, fld.one)
    while g.degree() < k:
        g = g * random_factor(fld, rng)
    d = rng.randint(1, 7 - g.degree())
    a = random_form(fld, d, rng)
    r = rng.random()
    if r < 0.2:
        i = rng.randint(0, d - 1)
        b = Poly.monomial(fld, (i, d - 1 - i, 0))
    elif r < 0.25:
        b = Poly.zero(fld)
    else:
        b = random_form(fld, d - 1, rng)
    z = Poly.variable(fld, "z")
    return g * a + g * b * z


@pytest.mark.parametrize("fld,opts", FIELDS)
def test_is_irreducible_matches_factorization(fld, opts):
    """F = A + B*z with A and B nonzero, over q against sympy's factor_list;
    over fp:1009, where sympy factors no multivariate polynomial, against its
    gcd of A and B, the reduction that factor_list confirms over q.  With B
    zero, F comes out reducible by definition."""
    rng = random.Random(7)
    seen = set()
    for _ in range(100):
        f = linear_in_z(fld, rng)
        a = Poly(fld, {m: c for m, c in f.terms.items() if m[2] == 0})
        b = Poly(fld, {(m[0], m[1], 0): c for m, c in f.terms.items() if m[2] == 1})
        if b.is_zero():
            expected = False
        elif opts:
            expected = sympy_coprime(a, b, opts)
        else:
            _, factors = sympy.factor_list(to_sympy(f), X, Y, Z)
            expected = len(factors) == 1 and factors[0][1] == 1
        assert is_irreducible(f) == expected, f
        seen.add(expected)
    assert seen == {True, False}
