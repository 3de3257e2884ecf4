"""The Jacobian ladder against a Groebner basis: a route independent of the
Macaulay matrices.  Test-only; sympy is not a dependency of the package."""

import pytest

from saito_forge.family import build_divisor, random_instance
from saito_forge.field import QQ
from saito_forge.oracle import (JacobianLadder, jacobian_generators,
                                point_support_check)
from saito_forge.poly import monomials

sympy = pytest.importorskip("sympy")
X, Y, Z = sympy.symbols("x y z")


def to_sympy(p):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i * Y**j * Z**k
               for (i, j, k), c in p.terms.items())


def groebner_invariants(f, t_max: int, n_max: int):
    """Hilbert function of S/J(F) up to t_max, counted as the standard
    monomials of a grevlex Groebner basis of J(F) = (Fx, Fy, Fz, F), and the
    smallest N <= n_max with x^N and y^N in J(F), by normal forms."""
    gens = [g for g in map(to_sympy, jacobian_generators(f)) if g != 0]
    gb = sympy.groebner(gens, X, Y, Z, order="grevlex")
    leads = [sympy.Poly(g, X, Y, Z).monoms(order="grevlex")[0] for g in gb.exprs]
    hf = [sum(1 for m in monomials(t, 3)
              if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads))
          for t in range(t_max + 1)]
    n = next((n for n in range(f.degree() - 1, n_max + 1)
              if gb.contains(X**n) and gb.contains(Y**n)), None)
    return hf, n


@pytest.mark.parametrize("d,alpha,beta", [(5, 0, 0), (7, 0, 1), (8, 0, 0), (9, 1, 0), (9, 0, 1)])
def test_ladder_matches_groebner_basis(d, alpha, beta):
    f = build_divisor(random_instance(d, alpha, beta, seed=1, field=QQ)).f
    t_max, n_max = 3 * (d // 2) + 3, 3 * (d // 2) + 2
    hf, n = groebner_invariants(f, t_max, n_max)
    ladder = JacobianLadder(f)
    assert [ladder.hf(t) for t in range(t_max + 1)] == hf
    assert n is not None and point_support_check(f, n_max, ladder).n == n
