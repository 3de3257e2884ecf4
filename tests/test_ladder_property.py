"""`oracle.JacobianLadder` against dense ranks of unreduced Macaulay
matrices, on random sparse forms of degree 3..7: hf(t) = dim S_t - rank M_t,
and x^t, y^t lie in J(F) exactly when appending each alone to M_t keeps the
rank."""

import pytest

from saito_forge.field import PrimeField, QQ
from saito_forge.oracle import JacobianLadder, jacobian_generators
from saito_forge.poly import Poly, space_dim
from reference import dense_echelon

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = {"q": QQ, "fp:1009": PrimeField(1009), "fp:5": PrimeField(5), "fp:7": PrimeField(7)}


@st.composite
def sparse_forms(draw):
    """A nonzero form of degree 3..7 with one to five terms and small
    coefficients, over the rationals or a small prime field."""
    fld = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    d = draw(st.integers(3, 7))
    exponents = st.tuples(st.integers(0, d), st.integers(0, d)).filter(lambda m: sum(m) <= d)
    terms = {}
    for i, j in draw(st.lists(exponents, min_size=1, max_size=5, unique=True)):
        c = fld.from_int(draw(st.integers(-3, 3).filter(bool)))
        if not fld.is_zero(c):
            terms[(i, j, d - i - j)] = c
    hypothesis.assume(terms)
    return Poly(fld, 3, terms)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(sparse_forms())
def test_ladder_matches_dense_ranks_on_sparse_forms(f):
    fld, d = f.field, f.degree()
    gens = jacobian_generators(f)
    ladder = JacobianLadder(f)
    for t in range(d + 3):
        powers = (Poly.monomial(fld, (t, 0, 0)), Poly.monomial(fld, (0, t, 0)))
        rank, members = dense_echelon(gens, t, powers, fld)
        assert (ladder.hf(t), ladder.powers_in(t)) == (space_dim(t) - rank, all(members)), t
