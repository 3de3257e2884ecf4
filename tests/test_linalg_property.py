"""`canonical_kernel` recovers `eliminate`'s RREF kernel from any basis of
the same kernel: random matrices, their relations recombined by random
invertible matrices and rescaled vector by vector (to integers over the
rationals)."""

from fractions import Fraction
from math import lcm

import pytest

from saito_forge.field import PrimeField, QQ
from saito_forge.linalg import canonical_kernel, eliminate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = {"q": QQ, "fp:1009": PrimeField(1009)}


def scalar(fld, n, den=1):
    return Fraction(n, den) if fld is QQ else fld.from_int(n) * pow(den, -1, fld.p) % fld.p


@st.composite
def recombined_kernel(draw):
    """(field, eliminate's relations, another basis of their span)."""
    fld = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    # small entries, many zeros: kernels of every dimension, free columns anywhere
    entry = st.integers(-2, 2) | st.just(0)
    # integer columns, as eliminate takes them over the rationals
    columns = [{i: fld.from_int(x) if fld.char else x for i in range(nrows) if (x := draw(entry))}
               for _ in range(ncols)]
    relations = eliminate(nrows, columns, fld, kernel=True)[1]
    k = len(relations)
    # an invertible k x k matrix: a permutation of unit-lower times upper
    # triangular with a nonzero diagonal
    nonzero = st.integers(-3, 3).filter(bool)
    lower = [[1 if i == j else (draw(st.integers(-3, 3)) if j < i else 0) for j in range(k)]
             for i in range(k)]
    upper = [[scalar(fld, draw(nonzero), draw(st.integers(1, 4))) if i == j
              else (draw(st.integers(-3, 3)) if j > i else 0) for j in range(k)]
             for i in range(k)]
    mix = [[sum(fld.mul(scalar(fld, lower[i][m]), upper[m][j]) for m in range(k)) for j in range(k)]
           for i in range(k)]
    mix = draw(st.permutations(mix))
    vectors = []
    for row in mix:
        factor = scalar(fld, draw(nonzero))  # each vector only up to a factor
        vec = {}
        for c, (rel, den) in zip(row, relations):
            for col, x in rel.items():
                vec[col] = fld.add(vec.get(col, fld.zero), fld.mul(fld.mul(factor, c), fld.div(x, den)))
        vec = {col: x for col, x in vec.items() if not fld.is_zero(x)}
        if fld is QQ:  # canonical_kernel takes integer values over the rationals
            den = lcm(*[x.denominator for x in vec.values()])
            vec = {col: int(x * den) for col, x in vec.items()}
        vectors.append(vec)
    return fld, relations, vectors


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(recombined_kernel())
def test_canonical_kernel_returns_eliminates_relations(case):
    fld, relations, vectors = case
    assert canonical_kernel(vectors, fld) == relations
