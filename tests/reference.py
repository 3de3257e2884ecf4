"""Reference computations shared by the test modules: dense ranks of whole
Macaulay matrices, and span tests on syzygy vectors.

A syzygy vector (a, b, c, e) of degree t has deg a = deg b = deg c = t and
deg e = t - 1.  Its shifts by the monomials of degree t' - t are columns of
one linear system over the blocks a, b, c (degree t') and e (degree t' - 1).
"""

from saito_forge.field import Field, QQ
from saito_forge.linalg import eliminate, pivot_columns, rref
from saito_forge.oracle import SyzygyBasis, SyzygyVector, macaulay_matrix
from saito_forge.poly import shifted_columns


def dense_rank(gens, t, fld, generic: bool) -> int:
    """The rank of the dense degree-t Macaulay matrix of ``gens``: by the
    generic list RREF, or by `linalg.pivot_columns`."""
    mat = macaulay_matrix(gens, t)
    if not mat.columns:
        return 0
    if generic:
        return len(rref([list(r) for r in mat.entries], fld))
    return len(pivot_columns(mat.entries, fld))


def dense_echelon(gens, t, candidates, fld):
    """The rank of M_t from dense ranks of unreduced matrices, and for each
    candidate whether appending it alone to M_t keeps the rank."""
    small = fld is not QQ or t <= 7
    rank = dense_rank(gens, t, fld, generic=small)
    return rank, [dense_rank(tuple(gens) + (c,), t, fld, generic=small) == rank
                  for c in candidates]


def syzygy_columns(vectors, t: int) -> tuple[int, list[dict]]:
    """The row count and the sparse columns m*g, for each (deg g, g) in
    ``vectors`` and m of degree t - deg g: the blocks a, b, c (degree t) and
    e (degree t - 1) start at rows 0, s, 2s and 3s, s = space_dim(t)."""
    return shifted_columns([(t - tg, g.as_polys()) for tg, g in vectors], (t, t, t, t - 1))


def in_kernel_span(basis: SyzygyBasis, vec: SyzygyVector, field: Field) -> bool:
    """Whether vec is an exact linear combination of the basis vectors."""
    t = basis.degree
    nrows, cols = syzygy_columns([(t, s) for s in basis.vectors + (vec,)], t)
    return len(cols) - 1 not in eliminate(nrows, cols, field)[0]
