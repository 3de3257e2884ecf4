"""Reference computations shared by the test modules: dense ranks of whole
Macaulay matrices, span tests on syzygy vectors, and the syzygy kernels
eliminated one whole Macaulay matrix per degree.

A syzygy vector (a, b, c, e) of degree t has deg a = deg b = deg c = t and
deg e = t - 1.  Its shifts by the monomials of degree t' - t are columns of
one linear system over the blocks a, b, c (degree t') and e (degree t' - 1).
"""

from itertools import accumulate

from saito_forge.field import Field, QQ
from saito_forge.linalg import canonical_kernel, eliminate, pivot_columns, rref
from saito_forge.oracle import SyzygyBasis, SyzygyVector, _eliminated_blocks, macaulay_matrix
from saito_forge.poly import (column_polys, dot, grlex_key, monomial_index, monomials,
                              shifted_columns, space_dim)


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


def whole_echelon(gens, t: int, degrees=None) -> tuple:
    """(rank, relations) of the degree-t Macaulay matrix whose block k holds
    ``gens[k]`` shifted by the monomials of degree t - ``degrees[k]``: by
    default each generator's own degree, a zero generator then owning no
    block, while an explicit degree keeps a zero generator's block of zero
    (free) columns.  relations is a basis of the kernel of the matrix as
    sparse ``{col: value}`` maps (not the RREF one).  The first single-term
    generator c*m covers its rows: only the other columns, on the rows
    left, are eliminated, and a relation's entry in its block is
    -(sum of entry * generator)/(c*m), an exact monomial division."""
    fld = gens[0].field
    if degrees is None:
        degrees = [g.degree() for g in gens]
    shifts = [t - dg if dg >= 0 else -1 for _, dg in zip(gens, degrees)]
    nrows, cols = shifted_columns([(n, (g,)) for g, n in zip(gens, shifts)], (t,))
    offsets = list(accumulate(map(space_dim, shifts), initial=0))
    k = next((k for k, g in enumerate(gens) if len(g.terms) == 1), None)
    cover = range(offsets[k], offsets[k + 1]) if k is not None else range(0)
    unit = {r: j for j in cover for r in cols[j]}  # covered row -> its unit column
    kept = [j for j in range(len(cols)) if j not in cover]
    rows = dict(zip([r for r in range(nrows) if r not in unit], range(nrows)))
    pivots, relations = eliminate(len(rows), [{rows[r]: c for r, c in cols[j].items() if r in rows}
                                              for j in kept], fld, kernel=True)
    relations = [{kept[i]: x for i, x in rel.items()} for rel in relations]
    if k is not None:
        scale = fld.neg(fld.inv(next(iter(gens[k].terms.values()))))
        for rel, polys in zip(relations, column_polys(relations, shifts, fld)):
            for m, c in dot(polys, gens).terms.items():
                rel[unit[monomial_index(m)]] = fld.mul(c, scale)
    return len(cover) + len(pivots), relations


def whole_matrix_kernel(gens, t: int, with_f: bool = True) -> SyzygyBasis:
    """`oracle._syzygy_kernel_raw` as it was before the kernels were read
    off the Jacobian ladder: `whole_echelon` on the degree-(t + d - 1)
    matrix of the blocks `_eliminated_blocks` keeps (the partials alone
    without ``with_f``), each partial keeping its block, Euler vectors when
    F's block is dropped, and `linalg.canonical_kernel`."""
    f = gens[3]
    fld = f.field
    d = f.degree()
    shifts = (t, t, t, t - 1)
    blocks = _eliminated_blocks(gens) if with_f else gens[:3]
    basis = whole_echelon(blocks, t + d - 1, (d - 1,) * 3 + (d,))[1]
    if with_f and len(blocks) == 3:
        s = space_dim(t)
        basis += [{monomial_index((i + 1, j, k)): -1, s + monomial_index((i, j + 1, k)): -1,
                   2 * s + monomial_index((i, j, k + 1)): -1, 3 * s + n: d}
                  for n, (i, j, k) in enumerate(monomials(t - 1))]
    relations = canonical_kernel(basis, fld)
    vectors = [SyzygyVector(*polys) for polys in column_polys(relations, shifts, fld)]
    vectors.sort(key=lambda s: (len(s.e.terms),
                                [grlex_key(m) for m in sorted(s.e.terms, key=grlex_key, reverse=True)]))
    return SyzygyBasis(t, tuple(vectors))
