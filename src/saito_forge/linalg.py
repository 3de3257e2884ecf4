"""Exact linear algebra over the coefficient fields.

Everything is deterministic: pivots are chosen leftmost-column first, never by
magnitude, so identical inputs give identical echelon forms, kernels and ranks
on every run.  Nothing is probabilistic and no certificate is needed.

Every elimination runs on one sparse column-echelon engine for every field,
`Echelon`: a basis keyed by each basis vector's leading (smallest) row, which
sparse ``{row: value}`` columns join one at a time and which may gain rows
between them.  A column can also be reduced against the basis without
joining it, which answers whether it lies in the span.  A column that
reduces to zero yields a relation with the columns before it, tracked as a
``{column: value}`` map.  `eliminate` joins a whole matrix's columns to a
fresh `Echelon`, left to right, so its pivots are the greedy left-to-right
column basis and its relations, scaled to 1 at their own column, the RREF
kernel vectors.  The Jacobian ladder joins columns in another order, and
`canonical_kernel` turns any basis of a kernel into that RREF basis.  Both
give a kernel vector as ``(values, den)``: int ``{column: value}`` in column
order over one den > 0, in lowest terms (den = 1 and values in 0..p-1 over
a prime field), with no ``Fraction``.  Only the reduction step depends on the field:

* rationals: columns hold Python ints, the caller having cleared
  denominators by a row scaling (which changes neither the column
  dependencies nor the right kernel), as `poly.shifted_columns` does; they
  are reduced with two-term fraction-free integer combinations, dividing
  out the content after each step;
* prime fields: entries lie in 1..p-1 and each basis vector is scaled to 1
  at its leading row.  A column already reduced, at a leading row no basis
  vector has, joins (or comes back) as it is, scaled to 1 there; any other
  is reduced in one reused dense accumulator of Python ints, taken ``% p``
  when read (so any p works), visiting its nonzero rows smallest first
  through a heap.

The dense-list front ends ``pivot_columns`` and ``kernel_basis`` take and
give field scalars, clear the denominators of each row first
(`_dense_columns`), and serve the tests and the benchmark's layer tracing.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .field import Field, Rationals


def _combine(v: dict, a: int, w: dict, c: int) -> dict:
    """The sparse vector a*v - c*w, without zero entries (c*w has none)."""
    out = {k: a * x for k, x in v.items()} if a != 1 else dict(v)
    for k, y in w.items():
        x = out.get(k, 0) - c * y
        if x:
            out[k] = x
        else:
            del out[k]
    return out


def _divide(v: dict, g: int) -> dict:
    return {k: x // g for k, x in v.items()}


def _over(v: dict, den: int) -> tuple:
    """The kernel vector v / den as ``(values, den)``, in column order with den > 0."""
    return ({k: -x for k, x in sorted(v.items())}, -den) if den < 0 else (dict(sorted(v.items())), den)


def _qq_reduce(v: dict, rel, basis: dict):
    """Reduce an integer column against ``basis``: ``(lead, vector, relation)``
    with ``lead`` None when it reduces to zero.  The relation, tracked only
    when ``rel`` is given, expresses the reduced vector in the original columns."""
    while v:
        r = min(v)
        hit = basis.get(r)
        if hit is None:
            return r, v, rel
        w, wrel = hit
        g = gcd(w[r], v[r])
        a, c = w[r] // g, v[r] // g
        v = _combine(v, a, w, c)
        if rel is not None:
            rel = _combine(rel, a, wrel, c)
            g = gcd(*v.values(), *rel.values())
        else:
            g = gcd(*v.values())
        if g > 1:
            v = _divide(v, g)
            if rel is not None:
                rel = _divide(rel, g)
    return None, None, rel


class Echelon:
    """A column echelon basis that persists: columns join it one at a time,
    rows may be added between them, and a column may be reduced against it
    without joining it.  ``basis`` maps each basis vector's leading
    (smallest) row to ``(vector, relation)``; a relation, tracked only when
    one is passed in, expresses the vector in the columns that made it.

    Columns are sparse ``{row: int}`` maps.  Over the rationals the caller
    clears denominators first, by any row or column scaling, which changes
    neither ranks nor memberships.  Over a prime field the accumulator holds
    one slot per row, so rows must be made room for with `grow` before a
    column that reaches them is reduced.
    """

    def __init__(self, field: Field, nrows: int = 0):
        self.basis: dict = {}
        self._p = None if isinstance(field, Rationals) else field.p
        self._acc: list = []
        self.grow(nrows)

    def grow(self, nrows: int) -> None:
        """Make room for the rows below ``nrows``."""
        if self._p and nrows > len(self._acc):
            self._acc.extend([0] * (nrows - len(self._acc)))

    def reduce(self, v: dict, rel=None):
        """``(lead, vector, relation)`` of ``v`` reduced against the basis,
        which it leaves as it is; ``lead`` is None when ``v`` reduces to zero."""
        return self._fp_reduce(v, rel) if self._p else _qq_reduce(v, rel, self.basis)

    def add(self, v: dict, rel=None):
        """Reduce ``v`` and let it join the basis unless it reduced to zero:
        ``(lead, relation)``, with ``lead`` None for a dependent column."""
        lead, vec, rel = self.reduce(v, rel)
        if lead is not None:
            self.basis[lead] = (vec, rel)
        return lead, rel

    def _fp_reduce(self, v: dict, rel):
        """The mod-p counterpart of `_qq_reduce`, in the dense accumulator;
        every vector and relation it returns is scaled to 1 at ``lead``.
        Entries must lie in 1..p-1, so a column already reduced, at a
        leading row no basis vector has, comes back as it is, scaled there."""
        basis, acc, p = self.basis, self._acc, self._p
        if v and (r := min(v)) not in basis:
            if (c := v[r]) == 1:
                return r, v, rel
            inv = pow(c, p - 2, p)
            return r, {k: x * inv % p for k, x in v.items()}, (
                None if rel is None else {k: x * inv % p for k, x in rel.items() if x})
        # entries are reduced mod p only when read; every row whose entry is
        # a nonzero int is on the heap
        for r, x in v.items():
            acc[r] = x
        heap = list(v)
        heapify(heap)
        while heap:
            r = heappop(heap)
            c = acc[r] = acc[r] % p
            if not c:
                continue
            hit = basis.get(r)
            if hit is None:  # new leading row: drain the accumulator into the vector
                inv = pow(c, p - 2, p)
                acc[r] = 0
                out = {r: 1}
                for k in heap:
                    x = acc[k] % p
                    if x:
                        out[k] = x * inv % p
                    acc[k] = 0
                if rel is not None:
                    rel = {k: x * inv % p for k, x in rel.items() if x}
                return r, out, rel
            w, wrel = hit
            for k, y in w.items():
                x = acc[k]
                if not x:
                    heappush(heap, k)
                acc[k] = x - c * y
            if rel is not None:
                for k, y in wrel.items():
                    rel[k] = (rel.get(k, 0) - c * y) % p
        return None, None, rel


def eliminate(nrows: int, columns: list, field: Field, kernel: bool = False):
    """``(pivots, relations)`` of the ``nrows``-row matrix with the sparse
    ``{row: value}`` ``columns``, joined to one `Echelon` left to right.

    ``pivots`` are the columns not in the span of the columns to their left,
    which is what rank queries need.  With ``kernel``, ``relations`` holds,
    for each non-pivot column j in order, its RREF kernel vector, 1 at j, as
    ``(values, den)`` (see the module docstring); otherwise it is None.  Over
    the rationals the columns hold ints (any row scaling of the matrix has
    the same pivots and relations).
    """
    echelon = Echelon(field, nrows)
    pivots: list[int] = []
    relations = [] if kernel else None
    for j, v in enumerate(columns):
        if not kernel and len(echelon.basis) == nrows:
            break  # full row rank: every later column is dependent
        lead, rel = echelon.add(v, {j: 1} if kernel else None)
        if lead is not None:
            pivots.append(j)
        elif kernel:  # rel[j] is the denominator up to sign, 1 over a prime field
            relations.append(_over({k: x for k, x in rel.items() if x}, rel[j]))
    return pivots, relations


def canonical_kernel(vectors: list, field: Field) -> list[tuple]:
    """The relations `eliminate` returns for a matrix whose kernel the sparse
    ``{col: value}`` ``vectors`` span, computed from those vectors alone.

    The RREF kernel basis depends only on the kernel and the column order:
    its free columns are the last nonzero columns of the kernel's vectors,
    and for each free j it holds the one kernel vector with 1 at j and 0 at
    the other free columns.  So the vectors are row-reduced with each pivot
    at a vector's last nonzero column, every pivot column is cleared from the
    other vectors, and each is scaled to 1 at its pivot.  Any vector may be
    given up to a nonzero factor, with integer values over the rationals,
    where the reduction runs fraction-free as in `_qq_reduce` (``% p`` over a
    prime field); each comes back as ``(values, den)``, as from `eliminate`.
    """
    qq = isinstance(field, Rationals)
    p = None if qq else field.p
    basis: dict = {}  # pivot (last nonzero column) -> vector

    def clear(v: dict, cols: list) -> dict:
        # v with the pivot columns cols cleared at once and one content
        # division; basis[j] is 0 at the other pivots (over a prime field, 1 at j)
        scale = lcm(*[basis[j][j] // gcd(basis[j][j], v[j]) for j in cols]) if qq else 1
        acc = {i: scale * x for i, x in v.items()}
        for j in cols:
            c = scale * v[j] // basis[j][j]
            for i, y in basis[j].items():
                acc[i] = acc.get(i, 0) - c * y
        v = {i: r for i, x in acc.items() if (r := x if qq else x % p)}
        return _divide(v, g) if qq and (g := gcd(*v.values())) > 1 else v

    # sparsest first: the later, denser vectors then meet sparse pivots
    for v in sorted(vectors, key=len):
        v = {k: r for k, x in v.items() if (r := x if qq else x % p)}
        while v and (k := max(v)) in basis:
            v = clear(v, [k])
        if v and not qq:
            inv = pow(v[k], p - 2, p)
            v = {j: x * inv % p for j, x in v.items()}
        if v:
            basis[k] = v
    out = []
    for k in sorted(basis):
        # the vectors with smaller pivots are already cleared of every other
        # pivot column, so all of v's clear in one pass
        v = basis[k] = clear(basis[k], [j for j in basis[k] if j != k and j in basis])
        out.append(_over(v, v[k]))  # primitive; over a prime field v[k] is 1
    return out


def _dense_columns(rows: list, ncols: int, field: Field) -> list[dict]:
    """The sparse columns of a dense matrix of field scalars, as `eliminate`
    takes them: over the rationals each row scaled by the lcm of its denominators."""
    if isinstance(field, Rationals):
        rows = [[e.numerator * (m // e.denominator) for e in r]
                for r in rows for m in (lcm(*[e.denominator for e in r]),)]
    return [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]


def pivot_columns(rows: list, field: Field) -> list[int]:
    """Pivot columns of a dense matrix under left-to-right elimination."""
    if not rows or not rows[0]:
        return []
    return eliminate(len(rows), _dense_columns(rows, len(rows[0]), field), field)[0]


def kernel_basis(rows: list, ncols: int, field: Field) -> list[list]:
    """Kernel basis of a dense matrix with ``ncols`` columns, in field scalars:
    each vector has a 1 in one RREF-free column and zeros in the other free columns."""
    if ncols == 0:
        return []
    relations = eliminate(len(rows), _dense_columns(rows, ncols, field), field, kernel=True)[1]
    return [[field.div(rel.get(k, 0), den) for k in range(ncols)] for rel, den in relations]


def solve_affine(nrows: int, columns: list, rhs: dict, field: Field):
    """Solve A u = b exactly, with A given by its sparse ``{row: value}``
    ``columns`` and b by the sparse column ``rhs``, integral over the
    rationals as in `eliminate` (one row scaling of A and b together keeps
    the solutions).

    Returns (particular, kernel), each vector as ``(values, den)`` (see
    `eliminate`): the canonical particular solution (free variables pinned
    to zero), or None when inconsistent, and the RREF kernel basis of A.
    """
    nc = len(columns)
    pivots, relations = eliminate(nrows, columns + [rhs], field, kernel=True)
    # b is the last column: a pivot there means b is not in the span of A;
    # otherwise its relation, the last one, is (-particular, 1)
    if pivots and pivots[-1] == nc:
        return None, relations
    rel, den = relations[-1]
    return ({k: field.neg(x) for k, x in rel.items() if k != nc}, den), relations[:-1]
