"""Exact linear algebra over the coefficient fields.

Everything is deterministic: pivots are chosen leftmost-column first, never by
magnitude, so identical inputs give identical echelon forms, kernels and ranks
on every run.

Every elimination goes through `eliminate`, which takes a matrix as its
nonzero entries and returns its pivot columns and, on request, its kernel:

* prime fields: row reduction on a numpy array (int64 below 2^31, where
  products stay below 2^63; Python integers above).  Pivots alone need only
  the row echelon form, in which each pivot clears only the rows below it,
  from its column rightwards; a kernel takes the reduced form;
* rationals: one sparse column-echelon engine over the integers answers
  pivot, rank, kernel and affine-solve queries.  Each row is first scaled by
  the lcm of its denominators, which changes neither the column dependencies
  nor the right kernel.  Columns are then reduced left to right against an
  integer echelon basis with two-term fraction-free combinations, dividing
  out the content after each step.  A column is a pivot exactly when it does
  not reduce to zero, so the pivot set is the greedy left-to-right column
  basis that RREF finds.  A column that does reduce to zero yields an integer
  relation with the independent columns to its left; its coordinates in
  those columns are unique, so dividing the relation by the column's own
  coefficient gives exactly the RREF kernel vector.  Nothing is
  probabilistic and no certificate is needed.

The generic ``rref`` on lists is the reference both paths are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .field import Field, Rationals

_NUMPY_SAFE_P = 1 << 31  # p**2 < 2**62 leaves int64 headroom for the row update


def rref(rows: list, field: Field) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column indices."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    piv = 0
    for c in range(nc):
        r = None
        for i in range(piv, nr):
            if not field.is_zero(rows[i][c]):
                r = i
                break
        if r is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        inv = field.inv(rows[piv][c])
        rows[piv] = [field.mul(e, inv) for e in rows[piv]]
        prow = rows[piv]
        for i in range(nr):
            if i != piv and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], prow)]
        pivots.append(c)
        piv += 1
        if piv == nr:
            break
    return pivots


def _int_columns(ncols: int, entries) -> list[dict]:
    """Sparse ``{row: int}`` columns of the matrix after clearing the
    denominators of each row."""
    rows, cols, vals = entries
    rows = rows.tolist()
    mult: dict = {}
    for i, e in zip(rows, vals):
        if e.denominator != 1:
            mult[i] = lcm(mult.get(i, 1), e.denominator)
    out = [{} for _ in range(ncols)]
    for i, j, e in zip(rows, cols.tolist(), vals):
        out[j][i] = e.numerator * (mult.get(i, 1) // e.denominator)
    return out


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


def _qq_echelon(columns: list, nrows: int, relations: bool):
    """Left-to-right column echelon of integer sparse columns.

    Returns ``(pivots, deps)``: the pivot columns, and for every other column
    ``j`` (only when ``relations``) an integer relation ``{col: coeff}`` over
    ``j`` and the pivot columns left of it, with ``coeff[j] != 0``.
    """
    basis: dict = {}  # leading (smallest) row -> (vector, relation)
    pivots: list[int] = []
    deps: dict = {}
    for j, v in enumerate(columns):
        rel = {j: 1} if relations else None
        while v:
            r = min(v)
            hit = basis.get(r)
            if hit is None:
                basis[r] = (v, rel)
                pivots.append(j)
                break
            w, wrel = hit
            g = gcd(w[r], v[r])
            a, c = w[r] // g, v[r] // g
            v = _combine(v, a, w, c)
            if relations:
                rel = _combine(rel, a, wrel, c)
                g = gcd(*v.values(), *rel.values())
            else:
                g = gcd(*v.values())
            if g > 1:
                v = _divide(v, g)
                if relations:
                    rel = _divide(rel, g)
        else:  # reduced to zero: column j depends on the pivots left of it
            if relations:
                deps[j] = rel
        if not relations and len(pivots) == nrows:
            break  # full row rank: every later column is dependent
    return pivots, deps


def _relation_vector(rel: dict, j: int, ncols: int) -> list:
    """The relation scaled to coefficient 1 at column ``j``, as Fractions."""
    zero = Fraction(0)
    return [Fraction(rel[k], rel[j]) if k in rel else zero for k in range(ncols)]


def _modp_echelon(mat: np.ndarray, p: int, reduced: bool) -> list[int]:
    """In-place row echelon form of an integer array modulo p; returns the
    pivot columns.  ``reduced`` asks for the RREF (pivot entries 1, pivot
    columns cleared above as well), which kernel read-off needs."""
    nr, nc = mat.shape
    pivots = []
    piv = 0
    for c in range(nc):
        if piv == nr:
            break
        nz = mat[piv:, c].nonzero()[0]
        if len(nz) == 0:
            continue
        if nz[0]:
            mat[[piv, piv + nz[0]]] = mat[[piv + nz[0], piv]]
        lo = 0 if reduced else c
        mat[piv, lo:] = mat[piv, lo:] * pow(int(mat[piv, c]), p - 2, p) % p
        if reduced:
            others = mat[:, c].nonzero()[0]
            others = others[others != piv]
        else:
            others = piv + nz[1:]
        if len(others):
            mat[others, lo:] = (mat[others, lo:] - mat[others, c, None] * mat[piv, lo:]) % p
        pivots.append(c)
        piv += 1
    return pivots


def _nonzero_entries(rows: list, ncols: int):
    """``(rows, cols, values)`` of the nonzero entries of a dense matrix."""
    mat = np.array(rows, dtype=object).reshape(len(rows), ncols)
    r, c = np.nonzero(mat)
    return r, c, mat[r, c]


def eliminate(nrows: int, ncols: int, entries, field: Field, kernel: bool = False):
    """``(pivots, basis)`` of the matrix whose nonzero entries are
    ``entries = (rows, cols, values)``, two integer arrays and a value array.

    ``pivots`` are the columns not in the span of the columns to their left,
    which is what rank and ideal-membership queries need.  With ``kernel``,
    ``basis`` is the deterministic basis of the right kernel {u : A u = 0}:
    each vector has a 1 in one RREF-free column and zeros in the other free
    columns; otherwise it is None.
    """
    if isinstance(field, Rationals):
        pivots, deps = _qq_echelon(_int_columns(ncols, entries), nrows, relations=kernel)
        return pivots, [_relation_vector(rel, j, ncols) for j, rel in deps.items()] if kernel else None
    rows, cols, vals = entries
    dtype = np.int64 if field.p < _NUMPY_SAFE_P else object
    mat = np.zeros((nrows, ncols), dtype=dtype)
    mat[rows, cols] = np.asarray(vals, dtype=dtype) % field.p
    pivots = _modp_echelon(mat, field.p, reduced=kernel)
    if not kernel:
        return pivots, None
    # one vector per free column j: 1 at j, minus column j of the RREF at the pivots
    free = sorted(set(range(ncols)).difference(pivots))
    basis = np.zeros((len(free), ncols), dtype=dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -mat[:len(pivots), free].T % field.p
    return pivots, basis.tolist()


def pivot_columns(rows: list, field: Field) -> list[int]:
    """Pivot columns of a dense matrix under left-to-right elimination."""
    if not rows or not rows[0]:
        return []
    return eliminate(len(rows), len(rows[0]), _nonzero_entries(rows, len(rows[0])), field)[0]


def rank(rows: list, field: Field) -> int:
    return len(pivot_columns(rows, field))


def kernel_basis(rows: list, ncols: int, field: Field) -> list[list]:
    """Kernel basis of a dense matrix with ``ncols`` columns (see `eliminate`)."""
    if ncols == 0:
        return []
    return eliminate(len(rows), ncols, _nonzero_entries(rows, ncols), field, kernel=True)[1]


def solve_affine(rows: list, rhs: list, field: Field):
    """Solve A u = b exactly.

    Returns (particular, kernel) with the canonical particular solution
    (free variables pinned to zero), or (None, kernel) when inconsistent.
    """
    nc = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, basis = eliminate(len(aug), nc + 1, _nonzero_entries(aug, nc + 1), field, kernel=True)
    # b is the last column: a pivot there means b is not in the span of A;
    # otherwise its kernel vector, the last one, is (-particular, 1)
    if pivots and pivots[-1] == nc:
        return None, [vec[:nc] for vec in basis]
    return [field.neg(x) for x in basis[-1][:nc]], [vec[:nc] for vec in basis[:-1]]
