"""Exact linear algebra over the coefficient fields.

Everything is deterministic: pivots are chosen leftmost-column first, never by
magnitude, so identical inputs give identical echelon forms, kernels and ranks
on every run.

Two performance paths back the generic ``rref``:

* prime fields below 2^31: vectorized row reduction on int64 numpy arrays
  (products stay below 2^63);
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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .field import Field, PrimeField, Rationals

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


def _int_columns(rows, ncols: int) -> list[dict]:
    """Sparse ``{row: int}`` columns of the matrix after clearing the
    denominators of each row."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        nz = [(j, e) for j, e in enumerate(row) if e]
        if not nz:
            continue
        mult = 1
        for _, e in nz:
            if e.denominator != 1:
                mult = lcm(mult, e.denominator)
        for j, e in nz:
            cols[j][i] = e.numerator * (mult // e.denominator)
    return cols


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


def _qq_echelon(rows, ncols: int, relations: bool):
    """Left-to-right column echelon of a rational matrix.

    Returns ``(pivots, deps)``: the pivot columns, and for every other column
    ``j`` (only when ``relations``) an integer relation ``{col: coeff}`` over
    ``j`` and the pivot columns left of it, with ``coeff[j] != 0``.
    """
    nrows = len(rows)
    basis: dict = {}  # leading (smallest) row -> (vector, relation)
    pivots: list[int] = []
    deps: dict = {}
    for j, v in enumerate(_int_columns(rows, ncols)):
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
    s = rel[j]
    vec = [Fraction(0)] * ncols
    for k, x in rel.items():
        vec[k] = Fraction(x, s)
    return vec


def _modp_rref(mat: np.ndarray, p: int) -> list[int]:
    """In-place RREF of an int64 array modulo p; returns pivot columns."""
    nr, nc = mat.shape
    pivots = []
    piv = 0
    for c in range(nc):
        col = mat[piv:, c]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        r = piv + int(nz[0])
        if r != piv:
            mat[[piv, r]] = mat[[r, piv]]
        inv = pow(int(mat[piv, c]), p - 2, p)
        mat[piv] = (mat[piv] * inv) % p
        f = mat[:, c].copy()
        f[piv] = 0
        nzr = np.nonzero(f)[0]
        if len(nzr):
            mat[nzr] = (mat[nzr] - np.outer(f[nzr], mat[piv])) % p
        pivots.append(c)
        piv += 1
        if piv == nr:
            break
    return pivots


def _to_modp_array(rows, p: int) -> np.ndarray:
    mat = np.array(rows, dtype=np.int64) if rows else np.zeros((0, 0), dtype=np.int64)
    return mat % p


def pivot_columns(rows: list, field: Field) -> list[int]:
    """Pivot columns of the matrix under left-to-right elimination.

    A column is a pivot exactly when it is not in the span of the columns to
    its left, which is what ideal-membership queries need.
    """
    if not rows or not rows[0]:
        return []
    if isinstance(field, PrimeField) and field.p < _NUMPY_SAFE_P:
        return _modp_rref(_to_modp_array(rows, field.p), field.p)
    if isinstance(field, Rationals):
        return _qq_echelon(rows, len(rows[0]), relations=False)[0]
    return rref([list(r) for r in rows], field)


def rank(rows: list, field: Field) -> int:
    return len(pivot_columns(rows, field))


def _free_column_vectors(pivots, reduced, ncols: int, field: Field) -> list[list]:
    """Kernel vectors read off a reduced echelon form: a 1 in one free column,
    zeros in the other free columns."""
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[j] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(reduced[i][j])
        basis.append(vec)
    return basis


def kernel_basis(rows: list, ncols: int, field: Field) -> list[list]:
    """Basis of the right kernel {u : A u = 0}, deterministic.

    Each basis vector has a 1 in one RREF-free column and zeros in the other
    free columns.
    """
    if ncols == 0:
        return []
    if isinstance(field, Rationals):
        _, deps = _qq_echelon(rows, ncols, relations=True)
        return [_relation_vector(rel, j, ncols) for j, rel in deps.items()]
    if rows and isinstance(field, PrimeField) and field.p < _NUMPY_SAFE_P:
        mat = _to_modp_array(rows, field.p)
        pivots = _modp_rref(mat, field.p)
        reduced = [[int(e) for e in mat[i]] for i in range(len(pivots))]
    else:
        reduced = [list(r) for r in rows]
        pivots = rref(reduced, field)
    return _free_column_vectors(pivots, reduced, ncols, field)


def solve_affine(rows: list, rhs: list, field: Field):
    """Solve A u = b exactly.

    Returns (particular, kernel) with the canonical particular solution
    (free variables pinned to zero), or (None, kernel) when inconsistent.
    """
    nc = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if isinstance(field, Rationals):
        # b is the last column: a pivot there means b is not in the span of A
        _, deps = _qq_echelon(aug, nc + 1, relations=True)
        kernel = [_relation_vector(rel, j, nc) for j, rel in deps.items() if j < nc]
        if nc not in deps:
            return None, kernel
        coords = _relation_vector(deps[nc], nc, nc + 1)
        return [-x for x in coords[:nc]], kernel
    pivots = rref(aug, field)
    kernel = _free_column_vectors([p for p in pivots if p < nc], aug, nc, field)
    if pivots and pivots[-1] == nc:
        return None, kernel
    particular = [field.zero] * nc
    for i, pc in enumerate(pivots):
        particular[pc] = aug[i][nc]
    return particular, kernel
