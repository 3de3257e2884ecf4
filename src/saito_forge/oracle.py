"""Degree-bounded brute-force ground truth for the constructions.

Everything here is exact linear algebra on Macaulay matrices: the degree-t
piece of an ideal is the column space of the multiplication map from shifted
generators into the monomial basis of degree t.  No Groebner bases anywhere;
ranks and kernels answer every question asked in bounded degree (Lazard's
degree-by-degree elimination).  A `JacobianLadder` eliminates each degree of
J(F) once and keeps only the answers, so the resolution and point-support
checks of one F share it; nothing else is cached, and distinct degrees stay
independent.

Two exact identities shrink each ladder matrix.  A single-term generator c*m
(the family's Fz = x^beta y^(d-beta-1)) shifted by s is c times the unit
column at row m*s: those rows count once each toward the rank and are deleted
from every other column, since the column space is their span plus the rest
projected off them, so rank and memberships are unchanged.  Euler's d*F = x*Fx + y*Fy + z*Fz puts F
in (Fx, Fy, Fz) when d is nonzero in the field, and the ladder drops it then.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import groupby

import numpy as np

from .family import DivisorInstance
from .field import Field
from .linalg import eliminate
from .poly import Poly, det_unit, grlex_key, monomials


def _binom2(n: int) -> int:
    return (n + 1) * (n + 2) // 2 if n >= 0 else 0


def space_dim(t: int) -> int:
    """dim of the degree-t piece of K[x,y,z]."""
    return _binom2(t)


@dataclass(frozen=True)
class MacaulayMatrix:
    """Rows: monomials of degree t (descending graded-lex).  Columns: one per
    (generator, shift monomial) pair, holding the coefficients of shift*gen."""

    generators: tuple
    degree: int
    rows: tuple          # row index -> monomial
    columns: tuple       # column index -> (generator index, shift monomial)
    entries: list        # row-major, raw scalars


def macaulay_matrix(gens, t: int, degrees=None) -> MacaulayMatrix:
    """``degrees`` gives the degree each generator is shifted from; by default
    each generator's own degree, with zero generators left out."""
    gens = tuple(gens)
    fld = gens[0].field
    row_monos = monomials(t, 3)
    row_index = {m: i for i, m in enumerate(row_monos)}
    cols = []
    for gi, g in enumerate(gens):
        dg = g.degree() if degrees is None else degrees[gi]
        if dg < 0 or dg > t:
            continue
        for m in monomials(t - dg, 3):
            cols.append((gi, m))
    entries = [[fld.zero] * len(cols) for _ in row_monos]
    for ci, (gi, m) in enumerate(cols):
        for gm, c in gens[gi].terms.items():
            entries[row_index[(gm[0] + m[0], gm[1] + m[1], gm[2] + m[2])]][ci] = c
    return MacaulayMatrix(gens, t, tuple(row_monos), tuple(cols), entries)


def _row_index(i, j, t):
    """Index of x^i y^j z^(t-i-j) in `monomials` (t, 3); also on arrays."""
    return (t - i) * (t - i + 1) // 2 + (t - i - j)


def _macaulay_entries(gens, t: int, degrees):
    """Shape and nonzero entries ``(rows, cols, values)`` of `macaulay_matrix`
    ``(gens, t, degrees)``, straight from the generators' terms: the column of
    shift m holds g's coefficients at the rows of m times g's monomials."""
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    vals = [np.zeros(0, dtype=object)]
    ncols = 0
    for g, dg in zip(gens, degrees):
        if not 0 <= dg <= t:
            continue
        nshift = space_dim(t - dg)
        if g.terms:
            exps = np.array(list(g.terms), dtype=np.int64).reshape(-1, 3, 1)
            shifts = np.array(monomials(t - dg, 3), dtype=np.int64).T
            rows.append(_row_index(exps[:, 0] + shifts[0], exps[:, 1] + shifts[1], t).ravel())
            cols.append(np.tile(np.arange(ncols, ncols + nshift), len(g.terms)))
            vals.append(np.repeat(np.array(list(g.terms.values()), dtype=object), nshift))
        ncols += nshift
    return space_dim(t), ncols, tuple(np.concatenate(a) for a in (rows, cols, vals))


def _echelon(gens, t: int, candidates=()) -> tuple[int, list]:
    """(rank, memberships) of the degree-t Macaulay matrix of ``gens`` with
    the ``candidates`` as last columns: the rank of the generator columns,
    and for each candidate whether it lies in the span of the columns to its
    left, so all candidates lie in the ideal exactly when all are True.  Rows
    covered by single-term generators count toward the rank and are deleted
    from the other columns, which alone are eliminated."""
    single = [g for g in gens if len(g.terms) == 1]
    multi = [g for g in gens if len(g.terms) != 1]
    covered = np.zeros(space_dim(t), dtype=bool)
    covered[_macaulay_entries(single, t, [g.degree() for g in single])[2][0]] = True
    degrees = [g.degree() for g in multi] + [t] * len(candidates)
    _, ncols, (rows, cols, vals) = _macaulay_entries(multi + list(candidates), t, degrees)
    keep = ~covered[rows]
    renumber = np.cumsum(~covered) - 1
    ncover = int(covered.sum())
    pivots = eliminate(len(covered) - ncover, ncols, (renumber[rows[keep]], cols[keep], vals[keep]),
                       gens[0].field)[0]
    ngen = ncols - len(candidates)
    return (ncover + sum(1 for c in pivots if c < ngen),
            [ngen + i not in pivots for i in range(len(candidates))])


def jacobian_generators(f: Poly):
    return (f.partial("x"), f.partial("y"), f.partial("z"), f)


def monomial_membership(gens, candidates, t: int) -> list[bool]:
    """Membership of each degree-t candidate in the degree-t piece of (gens),
    all with one elimination (see `_echelon`: exact for every candidate up to
    the first one that is not a member)."""
    return _echelon(gens, t, candidates)[1]


# ----- syzygies ------------------------------------------------------------


@dataclass(frozen=True)
class SyzygyVector:
    a: Poly
    b: Poly
    c: Poly
    e: Poly

    def as_polys(self):
        return (self.a, self.b, self.c, self.e)


@dataclass(frozen=True)
class SyzygyBasis:
    degree: int
    vectors: tuple


def _syzygy_kernel_raw(f: Poly, t: int) -> SyzygyBasis:
    fld = f.field
    d = f.degree()
    # a zero partial still owns its block of unknowns (free syzygy entries)
    degrees = (d - 1,) * 3 + (d,)
    nrows, ncols, entries = _macaulay_entries(jacobian_generators(f), t + d - 1, degrees)
    shifts = [monomials(t + d - 1 - dg, 3) for dg in degrees]
    vectors = []
    for vec in eliminate(nrows, ncols, entries, fld, kernel=True)[1]:
        coeffs = iter(vec)
        vectors.append(SyzygyVector(*(Poly(fld, 3, {m: next(coeffs) for m in ms})
                                      for ms in shifts)))
    # stable preference: smallest e-support first, then leading monomial order
    vectors.sort(key=lambda s: (len(s.e.terms),
                                [grlex_key(m) for m in sorted(s.e.terms, key=grlex_key, reverse=True)]))
    return SyzygyBasis(t, tuple(vectors))


def syzygy_kernel(inst: DivisorInstance, t: int) -> SyzygyBasis:
    """Basis of {(a, b, c, e) : a F_x + b F_y + c F_z + e F = 0} in degree t
    (deg a = deg b = deg c = t, deg e = t - 1)."""
    return _syzygy_kernel_raw(inst.f, t)


def syzygy_residual(inst: DivisorInstance, vec: SyzygyVector) -> Poly:
    return vec.a * inst.fx + vec.b * inst.fy + vec.c * inst.fz + vec.e * inst.f


def _syzygy_entries(vectors, t: int):
    """Shape and nonzero entries of the columns m*g, for each (deg g, g) in
    ``vectors`` and m of degree t - deg g: the blocks a, b, c (degree t) and
    e (degree t - 1) start at rows 0, s, 2s and 3s, s = space_dim(t)."""
    s = space_dim(t)
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    vals = [np.zeros(0, dtype=object)]
    ncols = 0
    for tg, run in groupby(vectors, key=lambda v: v[0]):  # one shift set per degree
        shifts = np.array(monomials(t - tg, 3), dtype=np.int64).T
        nshift = shifts.shape[1]
        terms, coeffs = [], []  # per term: x, y exponents, block degree, block row, column
        for n, (_, g) in enumerate(run):
            for k, p in enumerate(g.as_polys()):
                terms.extend((m[0], m[1], t - (k == 3), k * s, ncols + n * nshift) for m in p.terms)
                coeffs.extend(p.terms.values())
        ncols += (n + 1) * nshift
        i, j, tk, off, col = np.array(terms, dtype=np.int64).reshape(-1, 5, 1).transpose(1, 0, 2)
        rows.append((_row_index(i + shifts[0], j + shifts[1], tk) + off).ravel())
        cols.append((col + np.arange(nshift)).ravel())
        vals.append(np.repeat(np.array(coeffs, dtype=object), nshift))
    return 3 * s + space_dim(t - 1), ncols, tuple(np.concatenate(a) for a in (rows, cols, vals))


def in_kernel_span(basis: SyzygyBasis, vec: SyzygyVector, field: Field) -> bool:
    """Whether vec is an exact linear combination of the basis vectors."""
    t = basis.degree
    nrows, ncols, entries = _syzygy_entries([(t, s) for s in basis.vectors + (vec,)], t)
    return ncols - 1 not in eliminate(nrows, ncols, entries, field)[0]


# ----- resolution shape and multiplicity ------------------------------------


def predicted_quotient_hilbert(d: int, t: int) -> int:
    """Hilbert function of S/J(F) implied by the family's resolution shape:
    numerator 1 - 3z^(2v) + 2z^(3v) for odd d, 1 - 3z^(2v-1) + z^(3v-2) + z^(3v-1)
    for even d, over (1-z)^3."""
    v = d // 2
    if d % 2 == 1:
        return _binom2(t) - 3 * _binom2(t - 2 * v) + 2 * _binom2(t - 3 * v)
    return (_binom2(t) - 3 * _binom2(t - (2 * v - 1))
            + _binom2(t - (3 * v - 2)) + _binom2(t - (3 * v - 1)))


def expected_multiplicity(d: int) -> int:
    v = d // 2
    return 3 * v * v if d % 2 == 1 else 3 * v * v - 3 * v + 1


@dataclass
class ResolutionReport:
    d: int
    t_max: int
    computed: list
    predicted: list
    first_mismatch: int | None
    multiplicity: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None and self.multiplicity == self.expected

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "d": self.d,
            "t_max": self.t_max,
            "computed": self.computed,
            "predicted": self.predicted,
            "first_mismatch": self.first_mismatch,
            "multiplicity": self.multiplicity,
            "expected_multiplicity": self.expected,
        }


def _as_divisor_poly(obj) -> Poly:
    return obj.f if isinstance(obj, DivisorInstance) else obj


class JacobianLadder:
    """J(F) = (Fx, Fy, Fz, F) eliminated degree by degree, each degree once.

    Degree t is one elimination of [M_t | x^t | y^t]: the Macaulay matrix of
    J(F) with the two point-support candidates as its last columns.  It
    gives both hf(t) = dim S_t/J(F)_t and whether x^t, y^t lie in J(F); only
    those answers are kept, never the matrix.  F is kept only when p | d, as
    otherwise Euler's identity puts its shifts in the partials' span, and
    `_echelon` takes out the rows a single-term partial covers.
    """

    def __init__(self, f: Poly):
        self.f = f
        char = f.field.char
        self._gens = jacobian_generators(f)[:4 if char and f.degree() % char == 0 else 3]
        self._steps: dict = {}

    def _step(self, t: int) -> tuple:
        if t not in self._steps:
            fld = self.f.field
            rank, members = _echelon(self._gens, t, (Poly.monomial(fld, (t, 0, 0)),
                                                     Poly.monomial(fld, (0, t, 0))))
            self._steps[t] = (space_dim(t) - rank, all(members))
        return self._steps[t]

    def hf(self, t: int) -> int:
        """Hilbert function of S/J(F) at t."""
        return self._step(t)[0]

    def powers_in(self, t: int) -> bool:
        """Whether x^t and y^t both lie in J(F)."""
        return self._step(t)[1]


def resolution_check(inst, t_max: int | None = None,
                     ladder: JacobianLadder | None = None) -> ResolutionReport:
    """Compare the computed Hilbert function of S/J(F) with the series the
    family's resolution shape implies, for all t <= t_max.

    Accepts a DivisorInstance or a bare homogeneous polynomial (controls),
    and the ladder of its F to read from (a fresh one by default)."""
    f = _as_divisor_poly(inst)
    d = f.degree()
    v = d // 2
    if t_max is None:
        t_max = 3 * v + 3
    ladder = ladder or JacobianLadder(f)
    computed = [ladder.hf(t) for t in range(t_max + 1)]
    predicted = [predicted_quotient_hilbert(d, t) for t in range(t_max + 1)]
    mismatch = next((t for t, (c, p) in enumerate(zip(computed, predicted)) if c != p), None)
    return ResolutionReport(d, t_max, computed, predicted, mismatch,
                            computed[-1], expected_multiplicity(d))


@dataclass
class PointSupportResult:
    certified: bool
    n: int | None
    bound: int

    def to_json(self) -> dict:
        return {"certified": self.certified, "n": self.n, "bound": self.bound}


def point_support_check(inst, t_bound: int | None = None,
                        ladder: JacobianLadder | None = None) -> PointSupportResult:
    """Certify that x^N and y^N lie in J(F) for some N <= t_bound, which pins
    the singular locus to the single point (0:0:1).

    Membership is monotone in N, so the first N from d - 1 up where both lie
    in J(F) is the smallest.  Accepts a DivisorInstance or a bare homogeneous
    polynomial (controls), and the ladder of its F to read from.
    """
    f = _as_divisor_poly(inst)
    d = f.degree()
    if t_bound is None:
        t_bound = 3 * (d // 2) + 2
    ladder = ladder or JacobianLadder(f)
    n = next((n for n in range(d - 1, t_bound + 1) if ladder.powers_in(n)), None)
    return PointSupportResult(n is not None, n, t_bound)


# ----- exploratory freeness probe -------------------------------------------


@dataclass
class ProbeReport:
    degree_bound: int
    fresh_degrees: dict = dc_field(default_factory=dict)
    assembled: dict | None = None

    @property
    def succeeded(self) -> bool:
        return self.assembled is not None

    def to_json(self) -> dict:
        return {
            "success": self.succeeded,
            "degree_bound": self.degree_bound,
            "fresh_degrees": {str(k): v for k, v in sorted(self.fresh_degrees.items())},
            "assembly": self.assembled,
        }


def freeness_probe(f: Poly, degree_bound: int) -> ProbeReport:
    """Search for a Saito matrix of a reduced homogeneous f by brute force.

    Walks the syzygy kernels degree by degree, keeps generators that are not
    multiples of earlier ones (the Euler vector starts the list), and tries to
    assemble Euler plus two generators whose degrees sum to deg(f) - 1 into a
    matrix with det = c*f.  Exploratory: exhaustion proves nothing.
    """
    fld = f.field
    d = f.degree()
    report = ProbeReport(degree_bound)
    found: list[tuple[int, SyzygyVector]] = []
    x = Poly.variable(fld, "x")
    y = Poly.variable(fld, "y")
    z = Poly.variable(fld, "z")
    for t in range(1, degree_bound + 1):
        basis = _syzygy_kernel_raw(f, t)
        nrows, ncols, entries = _syzygy_entries(found + [(t, v) for v in basis.vectors], t)
        if not ncols:
            continue
        pivots = set(eliminate(nrows, ncols, entries, fld)[0])
        # a kernel column that survives as a pivot is independent of the span
        fresh = [v for i, v in enumerate(basis.vectors, ncols - len(basis.vectors)) if i in pivots]
        if fresh:
            report.fresh_degrees[t] = len(fresh)
            found.extend((t, g) for g in fresh)
        for i, (ti, gi) in enumerate(found):
            for j, (tj, gj) in enumerate(found):
                if j <= i or ti + tj != d - 1 or tj > t:
                    continue
                b = [[x, gi.a, gj.a], [y, gi.b, gj.b], [z, gi.c, gj.c]]
                unit = det_unit(f, b)[1]
                if unit is not None:
                    report.assembled = {"degrees": [1, ti, tj], "unit": fld.render(unit)}
                    return report
    return report
