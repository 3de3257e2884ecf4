"""Degree-bounded brute-force ground truth for the constructions.

Everything here is exact linear algebra on Macaulay matrices: the degree-t
piece of an ideal is the column space of the multiplication map from shifted
generators into the monomial basis of degree t.  No Groebner bases anywhere;
ranks and kernels answer every question asked in bounded degree (Lazard's
degree-by-degree elimination).  Every elimination, over any field, runs on
one `linalg.Echelon`, with sparse ``{row: value}`` columns built in pure
Python straight from the generators' terms.

An `IdealLadder` climbs the degrees of an ideal on one persistent echelon
basis: since I_(t+1) = z*I_t + (the z-free shifts of degree t + 1), each
degree reduces only those shifts.  A `JacobianLadder` climbs J(F) once and
keeps only the answers, so the resolution and point-support checks of one F
share it; `monomial_membership` reads an `IdealLadder` too.  The syzygy
kernels eliminate one whole Macaulay matrix per degree with `_echelon`,
its columns from `poly.shifted_columns`.  Both shrink their matrices first
by two exact identities:

* covered rows: a single-term generator c*m (the family's
  Fz = x^beta y^(d-beta-1)) shifted by s is c times the unit column at row
  m*s.  Those rows count once each toward the rank and are deleted from
  every other column, since the column space is their span plus the rest
  projected off them, so rank and memberships are unchanged.  `_echelon`
  takes the first single-term generator; a kernel relation's entry in its
  block is -(sum of entry * generator) / (c*m), an exact monomial division:
  each term lands on one covered row.  A ladder takes the first one free of
  z, whose covered rows are the same at every degree.
* Euler: d*F = x*Fx + y*Fy + z*Fz puts every shift of F in the partials'
  span when d is nonzero in the field.  `_eliminated_blocks` decides, for
  the ladder and the kernels both, that F's block is eliminated exactly
  when p | d.

The ladder keeps ranks and memberships.  The syzygy kernels print their
RREF basis byte for byte.  That basis depends only on the kernel and the
column order, so `linalg.canonical_kernel` recovers it from any basis:
the kernel of the partials' blocks is AR(F), the gradient kernel, and when
F's block is dropped one Euler vector (-x*e/d, -y*e/d, -z*e/d, e) per
monomial e completes it to the kernel of (Fx, Fy, Fz, F).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .family import DivisorInstance
from .linalg import Echelon, canonical_kernel, eliminate
from .poly import (Poly, _int_terms, column_polys, dot, grlex_key, monomial_index,
                   monomials, shifted_columns, space_dim)


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


def _echelon(gens, t: int, degrees=None) -> tuple:
    """(rank, relations) of the degree-t Macaulay matrix whose block k holds
    ``gens[k]`` shifted by the monomials of degree t - ``degrees[k]``: by
    default each generator's own degree, a zero generator then owning no
    block, while an explicit degree keeps a zero generator's block of zero
    (free) columns.  relations is a basis of the kernel of the matrix as
    sparse ``{col: value}`` maps (not the RREF one).  The first single-term
    generator covers rows (see the module docstring): only the other
    columns, on the rows left, are eliminated."""
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


def _xy_terms(p: Poly) -> list:
    """The terms of p as (x exponent, y exponent, coefficient), scaled to
    integers over the rationals."""
    return [(i, j, c) for (i, j, _), c in _int_terms(p)[0].items()]


class IdealLadder:
    """The degree-t pieces of the ideal (gens), t = 0, 1, 2, ..., on one
    `linalg.Echelon` carried up from each degree to the next.

    Every shift m*g with z | m is z*((m/z)*g), so I_(t+1) = z*I_t plus the
    z-free shifts x^a y^b * g of degree t + 1, exactly, for any generators.
    The row of x^i y^j z^k is keyed by (i, j) alone, as (i+j)(i+j+1)/2 + j
    (below space_dim(t) at degree t), so z*v has the same sparse map as v
    and the echelon basis of I_t is already one of z*I_t.  Each degree
    therefore reduces only the z-free shifts of each generator against the
    basis.  Covered rows (see the module docstring) are those of the first
    z-free single-term generator c*x^a y^b: the keys (i, j) with i >= a and
    j >= b at every degree, space_dim(t - a - b) of them at degree t.  Over
    the rationals each generator is scaled to integers once, a column
    scaling that stays consistent across degrees."""

    def __init__(self, gens):
        self.echelon = Echelon(gens[0].field)
        self.degree = -1
        gens = [g for g in gens if not g.is_zero()]
        cover = next((g for g in gens if len(g.terms) == 1 and not next(iter(g.terms))[2]), None)
        self._cover = next(iter(cover.terms))[:2] if cover is not None else None
        self._gens = [(g.degree(), _xy_terms(g)) for g in gens if g is not cover]

    def _column(self, terms, a: int = 0, b: int = 0) -> dict:
        """The sparse column of x^a y^b times the (i, j, coefficient) ``terms``
        off the covered rows."""
        ci, cj = self._cover or (None, None)
        col = {}
        for i, j, c in terms:
            i += a
            j += b
            if ci is None or i < ci or j < cj:
                w = i + j
                col[w * (w + 1) // 2 + j] = c
        return col

    def advance(self) -> None:
        """Go up one degree: the z-free shifts of each generator join the basis."""
        t = self.degree = self.degree + 1
        echelon = self.echelon
        echelon.grow(space_dim(t))
        for dg, terms in self._gens:
            n = t - dg
            for a in range(n, -1, -1):
                echelon.add(self._column(terms, a, n - a))

    def rank(self) -> int:
        """dim I_t at the current degree t."""
        covered = space_dim(self.degree - sum(self._cover)) if self._cover else 0
        return covered + len(self.echelon.basis)

    def contains(self, p: Poly) -> bool:
        """Whether the form p of the current degree (or zero) lies in I_t;
        p is reduced against the basis and never joins it."""
        return self.echelon.reduce(self._column(_xy_terms(p)))[0] is None


def jacobian_generators(f) -> tuple:
    """(Fx, Fy, Fz, F) of a bare F, or of a DivisorInstance from the gradient
    it stores."""
    if isinstance(f, DivisorInstance):
        return (f.fx, f.fy, f.fz, f.f)
    return (f.partial("x"), f.partial("y"), f.partial("z"), f)


def _eliminated_blocks(gens: tuple) -> tuple:
    """The blocks of ``gens`` = (Fx, Fy, Fz, F) that an elimination of J(F)
    needs: F's block exactly when p | deg F.  Otherwise Euler's
    d*F = x*Fx + y*Fy + z*Fz puts every shift of F in the partials' span."""
    f = gens[3]
    char = f.field.char
    return gens if char and f.degree() % char == 0 else gens[:3]


def gradient_pairing(f, col) -> Poly:
    """a*Fx + b*Fy + c*Fz for a column col = (a, b, c), plus e*F for a
    syzygy vector (a, b, c, e): col paired with `jacobian_generators` (f)
    by one `poly.dot`."""
    return dot(col, jacobian_generators(f))


def monomial_membership(gens, candidates, t: int) -> list[bool]:
    """Membership of each degree-t candidate in the degree-t piece of (gens),
    each reduced against one `IdealLadder` basis."""
    ladder = IdealLadder(gens)
    while ladder.degree < t:
        ladder.advance()
    return [ladder.contains(c) for c in candidates]


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


def _syzygy_kernel_raw(gens: tuple, t: int, with_f: bool = True) -> SyzygyBasis:
    """The degree-t kernel of the Macaulay map of ``gens`` = (Fx, Fy, Fz, F),
    from `jacobian_generators`: the RREF kernel basis that `linalg.eliminate`
    gives for the whole matrix [Fx | Fy | Fz | F], computed from a cheaper
    basis by `linalg.canonical_kernel`.  Without ``with_f`` the F block is
    left out, and every vector has e = 0.

    The cheaper basis is the kernel `_echelon` gives for the blocks
    `_eliminated_blocks` keeps.  Without F's block that is AR(F)_t, and
    Euler's d*F = x*Fx + y*Fy + z*Fz completes it to the whole kernel with
    the vectors (-x*e/d, -y*e/d, -z*e/d, e), e over the monomials of degree
    t - 1: a kernel vector less the Euler vectors of its e-entry has e = 0.
    Each partial keeps its block, a zero one as free columns."""
    f = gens[3]
    fld = f.field
    d = f.degree()
    shifts = (t, t, t, t - 1)
    blocks = _eliminated_blocks(gens) if with_f else gens[:3]
    basis = _echelon(blocks, t + d - 1, (d - 1,) * 3 + (d,))[1]
    if with_f and len(blocks) == 3:
        s = space_dim(t)
        # d times the Euler vector of e, integral in both fields
        basis += [{monomial_index((i + 1, j, k)): -1, s + monomial_index((i, j + 1, k)): -1,
                   2 * s + monomial_index((i, j, k + 1)): -1, 3 * s + n: d}
                  for n, (i, j, k) in enumerate(monomials(t - 1))]
    relations = canonical_kernel(basis, fld)
    vectors = [SyzygyVector(*polys) for polys in column_polys(relations, shifts, fld)]
    # stable preference: smallest e-support first, then leading monomial order
    vectors.sort(key=lambda s: (len(s.e.terms),
                                [grlex_key(m) for m in sorted(s.e.terms, key=grlex_key, reverse=True)]))
    return SyzygyBasis(t, tuple(vectors))


def syzygy_kernel(inst: DivisorInstance, t: int) -> SyzygyBasis:
    """Basis of {(a, b, c, e) : a F_x + b F_y + c F_z + e F = 0} in degree t
    (deg a = deg b = deg c = t, deg e = t - 1)."""
    return _syzygy_kernel_raw(jacobian_generators(inst), t)


def gradient_kernel(inst: DivisorInstance, t: int) -> SyzygyBasis:
    """Basis of AR(F) = {(a, b, c) : a F_x + b F_y + c F_z = 0} in degree t,
    as vectors with e = 0: the RREF kernel of the three gradient blocks.
    `linalg.eliminate` reduces columns left to right, so it is exactly the
    leading e = 0 part of `syzygy_kernel`."""
    return _syzygy_kernel_raw(jacobian_generators(inst), t, with_f=False)


# ----- resolution shape and multiplicity ------------------------------------


def predicted_quotient_hilbert(d: int, t: int) -> int:
    """Hilbert function of S/J(F) implied by the family's resolution shape:
    numerator 1 - 3z^(2v) + 2z^(3v) for odd d, 1 - 3z^(2v-1) + z^(3v-2) + z^(3v-1)
    for even d, over (1-z)^3."""
    v = d // 2
    if d % 2 == 1:
        return space_dim(t) - 3 * space_dim(t - 2 * v) + 2 * space_dim(t - 3 * v)
    return (space_dim(t) - 3 * space_dim(t - (2 * v - 1))
            + space_dim(t - (3 * v - 2)) + space_dim(t - (3 * v - 1)))


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
    """J(F) = (Fx, Fy, Fz, F) climbed degree by degree on one `IdealLadder`.

    Degree t gives hf(t) = dim S_t/J(F)_t and whether x^t, y^t lie in J(F),
    the two point-support candidates, reduced against the basis right after
    degree t's columns join it.  Only those answers are kept per degree.
    Degrees are reached lazily and in order, each once.  F's block is kept
    only when p | d (see `_eliminated_blocks`).  Takes a DivisorInstance,
    whose stored gradient it reads, or a bare F.
    """

    def __init__(self, f):
        gens = jacobian_generators(f)
        self.f = gens[3]
        self._ladder = IdealLadder(_eliminated_blocks(gens))
        self._steps: list = []

    def _step(self, t: int) -> tuple:
        ladder, fld = self._ladder, self.f.field
        while len(self._steps) <= t:
            ladder.advance()
            s = ladder.degree
            self._steps.append((space_dim(s) - ladder.rank(),
                                all(ladder.contains(Poly.monomial(fld, m))
                                    for m in ((s, 0, 0), (0, s, 0)))))
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
    ladder = ladder or JacobianLadder(inst)
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
    ladder = ladder or JacobianLadder(inst)
    n = next((n for n in range(d - 1, t_bound + 1) if ladder.powers_in(n)), None)
    return PointSupportResult(n is not None, n, t_bound)
