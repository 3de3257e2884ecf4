"""Degree-bounded brute-force ground truth for the constructions.

Everything here is exact linear algebra on Macaulay matrices: the degree-t
piece of an ideal is the column space of the multiplication map from shifted
generators into the monomial basis of degree t.  No Groebner bases anywhere;
ranks and kernels answer every question asked in bounded degree.  Work for
distinct degrees is independent (nothing is cached or shared), so callers may
parallelize over t or over instances freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .family import DivisorInstance
from .field import Field
from .linalg import kernel_basis, pivot_columns, rank, solve_affine
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

    @property
    def field(self) -> Field:
        return self.generators[0].field


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


def ideal_dim(gens, t: int) -> int:
    """dim of the degree-t piece of the homogeneous ideal (gens)."""
    if t < 0:
        return 0
    mat = macaulay_matrix(gens, t)
    if not mat.columns:
        return 0
    return rank(mat.entries, mat.field)


def hilbert_function_quotient(gens, t: int) -> int:
    return space_dim(t) - ideal_dim(gens, t)


def jacobian_generators(f: Poly):
    return (f.partial("x"), f.partial("y"), f.partial("z"), f)


def monomial_membership(gens, candidates, t: int) -> list[bool]:
    """Exact membership of each candidate (degree-t polynomial) in the
    degree-t piece of (gens), all with one elimination.

    Candidate columns are appended after the generator columns, so a
    candidate lies in the ideal exactly when its column is not a pivot.
    """
    mat = macaulay_matrix(gens, t)
    fld = mat.field
    ncols = len(mat.columns)
    row_index = {m: i for i, m in enumerate(mat.rows)}
    rows = [list(r) for r in mat.entries]
    for cand in candidates:
        col = [fld.zero] * len(rows)
        for m, c in cand.terms.items():
            col[row_index[m]] = c
        for r, v in zip(rows, col):
            r.append(v)
    pivots = set(pivot_columns(rows, fld))
    return [ncols + i not in pivots for i in range(len(candidates))]


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
    mat = macaulay_matrix(jacobian_generators(f), t + d - 1, degrees=(d - 1,) * 3 + (d,))
    vectors = []
    for vec in kernel_basis(mat.entries, len(mat.columns), fld):
        blocks = ({}, {}, {}, {})
        for (gi, m), c in zip(mat.columns, vec):
            blocks[gi][m] = c
        vectors.append(SyzygyVector(*(Poly(fld, 3, b) for b in blocks)))
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


def _flatten_syzygy(s: SyzygyVector, t: int):
    abc_monos = monomials(t, 3)
    e_monos = monomials(t - 1, 3) if t >= 1 else []
    out = []
    for p, monos in ((s.a, abc_monos), (s.b, abc_monos), (s.c, abc_monos), (s.e, e_monos)):
        out.extend(p.coeff_of(m) for m in monos)
    return out


def in_kernel_span(basis: SyzygyBasis, vec: SyzygyVector, field: Field) -> bool:
    """Whether vec is an exact linear combination of the basis vectors."""
    cols = [_flatten_syzygy(s, basis.degree) for s in basis.vectors]
    target = _flatten_syzygy(vec, basis.degree)
    rows = [[c[i] for c in cols] for i in range(len(target))]
    particular, _ = solve_affine(rows, target, field)
    return particular is not None


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


def resolution_check(inst, t_max: int | None = None) -> ResolutionReport:
    """Compare the computed Hilbert function of S/J(F) with the series the
    family's resolution shape implies, for all t <= t_max.

    Accepts a DivisorInstance or a bare homogeneous polynomial (controls)."""
    f = _as_divisor_poly(inst)
    d = f.degree()
    v = d // 2
    if t_max is None:
        t_max = 3 * v + 3
    gens = jacobian_generators(f)
    computed = [hilbert_function_quotient(gens, t) for t in range(t_max + 1)]
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


def point_support_check(inst, t_bound: int | None = None) -> PointSupportResult:
    """Certify that x^N and y^N lie in J(F) for some N <= t_bound, which pins
    the singular locus to the single point (0:0:1).

    Membership is monotone in N, so one check at the bound decides and a
    binary search then reports the smallest such N.  Accepts a
    DivisorInstance or a bare homogeneous polynomial (controls).
    """
    f = _as_divisor_poly(inst)
    d = f.degree()
    v = d // 2
    if t_bound is None:
        t_bound = 3 * v + 2
    gens = jacobian_generators(f)
    fld = f.field

    def both_in(n: int) -> bool:
        xs = Poly.monomial(fld, (n, 0, 0))
        ys = Poly.monomial(fld, (0, n, 0))
        return all(monomial_membership(gens, [xs, ys], n))

    if not both_in(t_bound):
        return PointSupportResult(False, None, t_bound)
    lo, hi = d - 1, t_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if both_in(mid):
            hi = mid
        else:
            lo = mid + 1
    return PointSupportResult(True, lo, t_bound)


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


def _shift_syzygy(s: SyzygyVector, m) -> SyzygyVector:
    mono = Poly.monomial(s.a.field, m)
    return SyzygyVector(s.a * mono, s.b * mono, s.c * mono, s.e * mono)


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
        span_cols = []
        for tg, g in found:
            for m in monomials(t - tg, 3):
                span_cols.append(_flatten_syzygy(_shift_syzygy(g, m), t))
        kern_cols = [_flatten_syzygy(v, t) for v in basis.vectors]
        cols = span_cols + kern_cols
        if not cols:
            continue
        rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
        pivots = set(pivot_columns(rows, fld))
        # a kernel column that survives as a pivot is independent of the span
        fresh = [basis.vectors[i] for i in range(len(kern_cols))
                 if len(span_cols) + i in pivots]
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
