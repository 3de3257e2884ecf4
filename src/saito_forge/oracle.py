"""Degree-bounded brute-force ground truth for the constructions.

Everything here is exact linear algebra on Macaulay matrices: the degree-t
piece of an ideal is the column space of the multiplication map from shifted
generators into the monomial basis of degree t.  No Groebner bases anywhere;
ranks and kernels answer every question asked in bounded degree (Lazard's
degree-by-degree elimination), and one climb answers them all: an
`IdealLadder` carries one `linalg.Echelon` basis up the degrees, and each
shift that reduces to zero gives a relation, a kernel vector of the map.
Each z-free shift starts from x or y times its parent's reduced vector of
the degree below (F4's "simplify"), and the child of a dependent parent is
dependent, so it is skipped unless its relation is asked for.  A
`JacobianLadder` climbs J(F) once per F; the Saito stage reads the syzygy
kernels off its relations, the resolution and point-support checks its
ranks and memberships, each power x^t, y^t started from the reduced power
below like a shift.  Two exact identities shrink the matrices first:

* covered rows: a z-free single-term generator c*m (the family's
  Fz = x^beta y^(d-beta-1)) shifted by s is c times the unit column at row
  m*s.  Those rows count once each toward the rank and are deleted from
  every other column, since the column space is their span plus the rest
  projected off them, so rank and memberships are unchanged.  A relation's
  entry in c*m's block is -(sum of entry * generator)/(c*m), an exact
  monomial division: each term lands on one covered row.
* Euler: d*F = x*Fx + y*Fy + z*Fz puts every shift of F in the partials'
  span when d is nonzero in the field.  `_eliminated_blocks` decides that
  F's block is eliminated exactly when p | d; otherwise one Euler vector
  (-x*e/d, -y*e/d, -z*e/d, e) per monomial e completes AR(F), the kernel of
  the partials, to the kernel of (Fx, Fy, Fz, F).

The syzygy kernels print their RREF basis byte for byte.  It depends only
on the kernel and the column order, so `linalg.canonical_kernel` recovers
it from the relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Echelon, canonical_kernel
from .poly import Poly, column_polys, dot, grlex_key, monomial_index, monomials, space_dim


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


def _xy_terms(p: Poly) -> list:
    """The terms of p as (x exponent, y exponent, numerator): p's terms
    scaled by ``p.den``, integers over the rationals."""
    return [(i, j, c) for (i, j, _), c in p.num.items()]


class IdealLadder:
    """The degree-t pieces of the ideal (gens), t = 0, 1, 2, ..., on one
    `linalg.Echelon` carried up from each degree to the next.

    Every shift m*g with z | m is z*((m/z)*g), so I_(t+1) = z*I_t plus the
    z-free shifts x^a y^b * g of degree t + 1, exactly, for any generators.
    The row of x^i y^j z^k is keyed by (i, j) alone, as (i+j)(i+j+1)/2 + j,
    so z*v has the same sparse map as v and the basis of I_t is already one
    of z*I_t: each degree reduces only the z-free shifts.  The covered rows
    of the first z-free single-term generator c*x^a y^b are the keys (i, j)
    with i >= a and j >= b, space_dim(t - a - b) of them at degree t.  Over
    the rationals each generator is scaled to integers once, a column
    scaling that holds at every degree.  Zero generators own no columns.

    Most z-free shifts start from the work of the degree below: the parent
    of x^a y^b * g_k is x^(a-1) y^b * g_k, or y^(b-1) * g_k when a = 0.
    Columns join by degree, then generator index, then descending a, so x
    (or y) times a column that joined before the parent joins before the
    child or is a z-multiple already in the span, and the covered rows are
    closed under x and y.  So x (or y) times the parent's reduced vector
    is the child's column modulo the span before it: a dependent parent
    has a dependent child, and the spans, with every answer, are those of
    the raw columns."""

    def __init__(self, gens):
        self.echelon = Echelon(gens[0].field)
        self.degree = -1
        self.tracked = -1       # every degree up to this one was tracked
        self.relations: list = []
        live = [(k, g) for k, g in enumerate(gens) if not g.is_zero()]
        kc = next((k for k, g in live if len(g.num) == 1 and not next(iter(g.num))[2]), None)
        # index -> (degree, integer terms, their scale), in order
        self._gens = {k: (g.degree(), _xy_terms(g), g.den) for k, g in live if k != kc}
        # the cover c*x^i y^j as (index, i, j, c, scale)
        self._cover = None if kc is None else (kc, *_xy_terms(gens[kc])[0], gens[kc].den)
        # index k -> the leads the shifts x^a y^b * g_k joined at, by a (None:
        # dependent), at the degree below; row key -> x, y times it (None:
        # covered), grown per degree
        self._leads: dict = {}
        self._times: tuple = ([], [])

    def _column(self, terms, a: int = 0, b: int = 0) -> dict:
        """The sparse column of x^a y^b times the (i, j, coefficient) ``terms``
        off the covered rows."""
        ci, cj = self._cover[1:3] if self._cover else (None, None)
        col = {}
        for i, j, c in terms:
            i += a
            j += b
            if ci is None or i < ci or j < cj:
                w = i + j
                col[w * (w + 1) // 2 + j] = c
        return col

    def advance(self, track: bool = False) -> None:
        """Go up one degree: the z-free shifts of each generator join the basis.
        With ``track``, and every lower degree tracked, the shift x^a y^b * g_k
        carries the relation {(k, a, b): 1}, and each that reduces to zero
        appends (t, `_relation`) to ``relations``.  A tracked column may meet
        only basis vectors with relations: an untracked degree ends tracking.

        A shift whose parent joined the basis starts from x (or y) times
        the parent's basis vector, off the covered rows, and carries the
        parent's relation with every key shifted likewise.  A shift whose
        parent was dependent is dependent too: it is skipped in an
        untracked degree, and reduced from its own column in a tracked one
        to find its relation.  A generator's first shift has no parent."""
        t = self.degree = self.degree + 1
        if track and self.tracked == t - 1:
            self.tracked = t
        track = self.tracked == t
        echelon, parents, leads, rows = self.echelon, self._leads, {}, space_dim(t)
        echelon.grow(rows)
        xs, ys = self._times
        ci, cj = self._cover[1:3] if self._cover else (t + 2, t + 2)  # (t + 2, t + 2): none
        # x, y times x^(t-j) y^j; rows is the key of x^(t+1)
        xs.extend(None if t - j + 1 >= ci and j >= cj else rows + j for j in range(t + 1))
        ys.extend(None if t - j >= ci and j + 1 >= cj else rows + j + 1 for j in range(t + 1))
        for k, (dg, terms, _) in self._gens.items():
            n = t - dg
            own = leads[k] = [None] * (n + 1)
            for a in range(n, -1, -1):
                b = n - a
                r = parents[k][max(a - 1, 0)] if n else None
                if r is not None:
                    vec, rel = echelon.basis[r]
                    up = xs if a else ys  # x times the parent, or y when a = 0
                    col = {s: x for q, x in vec.items() if (s := up[q]) is not None}
                    rel = {(k2, a2 + 1, b2) if a else (k2, a2, b2 + 1): x
                           for (k2, a2, b2), x in rel.items()} if track else None
                elif n and not track:
                    continue
                else:
                    col, rel = self._column(terms, a, b), {(k, a, b): 1} if track else None
                own[a], rel = echelon.add(col, rel)
                if track and own[a] is None:
                    self.relations.append((t, self._relation(rel)))
        self._leads = leads

    def _relation(self, rel: dict) -> dict:
        """``rel``, among the scaled, projected columns, as c times one among
        the shifts of ``gens``, {(k, a, b): int}, the cover c*x^i y^j's entry
        at x^a y^b minus the sum of entry * generator at x^(a+i) y^(b+j)."""
        kc, ci, cj, c, scale_c = self._cover or (None, 0, 0, 1, 1)
        out, total = {}, {}
        for (k, a, b), x in rel.items():
            if x:
                _, terms, scale = self._gens[k]
                out[k, a, b] = x * scale * c
                for i, j, y in terms if kc is not None else ():
                    total[i + a, j + b] = total.get((i + a, j + b), 0) + x * y
        out.update(((kc, i - ci, j - cj), -x * scale_c) for (i, j), x in total.items()
                   if x and i >= ci and j >= cj)
        return out

    def times(self, vec: dict, axis: int) -> dict:
        """x (axis 0) or y (axis 1) times a column of the degree below, off the covered rows."""
        up = self._times[axis]
        return {s: x for q, x in vec.items() if (s := up[q]) is not None}

    def rank(self) -> int:
        """dim I_t at the current degree t."""
        covered = space_dim(self.degree - sum(self._cover[1:3])) if self._cover else 0
        return covered + len(self.echelon.basis)

    def contains(self, p: Poly) -> bool:
        """Whether the form p of the current degree (or zero) lies in I_t;
        p is reduced against the basis and never joins it."""
        return self.echelon.reduce(self._column(_xy_terms(p)))[0] is None


def jacobian_generators(f: Poly) -> tuple:
    """(Fx, Fy, Fz, F), the generators of J(F)."""
    return (f.partial("x"), f.partial("y"), f.partial("z"), f)


def _eliminated_blocks(gens: tuple) -> tuple:
    """The blocks of ``gens`` = (Fx, Fy, Fz, F) that an elimination of J(F)
    needs: F's block exactly when p | deg F.  Otherwise Euler's
    d*F = x*Fx + y*Fy + z*Fz puts every shift of F in the partials' span."""
    f = gens[3]
    char = f.field.char
    return gens if char and f.degree() % char == 0 else gens[:3]


def gradient_pairing(f: Poly, col) -> Poly:
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


def _syzygy_kernel_raw(gens: tuple, t: int, with_f: bool = True,
                       ladder: JacobianLadder | None = None) -> SyzygyBasis:
    """The degree-t kernel of the Macaulay map of ``gens`` = (Fx, Fy, Fz, F),
    from `jacobian_generators`: the RREF kernel basis that `linalg.eliminate`
    gives for the whole matrix [Fx | Fy | Fz | F], by `linalg.canonical_kernel`
    from the relations ``ladder``, the `JacobianLadder` of F (a fresh one
    by default), finds up to degree T = t + d - 1.  Without ``with_f`` the F
    block is left out, and every vector has e = 0.

    A relation found at degree s is read z^(T - s) times at T.  Each owns
    the column that found it, its other entries lie on columns that joined
    before it, so they are a basis.  A zero partial adds its unit vectors.
    Without F's block that spans AR(F)_t, and the Euler vectors complete it:
    a kernel vector less those of its e-entry has e = 0.  With it (p | d),
    AR(F)_t is the part of the RREF basis with free columns in the
    partials' blocks."""
    f = gens[3]
    fld = f.field
    d = f.degree()
    s = space_dim(t)
    shifts = (t, t, t, t - 1)
    ladder = ladder or JacobianLadder(f)
    top = t + d - 1
    ladder.climb(top, track=True)
    if top > ladder.ideal.tracked:
        raise ValueError(f"degree {ladder.ideal.tracked + 1} was climbed untracked: "
                         f"no kernel at degree {top}")
    basis = [{k * s + monomial_index((a, b, shifts[k] - a - b)): x for (k, a, b), x in rel.items()}
             for deg, rel in ladder.ideal.relations if deg <= top]
    basis += [{k * s + n: 1} for k in range(3) if gens[k].is_zero() for n in range(s)]
    if with_f and len(_eliminated_blocks(gens)) == 3:
        # d times the Euler vector of e, integral in both fields
        basis += [{monomial_index((i + 1, j, k)): -1, s + monomial_index((i, j + 1, k)): -1,
                   2 * s + monomial_index((i, j, k + 1)): -1, 3 * s + n: d}
                  for n, (i, j, k) in enumerate(monomials(t - 1))]
    relations = canonical_kernel(basis, fld)
    if not with_f:
        relations = [rel for rel in relations if max(rel[0]) < 3 * s]
    vectors = [SyzygyVector(*polys) for polys in column_polys(relations, shifts, fld)]
    # stable preference: smallest e-support first, then leading monomial order
    vectors.sort(key=lambda s: (len(s.e.num),
                                [grlex_key(m) for m in sorted(s.e.num, key=grlex_key, reverse=True)]))
    return SyzygyBasis(t, tuple(vectors))


def syzygy_kernel(f: Poly, t: int) -> SyzygyBasis:
    """Basis of {(a, b, c, e) : a F_x + b F_y + c F_z + e F = 0} in degree t
    (deg a = deg b = deg c = t, deg e = t - 1)."""
    return _syzygy_kernel_raw(jacobian_generators(f), t)


def gradient_kernel(f: Poly, t: int, ladder: JacobianLadder | None = None) -> SyzygyBasis:
    """Basis of AR(F) = {(a, b, c) : a F_x + b F_y + c F_z = 0} in degree t,
    as vectors with e = 0: the RREF kernel of the three gradient blocks,
    exactly the leading e = 0 part of `syzygy_kernel`.  Read off ``ladder``,
    the `JacobianLadder` of F, or a fresh one."""
    ladder = ladder or JacobianLadder(f)
    return _syzygy_kernel_raw(ladder.gens, t, with_f=False, ladder=ladder)


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


def resolution_bound(d: int) -> int:
    """3v + 3, the default top degree of the resolution check."""
    return 3 * (d // 2) + 3


def point_support_bound(d: int) -> int:
    """3v + 2, the default bound on N of the point-support check."""
    return 3 * (d // 2) + 2


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


class JacobianLadder:
    """J(F) = (Fx, Fy, Fz, F) climbed degree by degree on one `IdealLadder`.

    Degree t gives hf(t) = dim S_t/J(F)_t and whether x^t, y^t lie in J(F),
    the two point-support candidates, reduced against the basis right after
    degree t's columns join it: x^t starts from x times the reduced x^(t-1),
    equal modulo J_t as x*J_(t-1) lies in J_t (F4's "simplify"), y^t alike.
    A power in J(F) stays in and is no longer tested, nor is one while
    J_t = 0.  Only those answers are kept per degree, reached lazily and in
    order, each once.  F's block is kept only when p | d (`_eliminated_blocks`).
    """

    def __init__(self, f: Poly):
        self.gens = jacobian_generators(f)
        self.ideal = IdealLadder(_eliminated_blocks(self.gens))
        self._steps: list = []
        self._powers = [self.ideal._column([(0, 0, 1)])] * 2  # x^t, y^t reduced; None once in J

    def climb(self, t: int, track: bool = False) -> tuple:
        """(hf(t), powers_in(t)); the degrees climbed to reach t are tracked with ``track``."""
        ladder = self.ideal
        while len(self._steps) <= t:
            ladder.advance(track)
            s, rank = ladder.degree, ladder.rank()
            for axis, vec in enumerate(self._powers):
                if vec is not None:
                    vec = ladder.times(vec, axis) if s else vec
                    self._powers[axis] = ladder.echelon.reduce(vec)[1] if rank else vec
            self._steps.append((space_dim(s) - rank, self._powers == [None, None]))
        return self._steps[t]

    def hf(self, t: int) -> int:
        """Hilbert function of S/J(F) at t."""
        return self.climb(t)[0]

    def powers_in(self, t: int) -> bool:
        """Whether x^t and y^t both lie in J(F)."""
        return self.climb(t)[1]


def resolution_check(f: Poly, t_max: int | None = None,
                     ladder: JacobianLadder | None = None) -> ResolutionReport:
    """Compare the computed Hilbert function of S/J(F) with the series the
    family's resolution shape implies, for all t <= t_max (by default
    `resolution_bound`), reading the ladder of F (a fresh one by default)."""
    d = f.degree()
    if t_max is None:
        t_max = resolution_bound(d)
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


def point_support_check(f: Poly, t_bound: int | None = None,
                        ladder: JacobianLadder | None = None) -> PointSupportResult:
    """Certify that x^N and y^N lie in J(F) for some N <= t_bound (by default
    `point_support_bound`), which pins the singular locus to the single
    point (0:0:1).

    Membership is monotone in N, so the first N from d - 1 up where both lie
    in J(F) is the smallest.  Reads the ladder of F (a fresh one by default).
    """
    d = f.degree()
    if t_bound is None:
        t_bound = point_support_bound(d)
    ladder = ladder or JacobianLadder(f)
    n = next((n for n in range(d - 1, t_bound + 1) if ladder.powers_in(n)), None)
    return PointSupportResult(n is not None, n, t_bound)
