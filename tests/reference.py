"""Reference computations shared by the test modules: the generic list
RREF, dense ranks of whole Macaulay matrices, the mod-p echelon step that
sends every column through its accumulator, the ideal ladder that reduces
every z-free shift from its own column, span tests on syzygy vectors,
the syzygy kernels eliminated one whole Macaulay matrix per degree, the
beta = 0 route's residual solve, the column system solved whole, the
paper's formulas for the odd routes' scalars (a, b, mu, lambda) and for the
generator g of the column system's solution line, which the routes read
off the column system instead, the diagnostics of the closed-form Saito
columns and of the column system's cokernel, the paper's formulas for the
entries the routes divide out with the pure-power split they use,
polynomial arithmetic on plain ``{mono: scalar}`` maps, and the text form
rendered from the field scalars of `Poly.terms`.

A syzygy vector (a, b, c, e) of degree t has deg a = deg b = deg c = t and
deg e = t - 1.  Its shifts by the monomials of degree t' - t are columns of
one linear system over the blocks a, b, c (degree t') and e (degree t' - 1).
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import lcm

from saito_forge.column_system import (ColumnSolution, RouteFailure, base_pair,
                                       build_column_system, solve_column_system, y_bracket)
from saito_forge.family import FamilyParams, legal_pairs, random_instance
from saito_forge.field import Field, QQ
from saito_forge.linalg import Echelon, canonical_kernel, eliminate, pivot_columns, solve_affine
from saito_forge.oracle import (IdealLadder, SyzygyBasis, SyzygyVector, _eliminated_blocks,
                                gradient_pairing, jacobian_generators, macaulay_matrix)
from saito_forge.poly import (VAR_NAMES, Poly, PolyError, UnknownVariable, _from_ints,
                              column_polys, dot, grlex_key, monomial_index, monomials,
                              shifted_columns, space_dim)
from saito_forge.saito import edge_constants, last_column, middle_column


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


class AccumulatorEchelon(Echelon):
    """`linalg.Echelon` with its mod-p step as it was before an already
    reduced column could join directly: every column, however reduced,
    goes through the heap and the dense accumulator."""

    def _fp_reduce(self, v: dict, rel):
        basis, acc, p = self.basis, self._acc, self._p
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
            if hit is None:
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


class RawLadder(IdealLadder):
    """`oracle.IdealLadder` as it was before each z-free shift started from
    its parent's reduced vector: every shift x^a y^b * g_k is reduced from
    its own column, in the same join order.  ``joins[t]`` lists, in that
    order, each shift (k, a, b) of degree t with the leading row its column
    joined at, None if it was dependent."""

    def __init__(self, gens):
        super().__init__(gens)
        self.joins: list = []

    def advance(self, track: bool = False) -> None:
        t = self.degree = self.degree + 1
        if track and self.tracked == t - 1:
            self.tracked = t
        track = self.tracked == t
        echelon = self.echelon
        echelon.grow(space_dim(t))
        joins = []
        for k, (dg, terms, _) in self._gens.items():
            n = t - dg
            for a in range(n, -1, -1):
                lead, rel = echelon.add(self._column(terms, a, n - a),
                                        {(k, a, n - a): 1} if track else None)
                joins.append(((k, a, n - a), lead))
                if track and lead is None:
                    self.relations.append((t, self._relation(rel)))
        self.joins.append(joins)


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
    relations = [({kept[i]: x for i, x in rel.items()}, den) for rel, den in relations]
    if k is not None:
        scale = fld.neg(fld.inv(next(iter(gens[k].terms.values()))))
        for (rel, den), polys in zip(relations, column_polys(relations, shifts, fld)):
            # the covered entries of den times the relation, integral up to
            # the denominators of the generators' terms
            rel.update((unit[monomial_index(m)], fld.mul(fld.mul(c, scale), den))
                       for m, c in dot(polys, gens).terms.items())
    return len(cover) + len(pivots), [integral(rel, fld) for rel, _ in relations]


def integral(vec: dict, fld) -> dict:
    """A sparse vector of field scalars up to a factor, as `linalg` takes it:
    over the rationals scaled to integers."""
    if fld.char:
        return vec
    den = lcm(*[Fraction(x).denominator for x in vec.values()])
    return {j: int(x * den) for j, x in vec.items()}


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


# ----- the column system solved whole ---------------------------------------


def _module_columns(sys, n: int, extra=()) -> tuple[int, list[dict]]:
    """The sparse columns m * (column j of the 2x3 matrix), for j = 1..3 and
    m of degree n, then the ``extra`` pairs; rows are the two equations'
    monomials of degrees n + alpha and n + v - alpha."""
    a, v = sys.params.alpha, sys.params.v
    pairs = [(n, col) for col in zip(*sys.rows)] + list(extra)
    return shifted_columns(pairs, (n + a, n + v - a), zfree=True)


def whole_system_solve(sys) -> ColumnSolution:
    """`column_system.solve_column_system` as it was before its Bezout
    steps: one `solve_affine` on all 3(v+1) unknown coefficients, whose
    canonical particular solution pins every free unknown to zero."""
    fld, v = sys.params.field, sys.params.v
    nrows, cols = _module_columns(sys, v, [(0, sys.rhs)])
    particular, kernel = solve_affine(nrows, cols[:-1], cols[-1], fld)
    if particular is None:
        raise RouteFailure("graded column system is inconsistent")
    (h1, h3, h5), *kern = column_polys([particular, *kernel], (v,) * 3, fld, zfree=True)
    return ColumnSolution(h1, h3, h5, tuple(kern))


def _odd_instances(degrees, fields, seeds):
    """(key, params) over every legal pair of each odd d in ``degrees``, each
    field and seed, key = (d, alpha, beta, field, seed)."""
    for d in degrees:
        for a, b in legal_pairs(d):
            for fld in fields:
                for seed in seeds:
                    yield (d, a, b, str(fld), seed), random_instance(d, a, b, seed=seed, field=fld)


def column_solve_mismatches(degrees, fields, seeds=(1, 2)) -> list:
    """The instances (d, alpha, beta, field, seed), over every legal pair of
    each odd d in ``degrees``, on which `solve_column_system` and
    `whole_system_solve` differ in h1, h3, h5 or the kernel."""
    out = []
    for key, params in _odd_instances(degrees, fields, seeds):
        sys = build_column_system(params)
        if solve_column_system(sys) != whole_system_solve(sys):
            out.append(key)
    return out


def paper_constant_mismatches(degrees, fields, seeds=(1, 2)) -> list:
    """The instances (d, alpha, beta, field, seed), over every legal pair of
    each odd d in ``degrees``, on which `saito.edge_constants` differs from
    the paper's scalars (`compute_constants` at beta >= 1, mu = 1 and
    `beta0_lambda` at beta = 0), or the solution's kernel from the paper's
    g = `column_syzygy_generator` scaled to 1 at h5's y^v coefficient."""
    out = []
    for key, params in _odd_instances(degrees, fields, seeds):
        fld, v = params.field, params.v
        sys = build_column_system(params)
        sol = solve_column_system(sys)
        if params.beta == 0:
            paper = {"a": None, "b": None, "mu": fld.one, "lambda": beta0_lambda(params, sol.h3)}
        else:
            paper = {**compute_constants(params), "lambda": None}
        gen = column_syzygy_generator(params)
        kern = tuple(g.scale(fld.inv(gen[2].coeff_of((0, v, 0)))) for g in gen)
        if edge_constants(sys, sol) != paper or sol.kernel != (kern,):
            out.append(key)
    return out


# ----- the paper's scalars and solution line of the odd routes -----------------


def compute_constants(params) -> dict:
    """The scalars (a, b, mu) of the odd-degree, beta >= 1 route.

    b is a free scale and is normalized to 1.  mu and a are forced by matching
    the pure x- and y-power edge coefficients between the graded system and
    the coupling identity; all denominators are nonzero for validated
    parameters under the characteristic policy.
    """
    d, al, be = params.d, params.alpha, params.beta
    v = params.v
    if d % 2 == 0 or be < 1:
        raise RouteFailure("closed-form constants need odd d and beta >= 1")
    fld = params.field
    f1, f2 = params.f1, params.f2
    bracket_y = y_bracket(params)
    bracket_x = -base_pair(params)[1]
    f1_yedge = f1.coeff_of((0, al, 0))
    f2_xedge = f2.coeff_of((v - al, 0, 0))
    by_edge = bracket_y.coeff_of((0, v - al, 0))
    bx_edge = bracket_x.coeff_of((al, 0, 0))
    for name, val in (("[F1|y^a]", f1_yedge), ("[F2|x^(v-a)]", f2_xedge),
                      ("y-bracket edge", by_edge), ("x-bracket edge", bx_edge)):
        if fld.is_zero(val):
            raise RouteFailure(f"vanishing edge coefficient {name}")
    b = fld.one
    # mu carries a second [F1|y^a] factor so both pure-power matches close
    mu = fld.div(
        fld.mul(fld.mul(b, fld.from_int((d - al) ** 2)), fld.mul(fld.mul(f1_yedge, by_edge), f1_yedge)),
        fld.from_int(be),
    )
    a = fld.div(
        fld.neg(fld.mul(mu, fld.from_int(d - be - 1))),
        fld.mul(fld.from_int((d - v + al) ** 2), fld.mul(fld.mul(f2_xedge, f2_xedge), bx_edge)),
    )
    if fld.is_zero(mu):
        raise RouteFailure("mu vanished")
    return {"a": a, "b": b, "mu": mu}


def beta0_lambda(params, h3: Poly):
    """The scalar of the beta = 0 route's e = -lambda*x: eq2 at h6 = 0 is then
    x*((d-1)*h3 + lambda*g3), g3 the last entry of `column_syzygy_generator`,
    and y divides it for lambda = -(d-1)*[h3|x^v] / [g3|x^v] alone, where
    [g3|x^v] = d*(d-v+a)*[F1|x^a]*[F2|x^(v-a)] is nonzero for validated params."""
    d, al, v = params.d, params.alpha, params.v
    if params.beta != 0:
        raise RouteFailure("the explicit_beta0 route needs beta = 0")
    fld = params.field
    g3_edge = fld.mul(fld.from_int(d * (d - v + al)),
                      fld.mul(params.f1.coeff_of((al, 0, 0)), params.f2.coeff_of((v - al, 0, 0))))
    if fld.is_zero(g3_edge):
        raise RouteFailure("vanishing edge coefficient [g3|x^v]")
    return fld.div(fld.neg(fld.mul(fld.from_int(d - 1), h3.coeff_of((v, 0, 0)))), g3_edge)


def column_syzygy_generator(params: FamilyParams):
    """The closed-form generator g of the system's solution line, the
    direction `solve_column_system` canonicalises along.  Its last entry is
    the paper's g3, which the solve's residual step shifts."""
    a, b = params.alpha, params.beta
    v = params.v
    fld = params.field
    g1, g2 = base_pair(params)
    x = Poly.variable(fld, "x")
    y = Poly.variable(fld, "y")
    return (
        Poly.monomial(fld, (b + 1, v - a - b, 0)) * g1,
        Poly.monomial(fld, (b, v - a - b, 0)) * g2,
        -(x * y * params.f2.partial("x") * g1 + y_bracket(params) * g2),
    )


# ----- diagnostics of the closed-form routes ---------------------------------


def middle_column_residual(inst, ing: dict) -> Poly:
    """Gradient pairing of the middle column; identically zero on the family."""
    grad = jacobian_generators(inst.f)[:3]
    return gradient_pairing(inst.f, middle_column(inst.params, ing, grad))


def last_column_residual(inst, ing: dict) -> Poly:
    return gradient_pairing(inst.f, last_column(inst.params, ing))


def _z_stratum(p: Poly, k: int) -> Poly:
    """The z^k slice of p, with the z power stripped."""
    return Poly(p.field, {(m[0], m[1], 0): c for m, c in p.terms.items() if m[2] == k})


def last_column_strata(inst, ing: dict) -> dict:
    """z^2, z^1, z^0 slices of the last-column gradient pairing; the route is
    sound exactly when each slice vanishes on its own."""
    res = last_column_residual(inst, ing)
    top = max((m[2] for m in res.terms), default=2)
    return {k: _z_stratum(res, k) for k in range(max(top, 2) + 1)}


def beta0_residual_solve(inst) -> tuple:
    """The beta = 0 route's last column as it was built before lambda became
    a ratio of two coefficients: (h1, h3, h5 + z*u) + lambda*lam_col, with
    lam_col = (-x y^(v-a-1) z g1, -y^(v-a-1) z g2, (d-1) y^(v-a-2) z^2 g2), the
    column system's h1, h3, h5 at mu = 1, and the tail u (z-free, degree
    v - 1) and the scalar lambda from one solve that makes the column's
    gradient pairing vanish.  Returns (lambda, column, unique), unique
    telling whether the solve pins lambda; (None, None, False) when no
    choice closes the column."""
    params = inst.params
    d, al, v, fld = params.d, params.alpha, params.v, params.field
    g1, g2 = base_pair(params)
    sol = solve_column_system(build_column_system(params))
    grad = jacobian_generators(inst.f)[:3]
    lam_col = (-(Poly.monomial(fld, (1, v - al - 1, 1)) * g1),
               -(Poly.monomial(fld, (0, v - al - 1, 1)) * g2),
               (d - 1) * (Poly.monomial(fld, (0, v - al - 2, 2)) * g2))
    z = Poly.variable(fld, "z")
    nrows, cols = shifted_columns([(v - 1, (z * grad[2],)), (0, (dot(lam_col, grad),)),
                                   (0, (-dot((sol.h1, sol.h3, sol.h5), grad),))],
                                  (v + d - 1,), zfree=True)
    particular, kernel = solve_affine(nrows, cols[:-1], cols[-1], fld)
    if particular is None:
        return None, None, False
    (u, lam), *kernel = column_polys([particular, *kernel], (v - 1, 0), fld, zfree=True)
    lam = lam.coeff_of((0, 0, 0))
    column = tuple(h + c.scale(lam) for h, c in zip((sol.h1, sol.h3, sol.h5 + z * u), lam_col))
    return lam, column, all(k[1].is_zero() for k in kernel)


def paper_middle_ingredients(params) -> dict:
    """g1, g2, g3 and the z-multiplier w of the paper's middle column: g3 is
    the last entry of `column_syzygy_generator` and w = beta*y*g1 + (d-beta-1)*g2."""
    d, b = params.d, params.beta
    g1, g2 = base_pair(params)
    w = b * (Poly.variable(params.field, "y") * g1) + (d - b - 1) * g2
    return {"g1": g1, "g2": g2, "g3": column_syzygy_generator(params)[2], "w": w}


def paper_middle_c3(params, ing: dict) -> Poly:
    """The paper's c3 = g3 - x^beta y^(gamma+1) z*w of the middle column."""
    return ing["g3"] - Poly.monomial(params.field, (params.beta, params.gamma + 1, 1)) * ing["w"]


def split_pure_power(p: Poly, axis: str):
    """Decompose a bivariate homogeneous p of degree m as p = x*q + c*y^m
    (axis 'x') or p = y*q + c*x^m (axis 'y'); returns (q, c).  Every other
    term of p holds the axis variable, so q is p's rest with its exponent
    of that variable lowered by one."""
    if axis not in ("x", "y"):
        raise UnknownVariable(f"split axis must be 'x' or 'y', got {axis!r}")
    f = p.field
    if p.is_zero():
        return Poly.zero(f), f.zero
    if not (p.is_homogeneous() and p.is_bivariate()):
        raise PolyError("split_pure_power needs a homogeneous bivariate polynomial")
    m = p.degree()
    pure = (0, m, 0) if axis == "x" else (m, 0, 0)
    dx, dy = (1, 0) if axis == "x" else (0, 1)
    q = {(ex - dx, ey - dy, 0): c for (ex, ey, _), c in p.num.items() if (ex, ey, 0) != pure}
    return _from_ints(f, q, p.den), p.coeff_of(pure)


def paper_h6(params, ing: dict, a, b) -> Poly:
    """The paper's h6 of the beta >= 1 last column, from ing's h1, h2, h3 and
    the scalars of e = a*x + b*y, by splitting the pure powers off h1, h3 and
    the bracket products F2*[x] and F1*[y]."""
    d, al, be, v = params.d, params.alpha, params.beta, params.v
    fld, f1, f2 = params.field, params.f1, params.f2
    bracket_y, bracket_x = y_bracket(params), -base_pair(params)[1]
    v1, _ = split_pure_power(ing["h1"], "x")
    u1, _ = split_pure_power(ing["h3"], "y")
    w1, _ = split_pure_power((f2 * bracket_x).scale(fld.mul(a, fld.from_int(d - v + al))), "y")
    w2, _ = split_pure_power((f1 * bracket_y).scale(fld.mul(b, fld.from_int(d - al))), "x")
    return (-(be * v1) - (d - be - 1) * u1 - f2.partial("x") * ing["h2"]
            + (f2.partial("y") * bracket_x).scale(a) + (f1.partial("x") * bracket_y).scale(b)
            + w1 + w2)


def column_cokernel_hilbert(params, i: int) -> int:
    """Dimension of the degree-i piece of the cokernel of the column system's
    generator module, by exact rank of the evaluation matrix."""
    if i < 0:
        return 0
    a, v, fld = params.alpha, params.v, params.field
    sys = build_column_system(params)
    ambient = max(0, i - (v - a) + 1) + max(0, i - a + 1)
    if i < v:
        return ambient
    nrows, cols = _module_columns(sys, i - v)
    return ambient - len(eliminate(nrows, cols, fld)[0])


def cokernel_series_coefficient(params, i: int) -> int:
    """Coefficient of z^i in (z^a + z^(v-a) - 3 z^v + z^(2v)) / (1-z)^2."""
    v, a = params.v, params.alpha

    def g(n: int) -> int:
        return n + 1 if n >= 0 else 0

    return g(i - a) + g(i - (v - a)) - 3 * g(i - v) + g(i - 2 * v)


# ----- polynomials as plain {mono: scalar} maps --------------------------------


def ref_terms(terms: dict, fld) -> dict:
    """The map without its zero scalars."""
    return {m: c for m, c in terms.items() if not fld.is_zero(c)}


def ref_add(a: dict, b: dict, fld, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = fld.add(out.get(m, fld.zero), c if sign == 1 else fld.neg(c))
    return ref_terms(out, fld)


def ref_mul(a: dict, b: dict, fld) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = fld.add(out.get(m, fld.zero), fld.mul(c1, c2))
    return ref_terms(out, fld)


def ref_scale(a: dict, c, fld) -> dict:
    return ref_terms({m: fld.mul(v, c) for m, v in a.items()}, fld)


def ref_partial(a: dict, i: int, fld) -> dict:
    out = {}
    for m, c in a.items():
        if m[i]:
            mm = list(m)
            mm[i] -= 1
            out[tuple(mm)] = fld.mul(c, fld.from_int(m[i]))
    return ref_terms(out, fld)


def ref_det3(m, fld) -> dict:
    """The cofactor expansion of a 3x3 matrix of term maps along its first row."""
    (a, b, c), (d, e, f), (g, h, i) = m

    def minor(p, q, r, s):
        return ref_add(ref_mul(p, q, fld), ref_mul(r, s, fld), fld, -1)

    out = ref_mul(a, minor(e, i, f, h), fld)
    out = ref_add(out, ref_mul(b, minor(d, i, f, g), fld), fld, -1)
    return ref_add(out, ref_mul(c, minor(d, h, e, g), fld), fld)


def ref_divides(d: dict, p: dict, fld):
    """(True, q) with p = d*q, else (False, None): leading-term division
    under the graded-lex order."""
    lm = max(d, key=grlex_key)
    inv = fld.inv(d[lm])
    rem, quot = dict(p), {}
    while rem:
        m = max(rem, key=grlex_key)
        q = (m[0] - lm[0], m[1] - lm[1], m[2] - lm[2])
        if min(q) < 0:
            return False, None
        quot[q] = fld.mul(rem[m], inv)
        rem = ref_add(rem, ref_mul({q: quot[q]}, d, fld), fld, -1)
    return True, quot


def fraction_render(p: Poly) -> str:
    """The canonical text form built from the field scalars of ``p.terms``
    (one ``Fraction`` per term over the rationals), term by term."""
    if not p.num:
        return "0"
    f = p.field
    parts = []
    for i, m in enumerate(sorted(p.terms, key=grlex_key, reverse=True)):
        c = p.terms[m]
        negative = f.char == 0 and c < 0
        mag = f.neg(c) if negative else c
        factors = []
        for v, e in zip(VAR_NAMES, m):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            body = f.render(mag)
        elif mag == f.one:
            body = "*".join(factors)
        else:
            body = "*".join([f.render(mag)] + factors)
        if i == 0:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts)
