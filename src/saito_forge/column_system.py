"""Graded bivariate linear system behind the last Saito column.

The z-free stratum of the degree-v syzygy that becomes the third matrix
column is a triple (h1, h3, h5) of bivariate forms of degree v solving
eq1: -g2*h1 + x*g1*h3 = y^(v+a) and eq2: y*F2x*h1 + [y]*h3 +
x^b y^(v-a-b)*h5 = -x^(2v-a), with g1, g2 from `base_pair`,
[y] = `y_bracket` and (a, b) = (alpha, beta); the explicit_odd route
scales the solution by the mu it reads off it.  Its solutions are one point
plus the line of g, the cross product of the two rows (Cramer's rule for a
2x3 system): g = (x^(b+1) y^(v-a-b)*g1, x^b y^(v-a-b)*g2,
-(x*y*F2x*g1 + [y]*g2)).  They are found in three steps:

1. Eq1 by a Bezout identity: for a >= 1, one 2a x 2a Sylvester solve gives
   (p, q) of degree a-1 with -g2*p + x*g1*q = y^(2a-1), and
   (p1, p3) = y^(v-a+1)*(p, q); at a = 0, p1 = -y^v/g2 and p3 = 0.
   Every solution of eq1 is (p1 + m*x*g1, p3 + m*g2), m of degree v-a.
2. Eq2 fixes m: x^b y^(v-a-b)*h5 = R + m*g3, with R = -x^(2v-a) -
   y*F2x*p1 - [y]*p3 and g3 the last entry of g.  One solve on the v-a+1
   coefficients of m makes R + m*g3 vanish on the v-a monomials of degree
   2v-a that x^b y^(v-a-b) does not divide; h5 is one exact division.
3. Canonicalise: h - (h[j*]/g[j*])*g, where j*, g's last nonzero unknown in
   `shifted_columns` order, is h5's y^v coefficient (x does not divide g3):
   the solution whose free unknown a left-to-right elimination of the
   whole system pins to zero.  The kernel is g scaled to 1 at j*.

For validated parameters each premise is a theorem, and a failed one
raises `RouteFailure`: the Sylvester matrix is nonsingular, as g2 =
y*g1 - d*F1 gives gcd(g1, g2) = gcd(F1y, F1) = 1 for a square-free F1 that
x does not divide, and x does not divide g2; the residual kernel is exactly
the span of x^b y^(v-a-b), as neither x nor y divides g3 (by its edge
coefficients), so the residual rows have full rank and are consistent; and
the h5 division is exact, by those rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import FamilyParams
from .linalg import solve_affine
from .poly import Poly, column_polys, divides, dot, monomial_index, shifted_columns


class RouteFailure(Exception):
    """A Saito route cannot build its matrix: verify and sweep report it as a
    failed check, export refuses.  ``residual`` is the polynomial that failed
    to vanish or divide, when there is one.  Any other exception in a route
    is a bug."""

    def __init__(self, message: str, residual: Poly | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ColumnSystem:
    """rows[i][j] * (h1, h3, h5)_j summed over j equals rhs[i], all bivariate."""

    params: FamilyParams
    rows: tuple
    rhs: tuple

    @property
    def target_degrees(self) -> tuple[int, int]:
        p = self.params
        return (p.v + p.alpha, 2 * p.v - p.alpha)


@dataclass(frozen=True)
class ColumnSolution:
    h1: Poly
    h3: Poly
    h5: Poly
    kernel: tuple  # basis of solution-line directions, as (k1, k3, k5) triples

    @property
    def dimension(self) -> int:
        return len(self.kernel)


def base_pair(params: FamilyParams):
    """g1 = dF1/dy and g2 = -(x dF1/dx + (d - alpha) F1), both bivariate."""
    f1 = params.f1
    g1 = f1.partial("y")
    g2 = -(Poly.variable(params.field, "x") * f1.partial("x") + (params.d - params.alpha) * f1)
    return g1, g2


def y_bracket(params: FamilyParams) -> Poly:
    """y dF2/dy + (d - v + alpha) F2, bivariate."""
    f2, c = params.f2, params.d - params.v + params.alpha
    return Poly.variable(params.field, "y") * f2.partial("y") + c * f2


def build_column_system(params: FamilyParams) -> ColumnSystem:
    """Assemble the 2x3 coefficient matrix and right-hand side exactly.

    The system's own premise is deg F2 = v - alpha (automatic for odd-degree
    family members, where d - v - alpha - 1 = v - alpha); anything else breaks
    the row grading, so it is rejected up front.
    """
    a, b = params.alpha, params.beta
    v = params.v
    fld = params.field
    f2 = params.f2
    if f2.degree() != v - a:
        raise RouteFailure(f"graded system needs deg F2 = v - alpha = {v - a}, got {f2.degree()}")
    g1, g2 = base_pair(params)
    x = Poly.variable(fld, "x")
    y = Poly.variable(fld, "y")
    rows = (
        (-g2, x * g1, Poly.zero(fld)),
        (y * f2.partial("x"), y_bracket(params), Poly.monomial(fld, (b, v - a - b, 0))),
    )
    rhs = (
        Poly.monomial(fld, (0, v + a, 0)),
        -Poly.monomial(fld, (2 * v - a, 0, 0)),
    )
    return ColumnSystem(params, rows, rhs)


def solve_column_system(sys: ColumnSystem) -> ColumnSolution:
    """The canonical solution and the kernel, by the module docstring's steps."""
    params = sys.params
    fld, a, v, b = params.field, params.alpha, params.v, params.beta
    (ng2, xg1, _), (yf2x, bracket, mono) = sys.rows
    if a == 0:  # g1 = 0 and -g2 = d*F1 is a nonzero constant
        p1, p3 = sys.rhs[0].scale(fld.inv(ng2.coeff_of((0, 0, 0)))), Poly.zero(fld)
    else:
        nrows, cols = shifted_columns([(a - 1, (ng2,)), (a - 1, (xg1,)),
                                       (0, (Poly.monomial(fld, (0, 2 * a - 1, 0)),))],
                                      (2 * a - 1,), zfree=True)
        particular, kernel = solve_affine(nrows, cols[:-1], cols[-1], fld)
        if particular is None or kernel:
            raise RouteFailure("column system: the Sylvester matrix of g2 and x*g1 is singular")
        lift = Poly.monomial(fld, (0, v - a + 1, 0))
        p1, p3 = (lift * p for p in column_polys([particular], (a - 1, a - 1), fld, zfree=True)[0])
    gen = (xg1 * mono, -ng2 * mono, dot((ng2, xg1), (bracket, -yf2x)))
    r, g3, u = sys.rhs[1] - dot((yf2x, bracket), (p1, p3)), gen[2], 2 * v - a
    # the rows of the monomials of degree u that x^b y^(v-a-b) does not divide
    rows = {monomial_index((i, u - i, 0)): k
            for k, i in enumerate(i for i in range(u + 1) if i < b or u - i < v - a - b)}
    cols = [{rows[i]: c for i, c in col.items() if i in rows}
            for col in shifted_columns([(v - a, (g3,)), (0, (-r,))], (u,), zfree=True)[1]]
    particular, kernel = solve_affine(len(rows), cols[:-1], cols[-1], fld)
    edge = g3.coeff_of((0, v, 0))
    if particular is None or len(kernel) != 1 or fld.is_zero(edge):
        raise RouteFailure("column system: x divides g3, or the residual kernel is not "
                           "spanned by x^beta y^(v-alpha-beta)")
    m = column_polys([particular], (v - a,), fld, zfree=True)[0][0]
    exact, h5 = divides(mono, r + m * g3)
    if not exact:
        raise RouteFailure("column system: x^beta y^(v-alpha-beta) does not divide h5's multiple")
    kern, c = tuple(g.scale(fld.inv(edge)) for g in gen), h5.coeff_of((0, v, 0))
    h1, h3, h5 = (h - k.scale(c) for h, k in zip((p1 + m * xg1, p3 - m * ng2, h5), kern))
    return ColumnSolution(h1, h3, h5, (kern,))

