"""Graded bivariate linear system behind the last Saito column.

The z-free stratum of the degree-v syzygy that becomes the third matrix
column is a triple (h1, h3, h5) of bivariate forms of degree v solving a
2x3 system with polynomial entries built from F1 and F2.  Each unknown
coefficient is the column of one z-free shift of a matrix column, built
sparse by `poly.shifted_columns` with one row block per equation, so the
solve is one exact elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import FamilyParams
from .linalg import solve_affine
from .poly import Poly, column_polys, shifted_columns


class RouteFailure(Exception):
    """A Saito route cannot build its matrix: verify and sweep report it as a
    failed check, export refuses.  Any other exception in a route is a bug."""


class NoSolution(RouteFailure):
    """The graded system has no solution: F2 does not have the degree its
    row grading needs (an even-degree member), or, with validated odd-degree
    parameters, it is inconsistent, which signals an implementation bug."""


@dataclass(frozen=True)
class ColumnSystem:
    """rows[i][j] * (h1, h3, h5)_j summed over j equals rhs[i], all bivariate."""

    params: FamilyParams
    rows: tuple
    rhs: tuple
    mu: object

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


def build_column_system(params: FamilyParams, mu) -> ColumnSystem:
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
        raise NoSolution(f"graded system needs deg F2 = v - alpha = {v - a}, got {f2.degree()}")
    g1, g2 = base_pair(params)
    x = Poly.variable(fld, "x")
    y = Poly.variable(fld, "y")
    rows = (
        (-g2, x * g1, Poly.zero(fld)),
        (y * f2.partial("x"), y_bracket(params), Poly.monomial(fld, (b, v - a - b, 0))),
    )
    rhs = (
        Poly.monomial(fld, (0, v + a, 0), mu),
        Poly.monomial(fld, (2 * v - a, 0, 0), fld.neg(mu)),
    )
    return ColumnSystem(params, rows, rhs, mu)


def _module_columns(sys: ColumnSystem, n: int, extra=()) -> tuple[int, list[dict]]:
    """The sparse columns m * (column j of the 2x3 matrix), for j = 1..3 and
    m of degree n, then the ``extra`` pairs; rows are the two equations'
    monomials of degrees n + alpha and n + v - alpha."""
    a, v = sys.params.alpha, sys.params.v
    pairs = [(n, col) for col in zip(*sys.rows)] + list(extra)
    return shifted_columns(pairs, (n + a, n + v - a), zfree=True)


def solve_column_system(sys: ColumnSystem) -> ColumnSolution:
    """One exact solution plus the kernel of the solution space.

    The canonical representative pins every elimination-free coefficient to
    zero under the fixed monomial order, so repeated runs agree.
    """
    fld, v = sys.params.field, sys.params.v
    nrows, cols = _module_columns(sys, v, [(0, sys.rhs)])
    particular, kernel = solve_affine(nrows, cols[:-1], cols[-1], fld)
    if particular is None:
        raise NoSolution("graded column system is inconsistent")
    (h1, h3, h5), *kern = column_polys([particular, *kernel], (v,) * 3, fld, zfree=True)
    return ColumnSolution(h1, h3, h5, tuple(kern))


def column_syzygy_generator(params: FamilyParams):
    """The closed-form generator of the system's solution-line direction.
    Its last entry is the paper's g3, a reference for the middle Saito
    column's c3, which `saito.middle_column` builds by one division by Fz."""
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
