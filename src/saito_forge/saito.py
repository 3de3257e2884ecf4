"""Saito matrices for the divisor family: closed-form routes and verifier.

For odd degree the matrix is assembled from explicit formulas by one
builder for both variants: the column system's solve is its only linear
solve, and the scalars of the linear form e = a*x + b*y (beta >= 1) or
-lambda*x (beta = 0), with the scale mu of the solution, are read off the
two pure-power edges of the coupling identity that h6 closes.  The entries
that exist only to close one identity are each one exact division by a
monomial: the middle column's c3 by Fz (eq3) and the last column's h6 by
x*y (eq2); an inexact division is a route failure.
Even degree (and cross-checks) go through the syzygy-kernel oracle.  Every
route verifies Saito's criterion before returning: the gradient annihilates
each column modulo F and det equals F up to a nonzero scalar.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product

from .column_system import RouteFailure, base_pair, build_column_system, solve_column_system, y_bracket
from .family import DivisorInstance
from .oracle import JacobianLadder, SyzygyBasis, gradient_kernel, gradient_pairing, jacobian_generators
# det3 is re-exported: callers take the determinant from this module
from .poly import Poly, det3, det_unit, divides, dot, render

ROUTE_EXPLICIT_ODD = "explicit_odd"
ROUTE_EXPLICIT_BETA0 = "explicit_beta0"
ROUTE_ORACLE = "oracle"


@dataclass
class VerifyReport:
    passed: bool
    unit: object | None          # c with det(B) = c*F, None on failure
    det: Poly
    quotients: list              # per column: Poly q with (grad F) . col = q*F, or None
    failures: list

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "unit_c": None if self.unit is None else str(self.unit),
            "det": render(self.det),
            "column_quotients": [None if q is None else render(q) for q in self.quotients],
            "failures": self.failures,
        }


@dataclass
class SaitoMatrix:
    matrix: list                 # 3x3 row-major Poly entries
    route: str
    unit: object                 # det(B) = unit * F
    ingredients: dict            # named build polynomials and scalars
    constants: dict              # a, b, mu, lambda (None where not applicable)
    residuals: dict              # eq2/eq3/eq4 residual polynomials (None off-route)
    verify: VerifyReport

    def column(self, j: int):
        return (self.matrix[0][j], self.matrix[1][j], self.matrix[2][j])

    def column_degrees(self) -> list[int]:
        return [max(e.degree() for e in self.column(j)) for j in range(3)]

    def to_json(self) -> dict:
        res = {k: (None if v is None else render(v)) for k, v in self.residuals.items()}
        res["det"] = render(self.verify.det - (Poly.constant(self.matrix[0][0].field, self.unit)
                                               * self.ingredients["f"]))
        return {
            "route": self.route,
            "pass": self.verify.passed,
            "unit_c": str(self.unit),
            "column_degrees": self.column_degrees(),
            "residuals": {k: res[k] for k in ("eq2", "eq3", "eq4", "det")},
            "constants": {k: (None if self.constants.get(k) is None else str(self.constants[k]))
                          for k in ("a", "b", "mu", "lambda")},
            "matrix": [[render(e) for e in row] for row in self.matrix],
        }


def verify_saito(f: Poly, matrix) -> VerifyReport:
    """Saito's criterion for a candidate 3x3 matrix: (grad F) . col = q_k * F
    exactly for every column and det = c * F with c a nonzero scalar."""
    return _verify(f, matrix, *det_unit(f, matrix))


def _verify(f: Poly, matrix, det: Poly, unit) -> VerifyReport:
    """`verify_saito` given ``(det, unit)`` = ``det_unit(F, matrix)``."""
    quotients, failures = [], []
    grad = jacobian_generators(f)[:3]  # once per call, paired with each column by one `dot`
    for j in range(3):
        pairing = dot([row[j] for row in matrix], grad)
        quotients.append(pairing if pairing.is_zero() else divides(f, pairing)[1])
        if quotients[-1] is None:
            failures.append(f"column {j + 1}: gradient pairing is not a multiple of F")
    if unit is None:
        failures.append("det is not a nonzero scalar multiple of F")
    return VerifyReport(not failures, unit, det, quotients, failures)


# ----- closed-form ingredients ----------------------------------------------


def _divide(divisor: Poly, p: Poly, what: str) -> Poly:
    """p / divisor, an exact division by a monomial that closes an identity;
    an inexact one raises with p as its residual."""
    exact, q = divides(divisor, p)
    if not exact:
        raise RouteFailure(what, p)
    return q


def middle_column(params, ing, grad) -> tuple:
    """The degree-(d-v-1) syzygy column (exponent-safe for beta = 0) from
    ing's g1, g2 and ``grad`` = F's (Fx, Fy, Fz): c1 = x^(beta+1) y^(gamma+2) g1,
    c2 = x^beta y^(gamma+2) g2 and c3 = -(c1*Fx + c2*Fy)/Fz, one division by
    the monomial Fz = x^beta y^(d-beta-1) that makes the column a syzygy (eq3).
    An inexact division raises with -(c1*Fx + c2*Fy) as its residual."""
    b, gm = params.beta, params.gamma
    fld = params.field
    c1 = Poly.monomial(fld, (b + 1, gm + 2, 0)) * ing["g1"]
    c2 = Poly.monomial(fld, (b, gm + 2, 0)) * ing["g2"]
    rest = dot((c1, c2), grad[:2])
    return (c1, c2, _divide(grad[2], -rest, "middle column (eq3): Fz does not divide c1*Fx + c2*Fy"))


def edge_constants(sys, sol) -> dict:
    """The scalars of e = a*x + b*y, read off the column system ``sys`` and
    its solution ``sol`` at mu = 1.  x*y divides eq2 at h6 = 0 exactly when
    its two pure-power edges vanish:
    beta*[h1|y^v] + [[y]|y^(v-alpha)]*[g2|y^alpha]*b = 0 modulo x and
    (d-beta-1)*[h3|x^v] + [[y]|x^(v-alpha)]*[g2|x^alpha]*a = 0 modulo y,
    with -g2 and [y] the rows' first and second entries.  At beta = 0,
    b = 0, mu = 1 and lambda = -a; at beta >= 1, mu = 1/b scales the
    solution and a to b = 1, as the canonical solution is linear in the
    right-hand side.  Every edge here is nonzero for validated parameters."""
    p = sys.params
    fld, d, al, be, v = p.field, p.d, p.alpha, p.beta, p.v
    (ng2, _, _), (_, bracket, _) = sys.rows
    kx = fld.mul(bracket.coeff_of((v - al, 0, 0)), ng2.coeff_of((al, 0, 0)))
    ky = fld.mul(bracket.coeff_of((0, v - al, 0)), ng2.coeff_of((0, al, 0)))
    b_ky = fld.mul(fld.from_int(be), sol.h1.coeff_of((0, v, 0)))  # b * ky at mu = 1
    if fld.is_zero(kx) or fld.is_zero(ky) or (be >= 1 and fld.is_zero(b_ky)):
        raise RouteFailure("vanishing edge coefficient: a, b or mu cannot be read")
    a = fld.div(fld.mul(fld.from_int(d - be - 1), sol.h3.coeff_of((v, 0, 0))), kx)
    if be == 0:
        return {"a": None, "b": None, "mu": fld.one, "lambda": fld.neg(a)}
    mu = fld.div(ky, b_ky)
    return {"a": fld.mul(mu, a), "b": fld.one, "mu": mu, "lambda": None}


def coupling_residual(params, ing: dict) -> Poly:
    """The bivariate identity tying h6 to the graded triple:
    b*y*h1 + x*y*F2x*h2 + (d-b-1)*x*h3 + (y*F2y + (d-v+a)*F2)*h4 + x*y*h6."""
    d, be = params.d, params.beta
    fld = params.field
    x = Poly.variable(fld, "x")
    y = Poly.variable(fld, "y")
    return (be * (y * ing["h1"]) + x * y * params.f2.partial("x") * ing["h2"]
            + (d - be - 1) * (x * ing["h3"]) + y_bracket(params) * ing["h4"]
            + x * y * ing["h6"])


def last_column(params, ing) -> tuple:
    """Third column of both odd-degree routes.  Its x^(beta-1) terms are each
    one exact division by x: at beta = 0 they carry h4 = -lambda*x*g2."""
    be, gm = params.beta, params.gamma
    d = params.d
    fld = params.field
    x = Poly.variable(fld, "x")
    h2, h4 = ing["h2"], ing["h4"]
    tail = be * (Poly.variable(fld, "y") * h2) + (d - be - 1) * h4
    c1 = ing["h1"] + Poly.monomial(fld, (be, gm + 1, 1)) * h2
    c2 = ing["h3"] + _divide(x, Poly.monomial(fld, (be, gm + 1, 1)) * h4,
                             "last column: x does not divide its h4 term")
    c3 = (ing["h5"] + Poly.variable(fld, "z") * ing["h6"]
          - _divide(x, Poly.monomial(fld, (be, gm, 2)) * tail,
                    "last column: x does not divide its tail term"))
    return (c1, c2, c3)


# ----- build routes ----------------------------------------------------------


def _build_explicit(inst: DivisorInstance) -> SaitoMatrix:
    """Both odd-degree routes: h1, h3, h5 from the column system scaled by
    mu, h2 = g1*e, h4 = g2*e and h6 = -(eq2 with h6 = 0)/(x*y), with
    e = a*x + b*y (explicit_odd, beta >= 1) or e = -lambda*x
    (explicit_beta0, beta = 0) from `edge_constants`.  Both closed-form
    columns must pair with the gradient to zero, read off the `verify_saito`
    report."""
    params = inst.params
    fld = params.field
    x, y = Poly.variable(fld, "x"), Poly.variable(fld, "y")
    beta0 = params.beta == 0
    sys = build_column_system(params)
    sol = solve_column_system(sys)
    consts = edge_constants(sys, sol)
    h1, h3, h5 = (h.scale(consts["mu"]) for h in (sol.h1, sol.h3, sol.h5))
    e = x.scale(fld.neg(consts["lambda"])) if beta0 else x.scale(consts["a"]) + y.scale(consts["b"])
    g1, g2 = base_pair(params)
    ing = {"g1": g1, "g2": g2, "h1": h1, "h2": g1 * e, "h3": h3, "h4": g2 * e,
           "h5": h5, "e": e, "f": inst.f}
    xy = x * y
    rest = coupling_residual(params, {**ing, "h6": Poly.zero(fld)})
    ing["h6"] = _divide(xy, -rest, "coupling identity (eq2): x*y does not divide it at h6 = 0")
    col2 = middle_column(params, ing, jacobian_generators(inst.f)[:3])
    col3 = last_column(params, ing)
    matrix = _assemble(fld, col2, col3)
    report = verify_saito(inst.f, matrix)
    eq3, eq4 = report.quotients[1:]
    for name, q, col in (("middle column (eq3)", eq3, col2), ("last column (eq4)", eq4, col3)):
        if q is None or not q.is_zero():
            raise RouteFailure(f"{name} is not a syzygy", gradient_pairing(inst.f, col))
    eq2 = None if beta0 else rest + xy * ing["h6"]
    route = ROUTE_EXPLICIT_BETA0 if beta0 else ROUTE_EXPLICIT_ODD
    return _finish(inst, matrix, route, ing, consts, {"eq2": eq2, "eq3": eq3, "eq4": eq4}, report)


def _saito_pair(f: Poly, kernel2: SyzygyBasis, t3: int, ladder: JacobianLadder):
    """Euler's column next to two AR(F) columns of degrees (t2, t3) with
    det = c*F, c a nonzero scalar: the first vector of ``kernel2``, the
    `gradient_kernel` of degree t2, paired with each later one of degree
    t3 read off ``ladder``, in order.  Returns
    (matrix, report, s2, s3) for the first such pair, the report from the
    `_verify` every route passes, or None.

    For a reduced F over a field where d is a unit, it succeeds exactly
    when F is free of exponents (t2, t3), t2 <= t3:
    - a pair from the whole kernel of (Fx, Fy, Fz, F) with det = c*F keeps
      that determinant when Euler multiples are removed from it, so a
      search over that kernel finds nothing more;
    - by Saito's criterion (Saito 1980, J. Fac. Sci. Univ. Tokyo 27), Euler
      and such a pair are a basis of Der(-log F): F is free;
    - conversely, AR(F) of a free F is free on two vectors of degrees
      (t2, t3), so the first vector of any basis of AR(F)_t2 pairs with
      some vector of any basis of AR(F)_t3.
    """
    basis2 = kernel2.vectors
    basis3 = basis2[1:] if t3 == kernel2.degree else gradient_kernel(f, t3, ladder).vectors
    for s2, s3 in product(basis2[:1], basis3):
        matrix = _assemble(f.field, (s2.a, s2.b, s2.c), (s3.a, s3.b, s3.c))
        if (det := det_unit(f, matrix))[1] is not None:
            return matrix, _verify(f, matrix, *det), s2, s3
    return None


def _build_oracle(inst: DivisorInstance, ladder: JacobianLadder | None) -> SaitoMatrix:
    """The `_saito_pair` of degrees (t2, t3) = (v - 1, v) for even d, (v, v)
    for odd d.  It applies as F = A + B*z is irreducible for every family
    member (B = x^beta y^(d-beta-1), and neither x nor y divides
    A = F(x, y, 0)), and p > 3d makes d a unit."""
    v = inst.params.v
    t2, t3 = (v, v) if inst.params.d % 2 == 1 else (v - 1, v)
    ladder = ladder or JacobianLadder(inst.f)
    pair = _saito_pair(inst.f, gradient_kernel(inst.f, t2, ladder), t3, ladder)
    if pair is None:
        raise RouteFailure(
            f"no kernel pair at degrees ({t2}, {t3}) assembles a unit determinant")
    matrix, report, s2, s3 = pair
    return _finish(inst, matrix, ROUTE_ORACLE, {"f": inst.f, "syz2": s2, "syz3": s3},
                   {"a": None, "b": None, "mu": None, "lambda": None},
                   {"eq2": None, "eq3": None, "eq4": None}, report)


def _assemble(fld, col2, col3):
    return [
        [Poly.variable(fld, "x"), col2[0], col3[0]],
        [Poly.variable(fld, "y"), col2[1], col3[1]],
        [Poly.variable(fld, "z"), col2[2], col3[2]],
    ]


def _finish(inst, matrix, route, ing, constants, residuals, report=None) -> SaitoMatrix:
    """Verify and wrap a built matrix, reusing its `_verify` ``report`` if given."""
    report = report or verify_saito(inst.f, matrix)
    if not report.passed:
        raise RouteFailure("; ".join(report.failures), report.det)
    return SaitoMatrix(matrix, route, report.unit, ing, constants, residuals, report)


def build_saito_matrix(inst: DivisorInstance, route: str = "auto", ladder=None) -> SaitoMatrix:
    """Construct and verify a Saito matrix for a validated family member.

    The route follows from d and beta: odd d uses the explicit formulas,
    with the scalars (a, b, mu) for beta >= 1 (explicit_odd) and lambda for
    beta = 0 (explicit_beta0); even d the syzygy-kernel oracle.
    route="oracle" forces the kernel route for cross-checks on any parity.
    The oracle reads its kernels off ``ladder``, the `JacobianLadder` of
    inst, if given."""
    if route not in ("auto", ROUTE_ORACLE):
        raise ValueError(f"unknown route {route!r}")
    if route == ROUTE_ORACLE or inst.params.d % 2 == 0:
        return _build_oracle(inst, ladder)
    return _build_explicit(inst)


# ----- freeness of a bare F ----------------------------------------------------


@dataclass
class ProbeReport:
    success: bool
    degree_bound: int
    min_degree: int | None       # r, the least t >= 1 with AR(F)_t != 0
    assembly: dict | None        # column degrees (1, r, d - 1 - r) and the unit c

    def to_json(self) -> dict:
        return asdict(self)


def freeness_probe(f: Poly, degree_bound: int, ladder: JacobianLadder | None = None) -> ProbeReport:
    """Saito's criterion for a bare F, with no closed form to follow: r is
    the least t in 1..degree_bound with AR(F)_t != 0 on ``ladder`` (F's
    `JacobianLadder`, or a fresh one), and a free reduced F has exponents
    (r, d - 1 - r), so `_saito_pair` of those degrees decides it whenever
    r <= d - 1 - r <= degree_bound.

    A success is an exact det = c*F certificate.  Over the rationals, with
    degree_bound >= d - 1, a failure on a reduced F proves F is not free,
    unless F is a cone: its constant syzygy (r = 0) lies below the search.
    On a non-reduced F a failure proves nothing."""
    d = f.degree()
    ladder = ladder or JacobianLadder(f)
    kernels = (gradient_kernel(f, t, ladder) for t in range(1, degree_bound + 1))
    kernel = next((k for k in kernels if k.vectors), None)
    r = kernel.degree if kernel is not None else None
    pair = _saito_pair(f, kernel, d - 1 - r, ladder) if r is not None and r <= d - 1 - r <= degree_bound else None
    if pair is None or not pair[1].passed:
        return ProbeReport(False, degree_bound, r, None)
    return ProbeReport(True, degree_bound, r,
                       {"degrees": [1, r, d - 1 - r], "unit": f.field.render(pair[1].unit)})
