import json
import random
import re
from itertools import product

import pytest

from saito_forge.column_system import RouteFailure
from saito_forge.family import (DivisorInstance, FamilyParams, build_divisor, legal_pairs,
                                random_instance)
from saito_forge.field import PrimeField, QQ, _is_prime
from saito_forge.oracle import (SyzygyBasis, SyzygyVector, gradient_kernel, gradient_pairing,
                                jacobian_generators, syzygy_kernel)
from saito_forge.poly import Poly, det_unit, parse, render
from saito_forge.saito import (ROUTE_EXPLICIT_BETA0, ROUTE_EXPLICIT_ODD, ROUTE_ORACLE, base_pair,
                               build_saito_matrix, coupling_residual, det3, last_column, middle_column,
                               verify_saito)
from reference import (beta0_residual_solve, compute_constants, in_kernel_span, last_column_residual,
                       last_column_strata, middle_column_residual, paper_h6, paper_middle_c3,
                       paper_middle_ingredients)

F1009 = PrimeField(1009)


def worked_instance(fld=QQ):
    return build_divisor(FamilyParams(5, 0, 0, parse("1", fld, 2),
                                      parse("x^2 + x*y + y^2", fld, 2)))


ODD_EXPLICIT_CASES = [
    (7, 0, 1, QQ), (9, 1, 1, QQ), (9, 0, 2, F1009), (11, 2, 1, F1009),
    (11, 0, 3, F1009), (11, 1, 2, F1009), (13, 2, 1, F1009),
]

BETA0_CASES = [(5, 0, 0, QQ), (7, 1, 0, QQ), (9, 2, 0, F1009), (11, 3, 0, F1009)]

EVEN_CASES = [(6, 0, 0, QQ), (8, 0, 1, F1009), (8, 1, 0, F1009), (10, 2, 0, F1009),
              (12, 1, 1, F1009)]


# ----- constants --------------------------------------------------------------


def test_constants_bracket_edge_is_d_times_f1_edge():
    params = random_instance(9, 1, 1, seed=2, field=QQ)
    d, a = params.d, params.alpha
    x = parse("x", nvars=2)
    bracket = x * params.f1.partial("x") + (d - a) * params.f1
    assert bracket.coeff_of((a, 0, 0)) == d * params.f1.coeff_of((a, 0, 0))


def test_constants_worked_case():
    params = random_instance(7, 0, 1, seed=12, field=QQ)
    consts = compute_constants(params)
    assert consts["b"] == 1
    assert not QQ.is_zero(consts["mu"])
    assert not QQ.is_zero(consts["a"])


def test_constants_need_odd_beta_pos():
    for d, a, b, fld in ((7, 1, 0, QQ), (8, 0, 1, F1009)):
        with pytest.raises(RouteFailure, match="closed-form constants need odd d and beta >= 1"):
            compute_constants(random_instance(d, a, b, seed=1, field=fld))


def test_mu_needs_the_squared_edge_factor():
    """Dropping one [F1|y^a] factor from mu (so that mu would match the naive
    edge-free closed form) must break the coupling identity whenever that edge
    coefficient is not 1."""
    from fractions import Fraction

    from saito_forge.column_system import build_column_system, solve_column_system

    params = FamilyParams(9, 1, 1, parse("x + 2*y", QQ, 2),
                          parse("2*x^3 + 3*x^2*y + 5*x*y^2 + 7*y^3", QQ, 2))
    inst = build_divisor(params)
    good = compute_constants(params)
    f1_yedge = params.f1.coeff_of((0, 1, 0))
    assert f1_yedge == Fraction(2)

    def coupling_for(mu):
        d, al, be = params.d, params.alpha, params.beta
        v = params.v
        a_const = QQ.div(QQ.neg(QQ.mul(mu, QQ.from_int(d - be - 1))),
                         QQ.from_int((d - v + al) ** 2)
                         * params.f2.coeff_of((v - al, 0, 0)) ** 2
                         * QQ.from_int(d) * params.f1.coeff_of((al, 0, 0)))
        g1, g2 = base_pair(params)
        x = parse("x", QQ, nvars=2)
        y = parse("y", QQ, nvars=2)
        e = x.scale(a_const) + y
        sol = solve_column_system(build_column_system(params))
        ing = {"h1": sol.h1.scale(mu), "h2": g1 * e, "h3": sol.h3.scale(mu), "h4": g2 * e}
        ing["h6"] = paper_h6(params, ing, a_const, QQ.one)
        return coupling_residual(params, ing)

    assert coupling_for(good["mu"]).is_zero()
    assert not coupling_for(QQ.div(good["mu"], f1_yedge)).is_zero()


# ----- explicit odd route -------------------------------------------------------


@pytest.mark.parametrize("d,a,b,fld", ODD_EXPLICIT_CASES)
def test_explicit_odd_route(d, a, b, fld):
    inst = build_divisor(random_instance(d, a, b, seed=33, field=fld))
    sm = build_saito_matrix(inst)
    assert sm.route == ROUTE_EXPLICIT_ODD
    assert sm.verify.passed
    # the bracket matrix determinant is exactly d*mu*F
    assert sm.unit == fld.mul(fld.from_int(d), sm.constants["mu"])
    assert sm.residuals["eq2"].is_zero()
    assert sm.residuals["eq3"].is_zero()
    assert sm.residuals["eq4"].is_zero()
    v = inst.params.v
    assert sm.column_degrees() == [1, v, v]
    assert [render(e) for e in (sm.matrix[0][0], sm.matrix[1][0], sm.matrix[2][0])] == ["x", "y", "z"]


@pytest.mark.parametrize("d,a,b,fld", ODD_EXPLICIT_CASES[:3])
def test_proof_identities(d, a, b, fld):
    inst = build_divisor(random_instance(d, a, b, seed=33, field=fld))
    sm = build_saito_matrix(inst)
    ing = sm.ingredients
    # h2/h4 share the linear factor: g1*h4 = g2*h2
    assert ing["g1"] * ing["h4"] == ing["g2"] * ing["h2"]
    assert coupling_residual(inst.params, ing).is_zero()
    assert middle_column_residual(inst, ing).is_zero()
    assert last_column_residual(inst, ing).is_zero()
    strata = last_column_strata(inst, ing)
    assert all(s.is_zero() for s in strata.values())
    assert set(strata) >= {0, 1, 2}


def test_first_column_quotient_is_degree():
    inst = worked_instance()
    sm = build_saito_matrix(inst)
    assert sm.verify.quotients[0] == parse("5")
    assert sm.verify.quotients[1].is_zero()
    assert sm.verify.quotients[2].is_zero()


# ----- explicit beta = 0 route ---------------------------------------------------


@pytest.mark.parametrize("d,a,b,fld", BETA0_CASES)
def test_beta0_route(d, a, b, fld):
    inst = build_divisor(random_instance(d, a, b, seed=44, field=fld))
    sm = build_saito_matrix(inst)
    assert sm.route == ROUTE_EXPLICIT_BETA0
    assert sm.verify.passed
    # mu is normalized to 1 on this route, so the unit is d itself
    assert sm.unit == fld.from_int(d)
    assert sm.constants["lambda"] is not None
    # the ratio closes the coupling identity that the beta >= 1 route closes
    assert coupling_residual(inst.params, sm.ingredients).is_zero()
    assert sm.column_degrees() == [1, inst.params.v, inst.params.v]


@pytest.mark.parametrize("d", range(5, 32, 2))
def test_beta0_lambda_and_last_column_match_residual_solve(d):
    # lambda as a ratio of two coefficients and the tail by the x*y division
    # give the unique (u, lambda) of the residual solve they replaced
    for (a, b), fld, seed in product(legal_pairs(d), (QQ, F1009), (1, 2)):
        if b:
            continue
        inst = build_divisor(random_instance(d, a, b, seed=seed, field=fld))
        sm = build_saito_matrix(inst)
        lam, column, unique = beta0_residual_solve(inst)
        assert unique and sm.route == ROUTE_EXPLICIT_BETA0, (d, a, fld, seed)
        assert sm.constants["lambda"] == lam and sm.column(2) == column, (d, a, fld, seed)


def test_worked_instance_full_matrix():
    from fractions import Fraction

    sm = build_saito_matrix(worked_instance())
    assert sm.verify.passed and sm.unit == 5
    assert render(sm.matrix[0][2]) == "1/5*y^2"   # h1 = y^2/5
    assert sm.constants["lambda"] == Fraction(4, 45)


# ----- oracle route --------------------------------------------------------------


@pytest.mark.parametrize("d,a,b,fld", EVEN_CASES)
def test_oracle_route_even(d, a, b, fld):
    inst = build_divisor(random_instance(d, a, b, seed=55, field=fld))
    sm = build_saito_matrix(inst)
    assert sm.route == ROUTE_ORACLE
    assert sm.verify.passed
    v = inst.params.v
    assert sm.column_degrees() == [1, v - 1, v]


@pytest.mark.parametrize("d,a,b,fld", [(5, 0, 0, QQ), (7, 0, 1, F1009), (9, 1, 1, F1009)])
def test_route_agreement_odd(d, a, b, fld):
    inst = build_divisor(random_instance(d, a, b, seed=66, field=fld))
    sm_exp = build_saito_matrix(inst)
    sm_orc = build_saito_matrix(inst, route="oracle")
    assert sm_exp.verify.passed and sm_orc.verify.passed
    v = inst.params.v
    basis = syzygy_kernel(inst.f, v)
    for j in (1, 2):
        col = sm_exp.column(j)
        vec = SyzygyVector(col[0], col[1], col[2], Poly.zero(fld))
        assert in_kernel_span(basis, vec, fld)


def test_unknown_route():
    # the closed-form route follows from d and beta: it is never named
    for route in ("nonsense", "explicit_odd", "explicit_beta0"):
        with pytest.raises(ValueError, match=f"unknown route '{route}'"):
            build_saito_matrix(worked_instance(), route=route)


def reference_oracle_search(inst, phases):
    """The oracle route's search as it stood before it was reduced to one:
    for each ``(kernel, first_only)`` phase in turn, every pair (i, j) of
    degree-t2 and degree-t3 ``kernel`` vectors in order (j > i when
    t2 == t3), only i = 0 with ``first_only``; the first pair with a unit
    determinant is taken.  Raises the route's failure message when none is."""
    import saito_forge.saito as saito
    fld = inst.params.field
    d, v = inst.params.d, inst.params.v
    t2, t3 = (v, v) if d % 2 == 1 else (v - 1, v)
    for kernel, first_only in phases:
        basis2 = kernel(inst.f, t2).vectors
        basis3 = basis2 if t3 == t2 else kernel(inst.f, t3).vectors
        for i, s2 in enumerate(basis2[:1] if first_only else basis2):
            for j, s3 in enumerate(basis3):
                if t2 == t3 and j <= i:
                    continue
                matrix = saito._assemble(fld, (s2.a, s2.b, s2.c), (s3.a, s3.b, s3.c))
                if det_unit(inst.f, matrix)[1] is not None:
                    ing = {"f": inst.f, "syz2": s2, "syz3": s3}
                    return saito._finish(inst, matrix, ROUTE_ORACLE, ing,
                                         {"a": None, "b": None, "mu": None, "lambda": None},
                                         {"eq2": None, "eq3": None, "eq4": None}, None)
    raise RouteFailure(
        f"no kernel pair at degrees ({t2}, {t3}) assembles a unit determinant")


def full_oracle_search(inst):
    """Every pair of the full `syzygy_kernel`."""
    return reference_oracle_search(inst, [(syzygy_kernel, False)])


def two_phase_oracle_search(inst):
    """The first `gradient_kernel` vector against each later one, then, when
    none gives a unit determinant, the full search from the start."""
    return reference_oracle_search(inst, [(gradient_kernel, True), (syzygy_kernel, False)])


ORACLE_CASES = ([(d, a, b) for d in (6, 8, 10, 12) for a, b in legal_pairs(d)]
                + [(d, a, b) for d in (7, 9) for a, b in legal_pairs(d)])


@pytest.mark.parametrize("d,a,b", ORACLE_CASES)
def test_oracle_matches_full_search(d, a, b):
    inst = build_divisor(random_instance(d, a, b, seed=4, field=QQ))
    sm = build_saito_matrix(inst, route="oracle")
    ref = full_oracle_search(inst)
    assert sm.to_json() == ref.to_json()
    assert sm.ingredients == ref.ingredients


def search_outcome(search, inst):
    """The report and ingredients a search builds, or its failure message."""
    try:
        sm = search(inst)
    except RouteFailure as exc:
        return str(exc)
    return sm.to_json(), sm.ingredients


def prime_above(n):
    return next(p for p in range(n + 1, 2 * n + 2) if _is_prime(p))


def family_search_cases():
    for d in (6, 7, 8, 9, 12, 13):
        pairs = legal_pairs(d)
        for fld in (QQ, F1009, PrimeField(prime_above(3 * d))):
            for a, b in sorted({pairs[0], pairs[-1]}):
                yield pytest.param(lambda d=d, a=a, b=b, fld=fld: build_divisor(
                    random_instance(d, a, b, seed=d + b, field=fld)), id=f"d{d}-{a}-{b}-{fld!r}")


def hand_built(factors, fld):
    """A DivisorInstance for F = the product of ``factors``, bypassing the
    family's validation: the oracle route reads only d and the field from
    its parameters."""
    f = parse(factors[0], fld)
    for text in factors[1:]:
        f = f * parse(text, fld)
    one = Poly.constant(fld, fld.one)
    return DivisorInstance(FamilyParams(f.degree(), 0, 0, one, one), f)


HAND_BUILT = [
    ("x^5 + y^5 + z^5",),                               # Fermat quintic: not free
    ("x^6 + y^6 + z^6",),                               # Fermat sextic: not free
    ("x^5 + y^4*z",),                                   # a degree-1 syzygy: no (2, 2) pair
    ("x", "y", "z", "x - y", "x - z", "y - z"),         # A3 arrangement: free, (2, 3)
    ("x", "y", "z", "x - y", "x - z"),                  # A3 less a line: free, (2, 2)
    ("x", "y", "z", "x + y", "x + z", "y + z"),         # not free
    ("y^2*z - x^3", "y"),                               # cusp and its tangent: free, (1, 2)
    ("x", "x*y^2 + y^3 + x^2*y + y^2*z"),               # x | F(x, y, 0): free, (1, 2)
    ("x^5 + x^2*y^3 + x*y^4 + y^5 + y^4*z",),           # the d = 5 family shape
    ("x^2 + y*z", "x^2 + y*z", "x"),                    # not reduced
]


def empty_gradient_kernel(f, t, ladder=None):
    return SyzygyBasis(t, ())


def useless_gradient_kernel(f, t, ladder=None):
    zero = Poly.zero(f.field)
    return SyzygyBasis(t, (SyzygyVector(zero, zero, zero, zero),) * 3)


@pytest.mark.parametrize("build", list(family_search_cases())
                         + [pytest.param(lambda fs=fs, fld=fld: hand_built(fs, fld),
                                         id=f"{'*'.join(fs)}-{fld!r}")
                            for fs in HAND_BUILT for fld in (QQ, F1009)])
def test_single_search_matches_two_phase_search(build):
    # by Saito's criterion (F reduced, d a unit) the full-kernel phase finds
    # no pair the first phase misses; the hand-built curves go beyond the family
    inst = build()
    assert search_outcome(lambda i: build_saito_matrix(i, route="oracle"), inst) == \
        search_outcome(two_phase_oracle_search, inst)


@pytest.mark.parametrize("stand_in", [None, empty_gradient_kernel, useless_gradient_kernel])
def test_oracle_failure_message(monkeypatch, stand_in):
    import saito_forge.saito as saito
    if stand_in is not None:
        monkeypatch.setattr(saito, "gradient_kernel", stand_in)
    monkeypatch.setattr(saito, "det_unit", lambda f, matrix: (det3(matrix), None))
    inst = build_divisor(random_instance(8, 1, 0, seed=55, field=F1009))
    with pytest.raises(RouteFailure) as exc:
        build_saito_matrix(inst)
    assert str(exc.value) == "no kernel pair at degrees (3, 4) assembles a unit determinant"


def test_oracle_takes_the_accepted_det_once(monkeypatch):
    import saito_forge.saito as saito
    calls = []

    def counting(f, matrix):
        calls.append(matrix)
        return det_unit(f, matrix)

    monkeypatch.setattr(saito, "det_unit", counting)
    inst = build_divisor(random_instance(8, 1, 0, seed=55, field=F1009))
    sm = build_saito_matrix(inst)
    assert sm.route == ROUTE_ORACLE and sm.verify.passed
    # the search's last det is the accepted one; verification reuses it
    assert sum(m == sm.matrix for m in calls) == 1 and calls[-1] == sm.matrix


# ----- verifier ------------------------------------------------------------------


def test_verify_identity_matrix_fails():
    inst = worked_instance()
    fld = inst.f.field
    one = Poly.constant(fld, fld.one)
    zero = Poly.zero(fld)
    ident = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    rep = verify_saito(inst.f, ident)
    assert not rep.passed
    assert rep.unit is None


def test_verify_rescaled_column_gives_det_f():
    # dividing one column by the unit makes det(B) = F verbatim
    inst = worked_instance()
    sm = build_saito_matrix(inst)
    fld = inst.f.field
    inv = fld.inv(sm.unit)
    rescaled = [row[:2] + [row[2].scale(inv)] for row in sm.matrix]
    rep = verify_saito(inst.f, rescaled)
    assert rep.passed and rep.unit == fld.one
    assert det3(rescaled) == inst.f


def test_verify_reads_the_instance_gradient():
    # the instance's F and the same F parsed bare give one report
    inst = worked_instance()
    sm = build_saito_matrix(inst)
    assert verify_saito(inst.f, sm.matrix) == verify_saito(parse(render(inst.f)), sm.matrix) == sm.verify


def test_routes_differentiate_f_alone(monkeypatch):
    # every route and the verifier take the gradient of F itself and of no
    # other form holding z
    calls = []
    real = Poly.partial

    def recording(self, var):
        if not self.is_bivariate():
            calls.append((self, var))
        return real(self, var)

    monkeypatch.setattr(Poly, "partial", recording)
    for d, a, b in ((8, 1, 0), (9, 1, 1), (9, 1, 0)):
        inst = build_divisor(random_instance(d, a, b, seed=5, field=F1009))
        for route in ("auto", "oracle"):
            calls.clear()
            assert build_saito_matrix(inst, route=route).verify.passed
            assert {f for f, _ in calls} == {inst.f}
            assert {var for _, var in calls} == set("xyz")


@pytest.mark.parametrize("d,alpha,beta", [(9, 1, 1), (9, 1, 0)], ids=["odd", "beta0"])
def test_explicit_build_pairs_each_column_once(monkeypatch, d, alpha, beta):
    # eq3 and eq4 are read off the verifier's quotients, not paired again;
    # the verifier pairs each column with F's gradient, taken once per call
    import saito_forge.saito as saito
    paired = []
    real = saito.dot

    def counting(ps, qs):
        paired.append(tuple(ps))
        return real(ps, qs)

    monkeypatch.setattr(saito, "dot", counting)
    inst = build_divisor(random_instance(d, alpha, beta, seed=5, field=F1009))
    sm = build_saito_matrix(inst)
    assert sm.residuals["eq3"].is_zero() and sm.residuals["eq4"].is_zero()
    assert [paired.count(sm.column(j)) for j in range(3)] == [1, 1, 1]
    differentiated = []
    real_partial = Poly.partial
    monkeypatch.setattr(Poly, "partial",
                        lambda self, var: differentiated.append(var) or real_partial(self, var))
    assert verify_saito(inst.f, sm.matrix) == sm.verify
    assert sorted(differentiated) == ["x", "y", "z"]


@pytest.mark.parametrize("name,eq", [("middle_column", "eq3"), ("last_column", "eq4")])
def test_explicit_build_reports_a_column_that_is_no_syzygy(monkeypatch, name, eq):
    # the error carries the column's nonzero gradient pairing as its residual
    import saito_forge.saito as saito
    real, built = getattr(saito, name), []

    def broken(params, ing, *grad):
        c1, c2, c3 = real(params, ing, *grad)
        built.append((2 * c1, c2, c3))
        return built[-1]

    monkeypatch.setattr(saito, name, broken)
    inst = build_divisor(random_instance(9, 1, 1, seed=5, field=F1009))
    with pytest.raises(RouteFailure, match=re.escape(f"({eq}) is not a syzygy") + "$") as exc:
        build_saito_matrix(inst)
    assert exc.value.residual == gradient_pairing(inst.f, built[-1]) != Poly.zero(inst.f.field)


def test_verify_reports_failing_column():
    inst = worked_instance()
    sm = build_saito_matrix(inst)
    bad = [row[:] for row in sm.matrix]
    bad[0][1] = bad[0][1] + parse("x^2")
    rep = verify_saito(inst.f, bad)
    assert not rep.passed
    assert any("column 2" in f for f in rep.failures)


# ----- sensitivity ---------------------------------------------------------------


@pytest.mark.parametrize("d,a,b,fld", [(9, 1, 1, F1009), (7, 0, 1, QQ)])
def test_perturbation_sensitivity(d, a, b, fld):
    inst = build_divisor(random_instance(d, a, b, seed=77, field=fld))
    sm = build_saito_matrix(inst)
    rng = random.Random(123)
    grad = jacobian_generators(inst.f)[:3]
    for key in ("g1", "g2", "h1", "h2", "h3", "h4", "h5", "h6"):
        ing = dict(sm.ingredients)
        bump = Poly.constant(fld, fld.from_int(rng.randint(1, 100)))
        ing[key] = ing[key] + bump
        try:
            col2 = middle_column(inst.params, ing, grad)
        except RouteFailure:  # the c3 division is inexact
            detected = True
        else:
            col3 = last_column(inst.params, ing)
            matrix = [[parse("x", fld), col2[0], col3[0]],
                      [parse("y", fld), col2[1], col3[1]],
                      [parse("z", fld), col2[2], col3[2]]]
            detected = (not gradient_pairing(inst.f, col2).is_zero()
                        or not last_column_residual(inst, ing).is_zero()
                        or not verify_saito(inst.f, matrix).passed)
        # at alpha = 0, g1 = 0 and g2 is a scalar: a bump of g2 only rescales the
        # middle column, its c3 = -c2*Fy/Fz included, so Saito's criterion holds
        assert detected != (key == "g2" and ing["g1"].is_zero()), key


def test_beta0_last_column_needs_h4_a_multiple_of_x():
    # at beta = 0 the x^(beta-1) terms are divisions by x, exact for h4 = -lambda*x*g2
    inst = build_divisor(random_instance(9, 1, 0, seed=5, field=F1009))
    ing = dict(build_saito_matrix(inst).ingredients)
    ing["h4"] = ing["h4"] + Poly.monomial(F1009, (0, 2, 0))
    with pytest.raises(RouteFailure, match="x does not divide its h4 term"):
        last_column(inst.params, ing)


def test_g3_perturbation_breaks_middle_column():
    # the paper's c3, next to the route's c1 and c2
    inst = build_divisor(random_instance(9, 1, 1, seed=5, field=F1009))
    ing = paper_middle_ingredients(inst.params)
    c1, c2, _ = middle_column(inst.params, ing, jacobian_generators(inst.f)[:3])
    assert gradient_pairing(inst.f, (c1, c2, paper_middle_c3(inst.params, ing))).is_zero()
    ing["g3"] = ing["g3"] + Poly.constant(F1009, 1)
    assert not gradient_pairing(inst.f, (c1, c2, paper_middle_c3(inst.params, ing))).is_zero()


# ----- the divided-out entries ------------------------------------------------------


@pytest.mark.parametrize("d", range(5, 22, 2))
def test_divided_entries_are_the_papers(d):
    # c3 = -(c1*Fx + c2*Fy)/Fz is the paper's g3 - x^beta y^(gamma+1) z*w, and
    # h6 = -(eq2 with h6 = 0)/(x*y) is the paper's split formula
    for (a, b), fld, seed in product(legal_pairs(d), (QQ, F1009), (1, 2)):
        inst = build_divisor(random_instance(d, a, b, seed=seed, field=fld))
        sm = build_saito_matrix(inst)
        params = inst.params
        assert sm.matrix[2][1] == paper_middle_c3(params, paper_middle_ingredients(params))
        if b >= 1:
            assert sm.ingredients["h6"] == paper_h6(params, sm.ingredients,
                                                    sm.constants["a"], sm.constants["b"])


@pytest.mark.parametrize("d", range(6, 15, 2))
def test_middle_column_is_a_syzygy_at_even_degree(d):
    # the division by Fz is exact at even d too, for the oracle's degree v - 1
    for (a, b), fld, seed in product(legal_pairs(d), (QQ, F1009), (1, 2)):
        inst = build_divisor(random_instance(d, a, b, seed=seed, field=fld))
        g1, g2 = base_pair(inst.params)
        col = middle_column(inst.params, {"g1": g1, "g2": g2}, jacobian_generators(inst.f)[:3])
        assert gradient_pairing(inst.f, col).is_zero()
        assert max(e.degree() for e in col) == inst.params.v - 1


def wrong_mu(monkeypatch):
    import saito_forge.saito as saito
    real = saito.edge_constants

    def doubled_mu(sys, sol):
        consts = real(sys, sol)
        return {**consts, "mu": F1009.mul(consts["mu"], F1009.from_int(2))}

    monkeypatch.setattr(saito, "edge_constants", doubled_mu)


def perturbed_g1(monkeypatch):
    import saito_forge.saito as saito
    real = saito.middle_column
    monkeypatch.setattr(saito, "middle_column", lambda params, ing, grad: real(
        params, {**ing, "g1": ing["g1"] + Poly.constant(params.field, params.field.one)}, grad))


@pytest.mark.parametrize("breaks,beta,eq", [(wrong_mu, 1, "eq2"), (perturbed_g1, 1, "eq3"),
                                            (perturbed_g1, 0, "eq3")])
def test_inexact_division_is_a_route_failure(monkeypatch, capsys, breaks, beta, eq):
    from saito_forge.cli import main

    breaks(monkeypatch)
    inst = build_divisor(random_instance(9, 1, beta, seed=5, field=F1009))
    with pytest.raises(RouteFailure, match=re.escape(f"({eq})")) as exc:
        build_saito_matrix(inst)
    assert not exc.value.residual.is_zero()
    code = main(["verify", "--d", "9", "--alpha", "1", "--beta", str(beta), "--seed", "5",
                 "--field", "fp:1009"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    data = json.loads(captured.out)
    assert data["pass"] is False and data["saito"] == {"pass": False, "error": str(exc.value)}


def test_vanishing_b_is_a_route_failure(monkeypatch, capsys):
    # b = beta*[h1|y^v]/([[y]|y^(v-alpha)]*[g2|y^alpha]) at mu = 1: a solution
    # with no y^v term in h1 leaves no mu, a route failure and not exit 2
    from dataclasses import replace

    import saito_forge.saito as saito
    from saito_forge.cli import main

    real = saito.solve_column_system

    def no_h1_edge(sys):
        sol = real(sys)
        return replace(sol, h1=Poly(F1009, {m: c for m, c in sol.h1.terms.items() if m[0]}))

    monkeypatch.setattr(saito, "solve_column_system", no_h1_edge)
    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    inst = build_divisor(random_instance(9, 1, 1, seed=5, field=F1009))
    with pytest.raises(RouteFailure, match="vanishing edge coefficient: a, b or mu cannot be read") as exc:
        build_saito_matrix(inst)
    code = main(["verify", "--d", "9", "--alpha", "1", "--beta", "1", "--seed", "5",
                 "--field", "fp:1009"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    data = json.loads(captured.out)
    assert data["pass"] is False and data["saito"] == {"pass": False, "error": str(exc.value)}


# ----- report shape ----------------------------------------------------------------


def test_report_json_shape():
    sm = build_saito_matrix(worked_instance())
    data = sm.to_json()
    assert list(data) == ["route", "pass", "unit_c", "column_degrees",
                          "residuals", "constants", "matrix"]
    assert list(data["residuals"]) == ["eq2", "eq3", "eq4", "det"]
    assert list(data["constants"]) == ["a", "b", "mu", "lambda"]
    assert data["residuals"]["det"] == "0"
    assert data["pass"] is True
