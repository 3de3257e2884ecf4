"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is an exact identity over the rationals or a prime field; there
are no numerical tolerances anywhere.  Run with ``pytest -v -s`` to see the
one-line PASS/FAIL verdict per criterion.
"""

import json
import random

import pytest

from saito_forge.cli import main as cli_main
from saito_forge.column_system import build_column_system, solve_column_system
from saito_forge.family import (FamilyParams, build_divisor, is_irreducible,
                                legal_pairs, random_instance, validate)
from saito_forge.family import _random_form
from saito_forge.field import PrimeField, QQ
from saito_forge.oracle import (SyzygyVector, expected_multiplicity, point_support_check,
                                resolution_check, syzygy_kernel)
from saito_forge.poly import Poly, monomials, parse, render
from saito_forge.saito import build_saito_matrix, freeness_probe
from reference import (cokernel_series_coefficient, column_cokernel_hilbert,
                       column_syzygy_generator, in_kernel_span, last_column_residual,
                       last_column_strata, middle_column_residual, split_pure_power)

F1009 = PrimeField(1009)
FP_SEEDS = (101, 102, 103)
QQ_SEED = 201


def _verdict(n: int, label: str) -> None:
    print(f"\nACCEPTANCE {n} ({label}): PASS")


@pytest.fixture(scope="module")
def fleet():
    """The criterion-1 instance set: every legal (d, alpha, beta) for
    5 <= d <= 11, three random instances over F_1009 and one over QQ,
    each with its verified Saito matrix."""
    out = []
    for d in range(5, 12):
        for alpha, beta in legal_pairs(d):
            for seed in FP_SEEDS:
                inst = build_divisor(random_instance(d, alpha, beta, seed, F1009))
                out.append((inst, build_saito_matrix(inst)))
            inst = build_divisor(random_instance(d, alpha, beta, QQ_SEED, QQ))
            out.append((inst, build_saito_matrix(inst)))
    return out


def test_criterion_1_family_freeness(fleet):
    assert len(fleet) == 4 * sum(len(legal_pairs(d)) for d in range(5, 12)) == 120
    for inst, sm in fleet:
        fld = inst.f.field
        assert is_irreducible(inst.f)
        assert sm.verify.passed
        assert not fld.is_zero(sm.unit)
        # det(B) = c*F exactly
        det = sm.verify.det
        assert det == inst.f.scale(sm.unit)
        # gradient annihilates every column modulo F, with exact quotients
        for j in range(3):
            q = sm.verify.quotients[j]
            col = sm.column(j)
            fx, fy, fz = (inst.f.partial(var) for var in "xyz")
            dot = fx * col[0] + fy * col[1] + fz * col[2]
            assert dot == inst.f * q
    # the CLI agrees: exit 0 end to end on representatives of both parities
    assert cli_main(["verify", "--d", "7", "--alpha", "0", "--beta", "1",
                     "--seed", "101", "--field", "fp:1009", "--out", "/dev/null"]) == 0
    assert cli_main(["verify", "--d", "6", "--alpha", "0", "--beta", "0",
                     "--seed", "201", "--out", "/dev/null"]) == 0
    _verdict(1, "family freeness, 5 <= d <= 11, F_1009 and QQ")


def _system_premise_params(params):
    """Parameters whose F2 fits the graded system's own premise.

    Odd-degree family members satisfy it as-is; for even degree a fresh
    F2 of degree v - alpha is drawn (the system is a standalone statement
    about such data)."""
    v, a = params.v, params.alpha
    if params.f2.degree() == v - a:
        return params
    rng = random.Random(f"premise:{params.d}:{a}:{params.beta}:{params.seed}")
    f2 = _random_form(params.field, v - a, rng)
    return FamilyParams(params.d, a, params.beta, params.f1, f2, seed=params.seed)


def test_criterion_2_graded_system(fleet):
    for inst, _ in fleet:
        params = _system_premise_params(inst.params)
        fld = params.field
        v = params.v
        sys = build_column_system(params)
        sol = solve_column_system(sys)
        # solvable with a one-dimensional solution space
        assert sol.dimension == 1
        for row, rhs in zip(sys.rows, sys.rhs):
            acc = Poly.zero(fld)
            for entry, h in zip(row, (sol.h1, sol.h3, sol.h5)):
                acc = acc + entry * h
            assert acc == rhs
        # the kernel direction is the closed-form generator, up to scalar
        gen = column_syzygy_generator(params)
        k = sol.kernel[0]
        for i in range(3):
            for j in range(3):
                assert k[i] * gen[j] == k[j] * gen[i]
        assert any(not p.is_zero() for p in k)
        # quotient Hilbert function matches the series, and vanishes late
        for i in range(2 * v + 4):
            expect = cokernel_series_coefficient(params, i)
            assert column_cokernel_hilbert(params, i) == expect
            if i >= 2 * v - 1:
                assert expect == 0
    _verdict(2, "graded system solvability, uniqueness, Hilbert series")


def test_criterion_3_resolution_and_multiplicity():
    expected = {5: 12, 6: 19, 7: 27, 8: 37, 9: 48, 10: 61}
    for d, mult in expected.items():
        inst = build_divisor(random_instance(d, 0, 0, seed=301, field=F1009))
        rep = resolution_check(inst.f)  # full table up to 3v + 3
        assert rep.passed and rep.first_mismatch is None
        assert rep.multiplicity == mult == expected_multiplicity(d)
    # spot check over the rationals
    worked = build_divisor(FamilyParams(5, 0, 0, parse("1", QQ, 2),
                                        parse("x^2 + x*y + y^2", QQ, 2)))
    rep = resolution_check(worked.f)
    assert rep.passed and rep.multiplicity == 12
    _verdict(3, "resolution-implied Hilbert table and multiplicities")


def test_criterion_4_point_support(fleet):
    for inst, _ in fleet:
        v = inst.params.v
        res = point_support_check(inst.f, 3 * v + 2)
        assert res.certified
        assert res.n is not None and res.n <= 3 * v + 2
    _verdict(4, "singular locus certified at (0:0:1) on all 120 instances")


def test_criterion_5_route_agreement(fleet):
    for inst, sm_explicit in fleet:
        if inst.params.d % 2 == 0:
            continue
        fld = inst.f.field
        sm_oracle = build_saito_matrix(inst, route="oracle")
        assert sm_explicit.verify.passed and sm_oracle.verify.passed
        v = inst.params.v
        basis = syzygy_kernel(inst.f, v)
        for j in (1, 2):
            col = sm_explicit.column(j)
            vec = SyzygyVector(col[0], col[1], col[2], Poly.zero(fld))
            assert in_kernel_span(basis, vec, fld)
    _verdict(5, "explicit and oracle routes agree on every odd-degree instance")


def test_criterion_6_proof_identities(fleet):
    count = 0
    for inst, sm in fleet:
        if inst.params.d % 2 == 0 or inst.params.beta < 1:
            continue
        count += 1
        fld = inst.f.field
        ing = sm.ingredients
        assert sm.residuals["eq2"].is_zero()
        assert middle_column_residual(inst, ing).is_zero()
        res4 = last_column_residual(inst, ing)
        assert res4.is_zero()
        strata = last_column_strata(inst, ing)
        assert strata[0].is_zero() and strata[1].is_zero() and strata[2].is_zero()
        assert ing["g1"] * ing["h4"] == ing["g2"] * ing["h2"]
        assert inst.f.euler_check() == fld.from_int(inst.params.d)
    assert count == 40  # ten odd (alpha, beta>=1) pairs, four instances each
    _verdict(6, "construction identities on every odd-degree beta >= 1 instance")


def test_criterion_7_negative_controls(tmp_path):
    # broken divisibility condition
    bad = FamilyParams(7, 0, 0, parse("1", QQ, 2), parse("x^3", QQ, 2))
    assert not validate(bad).ok
    # square factor in F1 outside the exploratory mode
    square = FamilyParams(9, 2, 0, parse("x^2 + 2*x*y + y^2", QQ, 2),
                          parse("x^2 + x*y + y^2", QQ, 2))
    assert validate(square).failures() == ["f1_squarefree"]
    assert validate(square, drop_squarefree=True).ok
    # random degree-5 control polynomial: resolution shape must mismatch
    rng = random.Random(424243)
    control = Poly(QQ, {m: QQ.from_int(rng.randint(1, 9)) for m in monomials(5, 3)})
    rep = resolution_check(control, 9)
    assert not rep.passed
    # mutated instance through the CLI: exit 1, failing checks named
    inst_json = {"d": 5, "alpha": 0, "beta": 0, "field": "q", "F1": "1",
                 "F2": "x^2 + x*y + y^2", "F": "x^2*y^3 + x*y^4 + y^5 + y^4*z"}
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(inst_json))
    out = tmp_path / "mutated_report.json"
    assert cli_main(["verify", "--in", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False and report["failures"]
    # the Fermat quintic admits no Saito assembly up to 3v + 3 = 9
    probe = freeness_probe(parse("x^5 + y^5 + z^5"), 9)
    assert not probe.success
    _verdict(7, "negative controls all rejected")


def test_criterion_8_property_suite():
    rng = random.Random(20240809)

    def rand_homog(fld, deg, nvars=3):
        terms = {}
        for m in monomials(deg, nvars):
            c = fld.random(rng)
            if not fld.is_zero(c):
                terms[m] = c
        return Poly(fld, terms)

    for fld in (QQ, F1009):
        # 1000-case parser round-trip
        for _ in range(1000):
            p = rand_homog(fld, rng.randint(0, 6))
            assert parse(render(p), fld) == p
        # 1000-case ring axioms and degree additivity
        for _ in range(1000):
            p = rand_homog(fld, rng.randint(0, 3))
            q = rand_homog(fld, rng.randint(0, 3))
            r = rand_homog(fld, rng.randint(0, 3))
            assert (p + q) + r == p + (q + r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p
            if not p.is_zero() and not q.is_zero():
                assert (p * q).degree() == p.degree() + q.degree()
        # 1000-case Euler identity on homogeneous input
        for _ in range(1000):
            p = rand_homog(fld, rng.randint(1, 6))
            if p.is_zero():
                continue
            assert p.euler_check() == fld.from_int(p.degree())
        # 1000-case split recomposition
        x = Poly.variable(fld, "x")
        y = Poly.variable(fld, "y")
        for _ in range(1000):
            m = rng.randint(0, 6)
            p = rand_homog(fld, m, nvars=2)
            if p.is_zero():
                continue
            qx, cx = split_pure_power(p, "x")
            assert x * qx + Poly.monomial(fld, (0, m, 0), cx) == p
            qy, cy = split_pure_power(p, "y")
            assert y * qy + Poly.monomial(fld, (m, 0, 0), cy) == p
    _verdict(8, "1000-case parser/ring/Euler/split property suites")
