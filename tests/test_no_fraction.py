"""Polynomial arithmetic over the rationals builds no `Fraction`: sums,
products, scaling, `dot`, `det3`, partials and the integer columns of
`shifted_columns`, ranked by `eliminate`, all run on integer numerators, as
do the kernel relations (`eliminate` with ``kernel``, `canonical_kernel`,
`solve_affine`, read back by `column_polys`) and `divides`, and so does
rendering the report's polynomials.  Checked on the d = 9 member with true
denominators in F1 and F2, by counting stand-ins for the `Fraction` the
package modules construct with."""

from fractions import Fraction

import pytest

from saito_forge import field, linalg, poly
from saito_forge.family import FamilyParams, build_divisor, instance_to_json
from saito_forge.field import QQ
from saito_forge.linalg import canonical_kernel, eliminate, solve_affine
from saito_forge.poly import (Poly, column_polys, det3, divides, dot, parse, render,
                              shifted_columns)
from saito_forge.saito import build_saito_matrix


@pytest.fixture
def built():
    """Count the Fractions the package modules build: a list that grows by
    one per construction."""
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (poly, linalg, field):
            if hasattr(mod, "Fraction"):  # linalg builds none and imports none
                mp.setattr(mod, "Fraction", Counting)
        yield made


def rational_member():
    f1 = parse("2/3*x + 5/7*y", QQ, 2)
    f2 = parse("-3/4*x^3 + 1/2*x*y^2 + 11/9*y^3", QQ, 2)
    inst = build_divisor(FamilyParams(9, 1, 1, f1, f2))
    return inst, build_saito_matrix(inst)


def test_arithmetic_builds_no_fraction(built):
    inst, sm = rational_member()
    f1, f2 = inst.params.f1, inst.params.f2
    fx, fy, fz = (inst.f.partial(v) for v in "xyz")
    assert f1.den > 1 and f2.den > 1 and fx.den > 1
    col = sm.column(2)
    scalar = Fraction(-5, 6)
    built.clear()
    results = [
        fx * fy, f1 * f2, fx + fy, fx - fz, -fy,
        3 * fz, fx * 2, inst.f.scale(scalar), f2.scale(scalar),
        dot(col, (fx, fy, fz)), det3(sm.matrix),
        *(inst.f.partial(v) for v in "xyz"), f1 * fz,
    ]
    assert built == []
    assert det3(sm.matrix) == inst.f.scale(sm.unit)
    assert any(r.den > 1 for r in results)


def test_shifted_columns_and_elimination_build_no_fraction(built):
    inst, _ = rational_member()
    f1, f2 = inst.params.f1, inst.params.f2
    built.clear()
    for pairs, degrees, zfree in (
            ([(1, (inst.f.partial(v),)) for v in "xyz"], (9,), False),
            ([(1, (f2,)), (3, (f1,))], (4,), True),
            ([(2, (f1, f2)), (1, (f2.partial("x"), f2 * f1))], (3, 5), True)):
        nrows, cols = shifted_columns(pairs, degrees, zfree)
        assert all(type(c) is int for col in cols for c in col.values())
        eliminate(nrows, cols, QQ)
    assert built == []


def test_kernel_relations_and_division_build_no_fraction(built):
    inst, _ = rational_member()
    grad = [inst.f.partial(v) for v in "xyz"]
    t = 4  # AR(F) of the d = 9 member starts in degree v = 4
    nrows, cols = shifted_columns([(t, (g,)) for g in grad], (t + 8,))
    rhs = {r: c for r, c in cols[0].items()}
    for r, c in cols[7].items():
        rhs[r] = rhs.get(r, 0) - 2 * c
    built.clear()
    relations = eliminate(nrows, cols, QQ, kernel=True)[1]
    canonical = canonical_kernel([rel for rel, _ in relations], QQ)
    syzygies = column_polys(relations, (t, t, t), QQ)
    particular, kernel = solve_affine(nrows, cols, rhs, QQ)
    (a, b, c), = column_polys([particular], (t, t, t), QQ)
    quotients = [divides(inst.f, inst.f * grad[0]), divides(grad[0], inst.f)]
    assert built == []
    assert relations and canonical == relations and kernel == relations
    assert any(den > 1 for _, den in relations)
    assert all(dot(s, grad).is_zero() for s in syzygies)
    assert dot((a, b, c), grad) == grad[0] * Poly.monomial(QQ, (t, 0, 0)) - 2 * dot(
        column_polys([({7: 1}, 1)], (t, t, t), QQ)[0], grad)
    assert quotients == [(True, grad[0]), (False, None)]


def test_rendering_builds_no_fraction(built):
    inst, sm = rational_member()
    fresh = inst.f * inst.params.f1.scale(Fraction(-7, 3))  # no terms view read yet
    built.clear()
    text = render(fresh)
    matrix = sm.to_json()
    instance = instance_to_json(inst)
    assert built == []
    assert "/" in text and text.startswith("-") and parse(text) == fresh
    assert any("/" in e for row in matrix["matrix"] for e in row)
    assert "/" in instance["F1"] and "/" in instance["F2"]


def test_the_counter_counts(built):
    """The stand-ins see what the package builds: reading a rational
    polynomial's terms builds one Fraction per term."""
    p = Poly(QQ, {(1, 0, 0): 2, (0, 1, 0): 3}).scale(Fraction(1, 5))
    built.clear()
    assert dict(p.terms) == {(1, 0, 0): Fraction(2, 5), (0, 1, 0): Fraction(3, 5)}
    assert len(built) == 2
