import pytest

from saito_forge.family import (FamilyParams, InvalidParams,
                                build_divisor, instance_from_json,
                                instance_to_json, is_irreducible, legal_pairs,
                                pair_bound, random_instance,
                                random_non_squarefree_instance, validate)
from saito_forge.field import PrimeField, QQ
from saito_forge.poly import Poly, coprime_forms, parse, render

F1009 = PrimeField(1009)


def worked_params(fld=QQ):
    return FamilyParams(5, 0, 0, parse("1", fld, 2), parse("x^2 + x*y + y^2", fld, 2))


def test_validate_worked_instance():
    rep = validate(worked_params())
    assert rep.ok, rep.failures()


def test_validate_alpha_bound():
    # d=5: floor(6/2) - 3 = 0, so alpha = 1 is out
    p = FamilyParams(5, 1, 0, parse("x + y", QQ, 2), parse("x + y", QQ, 2))
    rep = validate(p)
    assert not rep.ok
    assert "exponent_sum_bound" in rep.failures()


def test_validate_divisibility_conditions():
    # F2 = x^3 is divisible by x (y does not divide it)
    p = FamilyParams(7, 0, 0, parse("1", QQ, 2), parse("x^3", QQ, 2))
    rep = validate(p)
    assert not rep.ok
    assert rep.failures() == ["x_ndiv_f2"]
    p = FamilyParams(7, 0, 0, parse("1", QQ, 2), parse("y^3", QQ, 2))
    assert validate(p).failures() == ["y_ndiv_f2"]


def test_validate_square_f1():
    p = FamilyParams(9, 2, 0, parse("x^2 + 2*x*y + y^2", QQ, 2),
                     parse("x^2 + x*y + y^2", QQ, 2))
    rep = validate(p)
    assert rep.failures() == ["f1_squarefree"]
    assert validate(p, drop_squarefree=True).ok


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_validate_rejects_a_z_term_in_f1_or_f2(fld):
    # parse refuses z in F1 and F2, but a form built term by term may hold it
    f1, f2 = parse("x + y", fld, 2), parse("x^3 + x*y^2 + y^3", fld, 2)
    assert validate(FamilyParams(9, 1, 0, f1, f2)).ok
    z_f1 = Poly(fld, {(1, 0, 0): 1, (0, 0, 1): 1})
    z_f2 = Poly(fld, {(3, 0, 0): 1, (1, 1, 1): 2, (0, 3, 0): 1})
    for bad in (FamilyParams(9, 1, 0, z_f1, f2), FamilyParams(9, 1, 0, f1, z_f2)):
        assert validate(bad).failures() == ["f1_bivariate"]
        with pytest.raises(InvalidParams) as exc:
            build_divisor(bad)
        assert exc.value.report.failures() == ["f1_bivariate"]


def test_validate_small_characteristic():
    p = worked_params(PrimeField(13))  # 13 < 3*5+1
    assert "char_policy" in validate(p).failures()


def test_build_worked_instance():
    inst = build_divisor(worked_params())
    assert render(inst.f) == "x^5 + x^2*y^3 + x*y^4 + y^5 + y^4*z"
    assert inst.f.euler_check() == 5


def test_build_d6():
    p = FamilyParams(6, 0, 0, parse("1", QQ, 2), parse("x^2 + x*y + y^2", QQ, 2))
    inst = build_divisor(p)
    assert render(inst.f) == "x^6 + x^2*y^4 + x*y^5 + y^6 + y^5*z"


def test_build_rejects_invalid():
    p = FamilyParams(5, 1, 0, parse("x + y", QQ, 2), parse("x + y", QQ, 2))
    with pytest.raises(InvalidParams):
        build_divisor(p)


@pytest.mark.parametrize("d,a,b,fld", [
    (5, 0, 0, QQ), (7, 1, 0, QQ), (9, 1, 1, F1009), (8, 0, 1, F1009), (11, 3, 0, F1009),
])
def test_dz_partial_is_the_monomial(d, a, b, fld):
    inst = build_divisor(random_instance(d, a, b, seed=11, field=fld))
    expected = {(b, d - b - 1, 0)}
    assert set(inst.f.partial("z").terms) == expected


def test_random_instance_reproducible():
    p1 = random_instance(9, 1, 1, seed=42, field=F1009)
    p2 = random_instance(9, 1, 1, seed=42, field=F1009)
    assert p1.f1 == p2.f1 and p1.f2 == p2.f2
    p3 = random_instance(9, 1, 1, seed=43, field=F1009)
    assert (p1.f1, p1.f2) != (p3.f1, p3.f2)


def test_random_instance_linear_f1():
    p = random_instance(7, 1, 0, seed=42, field=QQ)
    assert p.f1.degree() == 1
    assert not QQ.is_zero(p.f1.coeff_of((1, 0, 0)))
    assert not QQ.is_zero(p.f1.coeff_of((0, 1, 0)))


def test_random_instance_edges_nonzero():
    p = random_instance(5, 0, 0, seed=3, field=PrimeField(101))
    assert p.f1.degree() == 0 and not p.f1.is_zero()
    assert not p.f2.field.is_zero(p.f2.coeff_of((2, 0, 0)))
    assert not p.f2.field.is_zero(p.f2.coeff_of((0, 2, 0)))


def test_random_instance_bad_pair():
    with pytest.raises(InvalidParams):
        random_instance(5, 1, 0, seed=0, field=QQ)


def test_support_blocks():
    # monomial support stays inside the two shifted blocks plus the z-term
    for d, a, b in [(5, 0, 0), (9, 2, 0), (11, 1, 2)]:
        params = random_instance(d, a, b, seed=5, field=F1009)
        inst = build_divisor(params)
        v = params.v
        block1 = {(d - a + m[0], m[1], 0) for m in params.f1.terms}
        block2 = {(m[0], v + a + 1 + m[1], 0) for m in params.f2.terms}
        assert not (block1 & block2)
        assert set(inst.f.terms) <= block1 | block2 | {(b, d - b - 1, 1)}


def test_legal_pairs_closure():
    for d in range(5, 14):
        bound = pair_bound(d)
        expected = {(a, b) for a in range(bound + 1) for b in range(bound + 1)
                    if a + b <= bound}
        assert set(legal_pairs(d)) == expected
    assert legal_pairs(5) == [(0, 0)]
    assert len(legal_pairs(11)) == 10


def test_is_irreducible():
    inst = build_divisor(worked_params())
    assert is_irreducible(inst.f)
    assert not is_irreducible(parse("x^2 + x*z"))  # x*(x+z)
    # a common factor of A and B other than x or y, with B a monomial or not
    assert not is_irreducible(parse("x^5 + 2*x^4*y + x*y^3*z + 2*y^4*z"))  # (x+2y)(x^4+y^3*z)
    assert not is_irreducible(parse("x + y") * parse("x^4 + x^3*z + y^3*z"))
    for d, a, b in [(7, 0, 1), (9, 2, 0), (10, 1, 1)]:
        i = build_divisor(random_instance(d, a, b, seed=2, field=F1009))
        assert is_irreducible(i.f)


def sylvester_irreducible(f: Poly) -> bool:
    """`is_irreducible` by the Sylvester test alone, whatever B is."""
    fld, d = f.field, f.degree()
    a = Poly(fld, {m: c for m, c in f.terms.items() if m[2] == 0})
    b = Poly(fld, {(m[0], m[1], 0): c for m, c in f.terms.items() if m[2] == 1})
    return not (a.is_zero() or b.is_zero()) and coprime_forms(a, b, d, d - 1)


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
def test_term_scan_matches_sylvester_on_every_member(fld):
    # every legal member at d = 5..25, seeds 1 and 2: B = x^beta y^(d-beta-1)
    for d in range(5, 26):
        for alpha, beta in legal_pairs(d):
            for seed in (1, 2):
                f = build_divisor(random_instance(d, alpha, beta, seed, fld)).f
                assert is_irreducible(f) is sylvester_irreducible(f) is True, (d, alpha, beta, seed)


HAND_MADE = [
    ("x^5 + x^2*y^3 + x*y^3*z", False),     # x | A and x | B
    ("x^5 + x*y^4 + 3*x^2*y^2*z", False),   # x | A and x | B = 3*x^2*y^2
    ("x^4*y + y^5 + x^2*y^2*z", False),     # y | A and y | B
    ("x^5 + x*y^4 + y^4*z", True),          # x | A but x does not divide B
    ("x^5 + y^5 + y^4*z", True),            # beta = 0: B = y^(d-1)
    ("x^4*y + y^5 + y^4*z", False),         # beta = 0 and y | A
    ("x^5 + x*y^4 - 3/2*y^4*z", True),      # B = c*y^(d-1)
    ("x*y^4 + y^5 + 7*y^4*z", False),       # B = c*y^(d-1) and y | A
    ("x^5 + y^5 + 2*x^4*z", True),          # B = c*x^(d-1)
    ("x + 2*z", True),                      # B constant
    ("x^5 + y^5 + x^4*z + x^2*y^2*z", True),    # B with several terms
    ("x^5 + 2*x^4*y + x*y^3*z + 2*y^4*z", False),
]


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
@pytest.mark.parametrize("text,irreducible", HAND_MADE)
def test_term_scan_matches_sylvester_by_hand(monkeypatch, fld, text, irreducible):
    # only a B with several terms takes the Sylvester path
    from saito_forge import family

    calls = []
    monkeypatch.setattr(family, "coprime_forms", lambda *args: calls.append(args) or coprime_forms(*args))
    f = parse(text, fld)
    several = sum(m[2] == 1 for m in f.num) > 1
    assert is_irreducible(f) is sylvester_irreducible(f) is irreducible
    assert len(calls) == several


def test_json_roundtrip():
    inst = build_divisor(random_instance(7, 0, 1, seed=9, field=F1009))
    data = instance_to_json(inst)
    assert list(data) == ["d", "alpha", "beta", "field", "seed", "F1", "F2", "F"]
    inst2 = instance_from_json(data)
    assert inst2.f == inst.f


def test_json_detects_tampering():
    inst = build_divisor(worked_params())
    data = instance_to_json(inst)
    data["F"] = "x^2*y^3 + x*y^4 + y^5 + y^4*z"
    with pytest.raises(InvalidParams):
        instance_from_json(data)


def test_non_squarefree_generator():
    p = random_non_squarefree_instance(9, 2, 0, seed=1, field=F1009)
    from saito_forge.poly import is_squarefree_bivariate
    assert not is_squarefree_bivariate(p.f1)
    assert validate(p, drop_squarefree=True).ok
    with pytest.raises(InvalidParams):
        random_non_squarefree_instance(7, 1, 0, seed=1, field=F1009)
