from math import lcm

import pytest

from saito_forge.column_system import build_column_system
from saito_forge.family import FamilyParams, build_divisor, legal_pairs, random_instance
from saito_forge.field import PrimeField, QQ
from saito_forge import oracle
from saito_forge.linalg import eliminate
from saito_forge.oracle import (IdealLadder, JacobianLadder, SyzygyVector, _syzygy_kernel_raw,
                                expected_multiplicity, gradient_kernel, gradient_pairing,
                                jacobian_generators, macaulay_matrix,
                                monomial_membership, point_support_check,
                                predicted_quotient_hilbert, resolution_check,
                                space_dim, syzygy_kernel)
from saito_forge.poly import Poly, column_polys, grlex_key, monomials, parse, shifted_columns
from saito_forge.saito import freeness_probe
from reference import dense_echelon, dense_rank, in_kernel_span, syzygy_columns, whole_echelon

F1009 = PrimeField(1009)


def worked_instance(fld=QQ):
    return build_divisor(FamilyParams(5, 0, 0, parse("1", fld, 2),
                                      parse("x^2 + x*y + y^2", fld, 2)))


# ----- Macaulay ranks -------------------------------------------------------


def ladder_rank(gens, t):
    """dim of the degree-t piece of (gens), climbed on an `IdealLadder`."""
    ladder = IdealLadder(gens)
    while ladder.degree < t:
        ladder.advance()
    return ladder.rank()


def test_ideal_dim_variables():
    gens = [parse("x"), parse("y"), parse("z")]
    assert ladder_rank(gens, 1) == 3


def test_ideal_dim_single_square():
    assert ladder_rank([parse("x^2")], 3) == 3  # x^3, x^2 y, x^2 z


def test_ideal_dim_gradient_d5():
    inst = worked_instance()
    assert ladder_rank(jacobian_generators(inst.f), 4) == 3


def test_macaulay_column_shape():
    mat = macaulay_matrix([parse("x^2 + y*z")], 3)
    assert len(mat.rows) == space_dim(3)
    assert len(mat.columns) == 3  # one generator, three degree-1 shifts


def test_hilbert_quotient_t0():
    inst = worked_instance()
    assert space_dim(0) - ladder_rank(jacobian_generators(inst.f), 0) == 1


def test_rank_stability_redundant_generator():
    # F is an Euler combination of the partials: adjoining it changes nothing
    inst = worked_instance()
    partials = list(jacobian_generators(inst.f)[:3])
    with_f = partials + [inst.f]
    for t in range(4, 10):
        assert ladder_rank(partials, t) == ladder_rank(with_f, t) == whole_echelon(with_f, t)[0]


# ----- syzygy kernels ---------------------------------------------------------


def test_euler_vector_at_degree_one():
    inst = worked_instance()
    basis = syzygy_kernel(inst.f, 1)
    fld = inst.f.field
    euler = SyzygyVector(parse("x"), parse("y"), parse("z"),
                         Poly.constant(fld, fld.from_int(-5)))
    assert in_kernel_span(basis, euler, fld)
    assert gradient_pairing(inst.f, euler.as_polys()).is_zero()
    zero = Poly.zero(fld)
    assert not in_kernel_span(basis, SyzygyVector(parse("x"), zero, zero, zero), fld)


def test_kernel_vectors_satisfy_relation():
    inst = build_divisor(random_instance(7, 0, 1, seed=13, field=F1009))
    for t in (1, 2, 3):
        basis = syzygy_kernel(inst.f, t)
        for vec in basis.vectors:
            assert gradient_pairing(inst.f, vec.as_polys()).is_zero()


def test_fresh_syzygy_beyond_euler_at_v():
    inst = worked_instance()
    # at t = v = 2 the kernel exceeds the Euler multiples (dim 3) + nothing else
    basis = syzygy_kernel(inst.f, 2)
    assert len(basis.vectors) == 3 + 2


def test_kernel_determinism():
    inst = build_divisor(random_instance(9, 1, 0, seed=8, field=F1009))
    b1 = syzygy_kernel(inst.f, 3)
    b2 = syzygy_kernel(inst.f, 3)
    assert b1.vectors == b2.vectors


@pytest.mark.parametrize("fld", [QQ, F1009])
@pytest.mark.parametrize("d", [6, 8, 10, 12, 14])
def test_gradient_kernel_is_the_leading_e_zero_part(d, fld):
    # the gradient blocks are eliminated before the F block, so their
    # relations do not see it; every F-block relation has e != 0
    alpha, beta = legal_pairs(d)[-1]
    inst = build_divisor(random_instance(d, alpha, beta, seed=d, field=fld))
    v = d // 2
    for t in (1, v - 1, v):
        full = syzygy_kernel(inst.f, t).vectors
        grad = gradient_kernel(inst.f, t).vectors
        assert (len(grad) > 0) == (t >= v - 1)
        assert full[:len(grad)] == grad
        assert all(s.e.is_zero() for s in grad)
        assert not any(s.e.is_zero() for s in full[len(grad):])
        assert all(gradient_pairing(inst.f, s.as_polys()).is_zero() for s in grad)


# ----- reduced syzygy kernels against the whole elimination ----------------------


def full_elimination_kernel(gens, t, with_f=True):
    """The kernel as the whole [Fx | Fy | Fz (| F)] Macaulay matrix
    eliminates it, sorted as `syzygy_kernel` sorts: the reference the reduced
    kernels must reproduce vector for vector."""
    f = gens[3]
    fld = f.field
    blocks = [(t, (g,)) for g in gens[:3]] + ([(t - 1, (f,))] if with_f else [])
    nrows, cols = shifted_columns(blocks, (t + f.degree() - 1,))
    relations = eliminate(nrows, cols, fld, kernel=True)[1]
    vectors = [SyzygyVector(*p) for p in column_polys(relations, (t, t, t, t - 1), fld)]
    vectors.sort(key=lambda s: (len(s.e.terms),
                                [grlex_key(m) for m in sorted(s.e.terms, key=grlex_key, reverse=True)]))
    return tuple(vectors)


@pytest.mark.parametrize("fld", [QQ, F1009])
@pytest.mark.parametrize("d", [6, 7, 8, 9, 10])
def test_reduced_kernels_match_full_elimination_on_the_family(d, fld):
    # Fz is a single term: its rows are covered, and Euler gives the F block
    pairs = legal_pairs(d)
    for alpha, beta in (pairs[0], pairs[-1]):
        inst = build_divisor(random_instance(d, alpha, beta, seed=d + beta, field=fld))
        v = d // 2
        for t in (1, v - 1, v, v + 3):
            assert syzygy_kernel(inst.f, t).vectors == \
                full_elimination_kernel(jacobian_generators(inst.f), t)
            assert gradient_kernel(inst.f, t).vectors == \
                full_elimination_kernel(jacobian_generators(inst.f), t, with_f=False)


@pytest.mark.parametrize("text,fld", [
    # p | d: the F block is eliminated with the partials, Fz = y^4 covered
    ("x^2*y^3 + x*y^4 + y^5 + y^4*z", PrimeField(5)),
    # every partial is a single term: the first, Fx, is covered
    ("x^5 + y^5 + z^5", QQ),
    # no partial is a single term: nothing is covered
    ("x^5 + y^5 + z^5 + x^2*y^2*z", QQ),
    ("x^5 + y^5 + z^5 + x^2*y^2*z", F1009),
    # Fz = 0: its block holds only free columns
    ("x^5 + y^5", QQ),
    ("x^5 + y^5", F1009),
])
def test_reduced_kernels_match_full_elimination_on_controls(text, fld):
    gens = jacobian_generators(parse(text, fld))
    for t in range(6):
        for with_f in (True, False):
            assert _syzygy_kernel_raw(gens, t, with_f).vectors == \
                full_elimination_kernel(gens, t, with_f)


# ----- resolution shape / multiplicity ------------------------------------------


def test_predicted_series_values():
    assert [predicted_quotient_hilbert(5, t) for t in range(5)] == [1, 3, 6, 10, 12]
    assert expected_multiplicity(5) == 12
    assert expected_multiplicity(6) == 19
    assert expected_multiplicity(7) == 27
    assert expected_multiplicity(9) == 48
    assert expected_multiplicity(10) == 61


@pytest.mark.parametrize("d,fld", [(5, QQ), (6, F1009), (7, F1009), (8, F1009)])
def test_resolution_check_family(d, fld):
    inst = build_divisor(random_instance(d, 0, 0, seed=9, field=fld))
    rep = resolution_check(inst.f)
    assert rep.passed
    assert rep.first_mismatch is None
    assert rep.multiplicity == expected_multiplicity(d)


def test_resolution_check_control_fails():
    rep = resolution_check(parse("x^5 + y^5 + z^5"), 9)
    assert not rep.passed
    assert rep.first_mismatch is not None


def test_resolution_json_shape():
    rep = resolution_check(worked_instance().f)
    data = rep.to_json()
    assert list(data) == ["pass", "d", "t_max", "computed", "predicted",
                          "first_mismatch", "multiplicity", "expected_multiplicity"]


# ----- point support -------------------------------------------------------------


def test_point_support_worked_instance():
    res = point_support_check(worked_instance().f)
    assert res.certified and res.n <= 8
    assert res.to_json() == {"certified": True, "n": res.n, "bound": 8}


def test_point_support_minimal_n_is_genuine():
    inst = worked_instance()
    res = point_support_check(inst.f)
    gens = jacobian_generators(inst.f)
    fld = inst.f.field
    n = res.n
    assert all(monomial_membership(gens, [Poly.monomial(fld, (n, 0, 0)),
                                          Poly.monomial(fld, (0, n, 0))], n))
    below = monomial_membership(gens, [Poly.monomial(fld, (n - 1, 0, 0)),
                                       Poly.monomial(fld, (0, n - 1, 0))], n - 1)
    assert not all(below)


def test_point_support_normal_crossings_control():
    res = point_support_check(parse("x*y*z"), 8)
    assert not res.certified
    assert res.n is None


def test_membership_is_exact_for_every_candidate():
    # x^4 is not in J(F)_4; a repeated candidate must not be tested against
    # the first copy
    f = parse("x^5 + x^2*y^3 + x*y^4 + y^5 + y^4*z")
    x4 = Poly.monomial(QQ, (4, 0, 0))
    assert monomial_membership(jacobian_generators(f), [x4, x4], 4) == [False, False]
    assert echelon_answers(jacobian_generators(f), 4, (x4, x4)) == \
        dense_echelon(jacobian_generators(f), 4, (x4, x4), QQ)


def test_membership_of_zero_is_trivial():
    inst = worked_instance()
    gens = jacobian_generators(inst.f)
    assert monomial_membership(gens, [Poly.zero(QQ)], 6) == [True]


# ----- freeness probe -------------------------------------------------------------


def test_probe_family_instance():
    rep = freeness_probe(worked_instance().f, 9)
    assert rep.success
    assert rep.assembly["degrees"] == [1, 2, 2]
    assert rep.min_degree == 2


def test_probe_even_degree_split_degrees():
    inst = build_divisor(random_instance(6, 0, 0, seed=2, field=F1009))
    rep = freeness_probe(inst.f, 6)
    assert rep.success
    assert rep.assembly["degrees"] == [1, 2, 3]
    assert rep.min_degree == 2


def test_probe_fermat_quintic_exhausts():
    rep = freeness_probe(parse("x^5 + y^5 + z^5"), 9)
    assert not rep.success
    # the first syzygies are the Koszul relations of the partials, at degree 4
    assert rep.min_degree == 4


# ----- direct assembly against the dense Macaulay matrix --------------------------


def dense(nrows, columns, fld):
    out = [[fld.zero] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, e in col.items():
            out[i][j] = e
    return out


def assembly_cases():
    for d, fld in ((7, QQ), (8, F1009), (9, PrimeField(32003))):
        inst = build_divisor(random_instance(d, 0, 1, seed=4, field=fld))
        gens = jacobian_generators(inst.f)
        for t in range(0, 3 * (d // 2) + 4, 3):
            yield gens, t, None
            # the ladder's layout: x^t and y^t appended as degree-t generators
            yield gens + (Poly.monomial(fld, (t, 0, 0)), Poly.monomial(fld, (0, t, 0))), t, None
        yield gens, 9 + d - 1, (d - 1,) * 3 + (d,)  # the syzygy kernel's matrix at t = 9
    zfree = jacobian_generators(parse("x^5 + y^5"))  # Fz = 0
    for t in (3, 4, 6, 9):
        yield zfree, t, None                # the zero partial is left out
        yield zfree, t, (4, 4, 4, 5)        # the zero partial keeps its block


def test_direct_assembly_matches_macaulay_matrix():
    for gens, t, degrees in assembly_cases():
        mat = macaulay_matrix(gens, t, degrees)
        degrees = degrees or [g.degree() for g in gens]
        columns = shifted_columns([(t - dg, (g,)) for g, dg in zip(gens, degrees) if 0 <= dg <= t],
                                  (t,))[1]
        assert len(columns) == len(mat.columns)
        assert sum(map(len, columns)) == sum(1 for r in mat.entries for e in r if e)
        assert dense(len(mat.rows), columns, gens[0].field) == mat.entries


def shifted_products(pairs, degrees, zfree=False):
    """Dense columns m*g by Poly products, in the order `shifted_columns` uses:
    for each (n, g) and each shift m of degree n (z-free with ``zfree``), the
    coefficients of m*g[k] at the monomials of degree degrees[k], block by
    block, each block's rows scaled by the lcm of its forms' denominators."""
    scales = [lcm(*[g[k].den for _, g in pairs]) for k in range(len(degrees))]
    cols = []
    for n, g in pairs:
        for m in monomials(n, 2 if zfree else 3):
            cols.append([(p * Poly.monomial(p.field, m)).coeff_of(r) * s
                         for p, u, s in zip(g, degrees, scales) for r in monomials(u, 3)])
    return [list(row) for row in zip(*cols)]


def test_syzygy_entries_match_shifted_products():
    for fld in (QQ, F1009):
        inst = build_divisor(random_instance(8, 0, 1, seed=5, field=fld))
        vectors = [(tg, v) for tg in (1, 2, 3) for v in syzygy_kernel(inst.f, tg).vectors]
        vectors.append(vectors[0])  # a repeated vector: its shifts come again
        for t in (3, 4, 6):
            nrows, columns = syzygy_columns(vectors, t)
            assert nrows == 3 * space_dim(t) + space_dim(t - 1)
            pairs = [(t - tg, g.as_polys()) for tg, g in vectors]
            assert all(type(e) is int for col in columns for e in col.values())
            assert dense(nrows, columns, fld) == shifted_products(pairs, (t, t, t, t - 1))
        # z-free shifts: the two-block column system (bivariate, with its
        # right-hand side and a zero entry) and the beta=0 route's tail z*Fz
        params = random_instance(9, 1, 0, seed=5, field=fld)
        system = build_column_system(params)
        inst = build_divisor(params)
        v = params.v
        for pairs, degrees in (
                ([(v, col) for col in zip(*system.rows)] + [(0, system.rhs)], system.target_degrees),
                ([(v - 1, (Poly.variable(fld, "z") * inst.f.partial("z"),)), (v, (inst.f.partial("x"),))], (v + 8,))):
            nrows, columns = shifted_columns(pairs, degrees, zfree=True)
            assert nrows == sum(map(space_dim, degrees))
            assert dense(nrows, columns, fld) == shifted_products(pairs, degrees, zfree=True)


# ----- the Jacobian ladder against per-degree dense eliminations ------------------


def ladder_reference(f, t_max: int, n_max: int, generic: bool):
    """hf(t) for t <= t_max from the rank of each dense Macaulay matrix, and
    the first N in [d-1, n_max] with x^N and y^N in J(F), scanning degree by
    degree: b lies in the column span of A exactly when rank [A | b] = rank A."""
    fld = f.field
    gens = jacobian_generators(f)
    ranks = [dense_rank(gens, t, fld, generic) for t in range(t_max + 1)]
    hf = [space_dim(t) - r for t, r in enumerate(ranks)]
    for n in range(f.degree() - 1, n_max + 1):
        if all(dense_rank(gens + (Poly.monomial(fld, m),), n, fld, generic) == ranks[n]
               for m in ((n, 0, 0), (0, n, 0))):
            return hf, n
    return hf, None


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
@pytest.mark.parametrize("d", range(5, 13))
def test_ladder_matches_dense_reference(d, fld):
    pairs = legal_pairs(d)
    alpha, beta = pairs[d % len(pairs)]
    f = build_divisor(random_instance(d, alpha, beta, seed=d, field=fld)).f
    t_max, n_max = 3 * (d // 2) + 3, 3 * (d // 2) + 2
    # Fraction RREF is too slow past d = 7; there the sparse rational engine
    # (itself checked against it in test_linalg) eliminates the dense matrices
    hf, n = ladder_reference(f, t_max, n_max, generic=fld is not QQ or d <= 7)
    ladder = JacobianLadder(f)
    assert [ladder.hf(t) for t in range(t_max + 1)] == hf
    assert n is not None
    assert point_support_check(f, n_max, ladder).n == n
    assert [ladder.powers_in(t) for t in range(d - 1, n_max + 1)] == \
        [t >= n for t in range(d - 1, n_max + 1)]


def test_ladder_on_controls():
    # the Fermat quintic's J = (x^4, y^4, z^4) is Artinian: hf ends in zeros
    ladder = JacobianLadder(parse("x^5 + y^5 + z^5"))
    assert [ladder.hf(t) for t in range(10)] == [1, 3, 6, 10, 12, 12, 10, 6, 3, 1]
    assert point_support_check(parse("x^5 + y^5 + z^5"), 8, ladder).n == 4
    # x*y*z is singular on three lines: no power of x lies in J = (yz, xz, xy)
    assert not any(JacobianLadder(parse("x*y*z")).powers_in(t) for t in range(2, 9))


# ----- the reduced elimination against dense ranks --------------------------------


def echelon_answers(gens, t, candidates):
    """`IdealLadder.rank` and `monomial_membership`'s answers, shaped as
    `dense_echelon` returns them."""
    return ladder_rank(gens, t), monomial_membership(gens, list(candidates), t)


def echelon_cases():
    """(F, t_max) per case: which partials are single-term varies."""
    for fld in (QQ, F1009):
        for d in (5, 8):
            alpha, beta = legal_pairs(d)[-1]
            f = build_divisor(random_instance(d, alpha, beta, seed=3, field=fld)).f
            assert len(f.partial("z").terms) == 1  # Fz = x^beta y^(d-beta-1)
            yield pytest.param(f, 3 * (d // 2) + 3, id=f"family-d{d}-{fld.char or 'q'}")
    # Fz = y^4 + 3xyz^2 + 5z^4: no partial is a single term, nothing is covered
    yield pytest.param(parse("x^5 + x^2*y^3 + x*y^4 + y^5 + y^4*z + x*y*z^3 + z^5"), 9,
                       id="no-single-term")
    # (x^4, y^4, z^4): every partial is single-term and their covered rows overlap
    yield pytest.param(parse("x^5 + y^5 + z^5"), 10, id="fermat")
    yield pytest.param(parse("x^5 + y^5"), 9, id="z-free")  # Fz = 0
    # p | d: Fx = yz^3, Fy = xz^3, Fz = 3xyz^2, and Euler says nothing about F
    yield pytest.param(parse("x^5 + y^5 + x*y*z^3", PrimeField(5)), 9, id="p-divides-d")


@pytest.mark.parametrize("f,t_max", echelon_cases())
def test_echelon_matches_dense_reference(f, t_max):
    fld = f.field
    gens = jacobian_generators(f)
    for t in range(t_max + 1):
        cands = (Poly.monomial(fld, (t, 0, 0)), Poly.monomial(fld, (0, t, 0)))
        for sub in (gens, gens[:3]):
            assert echelon_answers(sub, t, cands) == dense_echelon(sub, t, cands, fld), \
                (t, len(sub))
    ladder = JacobianLadder(f)
    hf, n = ladder_reference(f, t_max, t_max, generic=fld is not QQ)
    assert [ladder.hf(t) for t in range(t_max + 1)] == hf
    assert point_support_check(f, t_max, ladder).n == n


def test_ladder_keeps_f_when_p_divides_d():
    # over fp:5 the partials of this quintic do not span F in degree 5
    f = parse("x^5 + y^5 + x*y*z^3", PrimeField(5))
    partials = jacobian_generators(f)[:3]
    assert space_dim(5) - dense_rank(partials, 5, f.field, generic=True) == 14
    assert JacobianLadder(f).hf(5) == 13


def test_echelon_candidates_in_covered_rows():
    # x^2 covers the rows x^2 (t = 2) and x^3, x^2 y, x^2 z (t = 3)
    gens = (parse("x^2"), parse("y^2 + z^2"))
    members = {"x^2": True, "x^2 + y^2 + z^2": True, "y^2 + z^2 - 3*x^2": True,
               "x^2 + x*y": False, "x*y": False, "0": True}
    for text, member in members.items():
        cand = (parse(text),)
        assert echelon_answers(gens, 2, cand) == dense_echelon(gens, 2, cand, QQ) == \
            (2, [member])
    cands = (parse("x^2*y + y^3 + y*z^2"), parse("x^2*z"), parse("x*y*z"))
    assert echelon_answers(gens, 3, cands) == dense_echelon(gens, 3, cands, QQ) == \
        (6, [True, True, False])


def test_verify_eliminates_each_degree_once(monkeypatch, capsys):
    # one ladder climbs each degree 0..bound once: the oracle route's
    # kernels read it, and no Macaulay matrix is eliminated whole, so every
    # kernel elimination is a closed-form route's `solve_affine`
    from saito_forge import column_system, linalg, poly, saito
    from saito_forge.cli import main

    climbed, kernels, solves = [], [], []
    real_advance = oracle.IdealLadder.advance
    real_eliminate, real_solve = linalg.eliminate, linalg.solve_affine

    def advance(ladder, track=False):
        real_advance(ladder, track)
        climbed.append(ladder.degree)

    def eliminate(nrows, columns, field, kernel=False):
        if kernel:
            kernels.append(nrows)
        return real_eliminate(nrows, columns, field, kernel)

    def solve_affine(nrows, columns, rhs, field):
        solves.append(nrows)
        return real_solve(nrows, columns, rhs, field)

    monkeypatch.setattr(oracle.IdealLadder, "advance", advance)
    for mod in (linalg, column_system, poly, saito, oracle):
        for name, stand_in in (("eliminate", eliminate), ("solve_affine", solve_affine)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, stand_in)
    for d, alpha, beta in ((9, 1, 0), (10, 1, 1)):
        climbed.clear()
        kernels.clear()
        solves.clear()
        assert main(["verify", "--d", str(d), "--alpha", str(alpha), "--beta", str(beta),
                     "--seed", "2", "--field", "fp:1009"]) == 0
        v = d // 2
        assert climbed == list(range(3 * v + 4))
        assert kernels == solves
        assert bool(solves) == (d % 2 == 1)  # the beta = 0 route solves; the oracle does not
