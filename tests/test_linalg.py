import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from saito_forge.family import build_divisor, random_instance
from saito_forge.field import PrimeField, QQ
from saito_forge.linalg import (Echelon, _dense_columns, eliminate, kernel_basis, pivot_columns,
                                solve_affine)
from saito_forge.oracle import jacobian_generators, macaulay_matrix
from reference import rref

F1009 = PrimeField(1009)


def rand_matrix(fld, rng, nr, nc, density=0.5):
    return [[fld.random(rng) if rng.random() < density else fld.zero
             for _ in range(nc)] for _ in range(nr)]


def _dot(row, vec, fld):
    acc = fld.zero
    for a, b in zip(row, vec):
        acc = fld.add(acc, fld.mul(a, b))
    return acc


def mat_vec(rows, vec, fld):
    return [_dot(r, vec, fld) for r in rows]


def densify(vec, ncols, fld=QQ):
    """A vector ``(values, den)`` as `linalg` returns it, as a dense list of
    field scalars."""
    values, den = vec
    return [fld.div(values.get(k, 0), den) for k in range(ncols)]


def integer_over_one_denominator(vectors, fld=QQ) -> bool:
    """Each vector is ``(values, den)``: int values in column order over one
    den > 0, in lowest terms over the rationals and den 1 over a prime field."""
    return all(type(den) is int and den > 0 and list(values) == sorted(values)
               and all(type(x) is int and x for x in values.values())
               and (gcd(den, *values.values()) == 1 if fld is QQ
                    else den == 1 and all(0 < x < fld.p for x in values.values()))
               for values, den in vectors)


def solve_dense(rows, ncols, rhs, fld):
    """`solve_affine` on the sparse columns of a dense system A u = b,
    integral over the rationals: each row of [A | b] scaled by the lcm of
    its denominators, which keeps the solutions."""
    *cols, b = _dense_columns([r + [x] for r, x in zip(rows, rhs)], ncols + 1, fld)
    return solve_affine(len(rows), cols, b, fld)


def test_rref_known_rank():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
    pivots = rref(rows, QQ)
    assert pivots == [0, 1]


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_rank_paths_agree_with_rref(fld):
    rng = random.Random(12)
    for _ in range(50):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = rand_matrix(fld, rng, nr, nc)
        generic = len(rref([list(r) for r in rows], fld))
        assert len(pivot_columns(rows, fld)) == generic


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_kernel_vectors_annihilate(fld):
    rng = random.Random(34)
    for _ in range(50):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = rand_matrix(fld, rng, nr, nc)
        basis = kernel_basis(rows, nc, fld)
        assert len(basis) == nc - len(pivot_columns(rows, fld))
        for vec in basis:
            assert all(fld.is_zero(s) for s in mat_vec(rows, vec, fld))


def test_rank_with_fraction_entries():
    # second row is 3x the first: rank 1 despite messy denominators
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert len(pivot_columns(rows, QQ)) == 1
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert len(pivot_columns(rows, QQ)) == 2


@pytest.mark.parametrize("fld", [QQ, F1009])
def test_solve_affine(fld):
    rng = random.Random(56)
    for _ in range(50):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = rand_matrix(fld, rng, nr, nc)
        x = [fld.random(rng) for _ in range(nc)]
        b = mat_vec(rows, x, fld)
        sol, kern = solve_dense(rows, nc, b, fld)
        assert sol is not None
        assert mat_vec(rows, densify(sol, nc, fld), fld) == b
        for k in kern:
            assert all(fld.is_zero(s) for s in mat_vec(rows, densify(k, nc, fld), fld))


def test_solve_affine_inconsistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    sol, _ = solve_dense(rows, 2, [Fraction(1), Fraction(2)], QQ)
    assert sol is None


def test_determinism():
    rng = random.Random(78)
    rows = rand_matrix(F1009, rng, 20, 25)
    b1 = kernel_basis(rows, 25, F1009)
    b2 = kernel_basis([list(r) for r in rows], 25, F1009)
    assert b1 == b2


# ----- the rational engine against the generic Fraction RREF ---------------


def sparse_rational_matrix(rng, nr, nc):
    """Sparse Fraction matrix with zero, duplicated and scaled columns."""
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.15
             else Fraction(0) for _ in range(nc)] for _ in range(nr)]
    for _ in range(rng.randint(0, nc // 3)):
        src, dst = rng.randrange(nc), rng.randrange(nc)
        kind = rng.choice(("zero", "copy", "scale", "combine"))
        other = rng.randrange(nc)
        scale = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        for r in rows:
            if kind == "zero":
                r[dst] = Fraction(0)
            elif kind == "copy":
                r[dst] = r[src]
            elif kind == "scale":
                r[dst] = scale * r[src]
            else:
                r[dst] = r[src] + scale * r[other]
    return rows


def rref_reference(rows, fld=QQ):
    """(pivots, reduced rows) of the generic RREF."""
    reduced = [list(r) for r in rows]
    return rref(reduced, fld), reduced


def rref_kernel(rows, ncols, fld=QQ):
    """One vector per RREF-free column j: 1 at j, minus column j of the RREF
    at the pivot columns."""
    pivots, reduced = rref_reference(rows, fld)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [fld.zero] * ncols
        vec[j] = fld.one
        for i, pc in enumerate(pivots):
            vec[pc] = fld.neg(reduced[i][j])
        basis.append(vec)
    return basis


def all_fractions(vectors):
    return all(type(x) is Fraction for vec in vectors for x in vec)


RATIONAL_SHAPES = [(0, 5), (1, 1), (3, 7), (7, 3), (12, 12), (20, 30), (30, 20), (30, 30)]


@pytest.mark.parametrize("nr,nc", RATIONAL_SHAPES)
def test_rational_pivots_match_rref(nr, nc):
    rng = random.Random(1000 * nr + nc)
    for _ in range(15):
        rows = sparse_rational_matrix(rng, nr, nc)
        assert pivot_columns(rows, QQ) == rref_reference(rows)[0]


@pytest.mark.parametrize("nr,nc", RATIONAL_SHAPES)
def test_rational_kernel_matches_rref(nr, nc):
    rng = random.Random(2000 * nr + nc)
    for _ in range(15):
        rows = sparse_rational_matrix(rng, nr, nc)
        basis = kernel_basis(rows, nc, QQ)
        assert basis == rref_kernel(rows, nc)
        assert all_fractions(basis)


@pytest.mark.parametrize("nr,nc", [(1, 1), (4, 6), (9, 5), (15, 15), (30, 25)])
def test_rational_solve_affine_matches_rref(nr, nc):
    rng = random.Random(3000 * nr + nc)
    outcomes = set()
    for k in range(20):
        rows = sparse_rational_matrix(rng, nr, nc)
        if k % 2:   # consistent by construction
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            rhs = mat_vec(rows, x, QQ)
        else:       # usually inconsistent when A is rank deficient
            rhs = [Fraction(rng.randint(-4, 4)) for _ in range(nr)]
        particular, kern = solve_dense(rows, nc, rhs, QQ)
        pivots, reduced = rref_reference([r + [b] for r, b in zip(rows, rhs)])
        assert [densify(k, nc) for k in kern] == rref_kernel(rows, nc)
        assert integer_over_one_denominator(kern)
        if pivots and pivots[-1] == nc:
            assert particular is None
            outcomes.add("inconsistent")
            continue
        expected = [Fraction(0)] * nc
        for i, pc in enumerate(pivots):
            expected[pc] = reduced[i][nc]
        assert densify(particular, nc) == expected
        assert integer_over_one_denominator([particular])
        assert mat_vec(rows, densify(particular, nc), QQ) == rhs
        outcomes.add("consistent")
    assert "consistent" in outcomes
    if nr > nc:
        assert "inconsistent" in outcomes


def test_rational_engine_without_rows():
    assert pivot_columns([], QQ) == []
    basis = kernel_basis([], 3, QQ)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert all_fractions(basis)
    assert solve_affine(0, [], {}, QQ) == (({}, 1), [])


def test_rational_engine_on_jacobian_macaulay_matrix():
    inst = build_divisor(random_instance(9, 1, 1, 3, QQ))
    for t in (8, 12):
        entries = macaulay_matrix(jacobian_generators(inst.f), t).entries
        assert pivot_columns(entries, QQ) == rref_reference(entries)[0]


# ----- the mod-p engine against the generic RREF ---------------------------


def structured_modp_matrices(fld, rng):
    """Random matrices mod p: full, rank-deficient (a product through a
    narrow middle), tall, wide, and with zero rows or zero columns."""
    def product(nr, k, nc):
        a, b = rand_matrix(fld, rng, nr, k, 1.0), rand_matrix(fld, rng, k, nc, 1.0)
        return [[_dot(row, [b[i][j] for i in range(k)], fld) for j in range(nc)] for row in a]

    for _ in range(6):
        yield rand_matrix(fld, rng, 7, 7, 0.7)              # square
        yield product(8, 3, 9)                              # rank 3
        yield product(6, 1, 6)                              # rank 1
        yield rand_matrix(fld, rng, 15, 4)                  # tall
        yield rand_matrix(fld, rng, 4, 15)                  # wide
        rows = rand_matrix(fld, rng, 8, 8, 0.6)
        for i in rng.sample(range(8), 3):
            rows[i] = [fld.zero] * 8                        # zero rows
        yield rows
        rows = product(7, 4, 10)
        for j in rng.sample(range(10), 4):
            for r in rows:
                r[j] = fld.zero                             # zero columns
        yield rows
    yield [[fld.zero] * 5 for _ in range(4)]                # all zero


def sparse_columns(rows, ncols):
    return [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]


@pytest.mark.parametrize("p", [1009, 2**31 - 1, 2**61 - 1])
def test_modp_echelon_matches_rref(p):
    fld = PrimeField(p)
    for rows in structured_modp_matrices(fld, random.Random(p % 1000)):
        nc = len(rows[0])
        pivots = rref_reference(rows, fld)[0]
        columns = sparse_columns(rows, nc)
        assert eliminate(len(rows), columns, fld) == (pivots, None)
        got, relations = eliminate(len(rows), columns, fld, kernel=True)
        assert got == pivots
        free = [j for j in range(nc) if j not in pivots]
        # each relation is sparse, in column order, and 1 at its own column
        assert integer_over_one_denominator(relations, fld)
        for j, (rel, _) in zip(free, relations, strict=True):
            assert rel[j] == 1
        assert [densify(rel, nc, fld) for rel in relations] == rref_kernel(rows, nc, fld)
        assert pivot_columns(rows, fld) == pivots


def integral(column: dict, fld) -> dict:
    """A sparse column the way an `Echelon` takes it: over the rationals
    scaled to integers, which keeps its span."""
    if fld is not QQ:
        return column
    den = lcm(*[x.denominator for x in column.values()])
    return {i: int(x * den) for i, x in column.items()}


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
def test_probe_columns_never_join_the_basis(fld):
    rng = random.Random(91)
    outcomes = set()
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 5)
        rows = rand_matrix(fld, rng, nr, nc, 0.6)
        # probes: random, a copy of the first (a member only if the first is),
        # a column of the matrix, and zero
        probes = [[r[0] for r in rand_matrix(fld, rng, nr, 1, 0.6)]]
        probes += [probes[0], [r[rng.randrange(nc)] for r in rows], [fld.zero] * nr]
        echelon = Echelon(fld, nr)
        pivots = [j for j, v in enumerate(sparse_columns(rows, nc))
                  if echelon.add(integral(v, fld))[0] is not None]
        assert pivots == pivot_columns(rows, fld)
        basis = dict(echelon.basis)
        for i, probe in enumerate(probes):
            lead = echelon.reduce(integral({k: e for k, e in enumerate(probe) if e}, fld))[0]
            member = len(pivot_columns([r + [e] for r, e in zip(rows, probe)], fld)) == len(pivots)
            assert (lead is None) == member
            assert echelon.basis == basis
            outcomes.add((i, member))
    assert (0, False) in outcomes and (1, False) in outcomes and (0, True) in outcomes


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
def test_echelon_resumes_as_rows_grow(fld):
    # columns supported on the first rows join before the rows below exist
    rng = random.Random(17)
    for _ in range(40):
        nr, nc = rng.randint(2, 8), rng.randint(1, 8)
        top = rng.randint(1, nr - 1)
        early = rng.randint(0, nc)
        rows = rand_matrix(fld, rng, nr, nc, 0.5)
        for r in rows[top:]:
            r[:early] = [fld.zero] * early
        echelon = Echelon(fld, top)
        pivots = []
        for j, v in enumerate(sparse_columns(rows, nc)):
            if j == early:
                echelon.grow(nr)
            if echelon.add(integral(v, fld))[0] is not None:
                pivots.append(j)
        assert pivots == pivot_columns(rows, fld)


@pytest.mark.parametrize("p", [1009, 2**31 - 1, 2**61 - 1])
def test_modp_kernel_and_solve_match_rref(p):
    fld = PrimeField(p)
    for rows in structured_modp_matrices(fld, random.Random(p % 997)):
        nc = len(rows[0])
        expected = rref_kernel(rows, nc, fld)
        assert kernel_basis(rows, nc, fld) == expected
        rhs = [r[0] for r in rows]  # consistent: the first column
        particular, kernel = solve_dense(rows, nc, rhs, fld)
        assert [densify(k, nc, fld) for k in kernel] == expected
        assert mat_vec(rows, densify(particular, nc, fld), fld) == rhs
