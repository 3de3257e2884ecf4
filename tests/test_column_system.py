import json
import re

import pytest

from saito_forge import column_system
from saito_forge.cli import main
from saito_forge.column_system import RouteFailure, build_column_system, solve_column_system
from saito_forge.family import FamilyParams, legal_pairs, random_instance
from saito_forge.field import PrimeField, QQ
from saito_forge.poly import Poly, monomials, parse
from reference import (cokernel_series_coefficient, column_cokernel_hilbert,
                       column_solve_mismatches, column_syzygy_generator,
                       paper_constant_mismatches, rref)

F1009 = PrimeField(1009)


def worked_params(fld=QQ):
    return FamilyParams(5, 0, 0, parse("1", fld, 2), parse("x^2 + x*y + y^2", fld, 2))


def triple_is_multiple(t1, t2, fld):
    """t1 = c * t2 for a nonzero scalar c (as coefficient vectors)."""
    for p, q in zip(t1, t2):
        if p.is_zero() != q.is_zero():
            return False
    # cross-multiplication avoids picking the scalar explicitly
    for i in range(3):
        for j in range(3):
            if t1[i] * t2[j] != t1[j] * t2[i]:
                return False
    return any(not p.is_zero() for p in t1)


def residual(sys, triple):
    out = []
    for row, rhs in zip(sys.rows, sys.rhs):
        acc = Poly.zero(sys.params.field)
        for entry, h in zip(row, triple):
            acc = acc + entry * h
        out.append(acc - rhs)
    return out


def test_system_entries_worked_instance():
    # d=5, alpha=0: g1 = 0 and g2 = -5, so row 1 is (5, 0, 0)
    sys = build_column_system(worked_params())
    assert sys.rows[0][0] == parse("5", nvars=2)
    assert sys.rows[0][1].is_zero()
    assert sys.rows[0][2].is_zero()
    assert sys.rows[1][2] == parse("y^2", nvars=2)
    assert sys.rhs[0] == parse("y^2", nvars=2)
    assert sys.rhs[1] == parse("-x^4", nvars=2)


def test_row_degrees():
    params = random_instance(9, 1, 1, seed=8, field=F1009)
    sys = build_column_system(params)
    a, v = params.alpha, params.v
    assert all(e.is_zero() or e.degree() == a for e in sys.rows[0][:2])
    assert all(e.degree() == v - a for e in sys.rows[1])
    assert sys.target_degrees == (v + a, 2 * v - a)


def test_wrong_f2_degree_rejected():
    params = random_instance(6, 0, 0, seed=1, field=F1009)  # even d: deg F2 = v-a-1
    with pytest.raises(RouteFailure, match=re.escape("graded system needs deg F2 = v - alpha = 3, got 2")):
        build_column_system(params)


def test_solve_worked_instance():
    sys = build_column_system(worked_params())
    sol = solve_column_system(sys)
    # alpha=0 collapses row 1 to 5*h1 = y^2
    assert sol.h1 == parse("1/5*y^2", nvars=2)
    assert all(r.is_zero() for r in residual(sys, (sol.h1, sol.h3, sol.h5)))
    assert sol.dimension == 1


@pytest.mark.parametrize("d,a,b,fld", [
    (5, 0, 0, QQ), (7, 0, 1, QQ), (7, 1, 0, F1009), (9, 1, 1, F1009),
    (11, 2, 1, F1009), (11, 0, 3, F1009), (13, 3, 1, F1009),
])
def test_solve_random_instances(d, a, b, fld):
    params = random_instance(d, a, b, seed=21, field=fld)
    sys = build_column_system(params)
    sol = solve_column_system(sys)
    assert all(r.is_zero() for r in residual(sys, (sol.h1, sol.h3, sol.h5)))
    assert sol.dimension == 1
    assert all(h.is_zero() or h.degree() == params.v for h in (sol.h1, sol.h3, sol.h5))
    gen = column_syzygy_generator(params)
    assert triple_is_multiple(sol.kernel[0], gen, fld)


def dense_layout(sys):
    """The system as a dense matrix and right-hand side by coefficient lookup:
    one row per target monomial of each equation, one column per unknown
    coefficient (h1, h3, h5 in turn, each over the monomials of degree v)."""
    fld, unknowns = sys.params.field, monomials(sys.params.v, 2)
    mat, rhs = [], []
    for row, rhs_poly, deg in zip(sys.rows, sys.rhs, sys.target_degrees):
        for t in monomials(deg, 2):
            mat.append([entry.coeff_of((t[0] - u[0], t[1] - u[1], 0))
                        if t[0] >= u[0] and t[1] >= u[1] else fld.zero
                        for entry in row for u in unknowns])
            rhs.append(rhs_poly.coeff_of(t))
    return mat, rhs, unknowns


def rref_solve(mat, rhs, fld):
    """(pivots, particular, kernel) of A u = b from the generic RREF of
    [A | b]: free unknowns pinned to zero, one kernel vector per free column."""
    nc = len(mat[0])
    reduced = [row + [b] for row, b in zip(mat, rhs)]
    pivots = rref(reduced, fld)
    particular = [fld.zero] * nc
    for i, pc in enumerate(pivots):
        particular[pc] = reduced[i][nc]
    kernel = []
    for j in (j for j in range(nc) if j not in pivots):
        vec = [fld.zero] * nc
        vec[j] = fld.one
        for i, pc in enumerate(pivots):
            vec[pc] = fld.neg(reduced[i][j])
        kernel.append(vec)
    return pivots, particular, kernel


def as_triple(vec, unknowns, fld):
    n = len(unknowns)
    return tuple(Poly(fld, dict(zip(unknowns, vec[k * n:(k + 1) * n]))) for k in range(3))


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
def test_solve_matches_rref_of_dense_layout(fld):
    # every legal (alpha, beta) of the odd degrees 7..13 (even d has no system)
    for d in range(7, 14, 2):
        for a, b in legal_pairs(d):
            sys = build_column_system(random_instance(d, a, b, seed=2, field=fld))
            mat, rhs, unknowns = dense_layout(sys)
            pivots, particular, kernel = rref_solve(mat, rhs, fld)
            assert pivots[-1] != len(unknowns) * 3  # b is in the column span
            sol = solve_column_system(sys)
            assert (sol.h1, sol.h3, sol.h5) == as_triple(particular, unknowns, fld)
            assert sol.kernel == tuple(as_triple(k, unknowns, fld) for k in kernel)


def test_solve_matches_whole_system_solve():
    # the Bezout steps against one solve on all 3(v+1) unknowns: every legal
    # pair of the odd degrees 5..31, over both fields, two seeds each
    assert column_solve_mismatches(range(5, 32, 2), (QQ, F1009)) == []


def test_read_scalars_and_kernel_match_the_papers():
    # the scalars read off the system's edges and the kernel's cross product
    # against the paper's formulas: every legal pair of the odd degrees 5..31,
    # over both fields, two seeds each
    assert paper_constant_mismatches(range(5, 32, 2), (QQ, F1009)) == []


def break_solve(monkeypatch, call: int, tamper):
    """Make the ``call``-th `solve_affine` of each column solve (0 for the
    Sylvester one, 1 for the residual one at alpha >= 1) answer
    ``tamper(particular, kernel)`` in place of its own answer; returns the
    list of calls, to be cleared before a solve that follows a failed one."""
    real, calls = column_system.solve_affine, []

    def solve_affine(nrows, columns, rhs, field):
        calls.append(nrows)
        answer = real(nrows, columns, rhs, field)
        return tamper(*answer) if (len(calls) - 1) % 2 == call else answer

    monkeypatch.setattr(column_system, "solve_affine", solve_affine)
    return calls


@pytest.mark.parametrize("call,tamper,premise", [
    (0, lambda part, kern: (part, [({0: 1}, 1)]), "Sylvester matrix of g2 and x*g1 is singular"),
    (1, lambda part, kern: (part, kern + kern), "residual kernel is not spanned"),
    (1, lambda part, kern: (part, []), "residual kernel is not spanned"),
], ids=["singular-sylvester", "residual-kernel-2", "residual-kernel-0"])
def test_failed_premise_raises_and_verify_exits_1(monkeypatch, capsys, call, tamper, premise):
    params = random_instance(9, 1, 1, seed=3, field=F1009)
    sys = build_column_system(params)
    calls = break_solve(monkeypatch, call, tamper)
    with pytest.raises(RouteFailure, match=re.escape(premise)):
        solve_column_system(sys)
    calls.clear()
    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    code = main(["verify", "--d", "9", "--alpha", "1", "--beta", "1", "--seed", "3",
                 "--field", "fp:1009"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1 and data["pass"] is False
    assert data["saito"]["pass"] is False and premise in data["saito"]["error"]


@pytest.mark.parametrize("d,a,b", [(5, 0, 0), (7, 0, 1), (9, 2, 0), (9, 1, 1)])
def test_generator_is_a_syzygy(d, a, b):
    params = random_instance(d, a, b, seed=4, field=F1009)
    gen = column_syzygy_generator(params)
    sys = build_column_system(params)
    for row in sys.rows:
        acc = Poly.zero(F1009)
        for entry, g in zip(row, gen):
            acc = acc + entry * g
        assert acc.is_zero()
    v = params.v
    assert all(g.is_zero() or g.degree() == v for g in gen)


def test_generator_worked_instance_components():
    # d=5: g1 = 0 so the first component vanishes, second is -5*y^2
    gen = column_syzygy_generator(worked_params())
    assert gen[0].is_zero()
    assert gen[1] == parse("-5*y^2", nvars=2)


def test_hilbert_sequence_d5():
    params = worked_params()
    values = [column_cokernel_hilbert(params, i) for i in range(5)]
    assert values == [1, 2, 1, 0, 0]


@pytest.mark.parametrize("d,a,b,fld", [
    (5, 0, 0, QQ), (7, 1, 0, F1009), (9, 1, 1, F1009), (11, 2, 1, F1009),
])
def test_hilbert_matches_series(d, a, b, fld):
    params = random_instance(d, a, b, seed=17, field=fld)
    v = params.v
    for i in range(2 * v + 4):
        assert column_cokernel_hilbert(params, i) == cokernel_series_coefficient(params, i)
    for i in range(2 * v - 1, 2 * v + 4):
        assert column_cokernel_hilbert(params, i) == 0


def test_series_closed_form_matches_product_expansion():
    # z^a (1 + ... + z^(v-a-1))^2 + z^(v-a) (1 + ... + z^(a-1)) (1 + ... + z^(v-1))
    for d, a in [(5, 0), (7, 1), (9, 2), (11, 3), (13, 2)]:
        v = d // 2
        params = FamilyParams(d, a, 0, Poly.zero(QQ), Poly.zero(QQ))
        poly = [0] * (3 * v + 2)
        for i in range(v - a):
            for j in range(v - a):
                poly[a + i + j] += 1
        for i in range(a):
            for j in range(v):
                poly[v - a + i + j] += 1
        for idx, c in enumerate(poly):
            assert cokernel_series_coefficient(params, idx) == c
        # degree of the polynomial is 2v - 2
        assert poly[2 * v - 2] != 0
        assert all(c == 0 for c in poly[2 * v - 1:])
