"""`oracle.JacobianLadder` against dense ranks of unreduced Macaulay
matrices, on random sparse forms of degree 3..7: hf(t) = dim S_t - rank M_t,
and x^t, y^t lie in J(F) exactly when appending each alone to M_t keeps the
rank.  Its powers, each carried up from the reduced power below, against
`IdealLadder.contains` on the raw columns of x^t and y^t at every degree.
And `oracle.IdealLadder`, whose z-free shifts start from their parents'
reduced vectors, against `reference.RawLadder`, which reduces each from its
own column, on random tuples of sparse generators."""

import pytest

from saito_forge.field import PrimeField, QQ
from saito_forge.oracle import IdealLadder, JacobianLadder, _eliminated_blocks, jacobian_generators
from saito_forge.poly import Poly, parse, space_dim
from reference import RawLadder, dense_echelon

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = {"q": QQ, "fp:1009": PrimeField(1009), "fp:5": PrimeField(5), "fp:7": PrimeField(7),
          "fp:32003": PrimeField(32003)}


def draw_form(draw, fld, d: int) -> Poly:
    """A nonzero form of degree d with one to five terms and small
    coefficients."""
    exponents = st.tuples(st.integers(0, d), st.integers(0, d)).filter(lambda m: sum(m) <= d)
    terms = {}
    for i, j in draw(st.lists(exponents, min_size=1, max_size=5, unique=True)):
        c = fld.from_int(draw(st.integers(-3, 3).filter(bool)))
        if not fld.is_zero(c):
            terms[(i, j, d - i - j)] = c
    hypothesis.assume(terms)
    return Poly(fld, terms)


@st.composite
def sparse_forms(draw):
    """A nonzero form of degree 3..7 with one to five terms and small
    coefficients, over the rationals or a small prime field."""
    fld = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    return draw_form(draw, fld, draw(st.integers(3, 7)))


@st.composite
def generator_tuples(draw):
    """Generators for an `IdealLadder`: the blocks `_eliminated_blocks`
    keeps of a sparse F's `jacobian_generators`, over fp:5 with d = 5 (p | d,
    so F's block is kept) or any field; or one to three sparse forms of
    degree 1..5 over one field, with or without a z-free single-term
    generator (the cover) and a single-term generator holding z, each put
    at a random place."""
    kind = draw(st.sampled_from(["p | d", "jacobian", "forms"]))
    if kind == "p | d":
        return _eliminated_blocks(jacobian_generators(draw_form(draw, FIELDS["fp:5"], 5)))
    if kind == "jacobian":
        return _eliminated_blocks(jacobian_generators(draw(sparse_forms())))
    fld = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    gens = [draw_form(draw, fld, draw(st.integers(1, 5)))
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        hypothesis.assume(i + j)
        gens.insert(draw(st.integers(0, len(gens))), Poly.monomial(fld, (i, j, 0), 2))
    if draw(st.booleans()):
        m = (draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 2)))
        gens.insert(draw(st.integers(0, len(gens))), Poly.monomial(fld, m, 3))
    return tuple(gens)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(sparse_forms())
def test_ladder_matches_dense_ranks_on_sparse_forms(f):
    fld, d = f.field, f.degree()
    gens = jacobian_generators(f)
    ladder = JacobianLadder(f)
    for t in range(d + 3):
        powers = (Poly.monomial(fld, (t, 0, 0)), Poly.monomial(fld, (0, t, 0)))
        rank, members = dense_echelon(gens, t, powers, fld)
        assert (ladder.hf(t), ladder.powers_in(t)) == (space_dim(t) - rank, all(members)), t


def raw_steps(f: Poly, top: int) -> list:
    """(hf(t), powers_in(t)) for t = 0..top, each power reduced from its own
    raw column by `IdealLadder.contains`, both tested at every degree."""
    fld, ladder, out = f.field, IdealLadder(_eliminated_blocks(jacobian_generators(f))), []
    for t in range(top + 1):
        ladder.advance()
        members = [ladder.contains(Poly.monomial(fld, m)) for m in ((t, 0, 0), (0, t, 0))]
        out.append((space_dim(t) - ladder.rank(), all(members)))
    return out


@st.composite
def forms_q_or_1009(draw):
    """A sparse form of degree 3..7 over the rationals or fp:1009, and a
    degree up to which its ladder is climbed tracked first (-1: none)."""
    fld = FIELDS[draw(st.sampled_from(["q", "fp:1009"]))]
    return draw_form(draw, fld, draw(st.integers(3, 7))), draw(st.integers(-1, 12))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(forms_q_or_1009())
@hypothesis.example((parse("x^5 + y^5 + z^5"), -1))
@hypothesis.example((parse("x^5 + y^5 + z^5", PrimeField(1009)), 6))
@hypothesis.example((parse("x*y*z"), -1))
@hypothesis.example((parse("x*y*z", PrimeField(1009)), 4))
def test_incremental_powers_match_raw_columns(case):
    f, tracked = case
    top = 3 * f.degree()
    ladder = JacobianLadder(f)
    if tracked >= 0:
        ladder.climb(tracked, track=True)
    steps = [ladder.climb(t) for t in range(top + 1)]
    assert steps == raw_steps(f, top)
    powers = [p for _, p in steps]
    assert powers == sorted(powers)  # monotone: once in J(F), always in


@pytest.mark.parametrize("fld", [QQ, PrimeField(1009)], ids=["q", "fp1009"])
def test_power_controls(fld):
    # smooth Fermat quintic: J(F) = (x^4, y^4, z^4); the coordinate triangle
    # x*y*z is singular at (1:0:0) and (0:1:0), so no power of x or y enters
    fermat, triangle = JacobianLadder(parse("x^5 + y^5 + z^5", fld)), JacobianLadder(parse("x*y*z", fld))
    assert [fermat.powers_in(t) for t in range(16)] == [False] * 4 + [True] * 12
    assert not any(triangle.powers_in(t) for t in range(10))


def expand(gens, t: int, rel: dict) -> Poly:
    """The sum of entry * x^a y^b z^c * gens[k] over the entries (k, a, b) of
    a relation found at degree t, c making each term of degree t."""
    fld = gens[0].field
    total = Poly.zero(fld)
    for (k, a, b), x in rel.items():
        c = t - gens[k].degree() - a - b
        assert min(a, b, c) >= 0, (k, a, b)
        total = total + Poly.monomial(fld, (a, b, c), x) * gens[k]
    return total


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(generator_tuples(), st.integers(0, 8))
def test_parent_started_ladder_matches_raw_columns(gens, untracked):
    # the top ``untracked`` degrees are climbed untracked, the rest tracked
    fld = gens[0].field
    ladder, ref = IdealLadder(gens), RawLadder(gens)
    top = 2 * max(g.degree() for g in gens) + 2
    tracked = top - untracked
    for t in range(top + 1):
        ladder.advance(t <= tracked)
        ref.advance(t <= tracked)
        assert set(ladder.echelon.basis) == set(ref.echelon.basis), t
        assert ladder.rank() == ref.rank(), t
        powers = [Poly.monomial(fld, m) for m in ((t, 0, 0), (0, t, 0))]
        assert ((space_dim(t) - ladder.rank(), [ladder.contains(p) for p in powers])
                == (space_dim(t) - ref.rank(), [ref.contains(p) for p in powers])), t
        found = [rel for s, rel in ladder.relations if s == t]
        assert ladder.tracked == ref.tracked
        assert len(found) == sum(s == t for s, _ in ref.relations), t
        for rel in found:
            assert rel and expand(gens, t, rel).is_zero(), (t, rel)
