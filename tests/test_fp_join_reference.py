"""`linalg.Echelon` over prime fields against `reference.AccumulatorEchelon`,
whose mod-p step sends every column through the heap and the dense
accumulator: a column already reduced (at a leading row no basis vector
has) joins the basis, or comes back from `reduce`, as it is, scaled to 1
there, and must give exactly what the accumulator builds.  Random sparse
columns with entries in 1..p-1, as every caller passes them, over fp:5,
fp:1009, fp:32003 and fp:(2^31 - 1): monic and non-monic fresh leads,
repeated columns, combinations of earlier columns and, in tracked runs,
relations."""

import pytest

from saito_forge.field import PrimeField
from saito_forge.linalg import Echelon
from reference import AccumulatorEchelon

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRIMES = [5, 1009, 32003, 2**31 - 1]


@st.composite
def join_runs(draw):
    """(p, nrows, ops): each op is ("add" or "reduce", column, relation),
    the relation None in an untracked run and in a tracked one a map with
    entries in 1..p-1, mostly {j: 1} as `linalg.eliminate` passes it."""
    p = draw(st.sampled_from(PRIMES))
    nrows = draw(st.integers(1, 10))
    track = draw(st.booleans())
    entry = st.sampled_from([1, p - 1]) | st.integers(1, p - 1)
    rows = st.lists(st.integers(0, nrows - 1), max_size=nrows, unique=True)
    columns, ops = [], []
    for j in range(draw(st.integers(1, 16))):
        kinds = ["monic", "any", "repeat", "combination"] if columns else ["monic", "any"]
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat":
            col = dict(draw(st.sampled_from(columns)))
        elif kind == "combination":  # a*u + c*w of two earlier columns
            u, w = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            a, c = draw(entry), draw(entry)
            col = {r: x for r in sorted(u.keys() | w.keys())
                   if (x := (a * u.get(r, 0) + c * w.get(r, 0)) % p)}
        else:
            col = {r: draw(entry) for r in draw(rows)}
            if kind == "monic" and col:
                col[min(col)] = 1
        columns.append(col)
        rel = None
        if track:
            rel = {j: 1} if draw(st.booleans()) else {j: draw(entry), -1 - j: draw(entry)}
        ops.append((draw(st.sampled_from(["add", "add", "reduce"])), col, rel))
    return p, nrows, ops


def run(echelon, op: str, col: dict, rel):
    """(lead, vector, relation) of one op, on copies of its column and relation."""
    rel = None if rel is None else dict(rel)
    if op == "reduce":
        return echelon.reduce(dict(col), rel)
    lead, rel = echelon.add(dict(col), rel)
    return lead, None if lead is None else echelon.basis[lead][0], rel


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(join_runs())
def test_direct_joins_match_the_accumulator(case):
    p, nrows, ops = case
    fld = PrimeField(p)
    fast, ref = Echelon(fld, nrows), AccumulatorEchelon(fld, nrows)
    for i, (op, col, rel) in enumerate(ops):
        assert run(fast, op, col, rel) == run(ref, op, col, rel), (i, op, col, rel)
        assert not any(fast._acc), i  # the accumulator is left clear
    assert fast.basis == ref.basis


@pytest.mark.parametrize("p", PRIMES)
def test_reduced_columns_come_back_as_they_are(p):
    fld = PrimeField(p)
    echelon = Echelon(fld, 4)
    col, rel = {1: 1, 3: p - 1}, {0: 1}
    assert echelon.reduce(col, rel) == (1, col, rel)
    assert echelon.reduce(col, rel)[1] is col
    assert echelon.add(col, rel) == (1, rel) and echelon.basis[1][0] is col
    # a non-monic lead is scaled, and a lead the basis has is reduced, as before
    assert echelon.add({0: 2}) == (0, None) and echelon.basis[0][0] == {0: 1}
    assert echelon.reduce({1: 1, 2: 1}) == (2, {2: 1, 3: 1}, None)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("track", [False, True], ids=["untracked", "tracked"])
def test_non_monic_fresh_leads_match_the_accumulator(p, track):
    # each column's smallest row has no basis vector and an entry there
    # other than 1: it is scaled directly, with its relation, and must
    # equal the accumulator's vector and relation
    fld = PrimeField(p)
    fast, ref = Echelon(fld, 6), AccumulatorEchelon(fld, 6)
    columns = [{2: 2, 4: p - 1}, {0: p - 1, 5: 3}, {3: p - 2, 4: 1, 5: 2}, {1: 3, 2: 1}]
    for j, col in enumerate(columns):
        rel = {j: 1, -1 - j: p - 1} if track else None
        assert run(fast, "reduce", col, rel) == run(ref, "reduce", col, rel)
        assert run(fast, "add", col, rel) == run(ref, "add", col, rel)
        assert not any(fast._acc)
    assert fast.basis == ref.basis
