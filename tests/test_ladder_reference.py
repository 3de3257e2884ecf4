"""`oracle.JacobianLadder` against a reference copy of the per-degree ladder
it replaced.

The reference eliminates a fresh Macaulay matrix of J(F) at every degree t,
with the rows of the first single-term generator covered, and tests x^t and
y^t by whether appending each alone keeps the rank.  The ladder carries one
echelon basis up from each degree to the next.  On family members and on
controls both must give the same Hilbert function of S/J(F) and the same
point-support answers, whatever order the degrees are asked in.
"""

import random
from itertools import accumulate, product

import pytest

from saito_forge.family import build_divisor, legal_pairs, random_instance
from saito_forge.field import PrimeField, QQ
from saito_forge.linalg import eliminate
from saito_forge.oracle import IdealLadder, JacobianLadder, _eliminated_blocks, jacobian_generators
from saito_forge.poly import Poly, parse, shifted_columns, space_dim
from reference import RawLadder

F1009 = PrimeField(1009)


def per_degree_step(gens, t: int) -> tuple:
    """The former ladder step: (hf(t), whether x^t and y^t lie in (gens))
    from one elimination of the degree-t Macaulay matrix.  The unit columns
    of the first single-term generator's block cover their rows: those rows
    are deleted from every other column and count once each toward the
    rank."""
    fld = gens[0].field
    shifts = [t - g.degree() if not g.is_zero() else -1 for g in gens]
    powers = [Poly.monomial(fld, m) for m in ((t, 0, 0), (0, t, 0))]
    nrows, cols = shifted_columns([(n, (g,)) for g, n in zip(gens, shifts)]
                                  + [(0, (c,)) for c in powers], (t,))
    offsets = list(accumulate(map(space_dim, shifts), initial=0))
    k = next((k for k, g in enumerate(gens) if len(g.terms) == 1), None)
    cover = range(offsets[k], offsets[k + 1]) if k is not None else range(0)
    covered = {r for j in cover for r in cols[j]}
    rows = dict(zip([r for r in range(nrows) if r not in covered], range(nrows)))

    def project(col):
        return {rows[r]: c for r, c in col.items() if r in rows}

    kept = [project(cols[j]) for j in range(offsets[-1]) if j not in cover]
    rank = len(eliminate(len(rows), kept, fld)[0])
    members = [len(eliminate(len(rows), kept + [project(c)], fld)[0]) == rank
               for c in cols[offsets[-1]:]]
    return space_dim(t) - len(cover) - rank, all(members)


def per_degree_ladder(f, t_max: int) -> list:
    gens = _eliminated_blocks(jacobian_generators(f))
    return [per_degree_step(gens, t) for t in range(t_max + 1)]


def ladder_answers(f, t_max: int) -> list:
    ladder = JacobianLadder(f)
    return [(ladder.hf(t), ladder.powers_in(t)) for t in range(t_max + 1)]


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
@pytest.mark.parametrize("d", range(5, 19))
def test_ladder_matches_per_degree_reference_on_the_family(d, fld):
    t_max = 3 * (d // 2) + 3
    for seed, (alpha, beta) in product((0, 1), legal_pairs(d)):
        f = build_divisor(random_instance(d, alpha, beta, seed, fld)).f
        assert ladder_answers(f, t_max) == per_degree_ladder(f, t_max), (seed, alpha, beta)


CONTROLS = [
    ("x^5 + y^5 + z^5", QQ),                       # Fermat: every partial single-term
    ("x*y*z", QQ),                                 # normal crossings: no power of x in J
    ("x^5 + y^5", QQ),                             # Fz = 0
    ("x^5 + x^2*y^3 + x*y^4 + y^5 + y^4*z + x*y*z^3 + z^5", QQ),  # no single-term partial
    ("x^5 + y^5 + x*y*z^3", PrimeField(5)),        # p | d: F's block is kept
    ("x^4*z^2 + x^2*z^4", QQ),                     # non-reduced: x^2 z^2 divides F
    ("x^4*z^2 + x^2*z^4", F1009),
    ("y^3*z^2", QQ),                               # a monomial: single-term partials with z
    ("x^3 + y^2*z", F1009),                        # a cusp: Fz = y^2 is z-free
]


@pytest.mark.parametrize("text,fld", CONTROLS, ids=[f"{t}-{f!r}" for t, f in CONTROLS])
def test_ladder_matches_per_degree_reference_on_controls(text, fld):
    f = parse(text, fld)
    assert ladder_answers(f, 12) == per_degree_ladder(f, 12)


def test_out_of_order_queries():
    # powers_in(n) before hf(t) for t < n, and degrees in a shuffled order,
    # read the same answers as asking in order
    f = build_divisor(random_instance(10, 1, 1, 0, F1009)).f
    expected = per_degree_ladder(f, 18)
    ladder = JacobianLadder(f)
    assert ladder.powers_in(18) == expected[18][1]
    assert [ladder.hf(t) for t in range(18, -1, -1)] == [hf for hf, _ in reversed(expected)]
    order = list(range(19))
    random.Random(4).shuffle(order)
    ladder = JacobianLadder(f)
    for t in order:
        assert (ladder.hf(t), ladder.powers_in(t)) == expected[t], t


def test_untracked_climb_skips_the_children_of_dependent_shifts():
    # (33, 2, 0) over fp:32003 climbed untracked to 3v+3 = 51, as verify
    # climbs it: the columns the ladder passes to its echelon are exactly
    # the shifts that have no parent or whose parent joined the basis, in
    # join order, and each joins at the reference's lead
    gens = _eliminated_blocks(jacobian_generators(
        build_divisor(random_instance(33, 2, 0, 1, PrimeField(32003))).f))
    ladder, ref = IdealLadder(gens), RawLadder(gens)
    add, leads = ladder.echelon.add, []
    ladder.echelon.add = lambda v, rel=None: leads.append(add(v, rel)[0]) or (leads[-1], None)
    parents, shifts, reduced = {}, 0, 0
    for t in range(52):
        ladder.advance()
        ref.advance()
        expected = [lead for (k, a, b), lead in ref.joins[t]
                    if not a + b or parents[(k, a - 1, b) if a else (k, 0, b - 1)] is not None]
        assert leads == expected, t
        shifts += len(ref.joins[t])
        reduced += len(leads)
        parents = dict(ref.joins[t])
        leads.clear()
    # Fx and Fy shifted to degrees 32..51; Fz = y^32 covers its rows
    assert (shifts, reduced) == (420, 405)
