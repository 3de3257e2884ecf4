"""The syzygy kernels read off the Jacobian ladder against the whole-matrix
eliminations they replaced.

`reference.whole_matrix_kernel` eliminates one Macaulay matrix of
(Fx, Fy, Fz) or (Fx, Fy, Fz, F) per degree, as the program did before.
`oracle._syzygy_kernel_raw` reads the same kernel off the relations one
`JacobianLadder` finds while it climbs.  Both must print the same reduced
basis, vector for vector: at the oracle route's degrees on every legal pair
of the family, on controls where no partial is a single term, where a
partial is zero and where p | d, and on a ladder asked in any order.
"""

import pytest

from saito_forge.family import build_divisor, legal_pairs, random_instance
from saito_forge.field import PrimeField, QQ
from saito_forge.oracle import JacobianLadder, _syzygy_kernel_raw, jacobian_generators
from saito_forge.poly import parse
from reference import whole_matrix_kernel

F1009 = PrimeField(1009)


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
@pytest.mark.parametrize("d", range(5, 19))
def test_ladder_kernels_match_whole_matrix_on_the_family(d, fld):
    v = d // 2
    degrees = (v, v) if d % 2 else (v - 1, v)  # the oracle route's (t2, t3)
    for seed in (0, 1):
        for alpha, beta in legal_pairs(d):
            gens = jacobian_generators(build_divisor(random_instance(d, alpha, beta, seed, fld)).f)
            ladder = JacobianLadder(gens[3])
            for t in degrees:
                for with_f in (False, True):
                    assert _syzygy_kernel_raw(gens, t, with_f, ladder) == \
                        whole_matrix_kernel(gens, t, with_f), (alpha, beta, seed, t, with_f)


CONTROLS = [
    ("x^2*y^3 + x*y^4 + y^5 + y^4*z", PrimeField(5)),   # p | d: F's block is a ladder block
    ("x^5 + y^5 + x*y*z^3", PrimeField(5)),             # p | d, nothing covered
    ("x^5 + y^5 + z^5", QQ),                            # every partial a single term
    ("x^5 + y^5 + z^5 + x^2*y^2*z", QQ),                # no partial a single term
    ("x^5 + y^5 + z^5 + x^2*y^2*z", F1009),
    ("x^2*y^2*z + x^5 + y^5", QQ),
    ("x*y*z", QQ),
    ("x^5 + y^5", QQ),                                  # Fz = 0
    ("x^5 + y^5", F1009),
    ("x^4*z^2 + x^2*z^4", QQ),                          # Fy = 0
]


@pytest.mark.parametrize("text,fld", CONTROLS)
def test_ladder_kernels_match_whole_matrix_on_controls(text, fld):
    gens = jacobian_generators(parse(text, fld))
    for t in range(7):
        for with_f in (False, True):
            assert _syzygy_kernel_raw(gens, t, with_f) == whole_matrix_kernel(gens, t, with_f), \
                (t, with_f)


@pytest.mark.parametrize("fld", [QQ, F1009], ids=["q", "fp1009"])
def test_kernel_asked_before_and_after_a_deeper_degree(fld):
    # a relation found at degree s is read z^(T - s) times at every T >= s
    gens = jacobian_generators(build_divisor(random_instance(12, 2, 1, 1, fld)).f)
    ladder = JacobianLadder(gens[3])
    order = (5, 8, 6, 5, 9, 7)
    got = [_syzygy_kernel_raw(gens, t, with_f, ladder) for t in order for with_f in (False, True)]
    assert got == [whole_matrix_kernel(gens, t, with_f) for t in order for with_f in (False, True)]


def test_kernel_above_an_untracked_climb_is_refused():
    # the resolution check climbs on untracked: the relations it skipped
    # would be missing from any kernel above the last tracked degree
    f = build_divisor(random_instance(8, 1, 0, 3, F1009)).f
    ladder = JacobianLadder(f)
    below = _syzygy_kernel_raw(ladder.gens, 3, False, ladder)
    ladder.hf(14)
    assert _syzygy_kernel_raw(ladder.gens, 3, False, ladder) == below
    with pytest.raises(ValueError, match="untracked"):
        _syzygy_kernel_raw(ladder.gens, 4, False, ladder)
