"""`saito.freeness_probe` against a reference copy of the search it replaced.

The reference walks the whole syzygy kernel of (Fx, Fy, Fz, F) degree by
degree, keeps the generators that are not in the span of earlier ones'
shifts, and tries every pair of them.  The probe reads r, the least degree
with AR(F)_r != 0, and tries the one `_saito_pair` of degrees
(r, d - 1 - r).  On family members, square-free F1 or not, and on the
controls both must agree on success, column degrees and unit.
"""

from itertools import product

import pytest

from saito_forge.family import (build_divisor, legal_pairs, random_instance,
                                random_non_squarefree_instance)
from saito_forge.field import PrimeField, QQ
from saito_forge.linalg import eliminate
from saito_forge.oracle import _syzygy_kernel_raw, jacobian_generators
from saito_forge.poly import Poly, det_unit, parse
from saito_forge.saito import freeness_probe
from reference import syzygy_columns

F1009 = PrimeField(1009)


def reference_probe(f: Poly, degree_bound: int):
    """The former ``oracle.freeness_probe``: (success, assembly)."""
    fld = f.field
    d = f.degree()
    found = []
    x, y, z = (Poly.variable(fld, n) for n in "xyz")
    gens = jacobian_generators(f)
    for t in range(1, degree_bound + 1):
        basis = _syzygy_kernel_raw(gens, t)
        nrows, cols = syzygy_columns(found + [(t, v) for v in basis.vectors], t)
        if not cols:
            continue
        pivots = set(eliminate(nrows, cols, fld)[0])
        # a kernel column that survives as a pivot is independent of the span
        found.extend((t, v) for i, v in enumerate(basis.vectors, len(cols) - len(basis.vectors))
                     if i in pivots)
        for i, (ti, gi) in enumerate(found):
            for j, (tj, gj) in enumerate(found):
                if j <= i or ti + tj != d - 1 or tj > t:
                    continue
                unit = det_unit(f, [[x, gi.a, gj.a], [y, gi.b, gj.b], [z, gi.c, gj.c]])[1]
                if unit is not None:
                    return True, {"degrees": [1, ti, tj], "unit": fld.render(unit)}
    return False, None


def family_cases():
    for fld in (QQ, F1009):
        for d, seed in product(range(5, 13), (0, 1)):
            for alpha, beta in legal_pairs(d):
                name = f"{fld!r}-d{d}-{alpha}-{beta}-s{seed}"
                yield name, build_divisor(random_instance(d, alpha, beta, seed, fld)).f
                if alpha >= 2:
                    params = random_non_squarefree_instance(d, alpha, beta, seed, fld)
                    yield name + "-nsf", build_divisor(params, drop_squarefree=True).f


CONTROLS = ["x^5 + y^5 + z^5", "x^2*y^3 + x*y^4 + y^5 + y^4*z", "x^5 + y^5", "x*y*z"]
CASES = dict(family_cases(), **{c: parse(c) for c in CONTROLS})


@pytest.mark.parametrize("case", list(CASES))
def test_probe_matches_reference(case):
    f = CASES[case]
    bound = 3 * (f.degree() // 2) + 3
    rep = freeness_probe(f, bound)
    assert (rep.success, rep.assembly) == reference_probe(f, bound)
