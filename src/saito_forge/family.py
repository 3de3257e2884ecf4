"""The parametric family of divisors and its parameter validation.

A family member is F = x^(d-a)*F1 + y^(v+a+1)*F2 + x^b*y^(d-b-1)*z with
v = floor(d/2), built from bivariate forms F1 (degree a, square-free) and F2
(degree d-v-a-1), neither divisible by x or y, under the parameter bound
a + b <= floor((d+1)/2) - 3.  Every member is irreducible: B = x^b*y^(d-b-1),
the coefficient of z, has no factor but x and y, and neither divides
A = F(x, y, 0), which `is_irreducible` reads off A's terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .field import Field, InputError, QQ, check_char_policy, field_from_spec
from .poly import Poly, coprime_forms, is_squarefree_bivariate, parse, render


class InvalidParams(InputError):
    """Parameters outside the family; ``report`` holds the failed validation
    when there is one."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


class ExhaustedRetries(Exception):
    pass


def pair_bound(d: int) -> int:
    return (d + 1) // 2 - 3


def legal_pairs(d: int) -> list[tuple[int, int]]:
    """All (alpha, beta) with alpha, beta >= 0 and alpha + beta within bound."""
    bound = pair_bound(d)
    return [(a, b) for a in range(bound + 1) for b in range(bound + 1 - a)]


@dataclass(frozen=True)
class FamilyParams:
    d: int
    alpha: int
    beta: int
    f1: Poly
    f2: Poly
    seed: int | None = None

    @property
    def v(self) -> int:
        return self.d // 2

    @property
    def gamma(self) -> int:
        return self.d - self.v - 3 - self.alpha - self.beta

    @property
    def field(self) -> Field:
        return self.f2.field


@dataclass
class ValidationReport:
    checks: list = dc_field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks],
        }


def validate(params: FamilyParams, drop_squarefree: bool = False) -> ValidationReport:
    """Check every family condition; the report carries each pass/fail."""
    d, a, b = params.d, params.alpha, params.beta
    v = params.v
    f1, f2 = params.f1, params.f2
    rep = ValidationReport()
    rep.add("degree_min", d >= 5, f"d={d} must be >= 5")
    rep.add("exponents_nonnegative", a >= 0 and b >= 0, f"alpha={a}, beta={b}")
    bound = pair_bound(d)
    rep.add("exponent_sum_bound", 0 <= a + b <= bound, f"alpha+beta={a + b} must be <= {bound}")
    rep.add("char_policy", check_char_policy(params.field, d), f"need char 0 or p > {3 * d}")
    rep.add("f1_field", f1.field == f2.field, "F1 and F2 over the same field")
    rep.add("f1_bivariate", f1.is_bivariate() and f2.is_bivariate(), "F1, F2 in x, y only")
    rep.add("f1_degree", (not f1.is_zero()) and f1.is_homogeneous() and f1.degree() == a,
            f"deg F1 = {f1.degree()}, expected {a}")
    deg2 = d - v - a - 1
    rep.add("f2_degree", (not f2.is_zero()) and f2.is_homogeneous() and f2.degree() == deg2,
            f"deg F2 = {f2.degree()}, expected {deg2}")
    if rep.ok:
        # a variable divides a form exactly when it divides each of its terms
        for name, form in (("f1", f1), ("f2", f2)):
            for i, var in enumerate("xy"):
                rep.add(f"{var}_ndiv_{name}", any(m[i] == 0 for m in form.num),
                        f"{var} must not divide {name.upper()}")
        if not drop_squarefree:
            rep.add("f1_squarefree", is_squarefree_bivariate(f1), "F1 must be square-free")
    return rep


@dataclass(frozen=True)
class DivisorInstance:
    params: FamilyParams
    f: Poly


def build_divisor(params: FamilyParams, drop_squarefree: bool = False) -> DivisorInstance:
    """Assemble F; raises InvalidParams on a failed report."""
    rep = validate(params, drop_squarefree=drop_squarefree)
    if not rep.ok:
        raise InvalidParams(f"invalid parameters: {', '.join(rep.failures())}", rep)
    d, a, b = params.d, params.alpha, params.beta
    v = params.v
    fld = params.field
    block1 = Poly.monomial(fld, (d - a, 0, 0)) * params.f1
    block2 = Poly.monomial(fld, (0, v + a + 1, 0)) * params.f2
    block_z = Poly.monomial(fld, (b, d - b - 1, 1))
    # the two bivariate support blocks may never share a monomial
    if block1.num.keys() & block2.num.keys():
        raise InvalidParams("support blocks of x^(d-a)*F1 and y^(v+a+1)*F2 overlap")
    f = block1 + block2 + block_z
    if not (f.is_homogeneous() and f.degree() == d):
        raise InvalidParams(f"assembled F is not a form of degree {d}")
    f.euler_check()
    return DivisorInstance(params, f)


def _random_form(field: Field, degree: int, rng: random.Random) -> Poly:
    """Dense random bivariate form with nonzero x^deg and y^deg edge coefficients."""
    terms = {}
    for i in range(degree + 1):
        if i in (0, degree):
            c = field.random_nonzero(rng)
        else:
            c = field.random(rng)
        if not field.is_zero(c):
            terms[(i, degree - i, 0)] = c
    return Poly(field, terms)


def _draw(d: int, alpha: int, beta: int, seed: int, field: Field, f1_of,
          squarefree: bool = True) -> FamilyParams:
    """The first of 100 seeded draws of (F1, F2) = (f1_of(rng), a random form)
    that validates, with F1 square-free, or not square-free when
    ``squarefree`` is False."""
    if not (alpha >= 0 and beta >= 0 and alpha + beta <= pair_bound(d)):
        raise InvalidParams(f"(d, alpha, beta) = ({d}, {alpha}, {beta}) violates the parameter bound")
    if not check_char_policy(field, d):  # no draw can pass validation over such a field
        raise InvalidParams(f"field {field.to_spec()} at d={d}: need char 0 or p > {3 * d}")
    # string seeds hash deterministically across processes, tuples do not
    rng = random.Random(f"{d}:{alpha}:{beta}:{seed}:{'' if squarefree else 'nsf:'}{field!r}")
    for _ in range(100):
        f1 = f1_of(rng)
        f2 = _random_form(field, d - d // 2 - alpha - 1, rng)
        params = FamilyParams(d, alpha, beta, f1, f2, seed=seed)
        rep = validate(params, drop_squarefree=not squarefree)
        if rep.ok and (squarefree or not is_squarefree_bivariate(f1)):
            return params
    what = "valid" if squarefree else "non-square-free"
    raise ExhaustedRetries(f"no {what} instance after 100 draws for (d={d}, alpha={alpha}, beta={beta})")


def random_instance(d: int, alpha: int, beta: int, seed: int, field: Field = QQ) -> FamilyParams:
    """Reproducible random family member for legal (d, alpha, beta).

    Coefficients are drawn from a PRNG seeded by (d, alpha, beta, seed) and
    resampled until validation passes; the edge coefficients of F1, F2 are
    forced nonzero so the divisibility conditions hold by construction.
    """
    return _draw(d, alpha, beta, seed, field, lambda rng: _random_form(field, alpha, rng))


def random_non_squarefree_instance(d: int, alpha: int, beta: int, seed: int,
                                   field: Field = QQ) -> FamilyParams:
    """Exploratory variant: F1 carries a forced repeated linear factor.

    Needs alpha >= 2; everything else follows random_instance.
    """
    if alpha < 2:
        raise InvalidParams("a repeated factor in F1 needs alpha >= 2")
    x, y = Poly.variable(field, "x"), Poly.variable(field, "y")

    def f1_of(rng):
        lin = x + y.scale(field.random_nonzero(rng))
        return lin * lin * _random_form(field, alpha - 2, rng)

    return _draw(d, alpha, beta, seed, field, f1_of, squarefree=False)


def is_irreducible(f: Poly) -> bool:
    """Irreducibility test for forms linear in z.

    Writes f = A(x, y) + B(x, y) z.  Of two factors of f, one is free of z
    and divides both A and B, so f factors exactly when A and B share a
    nonconstant factor: f is irreducible, over K and over its algebraic
    closure, when A and B are nonzero and coprime.  A form with A or B
    zero, such as the irreducible z itself, comes out reducible.  The only
    factors of a single-term B = c*x^i y^j (every family member's) are x and
    y, so a term scan decides it: A needs a term free of x if i > 0, and of
    y if j > 0.  Any other B takes the Sylvester test, `coprime_forms`, on
    the integer forms den*A and den*B."""
    if not f.is_homogeneous() or any(m[2] > 1 for m in f.num):
        raise ValueError("expected a form linear in z")
    fld, d = f.field, f.degree()
    a = {m: c for m, c in f.num.items() if m[2] == 0}
    b = {(m[0], m[1], 0): c for m, c in f.num.items() if m[2] == 1}
    if len(b) == 1:
        return bool(a) and all(any(not m[k] for m in a) for k in (0, 1) if next(iter(b))[k])
    return bool(a and b) and coprime_forms(Poly(fld, a), Poly(fld, b), d, d - 1)


def instance_to_json(inst: DivisorInstance) -> dict:
    p = inst.params
    out = {
        "d": p.d,
        "alpha": p.alpha,
        "beta": p.beta,
        "field": p.field.to_spec(),
    }
    if p.seed is not None:
        out["seed"] = p.seed
    out["F1"] = render(p.f1)
    out["F2"] = render(p.f2)
    out["F"] = render(inst.f)
    return out


class InconsistentInstance(InvalidParams):
    """The stored F does not match the divisor assembled from its parameters."""


def instance_from_json(data: dict) -> DivisorInstance:
    fld = field_from_spec(data["field"])
    params = FamilyParams(
        d=int(data["d"]),
        alpha=int(data["alpha"]),
        beta=int(data["beta"]),
        f1=parse(data["F1"], fld, nvars=2),
        f2=parse(data["F2"], fld, nvars=2),
        seed=data.get("seed"),
    )
    inst = build_divisor(params)
    if "F" in data and parse(data["F"], fld) != inst.f:
        raise InconsistentInstance("stored F disagrees with the assembled divisor")
    return inst
