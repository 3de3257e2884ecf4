"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are raw values (``fractions.Fraction`` over the rationals, ints in
``0..p-1`` over a prime field); a field object owns the arithmetic.  Nothing
here ever rounds.
"""

from __future__ import annotations

import random
from fractions import Fraction


class InputError(Exception):
    """A bad field, polynomial or family parameter: the command line exits 2."""


class FieldError(InputError):
    pass


class DivisionByZero(FieldError):
    pass


class FieldMismatch(FieldError):
    """Operands tagged with different coefficient fields."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin on the first 12 prime bases is exact below this bound
# (Sorenson & Webster 2015, "Strong pseudoprimes to twelve prime bases").
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n >= _MR_EXACT_BELOW:
        raise FieldError(f"cannot certify primality of {n}: "
                         f"the test is exact only below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of arbitrary-precision rationals.

    Values are ``Fraction`` instances, which keep lowest terms and a positive
    denominator, so equality is canonical for free.
    """

    char = 0
    # Fraction is immutable, so every caller can share one constant
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in QQ")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0 in QQ")
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def render(self, a) -> str:
        return str(a)

    def random(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(-10, 10))

    def random_nonzero(self, rng: random.Random) -> Fraction:
        while True:
            a = self.random(rng)
            if a != 0:
                return a

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def to_spec(self) -> str:
        return "q"


class PrimeField:
    """The prime field F_p; values are ints reduced to ``0..p-1``."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def render(self, a) -> str:
        return str(a % self.p)

    def random(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def random_nonzero(self, rng: random.Random) -> int:
        return rng.randrange(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"

    def to_spec(self) -> str:
        return f"fp:{self.p}"


QQ = Rationals()

Field = Rationals | PrimeField


def field_from_spec(spec: str) -> Field:
    """Parse a field spec string: ``q`` for the rationals, ``fp:P`` for F_P."""
    spec = spec.strip().lower()
    if spec in ("q", "qq"):
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError as exc:
            raise FieldError(f"bad field spec {spec!r}") from exc
        return PrimeField(p)
    raise FieldError(f"bad field spec {spec!r} (expected 'q' or 'fp:P')")


def check_char_policy(field: Field, d: int) -> bool:
    """Characteristic 0 or p > 3d, so every integer constant the construction
    divides by (all bounded by 3d in absolute value) is a unit when nonzero."""
    return field.char == 0 or field.char > 3 * d
