"""Sparse homogeneous polynomials in x, y, z.

A polynomial is integer numerators over one denominator: ``num`` maps
exponent triples ``(ex, ey, ez)`` to nonzero Python ints and the value is
``num / den``.  Over the rationals ``den > 0`` and ``den`` shares no factor
with the content of ``num``; over a prime field ``den == 1`` and the values
lie in ``1..p-1``.  The form is canonical, so equality compares ``num`` and
``den``.  ``terms`` is the read-only ``{mono: field scalar}`` view, built on
first use.  A bivariate form is one with no z term; it mixes freely with
every other polynomial.  Polynomials are immutable after construction: every
operation allocates a fresh result (``num`` may be shared between results,
never written), so values can be shared freely across threads.

The canonical text form prints terms in descending graded-lex order, x > y > z,
with ``*`` between coefficient and variables, no ``^1`` and ASCII digits;
``parse`` inverts it exactly.  ``monomials`` lists each degree's basis in that
order, and ``shifted_columns`` builds every linear system the package solves
from shifted forms, as sparse columns indexed in that order.

Sums, products, negation, scaling, partials, ``dot``, ``det3`` and
``divides`` run on the numerators, as ``column_polys`` reads `linalg`'s
integer kernel vectors, and each result is normalised once: one gcd divided
out of its content and ``den``, or ``% p``.  A product or a division with a
one-term operand, most of those the construction makes, is one exponent
shift of the other operand's map.  ``render`` reduces each numerator
against ``den`` by one gcd.  No ``Fraction`` is built.  ``det_unit`` tests
det == c*F with c = det[lm F] / lc F, the same predicate as F | det with a
constant quotient.

Common factors of binary forms are one Sylvester-rank test, ``coprime_forms``
(two forms share a factor exactly when their resultant vanishes); it decides
square-freeness here, and irreducibility in ``family`` unless a term scan can.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from types import MappingProxyType

from .field import Field, FieldMismatch, InputError, QQ
from .linalg import eliminate

VAR_NAMES = ("x", "y", "z")
VAR_INDEX = {"x": 0, "y": 1, "z": 2}


class PolyError(InputError):
    pass


class PolySyntaxError(PolyError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariable(PolyError):
    pass


class ZeroPolynomial(PolyError):
    pass


class EulerViolation(PolyError):
    """The Euler identity failed; an arithmetic bug or char | deg."""


def grlex_key(m):
    # sort key so that reverse=True gives descending graded-lex, x > y > z
    return (m[0] + m[1] + m[2], m)


class Poly:
    """``num / den`` in canonical form (see the module docstring).

    ``Poly(field, terms)`` takes ``{mono: scalar}`` with ints or
    ``Fraction``s, zeros allowed; ``terms`` gives them back as field scalars
    in a read-only map, built on first use and kept."""

    __slots__ = ("field", "num", "den", "_terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self._terms = None
        if field.char:
            p = field.p
            self.num, self.den = {m: r for m, c in terms.items() if (r := c % p)}, 1
        else:
            # scalars in lowest terms: no prime of the lcm divides every numerator
            den = self.den = lcm(*[c.denominator for c in terms.values()])
            self.num = {m: c.numerator * (den // c.denominator) for m, c in terms.items() if c}

    @classmethod
    def _make(cls, field: Field, num: dict, den: int) -> "Poly":
        """Construct from numerators and a denominator already canonical."""
        p = object.__new__(cls)
        p.field, p.num, p.den, p._terms = field, num, den, None
        return p

    @property
    def terms(self):
        """The read-only map ``{mono: field scalar}`` of the nonzero terms."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType(
                self.num if self.field.char else
                {m: Fraction(c, den) if den != 1 else Fraction(c) for m, c in self.num.items()})
        return self._terms

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls._make(field, {}, 1)

    @classmethod
    def constant(cls, field: Field, c) -> "Poly":
        return cls(field, {(0, 0, 0): c})

    @classmethod
    def monomial(cls, field: Field, exps, c=None) -> "Poly":
        ex, ey, ez = exps
        if c is None:
            return cls._make(field, {(ex, ey, ez): 1}, 1)
        return cls(field, {(ex, ey, ez): c})

    @classmethod
    def variable(cls, field: Field, name: str) -> "Poly":
        e = [0, 0, 0]
        e[VAR_INDEX[name]] = 1
        return cls._make(field, {tuple(e): 1}, 1)

    # ----- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(sum(m) for m in self.num)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.num}
        return len(degs) <= 1

    def is_bivariate(self) -> bool:
        """Whether no term holds z: a form in x and y."""
        return not any(m[2] for m in self.num)

    def coeff_of(self, exps):
        """Coefficient of the monomial as a field scalar (the field zero when absent)."""
        ex, ey, ez = exps
        c = self.num.get((ex, ey, ez), 0)
        return c if self.field.char else Fraction(c, self.den)

    def leading_term(self):
        if not self.num:
            return None
        m = max(self.num, key=grlex_key)
        return m, self.coeff_of(m)

    # ----- arithmetic ----------------------------------------------------

    def _check_compat(self, other: "Poly"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _add(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other, over the lcm of the two denominators."""
        self._check_compat(other)
        a, da = self.num, self.den
        b, db = other.num, other.den
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        out = dict(a) if sa == 1 else {m: c * sa for m, c in a.items()}
        get = out.get
        for m, c in b.items():
            out[m] = get(m, 0) + sb * c
        return _from_ints(self.field, out, den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._add(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add(other, -1)

    def __neg__(self) -> "Poly":
        p = self.field.char  # p - c keeps a prime-field value in 1..p-1
        num = {m: p - c if p else -c for m, c in self.num.items()}
        return Poly._make(self.field, num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compat(other)
        return _from_ints(self.field, _imul(self.num, other.num), self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.field, self.field.one)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "Poly":
        """c * self for a field scalar or an int c."""
        n = c.numerator  # c itself for an int
        return _from_ints(self.field, {m: v * n for m, v in self.num.items()}, self.den * c.denominator)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.field, frozenset(self.num.items()), self.den))

    # ----- calculus -------------------------------------------------------

    def partial(self, var: str) -> "Poly":
        """Formal partial derivative, integer multipliers mapped into the field."""
        i = VAR_INDEX[var]
        out: dict = {}
        for m, c in self.num.items():
            e = m[i]
            if e == 0:
                continue
            mm = list(m)
            mm[i] = e - 1
            out[tuple(mm)] = c * e
        return _from_ints(self.field, out, self.den)  # drops the multiples of char

    def euler_check(self):
        """Verify x*P_x + y*P_y + z*P_z = deg(P)*P exactly; return deg(P) in the field.

        Raises EulerViolation on failure (an arithmetic bug, since the identity
        is forced for homogeneous input).
        """
        if not self.num:
            raise ZeroPolynomial("euler_check of the zero polynomial")
        if not self.is_homogeneous():
            raise EulerViolation("input is not homogeneous")
        m = self.degree()
        f = self.field
        lhs = Poly.zero(f)
        for var in VAR_NAMES:
            lhs = lhs + Poly.variable(f, var) * self.partial(var)
        if lhs != self.scale(f.from_int(m)):
            raise EulerViolation(f"Euler identity failed at degree {m}")
        return f.from_int(m)

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"Poly({render(self)})"


# ----- int-accumulator kernels ---------------------------------------------


def _imul(a: dict, b: dict, out: dict | None = None, sign: int = 1) -> dict:
    """The int map sign*a*b, or ``out`` with sign*a*b added to it; zero
    entries stay.  With no ``out`` and a one-term operand the product is one
    exponent shift of the other map: no two of its terms meet."""
    if out is None and (len(a) == 1 or len(b) == 1):
        if len(a) != 1:
            a, b = b, a
        ((x1, y1, z1), c1), = a.items()
        c1 *= sign
        return {(x1 + x2, y1 + y2, z1 + z2): c1 * c2 for (x2, y2, z2), c2 in b.items()}
    out = {} if out is None else out
    get = out.get
    for (x1, y1, z1), c1 in a.items():
        c1 *= sign
        for (x2, y2, z2), c2 in b.items():
            m = (x1 + x2, y1 + y2, z1 + z2)
            out[m] = get(m, 0) + c1 * c2
    return out


def _from_ints(field: Field, ints: dict, den: int) -> "Poly":
    """The polynomial ints / den (den > 0) in canonical form: zero entries
    dropped, then one gcd divided out of the content and den over the
    rationals, each value taken ``% p`` over a prime field."""
    if field.char:
        p = field.p
        return Poly._make(field, {m: r for m, c in ints.items() if (r := c % p)}, 1)
    num = {m: c for m, c in ints.items() if c}
    if den != 1 and (g := gcd(den, *num.values())) > 1:
        num = {m: c // g for m, c in num.items()}
        den //= g
    return Poly._make(field, num, den)


def divides(d: "Poly", p: "Poly"):
    """Exact multivariate division test: (True, q) with p = d*q, else (False, None).

    A one-term d = c*x^i y^j z^k / den divides exactly when every term of p
    holds x^i y^j z^k, and q is one exponent shift of p's numerators: over
    the rationals num*den / (c*p.den), the sign of c moved into the
    numerators, over a prime field num * c^-1.  Any other d takes iterated
    leading-term elimination under the graded-lex order on the numerators,
    d's made primitive over the rationals; for homogeneous d and p the first
    non-eliminable leading term certifies non-divisibility, as does, by
    Gauss's lemma, a quotient term that is not an integer.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    d._check_compat(p)
    char = p.field.char
    if len(d.num) == 1:
        ((i, j, k), c), = d.num.items()
        if not all(x >= i and y >= j and z >= k for x, y, z in p.num):
            return False, None
        if char:
            s, den = pow(c, char - 2, char), 1
        else:
            s, den = (d.den if c > 0 else -d.den), abs(c) * p.den
        return True, _from_ints(p.field, {(x - i, y - j, z - k): v * s
                                          for (x, y, z), v in p.num.items()}, den)
    g = 1 if char else gcd(*d.num.values())
    dnum = {m: c // g for m, c in d.num.items()}
    dm = max(dnum, key=grlex_key)
    inv = pow(dnum[dm], char - 2, char) if char else None
    rem, quot = dict(p.num), {}
    while rem:
        m = max(rem, key=grlex_key)
        q = (m[0] - dm[0], m[1] - dm[1], m[2] - dm[2])
        qc, r = (rem[m] * inv % char, 0) if char else divmod(rem[m], dnum[dm])
        if r or min(q) < 0:
            return False, None
        quot[q] = qc
        for tm, tc in dnum.items():
            mm = (q[0] + tm[0], q[1] + tm[1], q[2] + tm[2])
            s = rem.pop(mm, 0) - qc * tc
            if s := s % char if char else s:
                rem[mm] = s
    # p / d = (P / p.den) / (g * D / d.den) with P = D * quot
    return True, _from_ints(p.field, {m: c * d.den for m, c in quot.items()}, g * p.den)


def dot(ps, qs) -> Poly:
    """The sum of the products p*q over paired polynomials sharing one field,
    accumulated in one int map and normalised once."""
    first = ps[0]
    pairs = []
    for p, q in zip(ps, qs):
        first._check_compat(p)
        first._check_compat(q)
        pairs.append(((p.num, p.den), (q.num, q.den)))
    den = lcm(*[da * db for (_, da), (_, db) in pairs])
    out: dict = {}
    for (a, da), (b, db) in pairs:
        s = den // (da * db)
        _imul(a if s == 1 else {m: c * s for m, c in a.items()}, b, out)
    return _from_ints(first.field, out, den)


def det3(m) -> Poly:
    """Determinant of a 3x3 matrix of polynomials sharing one field.

    Each row is scaled by the lcm of its denominators, the cofactor expansion
    runs on the numerators, and the product of the row lcms is divided out once."""
    first = m[0][0]
    rows, den = [], 1
    for row in m:
        for e in row:
            first._check_compat(e)
        ints = [(e.num, e.den) for e in row]
        rl = lcm(*[d for _, d in ints])
        rows.append([t if d == rl else {k: c * (rl // d) for k, c in t.items()} for t, d in ints])
        den *= rl
    (a, b, c), (d, e, f), (g, h, i) = rows
    out = _imul(a, _imul(f, h, _imul(e, i), -1))
    _imul(b, _imul(f, g, _imul(d, i), -1), out, -1)
    _imul(c, _imul(e, g, _imul(d, h), -1), out)
    return _from_ints(first.field, out, den)


def det_unit(f: Poly, matrix):
    """(det, c) for a 3x3 matrix, with c the nonzero scalar such that
    det = c*f, or None when det is not a nonzero scalar multiple of f.

    c is read off at f's leading monomial, so the test is det == c*f (c is
    then nonzero, as det is): exactly when f divides det with a constant
    quotient."""
    det = det3(matrix)
    if det.is_zero():
        return det, None
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.field != det.field:
        raise FieldMismatch(f"{f.field} vs {det.field}")
    lm, lc = f.leading_term()
    c = f.field.div(det.coeff_of(lm), lc)
    return det, (c if f.scale(c) == det else None)


def coprime_forms(a: "Poly", b: "Poly", m: int, n: int) -> bool:
    """Whether the z-free forms a and b, of degrees m and n (a form may be
    zero), share no nonconstant factor, over K and over its algebraic closure.

    They share one exactly when their resultant vanishes, that is, when the
    Sylvester matrix, whose columns are the shifts of a by the monomials
    of degree n-1 and of b by those of degree m-1, is singular."""
    nrows, cols = shifted_columns([(n - 1, (a,)), (m - 1, (b,))], (m + n - 1,), zfree=True)
    return len(eliminate(nrows, cols, a.field)[0]) == len(cols)


def is_squarefree_bivariate(p: "Poly") -> bool:
    """Square-freeness of a bivariate homogeneous polynomial p of degree m.

    A repeated factor of p divides p_x and p_y.  A common factor l of p_x and
    p_y divides m*p = x*p_x + y*p_y, and then l^2 divides p.  So p is
    square-free exactly when ``coprime_forms(p_x, p_y, m-1, m-1)``.
    Valid in characteristic 0 or > deg(p).
    """
    if p.is_zero():
        raise ZeroPolynomial("square-freeness of the zero polynomial")
    if not (p.is_bivariate() and p.is_homogeneous()):
        raise PolyError("square-freeness needs a homogeneous bivariate polynomial")
    m = p.degree()
    return coprime_forms(p.partial("x"), p.partial("y"), m - 1, m - 1)


# ----- text form ----------------------------------------------------------


def render(p: "Poly") -> str:
    """The canonical text form, read off the numerators: each coefficient
    is its numerator's magnitude over ``den``, reduced by one gcd."""
    num, den = p.num, p.den
    if not num:
        return "0"
    parts = []
    for m in sorted(num, key=grlex_key, reverse=True):
        c = num[m]
        parts.append(" - " if c < 0 else " + ")  # a prime-field value is positive
        c = abs(c)
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VAR_NAMES, m) if e]
        if c != den or not factors:
            g = gcd(c, den)
            factors.insert(0, str(c // g) if g == den else f"{c // g}/{den // g}")
        parts.append("*".join(factors))
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def parse(text: str, field: Field = QQ, nvars: int = 3) -> Poly:
    """Parse the canonical text form into a polynomial over the given field.

    The grammar, over tokens that are runs of ASCII digits or single
    non-space characters:

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := coeff ('*' factor)* | factor ('*' factor)*
        factor := var ('^' uint)?
        coeff  := uint | uint '/' uint

    A PolySyntaxError's ``pos`` is where the offending token starts (where a
    zero denominator ends), or ``len(text)`` when the text ends too early.
    With ``nvars = 2`` a z is an UnknownVariable: outside input for a form
    in x and y must not hold one.
    """
    toks = [(m[1], m.start(1)) for m in re.finditer(r"\s*([0-9]+|\S)", text)] + [("", len(text))]
    if len(toks) == 1:
        raise PolySyntaxError("empty input", len(text))
    op, i = (toks[0][0], 1) if toks[0][0] in ("+", "-") else ("+", 0)

    def uint() -> int:
        nonlocal i
        tok, pos = toks[i]
        i += 1
        if not (tok.isascii() and tok.isdigit()):
            raise PolySyntaxError("expected an integer", pos)
        try:
            return int(tok)
        except ValueError:  # longer than Python's int-string limit
            raise PolySyntaxError("integer has too many digits", pos) from None

    def factor(m: list):
        nonlocal i
        tok, pos = toks[i]
        if tok not in VAR_INDEX:
            if tok.isalpha():
                raise UnknownVariable(f"unknown variable {tok!r} at position {pos}")
            raise PolySyntaxError("expected a variable", pos)
        if VAR_INDEX[tok] >= nvars:
            raise UnknownVariable(f"variable {tok!r} not allowed here (nvars={nvars})")
        i += 1
        e = 1
        if toks[i][0] == "^":
            i += 1
            e = uint()
        m[VAR_INDEX[tok]] += e

    f, terms = field, {}
    while True:
        tok, pos = toks[i]
        m = [0, 0, 0]
        if tok.isdigit():
            c = f.from_int(uint())
            if toks[i][0] == "/":
                i += 1
                tok, pos = toks[i]
                if not (d := uint()):
                    raise PolySyntaxError("zero denominator", pos + len(tok))
                c = f.div(c, f.from_int(d))
        elif tok in VAR_INDEX or tok.isalpha():
            c = f.one
            factor(m)
        else:
            raise PolySyntaxError("expected a term", pos)
        while toks[i][0] == "*":
            i += 1
            factor(m)
        m = tuple(m)
        terms[m] = f.add(terms.get(m, f.zero), f.neg(c) if op == "-" else c)  # Poly drops zeros
        op, pos = toks[i]
        if not op:
            return Poly(field, terms)
        if op not in ("+", "-"):
            raise PolySyntaxError(f"unexpected {op[0]!r}", pos)
        i += 1


def monomials(degree: int, nvars: int = 3):
    """All exponent triples of the given total degree, descending graded-lex."""
    out = []
    if nvars == 2:
        out = [(i, degree - i, 0) for i in range(degree, -1, -1)]
    else:
        for i in range(degree, -1, -1):
            for j in range(degree - i, -1, -1):
                out.append((i, j, degree - i - j))
    return out


def monomial_index(m) -> int:
    """The index of the exponent triple m in `monomials` (deg m)."""
    w = m[1] + m[2]
    return w * (w + 1) // 2 + m[2]


def space_dim(t: int) -> int:
    """dim of the degree-t piece of K[x,y,z], the length of `monomials` (t)."""
    return (t + 1) * (t + 2) // 2 if t >= 0 else 0


def shifted_columns(pairs, degrees, zfree: bool = False) -> tuple[int, list[dict]]:
    """The row count and the sparse ``{row: int}`` columns m*g of a linear
    system over shifted polynomials, for each ``(n, g)`` in ``pairs`` and each
    shift m of degree n in `monomials` order (only the z-free x^a y^(n-a)
    with ``zfree``).  ``g`` holds one form per row block: block k lists the
    monomials of degree ``degrees[k]`` in `monomials` order, after the blocks
    before it, and every m*g[k] must have that degree.  Each block's rows
    are scaled by the lcm of the denominators of its forms, a row scaling
    that keeps the pivots, relations and solutions `linalg.eliminate` and
    `linalg.solve_affine` find.  The index of x^I y^J z^(u-I-J) in
    `monomials` (u) is ``(u-I)(u-I+1)/2 + (u-I-J)``, so each shift costs one
    subtraction per term."""
    offsets = list(accumulate(map(space_dim, degrees), initial=0))
    bases = [w * (w + 1) // 2 + w for w in range(max(degrees, default=0) + 1)]
    scales = [lcm(*[p.den for p in block]) for block in zip(*[g for _, g in pairs])]
    cols = []
    for n, g in pairs:
        terms = [(m[0], m[1], u, off, c * (s // p.den))
                 for p, u, off, s in zip(g, degrees, offsets, scales) for m, c in p.num.items()]
        for a in range(n, -1, -1):
            shifted = [(bases[u - i - a] - j + off, c) for i, j, u, off, c in terms]
            for b in (n - a,) if zfree else range(n - a, -1, -1):
                cols.append({r - b: c for r, c in shifted})
    return offsets[-1], cols


def column_polys(vectors, shifts, field: Field, zfree: bool = False) -> list[tuple]:
    """Read vectors ``(values, den)`` as `linalg.eliminate` gives them, over
    the columns that `shifted_columns` builds from pairs of shift degrees
    ``shifts``, back into polynomials: per vector, one polynomial per pair,
    the sum of value/den * m over the pair's columns m*g (bivariate with ``zfree``)."""
    index = [(k, m) for k, n in enumerate(shifts) for m in monomials(n, 2 if zfree else 3)]
    out = []
    for vec, den in vectors:
        blocks = [{} for _ in shifts]
        for col, c in vec.items():
            k, m = index[col]
            blocks[k][m] = c
        out.append(tuple(_from_ints(field, b, den) for b in blocks))
    return out
