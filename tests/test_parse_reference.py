"""`poly.parse` against a reference copy of the recursive-descent parser it
replaced.  On text whose digits are ASCII both give the same polynomial, or
raise the same exception class with the same ``pos``; non-ASCII digits and
integers longer than Python's int-string limit are syntax errors."""

import random
import sys

import pytest

from saito_forge.field import FieldError, PrimeField, QQ
from saito_forge.poly import VAR_INDEX, Poly, PolyError, PolySyntaxError, UnknownVariable, parse


class ReferenceParser:
    """The former ``poly._Parser``, kept as the reference:

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := coeff ('*' factor)* | factor ('*' factor)*
        factor := var ('^' uint)?
        coeff  := int | int '/' uint
    """

    def __init__(self, text, field, nvars):
        self.text = text
        self.field = field
        self.nvars = nvars
        self.pos = 0

    def error(self, msg):
        raise PolySyntaxError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def coeff(self):
        n = self.uint()
        if self.peek() == "/":
            self.take("/")
            d = self.uint()
            if d == 0:
                self.error("zero denominator")
            return self.field.div(self.field.from_int(n), self.field.from_int(d))
        return self.field.from_int(n)

    def factor(self):
        ch = self.peek()
        if ch in VAR_INDEX:
            if VAR_INDEX[ch] >= self.nvars:
                raise UnknownVariable(f"variable {ch!r} not allowed here (nvars={self.nvars})")
            self.pos += 1
            e = 1
            if self.peek() == "^":
                self.take("^")
                e = self.uint()
            m = [0, 0, 0]
            m[VAR_INDEX[ch]] = e
            return tuple(m)
        if ch.isalpha():
            raise UnknownVariable(f"unknown variable {ch!r} at position {self.pos}")
        self.error("expected a variable")

    def term(self):
        f = self.field
        ch = self.peek()
        if ch.isdigit():
            c = self.coeff()
            m = (0, 0, 0)
        elif ch in VAR_INDEX or ch.isalpha():
            c = f.one
            e = self.factor()
            m = e
        else:
            self.error("expected a term")
        while self.peek() == "*":
            self.take("*")
            e = self.factor()
            m = (m[0] + e[0], m[1] + e[1], m[2] + e[2])
        return m, c

    def expr(self):
        f = self.field
        terms = {}
        sign = 1
        ch = self.peek()
        if ch in "+-":
            sign = -1 if ch == "-" else 1
            self.pos += 1
        while True:
            m, c = self.term()
            if sign < 0:
                c = f.neg(c)
            terms[m] = f.add(terms.get(m, f.zero), c)
            ch = self.peek()
            if ch == "":
                break
            if ch not in "+-":
                self.error(f"unexpected {ch!r}")
            sign = -1 if ch == "-" else 1
            self.pos += 1
        return terms


def reference_parse(text, field=QQ, nvars=3):
    parser = ReferenceParser(text, field, nvars)
    if parser.peek() == "":
        parser.error("empty input")
    return Poly(field, parser.expr())


def outcome(fn, text, field, nvars):
    """("ok", poly) on success, else (exception class, pos or None)."""
    try:
        p = fn(text, field, nvars)
    except Exception as exc:
        return type(exc), getattr(exc, "pos", None)
    return "ok", p


PIECES = ["x", "y", "z", "w", "0", "1", "2", "3", "7", "17", "/", "^", "*", "+", "-",
          " ", "\t", "\n", "$", "(", "é", "²", "٣"]
WEIGHTS = [6, 6, 4, 1, 3, 4, 3, 2, 2, 2, 2, 5, 5, 4, 4, 3, 1, 1, 1, 1, 1, 1, 1]
CONFIGS = [(fld, nvars) for fld in (QQ, PrimeField(17), PrimeField(1009)) for nvars in (2, 3)]


def has_non_ascii_digit(text):
    return any(ch.isdigit() and not ch.isascii() for ch in text)


def test_parse_matches_reference_parser():
    rng = random.Random(1305)
    accepted = compared = 0
    for _ in range(24_000):
        text = "".join(rng.choices(PIECES, WEIGHTS, k=rng.randint(0, 12)))
        for fld, nvars in CONFIGS:
            new = outcome(parse, text, fld, nvars)
            if has_non_ascii_digit(text):
                # the reference reads these with int(), or crashes on them
                assert new[0] != "ok" and issubclass(new[0], (PolyError, FieldError)), (text, new)
                continue
            assert new == outcome(reference_parse, text, fld, nvars), (text, fld, nvars)
            compared += 1
            accepted += new[0] == "ok"
    # the strings must exercise both sides of the grammar
    assert compared > 100_000 and accepted > 5_000


@pytest.mark.parametrize("text,pos", [
    ("²", 0), ("x^²", 2), ("x^٣", 2), ("٣*x", 0), ("1/٣", 2), ("x + y^2*z^²", 10),
])
def test_non_ascii_digit_is_a_syntax_error(text, pos):
    with pytest.raises(PolySyntaxError) as err:
        parse(text)
    assert err.value.pos == pos


@pytest.fixture
def int_string_limit():
    """Python's default int-string limit of 4300 digits, where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-string limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("template,pos", [("{}", 0), ("x^{}", 2), ("1/{}*y", 2)])
def test_over_long_integer_is_a_syntax_error(int_string_limit, template, pos):
    with pytest.raises(PolySyntaxError) as err:
        parse(template.format("9" * 5000))
    assert err.value.pos == pos
