"""Exact arithmetic in an ordered field of rational functions in one formal
infinitesimal.

A value is a quotient ``num/den`` of polynomials in a named generator ``g``
with exact rational coefficients.  The order is the sign of the leading
behavior as ``g -> 0+``: a nonzero value is positive exactly when the
lowest-order coefficient of its canonical numerator is positive.  The
generator itself is then smaller than every positive rational, so the field
is non-Archimedean by construction.

Canonical form, enforced on construction: numerator and denominator are
coprime, the lowest-order nonzero coefficient of the denominator is 1, and
zero is ``0/1``.  Equality and hashing are structural, so two values are
equal iff they are the same field element.

This is deliberately only the computable fragment of a non-Archimedean
continuum: the smallest ordered field containing the rationals and one
formal infinitesimal.  Larger extensions need non-constructive choices
and have no finite representation, so they are out of scope by design;
every value the models in this package produce lives here.

Values are immutable and operations are pure, so they are safe to share
between threads.  Values over distinct generators model distinct
processes and never mix; combining them raises
:class:`GeneratorMismatchError`.
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Iterable, Union

from .errors import DomainError, GeneratorMismatchError, ParseError

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise DomainError("float coefficients are not allowed; use exact rationals")
    return Fraction(x)


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored ascending by exponent with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def constant(cls, c: Rat) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: Rat = 1) -> "Poly":
        return cls((0,) * k + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def ord(self) -> "int | None":
        """Least exponent carrying a nonzero coefficient; None for zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def low_coeff(self) -> Fraction:
        k = self.ord()
        return self.coeffs[k] if k is not None else Fraction(0)

    def lead_coeff(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def evaluate(self, x: Rat) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> "tuple[Poly, Poly]":
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / div[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] * inv_lead
            quot[k] = c
            if c:
                for j, d in enumerate(div):
                    rem[k + j] -= c * d
        return Poly(quot), Poly(rem[: len(div) - 1])

    def __floordiv__(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise DomainError("polynomial division is not exact")
        return q

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def _int_primitive(p: Poly) -> "list[int]":
    """Integer coefficients of p scaled primitive (content 1, positive lead)."""
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [int(c.numerator * (den_lcm // c.denominator)) for c in p.coeffs]
    content = 0
    for v in ints:
        content = math.gcd(content, v)
    if ints[-1] < 0:
        content = -content
    return [v // content for v in ints]


def _int_prem(a: "list[int]", b: "list[int]") -> "list[int]":
    """Pseudo-remainder of integer polynomials (a scaled by powers of lc(b))."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db:
        la = a.pop()
        a = [c * lb for c in a]
        shift = len(a) - db
        for i in range(db):
            a[shift + i] -= la * b[i]
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, via a primitive integer remainder
    sequence to keep coefficient growth in check."""
    if a.is_zero():
        return b if b.is_zero() else b * (1 / b.lead_coeff())
    if b.is_zero():
        return a * (1 / a.lead_coeff())
    x, y = _int_primitive(a), _int_primitive(b)
    if len(x) < len(y):
        x, y = y, x
    while True:
        r = _int_prem(x, y)
        if not r:
            break
        content = 0
        for v in r:
            content = math.gcd(content, v)
        x, y = y, [v // content for v in r]
    lead = y[-1]
    return Poly([Fraction(v, lead) for v in y])


def _cancel(a: Poly, b: Poly) -> "tuple[Poly, Poly]":
    """a and b with their common factor of positive degree divided out."""
    if a.degree() > 0 and b.degree() > 0:
        g = poly_gcd(a, b)
        if g.degree() > 0:
            return a // g, b // g
    return a, b


_ONE = Poly((1,))


@dataclass(frozen=True)
class Generator:
    """Named formal positive infinitesimal, e.g. "eps" for a grid spacing.

    The name identifies the modeled process; values over different
    generators are never combined implicitly.
    """

    name: str

    def __str__(self) -> str:
        return self.name


class Ordering(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"

    def __str__(self) -> str:
        return self.value


class Kind(Enum):
    INFINITESIMAL = "infinitesimal"
    LIMITED = "limited-noninfinitesimal"
    UNLIMITED = "unlimited"


class Sign(Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"


@dataclass(frozen=True)
class Classification:
    kind: Kind
    sign: Sign

    def render(self) -> str:
        return f"{self.kind.value}-{self.sign.value}"


class NonArchValue:
    """Element of the ordered field of rational functions in one generator.

    Immutable; all arithmetic returns new canonical values.  Python ints and
    Fractions coerce to constants over the same generator.
    """

    __slots__ = ("generator", "num", "den")

    def __init__(self, generator: Generator, num, den=_ONE, *,
                 _coprime: bool = False):
        num = num if isinstance(num, Poly) else Poly.constant(num)
        den = den if isinstance(den, Poly) else Poly.constant(den)
        if den.is_zero():
            raise DomainError("denominator is the zero polynomial")
        if num.is_zero():
            num, den = Poly(), _ONE
        else:
            if not _coprime:
                num, den = _cancel(num, den)
            scale = 1 / den.low_coeff()
            if scale != 1:
                num, den = num * scale, den * scale
        self.generator = generator
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, generator: Generator, value: Rat) -> "NonArchValue":
        return cls(generator, Poly.constant(value))

    @classmethod
    def infinitesimal(cls, generator: Generator) -> "NonArchValue":
        """The generator itself: the canonical positive infinitesimal."""
        return cls(generator, Poly.monomial(1))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def valuation(self) -> "int | None":
        """ord(num) - ord(den); None for zero.

        Positive means infinitesimal, zero means limited-noninfinitesimal,
        negative means unlimited.
        """
        if self.is_zero():
            return None
        return self.num.ord() - self.den.ord()

    def sign(self) -> Sign:
        if self.is_zero():
            return Sign.ZERO
        # canonical den has positive low coefficient, so the numerator decides
        return Sign.POSITIVE if self.num.low_coeff() > 0 else Sign.NEGATIVE

    def is_limited(self) -> bool:
        v = self.valuation()
        return v is None or v >= 0

    def _check(self, other: "NonArchValue") -> None:
        if self.generator != other.generator:
            raise GeneratorMismatchError(
                f"cannot combine values over generators "
                f"'{self.generator.name}' and '{other.generator.name}'")

    def _coerce(self, other) -> "NonArchValue":
        if isinstance(other, NonArchValue):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return NonArchValue.constant(self.generator, other)
        return NotImplemented

    # -- field operations ----------------------------------------------------
    #
    # Inputs are canonical (numerator and denominator coprime), so products
    # and sums can be reduced with small cross-gcds and the results passed
    # to the constructor already coprime; this keeps the coefficient growth
    # of repeated arithmetic in check.

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.degree() < 1 or d2.degree() < 1:
            g = _ONE
        else:
            g = poly_gcd(d1, d2)
        if g.degree() < 1:
            return NonArchValue(self.generator, n1 * d2 + n2 * d1, d1 * d2,
                                _coprime=True)
        t = n1 * (d2 // g) + n2 * (d1 // g)
        if t.is_zero():
            return NonArchValue(self.generator, t)
        h = poly_gcd(t, g)
        if h.degree() > 0:
            t, d2 = t // h, d2 // h
        return NonArchValue(self.generator, t, (d1 // g) * d2, _coprime=True)

    __radd__ = __add__

    def __neg__(self):
        return NonArchValue(self.generator, -self.num, self.den,
                            _coprime=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return NonArchValue(self.generator, n1 * n2, d1 * d2, _coprime=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DomainError("division by zero")
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        n1, n2 = _cancel(n1, n2)
        d1, d2 = _cancel(d1, d2)
        return NonArchValue(self.generator, n1 * d2, d1 * n2, _coprime=True)

    def __rtruediv__(self, other):
        return NonArchValue.constant(self.generator, other) / self

    # -- order ---------------------------------------------------------------

    def compare(self, other) -> Ordering:
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            raise TypeError(f"cannot compare a field value with {other!r}")
        d = self - coerced
        if d.is_zero():
            return Ordering.EQUAL
        return Ordering.GREATER if d.sign() is Sign.POSITIVE else Ordering.LESS

    def __lt__(self, other):
        return self.compare(other) is Ordering.LESS

    def __le__(self, other):
        return self.compare(other) is not Ordering.GREATER

    def __gt__(self, other):
        return self.compare(other) is Ordering.GREATER

    def __ge__(self, other):
        return self.compare(other) is not Ordering.LESS

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NonArchValue.constant(self.generator, other)
        if not isinstance(other, NonArchValue):
            return NotImplemented
        return (self.generator == other.generator
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.generator, self.num, self.den))

    # -- classification ------------------------------------------------------

    def standard_part(self) -> Fraction:
        """The unique rational infinitely close to a limited value."""
        v = self.valuation()
        if v is None:
            return Fraction(0)
        if v < 0:
            raise DomainError("no standard part: value is unlimited")
        if v > 0:
            return Fraction(0)
        return self.num.coeff(self.num.ord()) / self.den.coeff(self.den.ord())

    def classify(self) -> Classification:
        v = self.valuation()
        if v is None or v >= 1:
            kind = Kind.INFINITESIMAL
        elif v == 0:
            kind = Kind.LIMITED
        else:
            kind = Kind.UNLIMITED
        return Classification(kind, self.sign())

    # -- rendering -----------------------------------------------------------

    def render_canonical(self) -> str:
        g = self.generator.name
        return f"({render_poly(self.num, g)}) / ({render_poly(self.den, g)})"

    def __str__(self) -> str:
        if self.den == _ONE:
            return render_poly(self.num, self.generator.name)
        return self.render_canonical()

    def __repr__(self) -> str:
        return f"NonArchValue({self.generator.name!r}, {self})"


# -- the operation surface ----------------------------------------------------

def arith_add(a: NonArchValue, b: NonArchValue) -> NonArchValue:
    """Exact sum; the generators must match."""
    return a + b


def arith_mul(a: NonArchValue, b: NonArchValue) -> NonArchValue:
    """Exact product; the generators must match."""
    return a * b


def arith_div(a: NonArchValue, b: NonArchValue) -> NonArchValue:
    """Exact quotient; b must be nonzero."""
    return a / b


def compare(a: NonArchValue, b: NonArchValue) -> Ordering:
    """Total order: sign of the difference as the generator tends to 0+."""
    return a.compare(b)


def standard_part(a: NonArchValue) -> Fraction:
    return a.standard_part()


def classify(a: NonArchValue) -> Classification:
    return a.classify()


# -- text form ----------------------------------------------------------------
#
# value    := "(" poly ")" [ "/" "(" poly ")" ] | poly
# poly     := ["+"|"-"] term { ("+"|"-") term }
# term     := nat ["/" nat] ["*" name ["^" nat]] | name ["^" nat]
# rational := ["-"] nat ["/" nat]
#
# Rendering emits terms in ascending exponent order; parse round-trips both
# the full quotient form and the compact numerator-only form.  Every grammar
# of the package reads its text through ``tokenize`` and ``TokenCursor``, so
# a rational is read by one rule everywhere: queries, values, ``--eps`` and
# ``--grid``.

# Input numerals are capped at Python's default int->str limit, so every
# numeral converts; computed values can grow past it and still print.
MAX_NUMERAL_DIGITS = 4300

# A parsed exponent is the length of a coefficient list, so a short text
# must not ask for an arbitrarily long one.
MAX_EXPONENT = 10_000


def render_exact(x) -> str:
    """``str(x)``, exact even for integers past Python's int->str limit."""
    try:
        return str(x)
    except ValueError:
        x = Fraction(x)
        text = str(decimal.Decimal(x.numerator))
        if x.denominator == 1:
            return text
        return f"{text}/{decimal.Decimal(x.denominator)}"


def _render_term(c: Fraction, k: int, name: str) -> str:
    if k == 0:
        return render_exact(c)
    unit = name if k == 1 else f"{name}^{k}"
    if c == 1:
        return unit
    if c == -1:
        return f"-{unit}"
    return f"{render_exact(c)}*{unit}"


def render_poly(p: Poly, name: str) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        t = _render_term(c, k, name)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append(f"- {t[1:]}")
        else:
            parts.append(f"+ {t}")
    return " ".join(parts)


@cache
def _lexer(ops: str) -> "re.Pattern":
    return re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)"
                      rf"|(?P<op>[{re.escape(ops)}])|(?P<bad>\S))")


def tokenize(text: str, ops: str) -> "list[tuple[str, str, int]]":
    """``(kind, text, position)`` tokens in one pass: ``num`` (a run of at
    most MAX_NUMERAL_DIGITS digits), ``name`` and ``op``, one character of
    the grammar's operator alphabet ``ops``.  Whitespace separates tokens;
    any other character is a ParseError."""
    tokens = []
    for m in _lexer(ops).finditer(text):
        kind = m.lastgroup
        word, start = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError(f"syntax error at position {start}: "
                             f"unexpected character {word!r}", position=start)
        if kind == "num" and len(word) > MAX_NUMERAL_DIGITS:
            raise ParseError(f"numeral at position {start} has more than "
                             f"{MAX_NUMERAL_DIGITS} digits", position=start)
        tokens.append((kind, word, start))
    return tokens


def _check_denominator(zero: bool, position: int):
    if zero:
        raise ParseError("zero denominator in rational literal",
                         position=position)


class TokenCursor:
    """A read position in the tokens of one text, with the token rules
    every grammar over them shares, rationals among them."""

    def __init__(self, text: str, ops: str):
        self.tokens = tokenize(text, ops)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def fail(self, expected: str):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"syntax error at end of input, "
                             f"expected {expected}", expected=expected)
        raise ParseError(f"syntax error at position {tok[2]}: got {tok[1]!r}, "
                         f"expected {expected}", position=tok[2],
                         expected=expected)

    def expect_op(self, *ops: str) -> str:
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] not in ops:
            self.fail(" or ".join(f"'{o}'" for o in ops))
        self.pos += 1
        return tok[1]

    def accept_op(self, *ops: str) -> "str | None":
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            self.pos += 1
            return tok[1]
        return None

    def expect_name(self, *names: str) -> str:
        tok = self.peek()
        if tok is None or tok[0] != "name" or (names and tok[1] not in names):
            self.fail(" or ".join(f"'{x}'" for x in names) or "a name")
        self.pos += 1
        return tok[1]

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok is None or tok[0] != "num":
            self.fail("an integer")
        self.pos += 1
        return int(tok[1])

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"syntax error at position {tok[2]}: "
                             f"trailing input {tok[1]!r}", position=tok[2])

    def expect_denominator(self) -> int:
        den = self.expect_nat()
        _check_denominator(den == 0, self.tokens[self.pos - 1][2])
        return den

    def expect_rational(self, signed: bool = True) -> Fraction:
        """``[-]p[/q]`` with q nonzero; the sign is read only if ``signed``."""
        sign = -1 if signed and self.accept_op("-") else 1
        num = sign * self.expect_nat()
        if self.accept_op("/"):
            return Fraction(num, self.expect_denominator())
        return Fraction(num)


def parse_rational(text: str) -> Fraction:
    """One exact rational ``[-]p[/q]``, as every numeric input is written."""
    cursor = TokenCursor(text, "-/")
    value = cursor.expect_rational()
    cursor.expect_end()
    return value


class _PolyParser(TokenCursor):
    def __init__(self, text: str, generator: Generator):
        super().__init__(text, "-+*/^()")
        self.generator = generator

    def parse_poly(self) -> Poly:
        sign = -1 if self.accept_op("+", "-") == "-" else 1
        acc = self.parse_term() * sign
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return acc
            acc = acc + self.parse_term() * (-1 if op == "-" else 1)

    def parse_term(self) -> Poly:
        tok = self.peek()
        if tok is not None and tok[0] == "name":
            return Poly.monomial(self.parse_power())
        if tok is None or tok[0] != "num":
            self.fail(f"a coefficient or '{self.generator.name}'")
        c = self.expect_rational(signed=False)
        if self.accept_op("*"):
            return Poly.monomial(self.parse_power(), c)
        return Poly.constant(c)

    def parse_power(self) -> int:
        self.expect_name(self.generator.name)
        if not self.accept_op("^"):
            return 1
        exponent = self.expect_nat()
        if exponent > MAX_EXPONENT:
            pos = self.tokens[self.pos - 1][2]
            raise ParseError(f"exponent at position {pos} is above "
                             f"{MAX_EXPONENT}", position=pos)
        return exponent


def parse_value(text: str, generator: Generator) -> NonArchValue:
    """Parse either text form back into a value."""
    p = _PolyParser(text, generator)
    den = _ONE
    if p.accept_op("("):
        num = p.parse_poly()
        p.expect_op(")")
        if p.accept_op("/"):
            tok = p.peek()
            p.expect_op("(")
            den = p.parse_poly()
            p.expect_op(")")
            _check_denominator(den.is_zero(), tok[2])
    else:
        num = p.parse_poly()
    p.expect_end()
    return NonArchValue(generator, num, den)
