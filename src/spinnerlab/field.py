"""Exact arithmetic in an ordered field of rational functions in one formal
infinitesimal.

A value is a quotient ``num/den`` of polynomials in a named generator ``g``
with exact rational coefficients.  The order is the sign of the leading
behavior as ``g -> 0+``: a nonzero value is positive exactly when the
lowest-order coefficient of its canonical numerator is positive.  The
generator itself is then smaller than every positive rational, so the field
is non-Archimedean by construction.

A value holds two tuples of Python ints, ``n`` and ``d``, and this integer
form is canonical, enforced on construction: coefficients ascend by
exponent with trailing zeros stripped, ``n`` and ``d`` are coprime as
polynomials, the coefficients of both together have no common factor, the
lowest-order nonzero coefficient of ``d`` is positive, and zero is
``((), (1,))``.  Equality and hashing are structural, so two values are
equal iff they are the same field element.  Every operation works on these
integers: sums, products and quotients divide out common factors found by
the primitive remainder sequence gcd (Knuth, TAOCP vol. 2, 4.6.1; Brown
1971), and ``compare`` reads one sign of a cross product.

A value prints from the same integers: each coefficient is divided by
the lowest-order coefficient of ``d`` with one ``gcd`` and written as its
reduced ``p/q``.  ``num`` and ``den`` are the exact-rational view of that
form for library callers: two coprime ``Poly`` objects with ``Fraction``
coefficients, the denominator's lowest-order coefficient 1, and zero as
``0/1``.  ``Poly`` is a read-only view with no arithmetic, and printing
does not read it.

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


def _ratio(x) -> "tuple[int, int]":
    """Numerator and positive denominator of one exact rational input: the
    one rule every library entry point reads with.  Only an int that is not
    a bool, or a Fraction, is read; a float or any other type is a
    DomainError before any arithmetic, so no text reaches ``Fraction``'s
    own parser."""
    if isinstance(x, (int, Fraction)) and x.__class__ is not bool:
        return x.numerator, x.denominator
    if isinstance(x, float):
        raise DomainError("floats are not allowed; use exact rationals")
    raise DomainError(f"an exact rational must be an int or a Fraction, "
                      f"got {type(x).__name__}")


def _count(x, name: str) -> int:
    """One integer count input: only an int that is not a bool is read;
    anything else is a DomainError that names the input."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{name} must be an int, got {type(x).__name__}")
    return x


def _frac(x) -> Fraction:
    """One exact rational input as a Fraction, read by ``_ratio``."""
    return Fraction(*_ratio(x))


class Poly:
    """Read-only polynomial view with Fraction coefficients, as
    ``NonArchValue.num`` and ``.den`` return it; it has no arithmetic.
    Coefficients are stored ascending by exponent with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


# -- integer polynomials -------------------------------------------------------
#
# The kernel's polynomials are tuples of ints ascending by exponent with
# trailing zeros stripped; () is zero.

def _strip(cs: list) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ord(a: tuple) -> int:
    """Least exponent carrying a nonzero coefficient of a nonzero a."""
    k = 0
    while not a[k]:
        k += 1
    return k


def _cleared(*polys) -> "list[tuple]":
    """Sequences of exact rationals, all times their least common
    denominator, as integer polynomials."""
    ratios = [[_ratio(c) for c in p] for p in polys]
    scale = math.lcm(*(q for r in ratios for _, q in r))
    return [_strip([p * (scale // q) for p, q in r]) for r in ratios]


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _mul(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            for j, y in enumerate(a, i):
                out[j] += x * y
    return tuple(out)


def _coeff(a: tuple, b: tuple, k: int) -> int:
    """The coefficient of g^k in a*b."""
    return sum(a[i] * b[k - i]
               for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))))


def _primitive(a: tuple) -> tuple:
    """Nonzero a over its content, with a positive leading coefficient."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return tuple(a) if c == 1 else tuple(x // c for x in a)


def _int_prem(a, b) -> "list[int]":
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


def _gcd(a: tuple, b: tuple) -> tuple:
    """Primitive greatest common divisor, positive leading coefficient, of
    nonzero integer polynomials, by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _int_prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return (1,)


def _exquo(a: tuple, g: tuple) -> tuple:
    """a / g for a primitive factor g of a.  By Gauss's lemma the quotient
    has integer coefficients, so every step divides exactly."""
    dg, lead = len(g) - 1, g[-1]
    rem = list(a)
    quot = [0] * (len(a) - dg)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + dg] // lead
        if c:
            for j in range(dg):
                rem[k + j] -= c * g[j]
    return tuple(quot)


def _cofactors(a: tuple, b: tuple) -> "tuple[tuple, tuple]":
    """a and b with their common factor of positive degree divided out."""
    if len(a) > 1 and len(b) > 1:
        g = _gcd(a, b)
        if len(g) > 1:
            return _exquo(a, g), _exquo(b, g)
    return a, b


def _canonical(n: tuple, d: tuple) -> "tuple[tuple, tuple]":
    """Coprime n and nonzero d scaled to the canonical integer form."""
    if not n:
        return (), (1,)
    c = math.gcd(*n, *d)
    if d[_ord(d)] < 0:
        c = -c
    if c == 1:
        return n, d
    return tuple(x // c for x in n), tuple(x // c for x in d)


def _sum(n1: tuple, d1: tuple, n2: tuple, d2: tuple) -> "tuple[tuple, tuple]":
    """Canonical n1/d1 + n2/d2 of canonical operands.  Over g = gcd(d1, d2),
    a common factor of the sum's numerator and denominator can only divide
    g, so the one gcd left to take is that of the numerator with g."""
    g = _gcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else (1,)
    if len(g) == 1:
        return _canonical(_add(_mul(n1, d2), _mul(n2, d1)), _mul(d1, d2))
    e1, e2 = _exquo(d1, g), _exquo(d2, g)
    t, g = _cofactors(_add(_mul(n1, e2), _mul(n2, e1)), g)
    return _canonical(t, _mul(_mul(e1, e2), g))


def _cross_sign(n1: tuple, d1: tuple, n2: tuple, d2: tuple) -> int:
    """Sign as g -> 0+ of n1/d1 - n2/d2, where d1 and d2 have positive
    lowest-order coefficients: that of the lowest nonzero coefficient of
    n1*d2 - n2*d1, read upward without forming the products."""
    if d1 == d2:
        d1 = d2 = (1,)  # (n1 - n2)*d has the lowest-order sign of n1 - n2
    for k in range(max(len(n1) + len(d2), len(n2) + len(d1)) - 1):
        c = _coeff(n1, d2, k) - _coeff(n2, d1, k)
        if c:
            return 1 if c > 0 else -1
    return 0


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


# indexed by a sign plus one
_ORDERINGS = (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER)


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


# every classification, built once
_CLASSIFICATIONS = {(kind, sign): Classification(kind, sign)
                    for kind in Kind for sign in Sign}


class NonArchValue:
    """Element of the ordered field of rational functions in one generator.

    Immutable; all arithmetic returns new canonical values.  Python ints and
    Fractions coerce to constants over the same generator.
    """

    __slots__ = ("generator", "n", "d")

    def __init__(self, generator: Generator, num, den=1):
        """num/den from Polys, ints or Fractions, canonicalized once."""
        n, d = _cleared(*(p.coeffs if isinstance(p, Poly) else (p,)
                          for p in (num, den)))
        if not d:
            raise DomainError("denominator is the zero polynomial")
        self.generator = generator
        self.n, self.d = _canonical(*_cofactors(n, d))

    @classmethod
    def _make(cls, generator: Generator, n: tuple, d: tuple) -> "NonArchValue":
        """A value from tuples already in canonical integer form."""
        value = object.__new__(cls)
        value.generator, value.n, value.d = generator, n, d
        return value

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, generator: Generator, value: Rat) -> "NonArchValue":
        p, q = _ratio(value)
        return cls._make(generator, (p,) if p else (), (q,))

    @classmethod
    def affine(cls, generator: Generator, constant: Rat,
               slope: Rat) -> "NonArchValue":
        """constant + slope*g.  Over the least common denominator of the
        two rationals the numerator and that denominator share no factor,
        so the value is canonical with no gcd taken."""
        (a, p), (b, q) = _ratio(constant), _ratio(slope)
        m = math.lcm(p, q)
        return cls._make(generator, _strip([a * (m // p), b * (m // q)]), (m,))

    @classmethod
    def infinitesimal(cls, generator: Generator) -> "NonArchValue":
        """The generator itself: the canonical positive infinitesimal."""
        return cls._make(generator, (0, 1), (1,))

    # -- structure ---------------------------------------------------------

    def _over_d_low(self, coeffs: tuple) -> Poly:
        low = self.d[_ord(self.d)]
        return Poly([Fraction(c, low) for c in coeffs])

    @property
    def num(self) -> Poly:
        """The numerator over the rationals, scaled so that ``den`` has
        lowest-order coefficient 1."""
        return self._over_d_low(self.n)

    @property
    def den(self) -> Poly:
        """The denominator over the rationals, lowest-order coefficient 1."""
        return self._over_d_low(self.d)

    def is_zero(self) -> bool:
        return not self.n

    def valuation(self) -> "int | None":
        """ord(num) - ord(den); None for zero.

        Positive means infinitesimal, zero means limited-noninfinitesimal,
        negative means unlimited.
        """
        if not self.n:
            return None
        return _ord(self.n) - _ord(self.d)

    def sign(self) -> Sign:
        if not self.n:
            return Sign.ZERO
        # d has a positive lowest-order coefficient, so n decides
        return Sign.POSITIVE if self.n[_ord(self.n)] > 0 else Sign.NEGATIVE

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
    # and quotients are reduced with small cross-gcds and sums with one gcd
    # of the denominators; only the integer content and the sign are left to
    # fix, which keeps the coefficient growth of repeated arithmetic in check.

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NonArchValue._make(
            self.generator, *_sum(self.n, self.d, other.n, other.d))

    __radd__ = __add__

    def __neg__(self):
        return NonArchValue._make(self.generator, tuple(-c for c in self.n),
                                  self.d)

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
        n1, d2 = _cofactors(self.n, other.d)
        n2, d1 = _cofactors(other.n, self.d)
        return NonArchValue._make(
            self.generator, *_canonical(_mul(n1, n2), _mul(d1, d2)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.n:
            raise DomainError("division by zero")
        n1, n2 = _cofactors(self.n, other.n)
        d1, d2 = _cofactors(self.d, other.d)
        return NonArchValue._make(
            self.generator, *_canonical(_mul(n1, d2), _mul(d1, n2)))

    def __rtruediv__(self, other):
        return NonArchValue.constant(self.generator, other) / self

    # -- order ---------------------------------------------------------------

    def compare(self, other) -> Ordering:
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            raise TypeError(f"cannot compare a field value with {other!r}")
        return _ORDERINGS[1 + _cross_sign(self.n, self.d,
                                          coerced.n, coerced.d)]

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
            p = other.numerator
            return (self.n == ((p,) if p else ())
                    and self.d == (other.denominator,))
        if not isinstance(other, NonArchValue):
            return NotImplemented
        return (self.generator == other.generator
                and self.n == other.n and self.d == other.d)

    def __hash__(self):
        return hash((self.generator, self.n, self.d))

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
        return Fraction(self.n[_ord(self.n)], self.d[_ord(self.d)])

    def classify(self) -> Classification:
        v = self.valuation()
        if v is None or v >= 1:
            kind = Kind.INFINITESIMAL
        elif v == 0:
            kind = Kind.LIMITED
        else:
            kind = Kind.UNLIMITED
        return _CLASSIFICATIONS[kind, self.sign()]

    # -- rendering -----------------------------------------------------------

    def render_canonical(self) -> str:
        g, d = self.generator.name, self.d
        low = d[_ord(d)]
        return f"({_render_terms(self.n, low, g)}) / " \
               f"({_render_terms(d, low, g)})"

    def __str__(self) -> str:
        if len(self.d) == 1:
            return _render_terms(self.n, self.d[0], self.generator.name)
        return self.render_canonical()

    def __repr__(self) -> str:
        return f"NonArchValue({self.generator.name!r}, {self})"


Value = Union[Fraction, NonArchValue]


def standard_part(a: Value) -> Fraction:
    """The standard part of a limited value; a rational, read by the
    exact-input rule, is its own."""
    if isinstance(a, NonArchValue):
        return a.standard_part()
    return a if isinstance(a, Fraction) else _frac(a)


def classify(a: Value) -> Classification:
    """A rational, read by the exact-input rule, classifies as the
    constant it is in the field."""
    if isinstance(a, NonArchValue):
        return a.classify()
    p, _ = _ratio(a)
    sign = Sign.ZERO if p == 0 else Sign.POSITIVE if p > 0 else Sign.NEGATIVE
    return _CLASSIFICATIONS[Kind.LIMITED if p else Kind.INFINITESIMAL, sign]


def compare_values(a: Value, b: Value) -> tuple[Ordering, "Value | None",
                                                 Value]:
    """Ordering plus exact ratio (None against zero) and difference."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        ordering = (Ordering.LESS if a < b
                    else Ordering.GREATER if a > b else Ordering.EQUAL)
        ratio = a / b if b != 0 else None
        return ordering, ratio, a - b
    if isinstance(a, Fraction):
        a = NonArchValue.constant(b.generator, a)
    if isinstance(b, Fraction):
        b = NonArchValue.constant(a.generator, b)
    ratio = a / b if not b.is_zero() else None
    return a.compare(b), ratio, a - b


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
# ``--grid``.  ``tokenize`` is one ``re.findall``: the cursor reads plain
# token words, and a token's position is computed by a second pass over the
# text only when a ParseError reports it.

# Input numerals are capped at Python's default int->str limit, so every
# numeral converts; computed values can grow past it and still print.
MAX_NUMERAL_DIGITS = 4300

# A parsed exponent is the length of a coefficient list, so a short text
# must not ask for an arbitrarily long one.
MAX_EXPONENT = 10_000

# the characters a name starts with
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        "abcdefghijklmnopqrstuvwxyz_")


def render_exact(x) -> str:
    """The text of an exact value: a NonArchValue as ``str``, an int or a
    ``Fraction`` by ``render_ratio`` from its numerator and denominator."""
    if isinstance(x, NonArchValue):
        return str(x)
    return render_ratio(x.numerator, x.denominator)


def render_ratio(p: int, q: int) -> str:
    """The text of the rational p/q, given in lowest terms with q > 0, as
    ``str`` of its ``Fraction`` reads: the one rule every number prints by.
    Past Python's int->str limit ``decimal`` converts p and q, so the text
    stays exact; no ``Fraction`` is built and no ``gcd`` taken."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        text = str(decimal.Decimal(p))
        return text if q == 1 else f"{text}/{decimal.Decimal(q)}"


def _render_terms(coeffs: tuple, low: int, name: str) -> str:
    """The polynomial with coefficients ``coeffs``/``low``, ascending by
    exponent, each term's rational reduced by one gcd; ``low`` > 0."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        g = math.gcd(c, low)
        p, q = c // g, low // g
        if k == 0:
            t = render_ratio(p, q)
        else:
            unit = name if k == 1 else f"{name}^{k}"
            if q == 1 and (p == 1 or p == -1):
                t = unit if p == 1 else f"-{unit}"
            else:
                t = f"{render_ratio(p, q)}*{unit}"
        if parts:
            t = f"- {t[1:]}" if p < 0 else f"+ {t}"
        parts.append(t)
    return " ".join(parts) if parts else "0"


@cache
def _lexer(ops: str) -> "re.Pattern":
    # group 1 is a token word; a character no token starts with matches
    # outside it, and so is found as ""; whitespace is left between matches
    return re.compile(rf"(\d+|[A-Za-z_]\w*|[{re.escape(ops)}])|\S")


def _starts(text: str, ops: str) -> "list[int]":
    """The start position of every token."""
    return [m.start() for m in _lexer(ops).finditer(text)]


def tokenize(text: str, ops: str) -> "list[str]":
    """The token words of ``text``.  A word is a numeral (a run of at most
    MAX_NUMERAL_DIGITS digits), a name or one character of the grammar's
    operator alphabet ``ops``; any other character is a ParseError."""
    words = _lexer(ops).findall(text)
    # only a text longer than the digit cap can hold a longer numeral
    if "" in words or len(text) > MAX_NUMERAL_DIGITS and max(
            map(len, words), default=0) > MAX_NUMERAL_DIGITS:
        for i, word in enumerate(words):
            if not word:
                at = _starts(text, ops)[i]
                raise ParseError(f"syntax error at position {at}: unexpected "
                                 f"character {text[at]!r}", position=at)
            if len(word) > MAX_NUMERAL_DIGITS and word.isdecimal():
                at = _starts(text, ops)[i]
                raise ParseError(f"numeral at position {at} has more than "
                                 f"{MAX_NUMERAL_DIGITS} digits", position=at)
    return words


class TokenCursor:
    """A read position in the token words of one text, with the token rules
    every grammar over them shares, rationals among them.

    ``words`` ends with a ``""`` sentinel, so reading at the end needs no
    bounds check, and a word's first character gives its kind: a digit for
    a numeral, a letter or ``_`` for a name, anything else for an operator.
    ``expect_op`` is the one rule for a fixed word, operator or name.
    A token's position in the text is computed only for a ParseError."""

    def __init__(self, text: str, ops: str):
        self._text, self._ops = text, ops
        self.words = tokenize(text, ops)
        self.words.append("")
        self.pos = 0

    def peek(self) -> str:
        return self.words[self.pos]

    def at_name(self) -> bool:
        return self.words[self.pos][:1] in _NAME_START

    def position(self, i: int) -> "int | None":
        """Where token ``i`` starts in the text; None at the end of input."""
        starts = _starts(self._text, self._ops)
        return starts[i] if i < len(starts) else None

    def fail(self, expected: str):
        word = self.words[self.pos]
        if not word:
            raise ParseError(f"syntax error at end of input, "
                             f"expected {expected}", expected=expected)
        at = self.position(self.pos)
        raise ParseError(f"syntax error at position {at}: got {word!r}, "
                         f"expected {expected}", position=at,
                         expected=expected)

    def fail_zero_denominator(self, i: int):
        """Reject the denominator that starts at token ``i``."""
        raise ParseError("zero denominator in rational literal",
                         position=self.position(i))

    def expect_op(self, *words: str) -> str:
        """The current word, if it is one of ``words``: operators or names."""
        word = self.words[self.pos]
        if word not in words:
            self.fail(" or ".join(f"'{w}'" for w in words))
        self.pos += 1
        return word

    def accept_op(self, *ops: str) -> "str | None":
        word = self.words[self.pos]
        if word in ops:
            self.pos += 1
            return word
        return None

    def expect_nat(self) -> int:
        word = self.words[self.pos]
        if not word.isdecimal():
            self.fail("an integer")
        self.pos += 1
        return int(word)

    def expect_end(self):
        word = self.words[self.pos]
        if word:
            at = self.position(self.pos)
            raise ParseError(f"syntax error at position {at}: "
                             f"trailing input {word!r}", position=at)

    def denominator_at(self, i: int) -> int:
        """The nonzero integer that token ``i`` must be."""
        word = self.words[i]
        if not word.isdecimal():
            self.pos = i
            self.fail("an integer")
        den = int(word)
        if not den:
            self.fail_zero_denominator(i)
        return den

    def expect_ratio(self, signed: bool = True) -> "tuple[int, int]":
        """``[-]p[/q]`` with q nonzero, as the ints (p, q) in lowest terms
        with q > 0; the sign is read only if ``signed``.  The words are read
        directly: literals are the hot path of queries."""
        words, i = self.words, self.pos
        negative = signed and words[i] == "-"
        if negative:
            i += 1
        word = words[i]
        if not word.isdecimal():
            self.pos = i
            self.fail("an integer")
        num = -int(word) if negative else int(word)
        if words[i + 1] != "/":
            self.pos = i + 1
            return num, 1
        self.pos = i + 3
        den = self.denominator_at(i + 2)
        g = math.gcd(num, den)
        return (num, den) if g == 1 else (num // g, den // g)

    def expect_rational(self, signed: bool = True) -> Fraction:
        """``expect_ratio``'s rational as a ``Fraction``."""
        return Fraction(*self.expect_ratio(signed))


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
        """Each signed term's coefficient added in at its exponent."""
        coeffs: "list[Rat]" = []
        op = self.accept_op("+", "-")
        while True:
            k, c = self.parse_term()
            if k >= len(coeffs):
                coeffs.extend([0] * (k + 1 - len(coeffs)))
            coeffs[k] += -c if op == "-" else c
            op = self.accept_op("+", "-")
            if op is None:
                return Poly(coeffs)

    def parse_term(self) -> "tuple[int, Rat]":
        """(exponent, coefficient) of one unsigned term."""
        if self.at_name():
            return self.parse_power(), 1
        if not self.peek().isdecimal():
            self.fail(f"a coefficient or '{self.generator.name}'")
        c = self.expect_rational(signed=False)
        if self.accept_op("*"):
            return self.parse_power(), c
        return 0, c

    def parse_power(self) -> int:
        self.expect_op(self.generator.name)
        if not self.accept_op("^"):
            return 1
        exponent = self.expect_nat()
        if exponent > MAX_EXPONENT:
            pos = self.position(self.pos - 1)
            raise ParseError(f"exponent at position {pos} is above "
                             f"{MAX_EXPONENT}", position=pos)
        return exponent


def parse_value(text: str, generator: Generator) -> NonArchValue:
    """Parse either text form back into a value."""
    p = _PolyParser(text, generator)
    den = 1
    if p.accept_op("("):
        num = p.parse_poly()
        p.expect_op(")")
        if p.accept_op("/"):
            opening = p.pos
            p.expect_op("(")
            den = p.parse_poly()
            p.expect_op(")")
            if den.is_zero():
                p.fail_zero_denominator(opening)
    else:
        num = p.parse_poly()
    p.expect_end()
    return NonArchValue(generator, num, den)
