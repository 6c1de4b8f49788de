"""Field kernel tests.

The ordering oracle is independent of compare(): the sign of a nonzero
rational function near 0+ equals the sign of its value at any rational
x below an explicit threshold derived from the coefficients, so we
evaluate and compare signs.
"""

import ast
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction as F
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import spinnerlab
from _refs import rand_limited_value, rand_value
from spinnerlab.cantor import CantorEvent, cantor_probability
from spinnerlab.errors import DomainError, GeneratorMismatchError, ParseError
from spinnerlab.field import (MAX_NUMERAL_DIGITS, Generator, Kind,
                              NonArchValue, Ordering, Poly, Sign, TokenCursor,
                              classify, compare_values, parse_rational,
                              parse_value, render_exact, standard_part,
                              _exquo, _gcd, _int_prem, _mul, _strip)
from spinnerlab.intervals import (IntervalSet, dyadic_tail_family,
                                  sigma_additivity_probe)
from spinnerlab.lottery import (CoinEvent, archimedean_regularity_witness,
                                coinflip_probability,
                                lottery_ticket_probability)
from spinnerlab import query
from spinnerlab.query import parse_query
from spinnerlab.sampling import rand_interval_set
from spinnerlab.spinner import (FiniteGrid, SuiteConfig, _uniform_pairs,
                                finite_grid_stabilizer, grid_probability)

G = Generator("eps")
EPS = NonArchValue.infinitesimal(G)
ZERO = NonArchValue.constant(G, 0)
ONE = NonArchValue.constant(G, 1)


def val(num, den=(1,)):
    return NonArchValue(G, Poly(num), Poly(den))


# -- independent ordering oracle ------------------------------------------------

def _sign_threshold(p: Poly) -> F:
    """x in (0, threshold] guarantees sign(p(x)) == sign of lowest coeff."""
    j = next(k for k, c in enumerate(p.coeffs) if c)
    low = abs(p.coeffs[j])
    rest = sum(abs(c) for c in p.coeffs[j + 1:])
    if rest == 0:
        return F(1, 2)
    return min(F(1, 2), low / (low + rest))


def poly_at(p: Poly, x: F) -> F:
    """The polynomial's value at x, by Horner's rule."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def oracle_sign(v: NonArchValue) -> int:
    """Sign near 0+ by direct substitution below the safe threshold."""
    if v.is_zero():
        return 0
    x = min(_sign_threshold(v.num), _sign_threshold(v.den)) / 2
    value = poly_at(v.num, x) / poly_at(v.den, x)
    return (value > 0) - (value < 0)


# -- integer polynomial layer ---------------------------------------------------

def _is_multiple(x, b):
    """Whether integer polynomial x is b times an integer polynomial."""
    return not x or _mul(_exquo(x, b), b) == x


def _integer_coeffs(coeffs):
    """Fraction coefficients times their least common denominator."""
    m = math.lcm(*(c.denominator for c in coeffs))
    return _strip([int(c * m) for c in coeffs])


def test_int_prem_is_a_pseudo_remainder():
    rng = random.Random(7)
    for _ in range(200):
        a, b = (_integer_coeffs([F(rng.randint(-9, 9), rng.randint(1, 9))
                                 for _ in range(n)]) for n in (6, 4))
        if not b:
            continue
        r = tuple(_int_prem(a, b))
        # lc(b)^s * a - r is a multiple of b, where s <= deg a - deg b + 1
        # counts the reduction steps: a step is skipped when the degree
        # drops by more than one
        steps = range(max(len(a) - len(b) + 1, 0) + 1)
        assert any(_is_multiple(_strip([b[-1] ** s * c - x for c, x in
                                        zip_longest(a, r, fillvalue=0)]), b)
                   for s in steps)
        assert len(r) < len(b)


def test_gcd_divides_both():
    rng = random.Random(8)
    for _ in range(100):
        g, a, b = (_strip([rng.randint(-5, 5) for _ in range(3)])
                   for _ in range(3))
        if not (g and a and b):
            continue
        d = _gcd(_mul(a, g), _mul(b, g))
        assert _is_multiple(_mul(a, g), d)
        assert _is_multiple(_mul(b, g), d)
        assert len(d) >= len(g)
        # primitive with a positive leading coefficient
        assert math.gcd(*d) == 1 and d[-1] > 0


# -- frozen operation examples --------------------------------------------------

def test_add_examples():
    assert (EPS + (-EPS)) == ZERO
    assert val((F(1, 2), 3)) + val((F(1, 2), -1)) == val((1, 2))
    one_over = val((1,), (1, -1))  # 1/(1-eps)
    assert one_over + (-ONE) == val((0, 1), (1, -1))


def test_mul_examples():
    assert EPS * (ONE / EPS) == ONE
    assert val((1, 1)) * val((1, -1)) == val((1, 0, -1))
    h = NonArchValue.infinitesimal(Generator("h"))
    assert 2 * (F(1, 2) * h) == h


def test_div_examples():
    h = NonArchValue.infinitesimal(Generator("h"))
    assert h / (2 * h) == F(1, 2)
    assert val((1, 0, -1)) / val((1, -1)) == val((1, 1))
    assert (ZERO / val((3, 1))).is_zero()
    with pytest.raises(DomainError):
        ONE / ZERO


def test_compare_examples():
    assert EPS.compare(NonArchValue.constant(G, F(1, 10 ** 6))) is Ordering.LESS
    h = NonArchValue.infinitesimal(Generator("h"))
    assert h.compare(2 * h) is Ordering.LESS
    lhs = val((1, 1), (1, -1))
    assert lhs.compare(val((1, 2))) is Ordering.GREATER


def test_standard_part_examples():
    assert standard_part(val((F(3, 4), 5))) == F(3, 4)
    assert standard_part(NonArchValue.constant(G, 7)) == 7
    assert standard_part(val((0, 1), (1, -1))) == 0
    with pytest.raises(DomainError):
        standard_part(ONE / EPS)


def test_classify_examples():
    c = classify(val((0, 0, 1), (1, 1)))
    assert (c.kind, c.sign) == (Kind.INFINITESIMAL, Sign.POSITIVE)
    c = classify(ONE / EPS)
    assert (c.kind, c.sign) == (Kind.UNLIMITED, Sign.POSITIVE)
    c = classify(ZERO)
    assert (c.kind, c.sign) == (Kind.INFINITESIMAL, Sign.ZERO)


_RATIONALS = st.one_of(st.just(F(0)), st.fractions(max_denominator=50))


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS)
def test_a_rational_follows_the_value_rules_of_its_field_constant(r, s):
    cr, cs = NonArchValue.constant(G, r), NonArchValue.constant(G, s)
    assert standard_part(r) == standard_part(cr) == r
    assert classify(r) == classify(cr)
    expected = compare_values(cr, cs)
    for a, b in ((r, s), (cr, s), (r, cs)):
        ordering, ratio, difference = compare_values(a, b)
        assert ordering is expected[0]
        assert (ratio is None) is (expected[1] is None) is (s == 0)
        assert ratio == expected[1] and difference == expected[2]


def test_query_still_names_compare_values():
    assert query.compare_values is compare_values


def test_generator_mismatch_is_hard_error():
    h = NonArchValue.infinitesimal(Generator("h"))
    with pytest.raises(GeneratorMismatchError):
        EPS + h
    with pytest.raises(GeneratorMismatchError):
        EPS.compare(h)


# -- ordering agrees with the substitution oracle --------------------------------

def test_sign_matches_substitution_oracle():
    rng = random.Random(123)
    for _ in range(400):
        v = rand_value(rng, G, max_degree=4, max_den=20)
        expected = oracle_sign(v)
        got = {Sign.NEGATIVE: -1, Sign.ZERO: 0, Sign.POSITIVE: 1}[v.sign()]
        assert got == expected, f"{v}: sign {got}, oracle {expected}"


def test_compare_matches_substitution_oracle():
    rng = random.Random(456)
    for _ in range(200):
        a = rand_value(rng, G, max_degree=3, max_den=10)
        b = rand_value(rng, G, max_degree=3, max_den=10)
        got = a.compare(b)
        s = oracle_sign(a - b)
        expected = {-1: Ordering.LESS, 0: Ordering.EQUAL,
                    1: Ordering.GREATER}[s]
        assert got is expected


def test_standard_part_is_infinitely_close():
    # v - st(v) must be below every sampled positive rational in magnitude,
    # checked through the substitution oracle rather than classify()
    rng = random.Random(789)
    for _ in range(100):
        v = rand_limited_value(rng, G, max_degree=3, max_den=10)
        r = standard_part(v)
        d = v - NonArchValue.constant(G, r)
        for bound in (F(1, 10), F(1, 1000), F(1, 10 ** 9)):
            if not d.is_zero():
                assert oracle_sign(d - NonArchValue.constant(G, bound)) < 0
                assert oracle_sign(d + NonArchValue.constant(G, bound)) > 0


# -- algebraic laws (randomized, exact) -------------------------------------------

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
polys = st.lists(fractions_st, min_size=0, max_size=4).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@st.composite
def values(draw):
    return NonArchValue(G, draw(polys), draw(nonzero_polys))


@settings(max_examples=120, deadline=None)
@given(values(), values(), values())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + (-a)).is_zero()
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@settings(max_examples=120, deadline=None)
@given(values(), values(), values())
def test_order_axioms(a, b, c):
    results = [a.compare(b) is o for o in Ordering]
    assert sum(results) == 1  # trichotomy
    if a < b:
        assert a + c < b + c
        if c > ZERO:
            assert a * c < b * c
    assert (a.compare(b) is Ordering.EQUAL) == (a == b)


@settings(max_examples=120, deadline=None)
@given(values(), values())
def test_valuation_rules(a, b):
    if not a.is_zero() and not b.is_zero():
        assert (a * b).valuation() == a.valuation() + b.valuation()
        s = a + b
        if not s.is_zero():
            assert s.valuation() >= min(a.valuation(), b.valuation())


@settings(max_examples=120, deadline=None)
@given(values(), values())
def test_standard_part_homomorphism(a, b):
    # limited: zero, or of nonnegative valuation
    if all(v.valuation() is None or v.valuation() >= 0 for v in (a, b)):
        assert standard_part(a + b) == standard_part(a) + standard_part(b)
        assert standard_part(a * b) == standard_part(a) * standard_part(b)
        if a <= b:
            assert standard_part(a) <= standard_part(b)


def test_non_archimedean_witness():
    for r in (F(1, 2), F(1, 100), F(3, 7), F(1, 10 ** 12)):
        assert EPS.compare(NonArchValue.constant(G, r)) is Ordering.LESS
    for n in (1, 10, 10 ** 6, 10 ** 18):
        assert (n * EPS).compare(ONE) is Ordering.LESS


# -- sympy's field of rational functions as the oracle -------------------------------

@pytest.fixture(scope="module")
def field_oracle():
    pytest.importorskip("sympy")
    root = str(Path(__file__).resolve().parents[1])
    sys.path.insert(0, root)
    try:
        from perfbench.oracles import FieldOracle
    finally:
        sys.path.remove(root)
    return FieldOracle()


wide_polys = st.lists(fractions_st, min_size=0, max_size=9).map(Poly)


@st.composite
def wide_values(draw, nonzero=False):
    """Values of degree at most 8, with their raw coefficients."""
    num = draw(wide_polys.filter(lambda p: not (nonzero and p.is_zero())))
    den = draw(wide_polys.filter(lambda p: not p.is_zero()))
    return NonArchValue(G, num, den), (num.coeffs, den.coeffs)


@settings(max_examples=60, deadline=None)
@given(wide_values(), wide_values(), wide_values(nonzero=True))
def test_kernel_matches_sympy_field(field_oracle, a, b, c):
    (a, raw_a), (b, raw_b), (c, raw_c) = a, b, c
    ea, eb, ec = (field_oracle.expr(*raw) for raw in (raw_a, raw_b, raw_c))
    s, p, q = a + b, a * b, (a + b) / c
    for got, expected in ((a, ea), (s, ea + eb), (p, ea * eb),
                          (q, (ea + eb) / ec)):
        assert (list(got.num.coeffs), list(got.den.coeffs)) \
            == field_oracle.canonical(expected)
    signs = {Ordering.LESS: -1, Ordering.EQUAL: 0, Ordering.GREATER: 1}
    assert signs[p.compare(q)] == field_oracle.sign(ea * eb - (ea + eb) / ec)
    try:
        expected_st = field_oracle.standard_part((ea + eb) / ec)
    except ValueError:
        with pytest.raises(DomainError):
            q.standard_part()
    else:
        assert q.standard_part() == expected_st


# -- canonical form ----------------------------------------------------------------

def _values_from_every_path(rng):
    """Values built by every way in: the public constructor from Polys,
    ints and Fractions, affine, parse_value, the models' probabilities, and
    the four operations."""
    def rat(lo=-9):
        return F(rng.randint(lo, 9), rng.randint(1, 9))

    for _ in range(200):
        v = rand_value(rng, G, max_degree=4, max_den=12)
        w = rand_value(rng, G, max_degree=4, max_den=12)
        yield from (v, NonArchValue(G, rng.randint(-9, 9), rng.randint(1, 9)),
                    NonArchValue(G, rat(), rat(1)),
                    NonArchValue.affine(G, rat(), rat()),
                    NonArchValue(G, v.num, rng.randint(-9, -1)),
                    parse_value(f"({rng.randint(-9, 9)}*eps - {rat(0)}) / "
                                f"(-{rat(1)} + {rng.randint(0, 9)}*eps^2)", G),
                    v + w, v - w, v * w)
        if not w.is_zero():
            yield v / w
        yield grid_probability(rand_interval_set(rng, 5, rng.randint(1, 12)))
        yield cantor_probability(CantorEvent(tuple(
            "".join(rng.choice("02") for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(0, 3)))))
        yield coinflip_probability(CoinEvent.allheads(rng.randint(0, 9)))
        yield coinflip_probability(CoinEvent.make(pinned={
            rng.randint(1, 9): rng.choice("HT") for _ in range(3)}))
        yield lottery_ticket_probability(rng.randint(1, 99))


def _scaled(p, c):
    return Poly([c * x for x in p.coeffs])


def test_canonical_idempotent_and_structural():
    for v in _values_from_every_path(random.Random(31)):
        w = NonArchValue(v.generator, v.num, v.den)
        assert (w.n, w.d) == (v.n, v.d) and w == v and hash(w) == hash(v)
        assert next(c for c in v.den.coeffs if c) == 1
        if not v.is_zero() and v.num.degree() > 0 and v.den.degree() > 0:
            assert len(_gcd(v.n, v.d)) == 1
        # scaled representations of the same element collapse
        assert NonArchValue(v.generator, _scaled(v.num, -3),
                            _scaled(v.den, -3)) == v
        assert hash(NonArchValue(v.generator, _scaled(v.num, 3),
                                 _scaled(v.den, 3))) == hash(v)


def test_zero_is_zero_over_one():
    z = NonArchValue(G, Poly((0,)), Poly((5, 3)))
    assert z.num == Poly() and z.den == Poly((1,))


def _times(p, q):
    """The product of two Polys by the schoolbook convolution over the
    Fractions, independent of the kernel's integer arithmetic."""
    out = [F(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs):
            out[i + j] += x * y
    return Poly(out)


def _plus(p, q):
    return Poly([x + y for x, y in zip_longest(p.coeffs, q.coeffs,
                                                fillvalue=0)])


def test_fast_arithmetic_matches_full_reduction():
    # the cross-gcd shortcuts must land on the same canonical form that a
    # from-scratch reduction of the textbook formulas produces
    rng = random.Random(32)
    for _ in range(300):
        a = rand_value(rng, G, max_degree=4, max_den=10)
        b = rand_value(rng, G, max_degree=4, max_den=10)
        s = a + b
        num = _plus(_times(a.num, b.den), _times(b.num, a.den))
        ref = NonArchValue(G, num, _times(a.den, b.den))
        assert (s.num, s.den) == (ref.num, ref.den)
        p = a * b
        ref = NonArchValue(G, _times(a.num, b.num), _times(a.den, b.den))
        assert (p.num, p.den) == (ref.num, ref.den)
        if not b.is_zero():
            q = a / b
            ref = NonArchValue(G, _times(a.num, b.den), _times(a.den, b.num))
            assert (q.num, q.den) == (ref.num, ref.den)


# -- text round trip -----------------------------------------------------------------

def test_render_examples():
    assert str(val((F(3, 4), 5))) == "3/4 + 5*eps"
    assert val((F(3, 4), 5)).render_canonical() == "(3/4 + 5*eps) / (1)"
    assert str(val((0, 1), (1, -1))) == "(eps) / (1 - eps)"
    assert str(ZERO) == "0"
    assert str(val((1, -2, 0, -1))) == "1 - 2*eps - eps^3"


# the renderer that printed values from the Poly view of Fraction
# coefficients, kept as the reference for printing from the integer form

def _ref_render_term(c: F, k: int, name: str) -> str:
    if k == 0:
        return render_exact(c)
    unit = name if k == 1 else f"{name}^{k}"
    if c == 1:
        return unit
    if c == -1:
        return f"-{unit}"
    return f"{render_exact(c)}*{unit}"


def _ref_render_poly(p: Poly, name: str) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        t = _ref_render_term(c, k, name)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append(f"- {t[1:]}")
        else:
            parts.append(f"+ {t}")
    return " ".join(parts)


def _ref_render_canonical(v: NonArchValue) -> str:
    g = v.generator.name
    return f"({_ref_render_poly(v.num, g)}) / ({_ref_render_poly(v.den, g)})"


def _ref_str(v: NonArchValue) -> str:
    if v.den.degree() == 0:
        return _ref_render_poly(v.num, v.generator.name)
    return _ref_render_canonical(v)


# coefficients that print every term form: negative ones, the units 1 and
# -1, fractions whose denominators make the lowest-order coefficient of the
# integer denominator other than 1, and numerators and denominators past
# the 4300-digit int->str limit
_BIG = 10 ** MAX_NUMERAL_DIGITS + 7
_BIG_COEFFS = (F(_BIG), F(-_BIG, 3), F(5, _BIG), F(-1, _BIG))
render_coeffs = st.one_of(
    fractions_st, st.sampled_from([F(1), F(-1), F(1, 3), F(-2, 9)]),
    # drawn by index: a strategy's repr must not print a 4300-digit int
    st.integers(0, 3).map(lambda i: _BIG_COEFFS[i]))
render_polys = st.lists(render_coeffs, max_size=4).map(Poly)


@settings(max_examples=200, deadline=None)
@given(render_polys, render_polys.filter(lambda p: not p.is_zero()))
def test_printing_from_the_integer_form_matches_the_poly_renderer(num, den):
    v = NonArchValue(G, num, den)
    assert str(v) == _ref_str(v)
    assert v.render_canonical() == _ref_render_canonical(v)


def test_printing_covers_every_term_form():
    name = G.name
    for v in (EPS, -EPS, ONE - EPS, EPS - EPS * EPS,
              val((F(1, 3), F(-1, 2)), (1, 3)),
              val((0, 1), (F(2, 3), -1)), val((_BIG, -1)),
              val((F(-1, _BIG), 0, 1), (2,))):
        assert str(v) == _ref_str(v)
        assert v.render_canonical() == _ref_render_canonical(v)
    assert str(EPS) == name and str(-EPS) == f"-{name}"
    assert str(ONE - EPS) == f"1 - {name}"
    assert str(EPS - EPS * EPS) == f"{name} - {name}^2"
    # 1/3 - eps/2 over (1 + 3 eps): the integer denominator is 2 + 6 eps
    v = val((F(1, 3), F(-1, 2)), (1, 3))
    assert v.d[0] == 6 and str(v) == f"(1/3 - 1/2*{name}) / (1 + 3*{name})"
    assert str(val((_BIG, -1))).endswith(f"7 - {name}")


def test_parse_round_trip():
    rng = random.Random(77)
    for _ in range(300):
        v = rand_value(rng, G, max_degree=4, max_den=12)
        assert parse_value(v.render_canonical(), G) == v
        assert parse_value(str(v), G) == v
    # terms repeated, out of order or cancelling are added in at their
    # exponents
    for text, num, den in (
            ("eps + 2*eps", (0, 3), (1,)),
            ("eps^2 - 1/2 + eps", (F(-1, 2), 1, 1), (1,)),
            ("eps - eps", (), (1,)),
            ("(eps - eps) / (1 - eps)", (), (1,)),
            ("(1 + eps^2 - eps^2) / (2*eps - eps)", (1,), (0, 1)),
            ("eps^10000", (0,) * 10000 + (1,), (1,))):
        v = parse_value(text, G)
        assert v == val(num, den)
        assert parse_value(str(v), G) == v


def test_parse_rejects_garbage():
    for text in ("", "(1", "1 +", "eps^", "1 ** eps", "foo", "1/0",
                 "1" + "0" * 4400, "eps^200000", "(1) / (0)",
                 "(1) / (eps - eps)", "(1) / (eps^2 - 1 + 1 - eps^2)"):
        with pytest.raises(ParseError):
            parse_value(text, G)
    # a zero denominator polynomial is reported at its opening parenthesis
    for text in ("(1) / (0)", "(1) / (eps - eps)",
                 "(1) / (eps^2 - 1 + 1 - eps^2)"):
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse_value(text, G)
        assert exc.value.position == 6


# one rational rule for every reader: (text, value or None for a ParseError)
RATIONAL_TEXTS = [
    ("1/2", F(1, 2)), (" 3 / 4 ", F(3, 4)), ("-1/2", F(-1, 2)),
    ("007/2", F(7, 2)), ("1/0", None), ("1/-2", None), ("0.1", None),
    ("1e3", None), ("1_0", None), ("1" + "0" * 4300, None),
]


@pytest.mark.parametrize("text, value", RATIONAL_TEXTS)
def test_one_rational_rule_for_queries_values_and_cli(text, value):
    readers = [
        lambda t:
            F(*parse_query(f"minimal: P([{t},1])").expr.event.parts[0][0]),
        lambda t: parse_value(t, G).standard_part(),
        parse_rational,
    ]
    for read in readers:
        if value is None:
            with pytest.raises(ParseError):
                read(text)
        else:
            assert read(text) == value



# every library entry point that takes an exact rational, with an int it
# accepts: each reads its input by one rule, so a float is a DomainError
# and an int is exact
EXACT_INPUTS = [
    pytest.param(lambda x: IntervalSet([(0, True, x, True)]), 0,
                 id="IntervalSet"),
    pytest.param(IntervalSet.point, 0, id="IntervalSet.point"),
    pytest.param(lambda x: IntervalSet.interval(x, True, 1, False), 0,
                 id="IntervalSet.interval"),
    pytest.param(IntervalSet.full().contains, 0, id="IntervalSet.contains"),
    pytest.param(IntervalSet.full().translate_mod1, 1,
                 id="IntervalSet.translate_mod1"),
    pytest.param(lambda x: NonArchValue(G, x), 2, id="NonArchValue"),
    pytest.param(lambda x: NonArchValue.constant(G, x), 2,
                 id="NonArchValue.constant"),
    pytest.param(lambda x: NonArchValue.affine(G, 1, x), 2,
                 id="NonArchValue.affine"),
    pytest.param(
        lambda x: finite_grid_stabilizer(FiniteGrid((x, F(1, 2)))).order, 0,
        id="FiniteGrid"),
    pytest.param(lambda x: archimedean_regularity_witness(x).n, 1,
                 id="archimedean_regularity_witness"),
    pytest.param(lambda x: Poly([x, 1]), 2, id="Poly"),
    pytest.param(standard_part, 2, id="standard_part"),
    pytest.param(classify, -2, id="classify"),
]


@pytest.mark.parametrize("call, exact", EXACT_INPUTS)
def test_every_exact_input_refuses_a_float(call, exact):
    with pytest.raises(DomainError, match="^floats are not allowed"):
        call(0.5)
    assert call(exact) == call(F(exact))


# inputs that are neither an int nor a Fraction, each refused before any
# arithmetic: text (so no exponent reaches Fraction's parser), a Decimal,
# None and a bool, which is an int subclass but not a number
@pytest.mark.parametrize("other", ["1/3", Decimal("0.5"), None, "1e100000",
                                   True], ids=repr)
@pytest.mark.parametrize("call, exact", EXACT_INPUTS)
def test_every_exact_input_refuses_other_types(call, exact, other):
    with pytest.raises(DomainError, match="^an exact rational must be an int "
                       f"or a Fraction, got {type(other).__name__}$"):
        call(other)


# every library entry point that takes a count, with the name its refusals
# use and an int it accepts: each reads it by the one count rule, so a bool,
# a float or text is a DomainError that names the input
COUNT_INPUTS = [
    pytest.param(_uniform_pairs, "uniform grid size n", 3,
                 id="_uniform_pairs"),
    pytest.param(lottery_ticket_probability, "ticket count", 2,
                 id="lottery_ticket_probability"),
    pytest.param(dyadic_tail_family, "family index n", 2,
                 id="dyadic_tail_family"),
    pytest.param(lambda n: sigma_additivity_probe(
        dyadic_tail_family, n, IntervalSet.interval(0, True, 1, False)),
        "depth", 3, id="sigma_additivity_probe"),
    pytest.param(CoinEvent, "dropped prefix", 2, id="CoinEvent"),
    pytest.param(lambda n: CoinEvent(0, ((n, "H"),)), "pinned position", 2,
                 id="CoinEvent-pin"),
    pytest.param(CoinEvent.make, "dropped prefix", 2, id="CoinEvent.make"),
    pytest.param(lambda n: CoinEvent.make(0, {n: "T"}), "pinned position", 2,
                 id="CoinEvent.make-pin"),
    pytest.param(CoinEvent.allheads, "dropped prefix", 2,
                 id="CoinEvent.allheads"),
    *(pytest.param(lambda n, key=key: SuiteConfig(**{key: n}), key, 2,
                   id=f"SuiteConfig-{key}")
      for key in ("seed", "cases", "max_denominator", "max_grid_size")),
]


@pytest.mark.parametrize("other", [True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("call, name, count", COUNT_INPUTS)
def test_every_count_input_is_an_int(call, name, count, other):
    call(count)
    with pytest.raises(DomainError, match=f"^{name} must be an int, got "
                       f"{type(other).__name__}$"):
        call(other)


# the public callables that read no number: exceptions, enums, text
# parsers and renderers, and kernels of events, values or configs
NO_NUMBER = {
    "DomainError", "GeneratorMismatchError", "ParseError", "QueryTypeError",
    "Kind", "Ordering", "Sign", "Generator", "GridModel", "CantorEvent",
    "parse_query", "parse_set", "parse_value", "evaluate",
    "cantor_probability", "coinflip_probability", "grid_count",
    "grid_probability", "lebesgue_length", "finite_grid_stabilizer", "run_property_suite",
}
# the result records that the library builds and callers only read
RECORDS = {"RegularityWitness", "StabilizerResult", "CountForm",
           "PropertyReport", "EvalResult", "Classification", "Query"}


def test_every_public_callable_reads_numbers_by_one_rule():
    """A new export that reads a number joins EXACT_INPUTS or COUNT_INPUTS;
    one that reads none joins NO_NUMBER or RECORDS."""
    tables = {re.match(r"\w+", p.id).group()
              for p in EXACT_INPUTS + COUNT_INPUTS}
    listed = tables | NO_NUMBER | RECORDS
    unlisted = [name for name in spinnerlab.__all__
                if callable(getattr(spinnerlab, name)) and name not in listed]
    assert not unlisted, unlisted
    stale = (NO_NUMBER | RECORDS) - set(spinnerlab.__all__)
    assert not stale and not (NO_NUMBER | RECORDS) & tables, stale


def _identifiers(path: Path) -> set:
    """The names and attribute names a module refers to, each top-level
    definition's own name left out of its body."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            word = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if word is not None and word != own:
                names.add(word)
    return names


def test_every_public_name_has_a_user_outside_the_tests():
    """Each export is referred to by another library module, by a benchmark
    module, or by a backticked mention in the README: a name that only the
    tests call belongs in the tests."""
    root = Path(__file__).resolve().parents[1]
    users = set()
    for path in (root / "src" / "spinnerlab").glob("*.py"):
        if path.name != "__init__.py":
            users |= _identifiers(path)
    for path in (root / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            users |= _identifiers(path)
    readme = (root / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"`([^`\n]+)`", readme):
        users |= set(re.findall(r"\w+", span))
    unused = [name for name in spinnerlab.__all__ if name not in users]
    assert not unused, unused


# -- the one-split lexer against the finditer lexer it replaced ------------------

def reference_tokens(text, ops):
    """(kind, word, position) per token, one regex match at a time."""
    lexer = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)"
                       rf"|(?P<op>[{re.escape(ops)}])|(?P<bad>\S))")
    tokens = []
    for m in lexer.finditer(text):
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


def first_char_kind(word):
    if word[0].isdecimal():
        return "num"
    if word[0] == "_" or (word[0].isascii() and word[0].isalpha()):
        return "name"
    return "op"


# the characters and words that can occur around each grammar's tokens:
# Unicode whitespace and digits, letters \w accepts but no token starts
# with, the set symbols, a zero denominator, and numerals at and one past
# the digit cap
ODD_PIECES = [" ", "\t", "\n", "\x0b", "\xa0", "\u3000", "\u2028", "é", "²",
              "٣", "１", "_", "∪", "∩", "1/0", "/", ".", "1" * MAX_NUMERAL_DIGITS,
              "9" * (MAX_NUMERAL_DIGITS + 1)]
LEXER_CASES = {
    "query": ("[](){},:|&>/∪∩-", list("[](){},:|&>/-0123456789") + [
        "grid", "minimal", "cantor", "P", "st", "u", "n", "full", "compl",
        "translate", "allheads", "pin", "H", "T", "tickets", "02"]),
    "value": ("-+*/^()", list("-+*/^()0123456789") + ["eps", "eps^2", "x"]),
    "grid": ("-/", list("-/0123456789,") + ["uniform:", "12/35"]),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LEXER_CASES)), st.data())
def test_lexer_matches_the_finditer_reference(grammar, data):
    ops, pieces = LEXER_CASES[grammar]
    text = "".join(data.draw(st.lists(st.sampled_from(pieces + ODD_PIECES),
                                      max_size=30)))
    try:
        expected = reference_tokens(text, ops)
    except ParseError as want:
        with pytest.raises(ParseError) as got:
            TokenCursor(text, ops)
        assert (str(got.value), got.value.position) \
            == (str(want), want.position)
        return
    cursor = TokenCursor(text, ops)
    located = [(word, cursor.position(i))
               for i, word in enumerate(cursor.words[:-1])]
    assert located == [(word, at) for _, word, at in expected]
    assert [first_char_kind(word) for word, _ in located] \
        == [kind for kind, _, _ in expected]
