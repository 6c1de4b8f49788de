"""Interval-set tests.

The membership oracle checks raw flag logic point by point over all
rationals with small denominators, independently of normalization.
"""

import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from spinnerlab.errors import DomainError, ParseError
from spinnerlab.intervals import (IntervalSet, Piece, _Wide,
                                  dyadic_tail_family, lebesgue_length,
                                  parse_set, sigma_additivity_probe)
from spinnerlab.sampling import rand_interval_set
from spinnerlab.spinner import grid_count


def raw_member(raw, x):
    """Membership in a list of flagged intervals, flags applied directly."""
    for left, left_in, right, right_in in raw:
        if left < x < right:
            return True
        if x == left and left_in and (x < right or right_in):
            return True
        if x == right and right_in and (x > left or left_in):
            return True
    return False


def small_rationals(max_den):
    seen = set()
    for den in range(1, max_den + 1):
        for num in range(0, den):
            seen.add(F(num, den))
    return sorted(seen)


POINTS_8 = small_rationals(8)
POINTS_12 = small_rationals(12)


def assert_members(s: IntervalSet, raw, points):
    for x in points:
        want = raw_member(raw, x)
        # the point 1 wraps to 0 in the sample space
        if raw_member(raw, F(1)):
            want = want or x == 0
        assert s.contains(x) == want, f"x={x} in {s.render()}"


# -- normalization ---------------------------------------------------------------

def test_normalize_merges_adjacent_half_open():
    s = IntervalSet([(F(0), True, F(1, 2), False),
                     (F(1, 2), True, F(3, 4), False)])
    assert s.render() == "[0,3/4)"


def test_normalize_point_fills_gap():
    raw = [(F(1, 4), False, F(1, 2), False),
           (F(1, 2), True, F(1, 2), True),
           (F(1, 2), False, F(3, 4), False)]
    s = IntervalSet(raw)
    assert s.render() == "(1/4,3/4)"
    assert_members(s, raw, POINTS_8)


def test_normalize_empty():
    assert IntervalSet([]).is_empty()
    assert IntervalSet([(F(1, 3), False, F(1, 3), False)]).is_empty()
    assert IntervalSet([(F(1, 3), True, F(1, 3), False)]).is_empty()


def test_normalize_rejects_out_of_range():
    with pytest.raises(DomainError):
        IntervalSet([(F(-1, 4), True, F(1, 2), False)])
    with pytest.raises(DomainError):
        IntervalSet([(F(1, 2), True, F(5, 4), False)])
    with pytest.raises(DomainError):
        IntervalSet([(F(1, 2), True, F(1, 4), False)])


def test_constructor_validates_pieces():
    # a Piece is checked like a raw 4-tuple: order, range, floats
    for bad in (Piece(F(3, 4), True, F(1, 4), True),
                Piece(F(1, 2), True, F(5, 4), False),
                Piece(F(-1, 4), False, F(1, 2), False),
                Piece(0.25, True, F(1, 2), False),
                Piece(F(1, 4), True, 0.5, False)):
        with pytest.raises(DomainError):
            IntervalSet([bad])
        with pytest.raises(DomainError):
            IntervalSet([(F(0), True, F(1, 8), False), bad])
    # and its point 1 wraps to 0
    assert IntervalSet([Piece(F(3, 4), True, F(1), True)]) \
        == IntervalSet([(F(3, 4), True, F(1), True)])


def test_point_one_wraps_to_zero():
    assert IntervalSet([(F(1), True, F(1), True)]) == IntervalSet.point(0)
    # the empty (1,1] holds no point 1 to wrap
    assert IntervalSet([(F(1), False, F(1), True)]).is_empty()
    s = IntervalSet([(F(3, 4), True, F(1), True)])
    assert s.render() == "{0} ∪ [3/4,1)"
    assert s.contains(0) and s.contains(F(99, 100)) and not s.contains(F(1, 2))


def test_normalize_membership_oracle_randomized():
    rng = random.Random(5)
    for _ in range(150):
        raw = []
        for _ in range(rng.randint(0, 4)):
            a = F(rng.randint(0, 8), 8)
            b = F(rng.randint(0, 8), 8)
            if a > b:
                a, b = b, a
            raw.append((a, rng.random() < 0.5, b, rng.random() < 0.5))
        s = IntervalSet(raw)
        assert_members(s, raw, POINTS_8)
        # idempotence: renormalizing the components changes nothing
        assert IntervalSet(s.components) == s


# -- boolean algebra ---------------------------------------------------------------

def test_complement_examples():
    s = IntervalSet.interval(0, True, F(1, 2), False)
    assert s.complement().render() == "[1/2,1)"


def test_intersect_example():
    a = IntervalSet.interval(0, True, F(2, 3), False)
    b = IntervalSet.interval(F(1, 3), False, F(1), False)
    got = a.intersect(b)
    assert got.render() == "(1/3,2/3)"
    for x in POINTS_12:
        assert got.contains(x) == (a.contains(x) and b.contains(x))


def test_union_with_complement_is_full():
    rng = random.Random(6)
    for _ in range(100):
        a = rand_interval_set(rng, 4, 10)
        assert a.union(a.complement()) == IntervalSet.full()
        assert (a & a.complement()).is_empty()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6),
       # (components, endpoint denominators, probe denominators); sets of up
       # to 12 components make an intersection clip span several components
       st.sampled_from(((3, 6, 6), (12, 12, 24))))
def test_boolean_membership_is_pointwise(seed, shape):
    max_components, max_den, probe_den = shape
    rng = random.Random(seed)
    a = rand_interval_set(rng, max_components, max_den)
    b = rand_interval_set(rng, max_components, max_den)
    for x in small_rationals(probe_den):
        assert (a | b).contains(x) == (a.contains(x) or b.contains(x))
        assert (a & b).contains(x) == (a.contains(x) and b.contains(x))
        assert a.complement().contains(x) == (not a.contains(x))


def assert_normal(s: IntervalSet):
    """Sorted, nonempty, pairwise apart components inside [0,1), equal to the
    set rebuilt from plain tuples, with the summed-Fraction length; every
    stored cut holds x as a pair (p, q) in lowest terms with q > 0, a _Wide
    exactly when q > 2**32 and a plain tuple otherwise, and the key
    floor(x * 2**64); the components are the Pieces of the stored cuts."""
    for cut in (c for pair in s.cuts for c in pair):
        k, x, _ = cut
        p, q = x
        assert q > 0 and math.gcd(p, q) == 1, cut
        assert type(x) is (_Wide if q > 2 ** 32 else tuple), cut
        assert k == math.floor(F(p, q) * 2 ** 64), cut
    assert s.components == tuple(
        Piece(F(*left), not after, F(*right), right_in)
        for (_, left, after), (_, right, right_in) in s.cuts)
    cuts = [((p.left, not p.left_in), (p.right, p.right_in))
            for p in s.components]
    for start, end in cuts:
        assert (F(0), False) <= start < end <= (F(1), False), s.components
    for (_, end), (start, _) in zip(cuts, cuts[1:]):
        assert end < start, s.components
    assert IntervalSet([(p.left, p.left_in, p.right, p.right_in)
                        for p in s.components]) == s
    assert s.length == sum((p.right - p.left for p in s.components), F(0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_operations_keep_normal_form(seed):
    rng = random.Random(seed)
    a = rand_interval_set(rng, 12, 12)
    b = rand_interval_set(rng, 12, 12)
    c = rand_interval_set(rng, 12, 12)
    q = F(rng.randint(-24, 24), rng.randint(1, 12))
    for s in (a, a | b, a & b, a.complement(), a.translate_mod1(q),
              a.union(b, c), a.union()):
        assert_normal(s)
    assert a.union(b, c) == (a | b) | c
    assert a.union() == a


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_small_operand_bisected_into_a_large_set(seed):
    # up to 30 components against up to 3: union and intersect bisect the
    # small set's components into the large one's instead of merging both
    rng = random.Random(seed)
    ends = sorted(rng.sample(range(97), 2 * rng.randint(8, 30)))
    large = IntervalSet([(F(a, 96), rng.random() < 0.5, F(b, 96),
                          rng.random() < 0.5)
                         for a, b in zip(ends[::2], ends[1::2])])
    small = rand_interval_set(rng, 3, 12)
    cuts = sorted({x for s in (large, small) for p in s.components
                   for x in (p.left, p.right)} | {F(0), F(1)})
    probes = cuts[:-1] + [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]
    for a, b in ((large, small), (small, large)):
        union, common = a | b, a & b
        assert union == IntervalSet._from_cuts([*a.cuts, *b.cuts])
        for s in (union, common):
            assert_normal(s)
        for x in probes:
            assert union.contains(x) == (a.contains(x) or b.contains(x))
            assert common.contains(x) == (a.contains(x) and b.contains(x))


def member(raw, x):
    """Membership in raw flagged intervals inside [0,1), with the point 1
    wrapped to 0."""
    return raw_member(raw, x) or (x == 0 and raw_member(raw, F(1)))


# endpoints base + i/(2**65 + j), clamped to [0,1]: denominators above
# 2**32 make distinct endpoints share the key floor(x * 2**64), so cut order
# falls back to the exact order of the pairs.  The bases near 0 and near 1
# over 2**32 and 2**32 + 1 sit on both sides of the boundary where a pair
# turns from a plain tuple into a _Wide, so a plain pair ties with wide ones.
_TIE_BASES = [F(0), F(1, 2 ** 32), F(1, 2 ** 32 + 1), F(1, 2),
              1 - F(1, 2 ** 32), 1 - F(1, 2 ** 32 + 1), F(1)]
_TIE_POINTS = st.builds(
    lambda base, i, j: min(max(base + F(i, 2 ** 65 + j), F(0)), F(1)),
    st.sampled_from(_TIE_BASES), st.integers(-12, 12), st.integers(0, 3))
_TIE_RAW = st.lists(
    st.tuples(_TIE_POINTS, st.booleans(), _TIE_POINTS, st.booleans()).map(
        lambda c: c if c[0] <= c[2] else (c[2], c[1], c[0], c[3])),
    max_size=6)


@settings(max_examples=150, deadline=None)
@given(_TIE_RAW, _TIE_RAW, _TIE_POINTS,
       st.sampled_from([F(0), F(1, 3), F(-5, 7), F(1, 2 ** 32),
                        F(-1, 2 ** 32 + 1)]))
# the end near 1 over 2**32 + 1 wraps past 1 to tie with 0, and the wrapped
# end ties with the plain 1/2**32
@example([(1 - F(1, 2 ** 32 + 1), True, F(1), False)],
         [(F(1, 2 ** 32), True, F(1, 2 ** 32), True)],
         F(0), F(1, 2 ** 32 + 1) + F(2, 2 ** 65 + 1))
# a plain 1/2**32 ties with the wide (2**33 + 1)/(2**65 + 1) above it
@example([(F(1, 2 ** 32), True, F(1, 2), False)],
         [(F(0), False, F(2 ** 33 + 1, 2 ** 65 + 1), True)],
         1 - F(1, 2 ** 32), F(0))
def test_key_ties_fall_back_to_exact_order(ra, rb, shift, q):
    a, b = IntervalSet(ra), IntervalSet(rb)
    # an offset over a tie-prone denominator, so shifted endpoints tie too
    q = q - shift
    union, common, rest, moved = a | b, a & b, a.complement(), \
        a.translate_mod1(q)
    for s in (a, b, union, common, rest, moved):
        assert_normal(s)
    ends = {x for raw in (ra, rb) for c in raw for x in (c[0], c[2])}
    ends |= {(x + q) % 1 for x in ends} | {F(0)}
    ends = sorted(x for x in ends if x < 1) + [F(1)]
    probes = ends[:-1] + [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    for x in probes:
        in_a, in_b = member(ra, x), member(rb, x)
        assert a.contains(x) == in_a and b.contains(x) == in_b
        assert union.contains(x) == (in_a or in_b)
        assert common.contains(x) == (in_a and in_b)
        assert rest.contains(x) == (not in_a)
        assert moved.contains(x) == member(ra, (x - q) % 1)


# -- translation --------------------------------------------------------------------

def test_translate_examples():
    got = IntervalSet.interval(F(3, 4), True, 1, False).translate_mod1(F(1, 4))
    assert got.render() == "[0,1/4)"
    got = IntervalSet.interval(F(1, 2), True, F(7, 8),
                               False).translate_mod1(F(1, 4))
    assert got.render() == "[0,1/8) ∪ [3/4,1)"
    got = IntervalSet.interval(F(1, 4), True, F(1, 2),
                               True).translate_mod1(F(1, 2))
    assert got.render() == "{0} ∪ [3/4,1)"
    rng = random.Random(9)
    for _ in range(50):
        a = rand_interval_set(rng, 4, 10)
        assert a.translate_mod1(0) == a
        assert a.translate_mod1(1) == a


def test_translate_membership_oracle():
    rng = random.Random(10)
    for _ in range(100):
        a = rand_interval_set(rng, 3, 6)
        t = F(rng.randint(-12, 12), rng.randint(1, 6))
        got = a.translate_mod1(t)
        for x in small_rationals(12):
            assert got.contains(x) == a.contains((x - t) % 1), \
                f"A={a.render()} t={t} x={x}"


def test_translate_preserves_length():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_interval_set(rng, 4, 20)
        t = F(rng.randint(0, 40), rng.randint(1, 20))
        assert lebesgue_length(a.translate_mod1(t)) == lebesgue_length(a)


# -- measure -------------------------------------------------------------------------

def test_length_examples():
    assert lebesgue_length(IntervalSet.interval(0, True, F(1, 2), False)) \
        == F(1, 2)
    assert lebesgue_length(IntervalSet.point(F(1, 3))) == 0
    u = IntervalSet([(F(0), True, F(1, 4), True),
                     (F(1, 2), False, F(5, 8), False)])
    assert lebesgue_length(u) == F(3, 8)


def test_length_is_exact_over_large_coprime_denominators():
    # consecutive odd numbers are coprime, so these denominators above
    # 2**64 share no factor, and small ones repeat among the endpoints
    dens = [2 ** 64 + 1, 2 ** 64 + 3, 2 ** 65 + 1, 2 ** 65 + 3, 3, 4, 7]
    rng = random.Random(17)
    assert IntervalSet([]).length == 0
    for _ in range(200):
        points = sorted({F(rng.randrange(d), d)
                         for d in rng.choices(dens, k=2 * rng.randint(1, 40))})
        s = IntervalSet([(left, True, right, rng.random() < 0.5)
                         for left, right in zip(points[::2], points[1::2])])
        assert s.length == sum((p.right - p.left for p in s.components), F(0))


# endpoints in [0,1] over 12, 7 and a denominator above 2**64
_ENDS = st.one_of(
    st.integers(0, 12).map(lambda n: F(n, 12)),
    st.builds(F, st.integers(0, 7), st.sampled_from([7, 2 ** 64 + 1])))
_RAW = st.lists(
    st.tuples(_ENDS, st.booleans(), _ENDS, st.booleans()).map(
        lambda c: c if c[0] <= c[2] else (c[2], c[1], c[0], c[3])),
    max_size=5)


@settings(max_examples=150, deadline=None)
@given(_RAW, _RAW, _ENDS, st.builds(F, st.integers(-30, 30),
                                    st.integers(1, 12)))
def test_length_is_kept_and_is_the_sum_of_the_components(ra, rb, x, t):
    a, b = IntervalSet(ra), IntervalSet(rb)
    built = [a, IntervalSet.point(x), a | b, a & b, a.complement(),
             a.translate_mod1(t)]
    built += [IntervalSet.interval(*c) for c in ra[:1]]
    for s in built:
        want = sum((p.right - p.left for p in s.components), F(0))
        first = s.length
        assert first == want
        # the second read returns the value kept by the first
        assert s.length is first


def test_length_modularity():
    rng = random.Random(12)
    for _ in range(200):
        a = rand_interval_set(rng, 4, 15)
        b = rand_interval_set(rng, 4, 15)
        assert (lebesgue_length(a | b) + lebesgue_length(a & b)
                == lebesgue_length(a) + lebesgue_length(b))


def test_length_monotone_under_inclusion():
    rng = random.Random(13)
    for _ in range(100):
        a = rand_interval_set(rng, 3, 10)
        b = a | rand_interval_set(rng, 3, 10)
        assert (a & b) == a  # a is a subset of b
        assert lebesgue_length(a) <= lebesgue_length(b)


def test_equal_length_intervals_have_equal_measure():
    rng = random.Random(14)
    for _ in range(100):
        ln = F(rng.randint(1, 10), 20)
        a0 = F(rng.randint(0, 20 - int(20 * ln)), 20)
        b0 = F(rng.randint(0, 20 - int(20 * ln)), 20)
        a = IntervalSet.interval(a0, True, a0 + ln, False)
        b = IntervalSet.interval(b0, True, b0 + ln, False)
        assert lebesgue_length(a) == lebesgue_length(b) == ln


# -- sigma-additivity probe ------------------------------------------------------------

def test_dyadic_probe_depth_20():
    rep = sigma_additivity_probe(dyadic_tail_family, 20, IntervalSet.full())
    assert rep.verdict == "pass"
    assert rep.cases == 21
    assert f"residual = {F(1, 2 ** 21)}" in rep.witnesses


def test_single_member_probe():
    family = lambda i: IntervalSet.full() if i == 0 else IntervalSet.empty()
    rep = sigma_additivity_probe(family, 1, IntervalSet.full())
    assert rep.verdict == "pass"
    assert "residual = 0" in rep.witnesses


def test_point_family_probe():
    rep = sigma_additivity_probe(lambda i: IntervalSet.point(F(1, i + 2)), 10,
                                 IntervalSet.interval(0, True, F(1, 2), False))
    assert rep.verdict == "pass"
    assert "residual = 1/2" in rep.witnesses
    assert "partial sum = 0" in rep.witnesses


def test_probe_rejects_overlap():
    half = IntervalSet.interval(0, True, F(1, 2), False)
    with pytest.raises(DomainError, match="overlap"):
        sigma_additivity_probe(lambda i: half, 3, IntervalSet.full())


def test_probe_names_the_first_member_that_meets_an_earlier_one():
    members = [IntervalSet.interval(F(a), True, F(b), False) for a, b in
               ((0, F(1, 4)), (F(1, 2), F(3, 4)), (F(5, 8), F(7, 8)),
                (F(1, 8), F(1, 4)))]
    with pytest.raises(DomainError, match=re.escape(
            "family members 1 and 2 overlap on [5/8,3/4)")):
        sigma_additivity_probe(members.__getitem__, 3, IntervalSet.full())


def test_a_deep_probe_runs_in_one_pass():
    # each member is checked against the union of the earlier ones, not
    # against each of them
    start = time.perf_counter()
    rep = sigma_additivity_probe(dyadic_tail_family, 1600, IntervalSet.full())
    assert time.perf_counter() - start < 1
    assert (rep.verdict, rep.cases) == ("pass", 1601)
    assert f"residual = {F(1, 2 ** 1601)}" in rep.witnesses


# a family index and a probe depth are read by the one count rule: an int
# that is not a bool
@pytest.mark.parametrize("call, message", [
    (lambda: dyadic_tail_family(True), "family index n must be an int, "
                                       "got bool"),
    (lambda: dyadic_tail_family(F(2)), "family index n must be an int, "
                                       "got Fraction"),
    (lambda: dyadic_tail_family(-1), "family index must be nonnegative"),
    (lambda: sigma_additivity_probe(dyadic_tail_family, True,
                                    IntervalSet.full()),
     "depth must be an int, got bool"),
    (lambda: sigma_additivity_probe(dyadic_tail_family, 2.0,
                                    IntervalSet.full()),
     "depth must be an int, got float"),
])
def test_family_index_and_depth_are_counts(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


# -- text form ---------------------------------------------------------------------------

def test_set_notation_round_trip():
    rng = random.Random(15)
    for _ in range(100):
        a = rand_interval_set(rng, 4, 10)
        assert parse_set(a.render()) == a
    assert parse_set("[0,1/2) u (3/4,7/8]") == IntervalSet(
        [(F(0), True, F(1, 2), False), (F(3, 4), False, F(7, 8), True)])
    assert parse_set("{1/3}") == IntervalSet.point(F(1, 3))
    assert parse_set("∅").is_empty()
    assert parse_set("{}").is_empty()
    assert parse_set("{1/3, 1/2}") == IntervalSet(
        [(F(1, 3), True, F(1, 3), True), (F(1, 2), True, F(1, 2), True)])
    assert parse_set("compl([0,1/2))") == IntervalSet.interval(
        F(1, 2), True, 1, False)
    with pytest.raises(ParseError) as exc:
        parse_set("[0,1/2) u nonsense")
    assert exc.value.position == 10
    # a vocabulary mismatch in set notation is a ParseError too
    for text, message in (
            ("allheads", "coin events do not belong to the minimal model"),
            ("{02}", "brace item '02' looks like a cylinder address; "
                     "cylinder sets belong to the cantor model, not minimal")):
        with pytest.raises(ParseError) as exc:
            parse_set(text)
        assert type(exc.value) is ParseError
        assert str(exc.value) == message


def _exact_text(x):
    """``str`` of a ``Fraction``, through ``decimal`` past Python's
    int->str limit."""
    try:
        return str(x)
    except ValueError:
        text = str(Decimal(x.numerator))
        if x.denominator == 1:
            return text
        return f"{text}/{Decimal(x.denominator)}"


def _piece_text(piece):
    """A component's text by the rule a ``Piece`` once printed itself by."""
    left = _exact_text(piece.left)
    if piece.left == piece.right:
        return f"{{{left}}}"
    lb = "[" if piece.left_in else "("
    rb = "]" if piece.right_in else ")"
    return f"{lb}{left},{_exact_text(piece.right)}{rb}"


# endpoints over denominators above 2**32 and of 2201 digits, and shifts
# over 2201 digits, so a translate's endpoints pass 4300 digits
_BIG = 10 ** 2200
_TEXT_ENDS = st.builds(lambda n, d: F(min(n, d), d), st.integers(0, 7),
                       st.sampled_from([1, 7, 12, 2 ** 32 + 1, 2 ** 64 + 1,
                                        _BIG + 1]))
_TEXT_RAW = st.lists(
    st.tuples(_TEXT_ENDS, st.booleans(), _TEXT_ENDS, st.booleans()).map(
        lambda c: c if c[0] <= c[2] else (c[2], c[1], c[0], c[3])),
    max_size=5)
_TEXT_SHIFTS = st.builds(F, st.integers(0, 5),
                         st.sampled_from([1, 3, 2 ** 33 + 1, _BIG + 3]))


@settings(max_examples=200, deadline=None)
@given(_TEXT_RAW, _TEXT_SHIFTS)
@example([(F(1, _BIG + 1), True, F(1, 2), False)], F(1, _BIG + 3))
def test_a_set_prints_as_its_components(raw, t):
    a = IntervalSet(raw)
    b = a.translate_mod1(t)
    for s in (a, a.complement(), b, b.complement()):
        text = " ∪ ".join(map(_piece_text, s.components)) or "∅"
        assert s.render() == text
        assert repr(s) == f"IntervalSet<{text}>"


def test_exact_numbers_past_the_digit_limit_render():
    # the inputs are at the 4300-digit cap; sums of their endpoints are
    # twice as long, past Python's int->str limit
    nines, sevens = "9" * 4300, "7" * 4300
    a = parse_set(f"translate([0,1/{nines}), 1/{sevens})")
    right = F(1, int(sevens)) + F(1, int(nines))
    assert a.render() == f"[1/{sevens},{_exact_text(right)})"
    assert repr(a) == f"IntervalSet<{a.render()}>"
    b = parse_set(f"[0,1/{nines}) u translate([0,1/{sevens}), 1/2)")
    assert grid_count(b).render() == f"{_exact_text(right)}*N + 0"
