import json
import random
import tracemalloc
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from _refs import render_query, witness_dict
from spinnerlab.errors import DomainError
from spinnerlab.field import NonArchValue, Ordering, compare_values
from spinnerlab.lottery import (COIN_GENERATOR, LOTTERY_GENERATOR, CoinEvent,
                                archimedean_regularity_witness,
                                coinflip_probability,
                                lottery_ticket_probability)
from spinnerlab.query import evaluate, parse_query

H = NonArchValue.infinitesimal(COIN_GENERATOR)
DELTA = NonArchValue.infinitesimal(LOTTERY_GENERATOR)


# -- coin events -----------------------------------------------------------------

def test_allheads_probabilities():
    assert coinflip_probability(CoinEvent.allheads()) == H
    assert coinflip_probability(CoinEvent.allheads(1)) == 2 * H
    assert coinflip_probability(CoinEvent.allheads(5)) == 32 * H


def test_pinned_probabilities_are_generator_free():
    assert coinflip_probability(CoinEvent.make(pinned={1: "H", 2: "H"})) \
        == F(1, 4)
    assert coinflip_probability(CoinEvent.make(pinned={3: "T"})) == F(1, 2)
    assert coinflip_probability(CoinEvent.make()) == 1


def test_pins_inside_the_dropped_prefix_count():
    e = CoinEvent.make(dropped_prefix=2, pinned={1: "T", 5: "H"})
    assert coinflip_probability(e) == F(1, 4)
    # a tails pin inside the dropped prefix does not contradict all-heads;
    # it fixes one of the free tosses
    e = CoinEvent.make(dropped_prefix=2, pinned={1: "T"}, all_heads=True)
    assert e.consistent
    assert coinflip_probability(e) == 2 * H


def test_inconsistent_event_gives_flagged_zero():
    e = CoinEvent.make(pinned={2: "T"}, all_heads=True)
    assert not e.consistent
    assert coinflip_probability(e).is_zero()


def test_redundant_heads_pins_keep_allheads_value():
    e = CoinEvent.make(pinned={1: "H", 4: "H"}, all_heads=True)
    assert e.consistent
    assert coinflip_probability(e) == H


def test_event_intersection():
    both = CoinEvent.allheads(0).intersect(CoinEvent.allheads(1))
    assert coinflip_probability(both) == H
    mixed = CoinEvent.allheads(1).intersect(CoinEvent.make(pinned={1: "T"}))
    assert mixed.consistent
    assert coinflip_probability(mixed) == H
    clash = CoinEvent.make(pinned={1: "H"}).intersect(
        CoinEvent.make(pinned={1: "T"}))
    assert not clash.consistent
    assert coinflip_probability(clash).is_zero()


def _pairwise_intersect(a, b):
    """Conjunction of two events by the two-event rule, written out: the
    earlier pin wins a disagreement, which marks the result contradictory,
    and all-heads events keep the smallest drop."""
    pins = dict(a.pinned)
    contradictory = a.contradictory or b.contradictory
    for pos, o in b.pinned:
        if pins.get(pos, o) != o:
            contradictory = True
        else:
            pins[pos] = o
    drops = [e.dropped_prefix for e in (a, b) if e.all_heads]
    return CoinEvent(min(drops) if drops else 0, tuple(sorted(pins.items())),
                     a.all_heads or b.all_heads, contradictory)


_COIN_EVENTS = st.builds(
    lambda dropped, pins, all_heads: CoinEvent.make(
        dropped_prefix=dropped, pinned=pins, all_heads=all_heads),
    st.integers(0, 6),
    st.dictionaries(st.integers(1, 8), st.sampled_from("HT"), max_size=5),
    st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(_COIN_EVENTS, min_size=1, max_size=8))
def test_conjunction_equals_the_pairwise_fold(events):
    # small positions, so pins repeat and clash across events
    got = CoinEvent.conjunction(events)
    assert got == reduce(_pairwise_intersect, events)
    assert got == reduce(CoinEvent.intersect, events)
    assert coinflip_probability(got) == coinflip_probability(
        reduce(_pairwise_intersect, events))


@settings(max_examples=300, deadline=None)
@given(_COIN_EVENTS)
def test_conjoining_with_itself_or_the_sure_event_keeps_the_value(e):
    for other in (e, CoinEvent.make()):
        assert coinflip_probability(CoinEvent.conjunction([e, other])) \
            == coinflip_probability(e)


@settings(max_examples=500, deadline=None)
@given(st.lists(_COIN_EVENTS, min_size=1, max_size=3), st.integers(1, 10))
def test_a_free_toss_splits_an_event_into_its_two_outcomes(events, pos):
    # P(A & p:H) + P(A & p:T) == P(A) for a position p that A leaves free
    a = CoinEvent.conjunction(events)
    assume(pos not in dict(a.pinned))
    heads, tails = (coinflip_probability(CoinEvent.conjunction(
        [a, CoinEvent.make(pinned={pos: o})])) for o in "HT")
    assert heads + tails == coinflip_probability(a)


def test_a_tails_pin_past_a_conjoined_drop_empties_the_chain():
    # the conjunction with allheads>2 asks toss 3 for heads, which
    # allheads>5&pin(3:T) pins to tails
    lines = evaluate(parse_query(
        "coinflip: P(allheads>5&pin(3:T) n allheads>2)")).lines()
    assert lines[0] == "value: 0"
    assert _coin_lines("allheads>5 n pin(3:T)")[0] == "value: 16*h"
    assert _coin_lines("allheads>5 | pin(3:T)")[0] == "value: 32*h"


def _coin_lines(text):
    return evaluate(parse_query(f"coinflip: P({text})")).lines()


def test_a_pin_list_with_a_repeated_position_is_its_conjunction():
    # two outcomes at one position empty the event, also inside a dropped
    # prefix; an agreeing repeat counts once
    assert _coin_lines("pin(3:H,3:T)")[0] == "value: 0"
    assert _coin_lines("allheads>5&pin(3:H,3:T)")[0] == "value: 0"
    assert _coin_lines("pin(1:H,1:H,2:T)")[0] == "value: 1/4"
    assert _coin_lines("allheads>5&pin(3:H,3:H)")[0] == "value: 16*h"
    text = "coinflip: P(allheads>5&pin(3:H,3:T))"
    assert render_query(parse_query(text)) == text


def test_the_raw_constructor_reads_a_repeated_position_as_make_does():
    # two outcomes at one position empty the event, as make, a conjunction
    # and the query give; an agreeing repeat counts once
    for drop, all_heads in ((0, False), (0, True), (5, True)):
        e = CoinEvent(drop, ((3, "H"), (3, "T")), all_heads)
        assert e.contradictory and not e.consistent
        assert coinflip_probability(e).is_zero()
    e = CoinEvent(0, ((3, "H"), (3, "T")))
    assert coinflip_probability(e) == coinflip_probability(
        CoinEvent.make(pinned={3: "H"}) & CoinEvent.make(pinned={3: "T"}))
    assert _coin_lines("pin(3:H,3:T)")[0] == "value: 0"
    e = CoinEvent(0, ((1, "H"), (1, "H"), (2, "T")))
    assert e.consistent and coinflip_probability(e) == F(1, 4)
    assert _coin_lines("pin(1:H,1:H,2:T)")[0] == "value: 1/4"
    assert not CoinEvent(0, ((1, "H"), (2, "T"))).contradictory


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.sampled_from("HT")),
                min_size=1, max_size=8),
       st.integers(0, 7))
def test_a_pin_list_equals_the_chain_of_its_pins(pins, j):
    listed = ",".join(f"{p}:{o}" for p, o in pins)
    chain = " n ".join(f"pin({p}:{o})" for p, o in pins)
    assert _coin_lines(f"pin({listed})") == _coin_lines(chain)
    assert _coin_lines(f"allheads>{j}&pin({listed})") \
        == _coin_lines(f"allheads>{j} n {chain}")


def test_a_pin_chain_is_one_conjunction(monkeypatch):
    # folding intersect pairwise copies and sorts the pins so far at every
    # step, so a 9000-operand chain would cost seconds
    def pairwise(self, other):
        raise AssertionError("a chain is conjoined pairwise")
    monkeypatch.setattr(CoinEvent, "intersect", pairwise)
    n = 9000
    pins = " n ".join(f"pin({i}:H)" for i in range(1, n + 1))
    lines = evaluate(parse_query(f"coinflip: P({pins})")).lines()
    assert lines[0] == f"value: {F(1, 2 ** n)}"


def test_event_validation():
    with pytest.raises(DomainError):
        CoinEvent.make(dropped_prefix=-1)
    with pytest.raises(DomainError):
        CoinEvent.make(pinned={0: "H"})
    with pytest.raises(DomainError):
        CoinEvent.make(pinned={1: "X"})
    # a position and a drop count are ints, not bools, floats or text
    for pinned in ({True: "H"}, {2.0: "H"}, {"1": "H"}, {1: "H", "x": "T"}):
        with pytest.raises(DomainError, match="^pinned position must be"):
            CoinEvent.make(pinned=pinned)
    for drop in (True, 1.0, "3"):
        with pytest.raises(DomainError, match="^dropped prefix must be"):
            CoinEvent.allheads(drop)


def test_regularity_over_coin_events():
    rng = random.Random(61)
    for _ in range(100):
        pins = {rng.randint(1, 9): rng.choice("HT") for _ in range(3)}
        p = coinflip_probability(CoinEvent.make(pinned=pins))
        assert p.classify().sign.value == "positive"
    for j in range(10):
        p = coinflip_probability(CoinEvent.allheads(j))
        assert p.classify().render() == "infinitesimal-positive"


# -- the shift comparison ----------------------------------------------------------

def shift_compare(j1, j2):
    """compare(P(allheads>j1), P(allheads>j2)): ordering, ratio, difference."""
    return compare_values(coinflip_probability(CoinEvent.allheads(j1)),
                          coinflip_probability(CoinEvent.allheads(j2)))


def test_shift_compare_drop_one():
    ordering, ratio, difference = shift_compare(0, 1)
    assert ordering is Ordering.LESS
    assert ratio == F(1, 2)
    assert difference == -H


def test_shift_compare_examples():
    ordering, ratio, difference = shift_compare(3, 3)
    assert ordering is Ordering.EQUAL and ratio == 1
    assert difference.is_zero()
    ordering, ratio, difference = shift_compare(2, 0)
    assert ordering is Ordering.GREATER and ratio == 4
    assert difference == 3 * H
    with pytest.raises(DomainError):
        shift_compare(-1, 0)


def test_shift_monotonicity():
    probs = [coinflip_probability(CoinEvent.allheads(j)) for j in range(21)]
    for j in range(20):
        assert probs[j] < probs[j + 1]
        assert probs[j + 1] / probs[j] == 2


# a drop count and a pinned position are read by the one count rule: an int
# that is not a bool
@pytest.mark.parametrize("call, args, message", [
    (CoinEvent.make, (2.5,), "dropped prefix must be an int, got float"),
    (CoinEvent.make, (0, {"3": "H"}), "pinned position must be an int, got str"),
    (CoinEvent.make, (0, {True: "T"}),
     "pinned position must be an int, got bool"),
    (CoinEvent.allheads, ("x",), "dropped prefix must be an int, got str"),
    (CoinEvent.allheads, (True,), "dropped prefix must be an int, got bool"),
    # the shift comparison refuses a non-int drop count on either side
    pytest.param(shift_compare, ("x", 0),
                 "dropped prefix must be an int, got str",
                 id="shift_compare-('x', 0)-'drop count j1'"),
    pytest.param(shift_compare, (0, 1.0),
                 "dropped prefix must be an int, got float",
                 id="shift_compare-(0, 1.0)-'drop count j2'"),
], ids=lambda v: getattr(v, "__name__", repr(v)))  # a method's repr holds its address
def test_drop_counts_are_ints(call, args, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(*args)


# the raw constructor refuses what make refuses, with make's messages; these
# were accepted (or failed in the arithmetic) before it checked its fields
@pytest.mark.parametrize("args, message", [
    ((0, ((0, "X"),)), "pinned position 0 must be a positive integer"),
    ((0, ((3, "X"),)), "pinned outcome 'X' must be H or T"),
    ((-3, (), True), "dropped prefix must be nonnegative"),
    ((True, (), True), "dropped prefix must be an int, got bool"),
    ((200000, (), True), "dropped prefix must be at most 100000"),
], ids=repr)
def test_the_constructor_refuses_what_make_refuses(args, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        CoinEvent(*args)
    drop, pins, *_ = args
    with pytest.raises(DomainError, match=f"^{message}$"):
        CoinEvent.make(drop, dict(pins))


def test_a_query_over_the_drop_bound_renders_and_is_refused_at_evaluation():
    q = parse_query("coinflip: P(allheads>200000&pin(3:T))")
    assert render_query(q) == "coinflip: P(allheads>200000&pin(3:T))"
    with pytest.raises(DomainError, match="^dropped prefix must be at most "
                       "100000$"):
        evaluate(q)


# -- lottery ---------------------------------------------------------------------------

def test_ticket_probabilities():
    assert lottery_ticket_probability(1) == DELTA
    assert lottery_ticket_probability(1000) == 1000 * DELTA
    assert lottery_ticket_probability(1000).classify().render() \
        == "infinitesimal-positive"
    assert lottery_ticket_probability(1) < lottery_ticket_probability(2)
    # a positive int is the only ticket count
    for bad in (0, "single", "pair", 1.0, True, False, "5"):
        with pytest.raises(DomainError):
            lottery_ticket_probability(bad)


# -- overflow witnesses -------------------------------------------------------------------

def test_witness_examples():
    w = archimedean_regularity_witness(F(1, 10), "uniform_points")
    assert w.n == 11 and w.product == F(11, 10)
    w = archimedean_regularity_witness(F(1, 10 ** 6), "uniform_points")
    assert w.n == 10 ** 6 + 1
    w = archimedean_regularity_witness(F(1, 10), "rational_orbit")
    assert w.rotation == F(1, 13)
    points = witness_dict(w)["points"]
    assert len(points) == len(set(points)) == 11
    # the orbit is certified by its rotation, not built point by point
    tracemalloc.start()
    try:
        w = archimedean_regularity_witness(F(1, 10 ** 6), "rational_orbit")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.n == 10 ** 6 + 1 and w.rotation == F(1, 1000003)
    assert peak < 2 ** 20


def test_witness_bounds_randomized():
    rng = random.Random(62)
    for _ in range(200):
        eps = F(rng.randint(1, 50), rng.randint(1, 50))
        w = archimedean_regularity_witness(eps, "uniform_points")
        assert w.n * eps > 1
        assert (w.n - 1) * eps <= 1


def test_witness_orbit_distinctness():
    for eps in (F(1, 7), F(2, 9), F(1, 100)):
        w = archimedean_regularity_witness(eps, "rational_orbit")
        points = json.loads("".join(w.json_chunks()))["points"]
        assert len(set(points)) == w.n
        assert all(0 <= F(p) < 1 for p in points)


def test_witness_rejects_bad_input():
    with pytest.raises(DomainError):
        archimedean_regularity_witness(F(0), "uniform_points")
    with pytest.raises(DomainError):
        archimedean_regularity_witness(F(-1, 4), "uniform_points")
    with pytest.raises(DomainError):
        archimedean_regularity_witness(F(1, 4), "spiral")


def test_witness_json_shape():
    w = archimedean_regularity_witness(F(1, 10), "uniform_points")
    assert witness_dict(w) == {"n": 11, "product": "11/10"}
    w = archimedean_regularity_witness(F(1, 3), "rational_orbit")
    d = witness_dict(w)
    assert set(d) == {"n", "product", "points"}
    assert d["points"][1] == "1/5"
    # the streamed text is json.dumps of the reference object, across
    # block boundaries
    for eps in (F(2), F(1, 3), F(2, 9), F(1, 4095), F(1, 4096), F(1, 9000)):
        for mode in ("uniform_points", "rational_orbit"):
            w = archimedean_regularity_witness(eps, mode)
            assert "".join(w.json_chunks()) == json.dumps(witness_dict(w))
