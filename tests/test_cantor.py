"""Cylinder event tests.

The enumeration oracle materializes all 2^D depth-D addresses, decides
membership by prefix, and compares counting fractions with the measure.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from _refs import coherence_check, hausdorff_measure
from spinnerlab.cantor import (CANTOR_GENERATOR, CantorEvent,
                               cantor_probability)
from spinnerlab.errors import DomainError
from spinnerlab.field import NonArchValue
from spinnerlab.intervals import EMPTY_CONDITION, conditional


def all_addresses(depth):
    return ["".join(t) for t in product("02", repeat=depth)]


def member(e: CantorEvent, address: str) -> bool:
    return any(address.startswith(c) for c in e.cylinders)


def counting_fraction(e: CantorEvent, depth: int) -> F:
    pts = all_addresses(depth)
    return F(sum(1 for a in pts if member(e, a)), len(pts))


def rand_event(rng, max_cyl, max_depth, nonempty=False) -> CantorEvent:
    count = rng.randint(1 if nonempty else 0, max_cyl)
    return CantorEvent("".join(rng.choice("02")
                               for _ in range(rng.randint(1, max_depth)))
                       for _ in range(count))


# -- normalization ----------------------------------------------------------------

def test_normalization_merges_and_prunes():
    assert CantorEvent(("00", "02")) == CantorEvent(("0",))
    assert CantorEvent(("0", "00")) == CantorEvent(("0",))
    assert CantorEvent(("00", "02", "20", "22")) == CantorEvent.full()
    assert CantorEvent(("0", "2")) == CantorEvent.full()
    assert CantorEvent(()).is_empty()


def test_normalization_is_prefix_free_and_idempotent():
    rng = random.Random(41)
    for _ in range(200):
        e = rand_event(rng, 6, 5)
        addrs = sorted(e.cylinders)
        for i, a in enumerate(addrs):
            for b in addrs[i + 1:]:
                assert not b.startswith(a) and not a.startswith(b)
        assert CantorEvent(e.cylinders) == e


def test_normalization_preserves_membership():
    rng = random.Random(42)
    for _ in range(200):
        raw = ["".join(rng.choice("02") for _ in range(rng.randint(1, 4)))
               for _ in range(rng.randint(0, 5))]
        e = CantorEvent(raw)
        for a in all_addresses(5):
            raw_member = any(a.startswith(c) for c in raw)
            assert member(e, a) == raw_member


def test_rejects_bad_addresses():
    with pytest.raises(DomainError):
        CantorEvent(("01",))
    with pytest.raises(DomainError):
        CantorEvent(("x",))
    with pytest.raises(DomainError, match="must be strings, got int$"):
        CantorEvent(["0", 2])
    with pytest.raises(DomainError, match="must be strings, got NoneType$"):
        CantorEvent([None])


def test_one_string_is_refused_not_read_digit_by_digit():
    # "02" read digit by digit is the depth-1 addresses "0" and "2": the
    # full event, where ["02"] is one depth-2 cylinder
    for text in ("02", "0", ""):
        with pytest.raises(DomainError, match="must be a list of strings"):
            CantorEvent(text)
    assert CantorEvent(["02"]).cuts == ((1, 2),)


# -- measure ----------------------------------------------------------------------

def test_measure_examples():
    assert hausdorff_measure(CantorEvent.full()) == 1
    assert hausdorff_measure(CantorEvent(("0",))) == F(1, 2)
    assert hausdorff_measure(CantorEvent(("02", "20", "22"))) == F(3, 4)
    assert hausdorff_measure(CantorEvent.empty()) == 0


def test_measure_matches_counting_oracle():
    rng = random.Random(43)
    for _ in range(300):
        e = rand_event(rng, 5, 6)
        assert hausdorff_measure(e) == counting_fraction(e, 6)


def test_measure_matches_fraction_sum_oracle():
    rng = random.Random(45)
    for _ in range(200):
        e = rand_event(rng, 64, 200)
        assert hausdorff_measure(e) == sum(
            (F(1, 2 ** len(a)) for a in e.cylinders), F(0))


def test_measure_additive_on_disjoint_events():
    rng = random.Random(44)
    checked = 0
    while checked < 100:
        a = rand_event(rng, 3, 5)
        b = rand_event(rng, 3, 5)
        if not (a & b).is_empty():
            continue
        checked += 1
        assert hausdorff_measure(a | b) \
            == hausdorff_measure(a) + hausdorff_measure(b)


# -- probabilities -------------------------------------------------------------------

def test_probability_examples():
    assert cantor_probability(CantorEvent(("0",))) == F(1, 2)
    assert cantor_probability(CantorEvent.empty()).is_zero()
    assert cantor_probability(CantorEvent(("00", "02", "20", "22"))) == 1


def test_probability_is_generator_free():
    rng = random.Random(45)
    for _ in range(100):
        e = rand_event(rng, 4, 5)
        p = cantor_probability(e)
        assert p == NonArchValue.constant(CANTOR_GENERATOR,
                                          hausdorff_measure(e))


def test_point_probability_is_infinitesimal():
    # a single depth-m sample point: one of 2^m, probability c = 2^-m
    p = NonArchValue.infinitesimal(CANTOR_GENERATOR)
    assert p.classify().render() == "infinitesimal-positive"
    assert str(p) == "c"


# -- coherence --------------------------------------------------------------------------

def test_coherence_examples():
    r = coherence_check(CantorEvent(("0",)), CantorEvent.full())
    assert r.verdict == "pass" and "measure-ratio = 1/2" in r.witnesses
    r = coherence_check(CantorEvent(("00",)), CantorEvent(("0",)))
    assert r.verdict == "pass" and "measure-ratio = 1/2" in r.witnesses
    r = coherence_check(CantorEvent(("2",)), CantorEvent(("0",)))
    assert r.verdict == "pass" and "measure-ratio = 0" in r.witnesses


def test_coherence_rejects_empty_condition():
    with pytest.raises(DomainError):
        coherence_check(CantorEvent.full(), CantorEvent.empty())
    with pytest.raises(DomainError):
        conditional(cantor_probability, CantorEvent.full(),
                    CantorEvent.empty(), EMPTY_CONDITION)


def test_intersection_by_prefix_logic():
    assert (CantorEvent(("0",)) & CantorEvent(("00",))) == CantorEvent(("00",))
    assert (CantorEvent(("0",)) & CantorEvent(("2",))).is_empty()
    rng = random.Random(46)
    for _ in range(200):
        a = rand_event(rng, 3, 5)
        b = rand_event(rng, 3, 5)
        got = a & b
        for addr in all_addresses(5):
            assert member(got, addr) == (member(a, addr) and member(b, addr))


def test_complement_within_cantor_set():
    rng = random.Random(47)
    for _ in range(100):
        a = rand_event(rng, 3, 5)
        c = a.complement()
        for addr in all_addresses(5):
            assert member(c, addr) == (not member(a, addr))
        assert hausdorff_measure(a) + hausdorff_measure(c) == 1
    deep = CantorEvent(("0" * 4300,))
    c = deep.complement()
    assert len(c.cylinders) == 4300
    assert c.complement() == deep


def test_conditional_matches_counting_oracle():
    rng = random.Random(48)
    for _ in range(200):
        a = rand_event(rng, 3, 5)
        b = rand_event(rng, 3, 5, nonempty=True)
        got = conditional(cantor_probability, a, b, EMPTY_CONDITION)
        want = counting_fraction(a & b, 6) / counting_fraction(b, 6)
        assert got == NonArchValue.constant(CANTOR_GENERATOR, want)


# -- differential: the string-stack event as the reference ----------------------------

class StackEvent:
    """The earlier cylinder event, kept as the reference: a prefix-free
    address set, normalized by a stack pass over the sorted addresses."""

    def __init__(self, addresses=()):
        s = set()
        for a in addresses:
            if not frozenset("02").issuperset(a):
                raise DomainError(f"invalid cylinder address {a!r}: "
                                  "digits must be 0 or 2")
            s.add(a)
        kept = []
        for a in sorted(s):
            if kept and a.startswith(kept[-1]):
                continue
            while a.endswith("2") and kept and kept[-1] == a[:-1] + "0":
                kept.pop()
                a = a[:-1]
            kept.append(a)
        self.cylinders = frozenset(kept)

    def __or__(self, other):
        return StackEvent(self.cylinders | other.cylinders)

    def __and__(self, other):
        last = ["1", "1"]  # "1" prefixes no address
        out = []
        for a, side in sorted([(a, 0) for a in self.cylinders]
                              + [(a, 1) for a in other.cylinders]):
            if a.startswith(last[1 - side]):
                out.append(a)
            last[side] = a
        return StackEvent(out)

    def complement(self):
        prefixes = set()
        for a in self.cylinders:
            for k in range(len(a) - 1, -1, -1):
                p = a[:k]
                if p in prefixes:
                    break
                prefixes.add(p)
        nodes = [""] + [p + d for p in prefixes for d in "02"]
        return StackEvent(c for c in nodes
                          if c not in prefixes and c not in self.cylinders)

    def measure(self):
        depth = max(map(len, self.cylinders), default=0)
        return F(sum(1 << (depth - len(a)) for a in self.cylinders),
                 1 << depth)

    def render(self):
        if not self.cylinders:
            return "{}"
        if self.cylinders == frozenset(("",)):
            return "full"
        return "{" + ", ".join(sorted(self.cylinders)) + "}"


@st.composite
def _addresses(draw):
    """Addresses under a shared prefix of up to 80 digits, so that siblings
    meet and merge past depth 64, and a few free ones."""
    prefix = draw(st.text("02", max_size=80))
    near = draw(st.lists(st.text("02", max_size=4), max_size=5))
    free = draw(st.lists(st.text("02", max_size=70), max_size=2))
    return [prefix + a for a in near] + free


def _agree(new: CantorEvent, old: StackEvent):
    assert new.cylinders == old.cylinders
    assert new.render() == old.render()
    assert hausdorff_measure(new) == old.measure()


@settings(max_examples=300, deadline=None)
@given(_addresses(), _addresses())
def test_cut_pairs_agree_with_the_stack_event(xs, ys):
    a, b = CantorEvent(xs), CantorEvent(iter(ys))
    old_a, old_b = StackEvent(xs), StackEvent(ys)
    _agree(a, old_a)
    _agree(a | b, old_a | old_b)
    _agree(a & b, old_a & old_b)
    _agree(a.complement(), old_a.complement())
    _agree(a.union(b, a.complement()), old_a | old_b | old_a.complement())
    assert (a == b) == (old_a.cylinders == old_b.cylinders)
    # the same members at another depth: equal, with equal hashes
    for same in (CantorEvent(a.cylinders), a.complement().complement(),
                 a | (b & a), a & CantorEvent.full()):
        assert same == a and hash(same) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


def test_deep_complement_agrees_with_the_stack_event():
    for address in ("0" * 4300, "2" * 4300, "02" * 2150):
        new, old = CantorEvent((address,)), StackEvent((address,))
        _agree(new.complement(), old.complement())
        assert new.complement().complement() == new
