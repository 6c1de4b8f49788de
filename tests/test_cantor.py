"""Cylinder event tests.

The enumeration oracle materializes all 2^D depth-D addresses, decides
membership by prefix, and compares counting fractions with the measure.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from spinnerlab.cantor import (CantorEvent, CantorModel, cantor_probability,
                               coherence_check, conditional_probability,
                               hausdorff_measure, point_probability)
from spinnerlab.errors import DomainError
from spinnerlab.field import NonArchValue

CM = CantorModel()


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
    assert cantor_probability(CM, CantorEvent(("0",))) == F(1, 2)
    assert cantor_probability(CM, CantorEvent.empty()).is_zero()
    assert cantor_probability(
        CM, CantorEvent(("00", "02", "20", "22"))) == 1


def test_probability_is_generator_free():
    rng = random.Random(45)
    for _ in range(100):
        e = rand_event(rng, 4, 5)
        p = cantor_probability(CM, e)
        assert p == NonArchValue.constant(CM.generator, hausdorff_measure(e))


def test_point_probability_is_infinitesimal():
    p = point_probability(CM)
    assert p.classify().render() == "infinitesimal-positive"
    assert str(p) == "c"


# -- coherence --------------------------------------------------------------------------

def test_coherence_examples():
    r = coherence_check(CM, CantorEvent(("0",)), CantorEvent.full())
    assert r.verdict == "pass" and "measure-ratio = 1/2" in r.witnesses
    r = coherence_check(CM, CantorEvent(("00",)), CantorEvent(("0",)))
    assert r.verdict == "pass" and "measure-ratio = 1/2" in r.witnesses
    r = coherence_check(CM, CantorEvent(("2",)), CantorEvent(("0",)))
    assert r.verdict == "pass" and "measure-ratio = 0" in r.witnesses


def test_coherence_rejects_empty_condition():
    with pytest.raises(DomainError):
        coherence_check(CM, CantorEvent.full(), CantorEvent.empty())
    with pytest.raises(DomainError):
        conditional_probability(CM, CantorEvent.full(), CantorEvent.empty())


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
        got = conditional_probability(CM, a, b)
        want = counting_fraction(a & b, 6) / counting_fraction(b, 6)
        assert got == NonArchValue.constant(CM.generator, want)
