"""Sampler tests.

The interval samplers draw integers and sum over one common denominator.
The reference samplers below do the same draws in ``Fraction`` arithmetic,
one operation at a time; the library samplers must return the same sets
and leave the generator in the same state, so every suite draws the cases
it drew before.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from spinnerlab import sampling
from spinnerlab.errors import DomainError
from spinnerlab.intervals import IntervalSet


def ref_fraction(rng, max_den, include_one=False):
    den = rng.randint(1, max(1, max_den))
    num = rng.randint(0, den if include_one else den - 1)
    return Fraction(num, den)


def ref_interval_set(rng, max_components, max_den):
    raw = []
    for _ in range(rng.randint(0, max_components)):
        a = ref_fraction(rng, max_den, include_one=True)
        b = ref_fraction(rng, max_den, include_one=True)
        if a > b:
            a, b = b, a
        if a == b and rng.random() < 0.5:
            raw.append((a, True, a, True))
        else:
            raw.append((a, rng.random() < 0.5, b, rng.random() < 0.5))
    return IntervalSet(raw)


def ref_half_open_set(rng, max_components, max_den):
    while True:
        raw = []
        for _ in range(rng.randint(1, max_components)):
            a = ref_fraction(rng, max_den)
            b = ref_fraction(rng, max_den, include_one=True)
            if a > b:
                a, b = b, a
            if a < b:
                raw.append((a, True, b, False))
        s = IntervalSet(raw)
        if s.length > 0:
            return s


def ref_repack_half_open(rng, total, max_pieces):
    if not 0 < total <= 1:
        raise ValueError("total length must lie in (0,1]")
    k = rng.randint(1, max_pieces)
    cuts = sorted({ref_fraction(rng, 64) * total for _ in range(k - 1)})
    bounds = [Fraction(0)] + cuts + [total]
    lengths = [b - a for a, b in zip(bounds, bounds[1:]) if b > a]
    slack = 1 - total
    gaps = []
    remaining = slack
    for _ in lengths:
        g = ref_fraction(rng, 16) * remaining
        gaps.append(g)
        remaining -= g
    raw = []
    pos = Fraction(0)
    for g, ln in zip(gaps, lengths):
        pos += g
        raw.append((pos, True, pos + ln, False))
        pos += ln
    return IntervalSet(raw)


@pytest.mark.parametrize("max_den", [1, 2, 50, 10 ** 18])
def test_samplers_match_the_fraction_reference(max_den):
    for seed in range(2000):
        new, old = (random.Random(f"{seed}:{max_den}") for _ in range(2))
        pairs = [(sampling.rand_interval_set(new, 5, max_den),
                  ref_interval_set(old, 5, max_den)),
                 (sampling.rand_half_open_set(new, 4, max_den),
                  ref_half_open_set(old, 4, max_den))]
        total = pairs[-1][0]._length_ratio()
        pairs.append((sampling._repack_half_open(new, *total, 4),
                      ref_repack_half_open(old, Fraction(*total), 4)))
        pairs.append((sampling._rand_pair(new, max_den, True),
                      ref_fraction(old, max_den, True).as_integer_ratio()))
        for got, want in pairs:
            assert got == want, f"seed {seed}: {got} != {want}"
        assert new.getstate() == old.getstate(), f"seed {seed}"


def test_repack_keeps_the_total_and_the_half_open_shape():
    rng = random.Random(5)
    for total in (Fraction(1), Fraction(1, 3), Fraction(2, 10 ** 18 + 9), 1):
        for _ in range(50):
            s = sampling._repack_half_open(rng, *total.as_integer_ratio(), 6)
            assert s.length == total and s.half_open_only()


@pytest.mark.parametrize("total", [Fraction(0), Fraction(-1, 2),
                                   Fraction(3, 2), 2])
def test_repack_refuses_a_bad_total_before_any_draw(total):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(DomainError):
        sampling._repack_half_open(rng, *total.as_integer_ratio(), 4)
    assert rng.getstate() == state
    # callers that catch ValueError still catch it
    with pytest.raises(ValueError):
        sampling._repack_half_open(rng, *total.as_integer_ratio(), 4)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 51, 64, 65, 2 ** 32,
                               2 ** 32 + 5, 10 ** 18])
def test_the_draw_rule_is_randints(n):
    # the rule restates random's private _randbelow, so it is pinned on
    # every Python the tests run under
    for seed in range(500):
        r, ref = random.Random(seed), random.Random(seed)
        assert sampling._below(r.getrandbits, n) == ref.randint(0, n - 1)
        assert r.getstate() == ref.getstate(), seed


@pytest.mark.parametrize("n", [0, -1, -64])
def test_a_draw_from_an_empty_range_is_refused(n):
    with pytest.raises(ValueError, match="empty range"):
        sampling._below(random.Random(0).getrandbits, n)


def test_a_grid_larger_than_its_denominators_allow_is_refused_at_once():
    # [0,1) holds one rational of denominator 1, so 12 distinct points of
    # denominator at most 1 were drawn for ever
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(DomainError, match="max_size 12 exceeds max_den 1"):
        sampling._rand_grid_pairs(rng, 12, 1)
    assert rng.getstate() == state
    points = sampling._rand_grid_pairs(rng, 12, 40)
    assert 1 <= len(points) <= 12
    assert all(0 <= p < q <= 40 and gcd(p, q) == 1 for p, q in points)
