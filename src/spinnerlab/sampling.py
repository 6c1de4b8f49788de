"""Seeded random generation of exact rational test data.

Everything here is driven by a caller-supplied ``random.Random`` so that
suites and tests are reproducible from a single seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .field import Generator, NonArchValue, Poly
from .intervals import IntervalSet


def rand_fraction(rng: random.Random, max_den: int,
                  include_one: bool = False) -> Fraction:
    """Uniform-ish rational in [0,1) (or [0,1] with include_one)."""
    den = rng.randint(1, max(1, max_den))
    num = rng.randint(0, den if include_one else den - 1)
    return Fraction(num, den)


def rand_interval_set(rng: random.Random, max_components: int,
                      max_den: int) -> IntervalSet:
    """Random normalized set with mixed flags, possibly empty."""
    raw = []
    for _ in range(rng.randint(0, max_components)):
        a = rand_fraction(rng, max_den, include_one=True)
        b = rand_fraction(rng, max_den, include_one=True)
        if a > b:
            a, b = b, a
        if a == b and rng.random() < 0.5:
            raw.append((a, True, a, True))
        else:
            raw.append((a, rng.random() < 0.5, b, rng.random() < 0.5))
    return IntervalSet(raw)


def rand_half_open_set(rng: random.Random, max_components: int,
                       max_den: int) -> IntervalSet:
    """Random nonempty finite union of [a,b) components."""
    while True:
        raw = []
        for _ in range(rng.randint(1, max_components)):
            a = rand_fraction(rng, max_den)
            b = rand_fraction(rng, max_den, include_one=True)
            if a > b:
                a, b = b, a
            if a < b:
                raw.append((a, True, b, False))
        s = IntervalSet(raw)
        if s.length > 0:
            return s


def repack_half_open(rng: random.Random, total: Fraction,
                     max_pieces: int) -> IntervalSet:
    """Disjoint union of [a,b) pieces with the exact prescribed total length."""
    if not 0 < total <= 1:
        raise ValueError("total length must lie in (0,1]")
    k = rng.randint(1, max_pieces)
    cuts = sorted({rand_fraction(rng, 64) * total for _ in range(k - 1)})
    bounds = [Fraction(0)] + cuts + [total]
    lengths = [b - a for a, b in zip(bounds, bounds[1:]) if b > a]
    slack = 1 - total
    gaps = []
    remaining = slack
    for _ in lengths:
        g = rand_fraction(rng, 16) * remaining
        gaps.append(g)
        remaining -= g
    raw = []
    pos = Fraction(0)
    for g, ln in zip(gaps, lengths):
        pos += g
        raw.append((pos, True, pos + ln, False))
        pos += ln
    return IntervalSet(raw)


def rand_poly(rng: random.Random, max_degree: int, max_den: int,
              max_num: int = 100, nonzero: bool = False) -> Poly:
    while True:
        coeffs = [Fraction(rng.randint(-max_num, max_num),
                           rng.randint(1, max_den))
                  for _ in range(rng.randint(0, max_degree) + 1)]
        p = Poly(coeffs)
        if not (nonzero and p.is_zero()):
            return p


def rand_value(rng: random.Random, generator: Generator, max_degree: int = 4,
               max_den: int = 100) -> NonArchValue:
    num = rand_poly(rng, max_degree, max_den)
    den = rand_poly(rng, max_degree, max_den, nonzero=True)
    return NonArchValue(generator, num, den)


def rand_limited_value(rng: random.Random, generator: Generator,
                       max_degree: int = 4, max_den: int = 100) -> NonArchValue:
    """Value with nonnegative valuation, so a standard part exists."""
    num = rand_poly(rng, max_degree, max_den)
    den = rand_poly(rng, max_degree, max_den, nonzero=True)
    coeffs = list(den.coeffs)
    if not coeffs or coeffs[0] == 0:
        const = Fraction(rng.randint(1, 100), rng.randint(1, max_den))
        coeffs = [const] + coeffs[1:] if coeffs else [const]
    return NonArchValue(generator, num, Poly(coeffs))


def rand_grid_points(rng: random.Random, max_size: int,
                     max_den: int) -> list[Fraction]:
    """Distinct rationals in [0,1) for a nonempty finite grid."""
    size = rng.randint(1, max_size)
    pts = set()
    while len(pts) < size:
        pts.add(rand_fraction(rng, max_den))
    return sorted(pts)
