"""Seeded random generation of the suites' exact rational cases.

Everything here is driven by a caller-supplied ``random.Random`` so that
suites and tests are reproducible from a single seed.

Every integer is drawn by one rule, ``_below(bits, n)`` with ``bits`` the
generator's ``getrandbits``: draw ``n.bit_length()`` bits, and draw again
while the result is ``>= n``.  ``rng.randint(a, b)`` is
``a + _below(bits, b - a + 1)``: on CPython 3.10 to 3.13 ``randint`` goes
through ``randrange`` to ``_randbelow_with_getrandbits``, which is this
rule, so the same generator words give the same values and leave the same
state, and the suites draw the cases they drew through ``randint``.  The
rule skips the two calls and the argument checks that ``randint`` makes
before it gets there.

The interval samplers draw numerators and denominators as integers, order
endpoints by integer cross products and do their sums over one common
denominator.  Each endpoint is reduced by one ``gcd`` to the pair that
``intervals._clean`` validates and turns into cuts, as the query parser's
endpoints are, so no endpoint becomes a ``Fraction``.
"""

from __future__ import annotations

import random
from math import gcd, lcm

from .errors import DomainError
from .intervals import IntervalSet, Ratio, _clean


def _below(bits, n: int) -> int:
    """``randint(0, n - 1)``'s value from ``bits``, a generator's
    ``getrandbits``, by its rule (see the module docstring); n < 1, an
    empty range, is a ValueError as it is for ``randint``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        if n < 1:
            raise ValueError(f"empty range for a draw below {n}")
        r = bits(k)
    return r


def _rand_ratio(rng: random.Random, max_den: int,
                include_one: bool = False) -> Ratio:
    """A rational in [0,1), or [0,1] with ``include_one``, as (numerator,
    denominator), not reduced: a denominator from 1 to ``max_den``, then a
    numerator below it (or up to it)."""
    bits = rng.getrandbits
    den = 1 + _below(bits, max(1, max_den))
    return _below(bits, den + 1 if include_one else den), den


def _reduced(p: int, q: int) -> Ratio:
    """p/q, q > 0, in lowest terms."""
    g = gcd(p, q)
    return p // g, q // g


def _rand_pair(rng: random.Random, max_den: int,
               include_one: bool = False) -> Ratio:
    """``_rand_ratio``'s value as a reduced (p, q), from the same draws."""
    return _reduced(*_rand_ratio(rng, max_den, include_one))


def rand_interval_set(rng: random.Random, max_components: int,
                      max_den: int) -> IntervalSet:
    """Random normalized set with mixed flags, possibly empty."""
    cuts = []
    for _ in range(_below(rng.getrandbits, max_components + 1)):
        left = _rand_pair(rng, max_den, include_one=True)
        right = _rand_pair(rng, max_den, include_one=True)
        order = left[0] * right[1] - right[0] * left[1]
        if order > 0:
            left, right = right, left
        if order == 0 and rng.random() < 0.5:
            cuts += _clean(left, True, left, True)
        else:
            cuts += _clean(left, rng.random() < 0.5, right,
                           rng.random() < 0.5)
    return IntervalSet._from_cuts(cuts)


def rand_half_open_set(rng: random.Random, max_components: int,
                       max_den: int) -> IntervalSet:
    """Random nonempty finite union of [a,b) components."""
    while True:
        cuts = []
        for _ in range(1 + _below(rng.getrandbits, max_components)):
            left = _rand_pair(rng, max_den)
            right = _rand_pair(rng, max_den, include_one=True)
            order = left[0] * right[1] - right[0] * left[1]
            if order > 0:
                left, right = right, left
            if order:
                cuts += _clean(left, True, right, False)
        # every drawn [a,b) has a < b, so a set with a component has
        # positive length
        if cuts:
            return IntervalSet._from_cuts(cuts)


def _repack_half_open(rng: random.Random, p: int, q: int,
                      max_pieces: int) -> IntervalSet:
    """Disjoint union of [a,b) pieces with the exact total length p/q, in
    lowest terms; a total outside (0,1] is refused before any draw.

    The pieces split the total at up to k - 1 cuts t*total, t of
    denominator at most 64.  Before each piece is a gap: a share u, of
    denominator at most 16, of the slack 1 - total that the earlier gaps
    left.  Everything is summed as integers over one common denominator.
    """
    if not 0 < p <= q:
        raise DomainError("total length must lie in (0,1]")
    k = 1 + _below(rng.getrandbits, max_pieces)
    shares = [_rand_ratio(rng, 64) for _ in range(k - 1)]
    # the cuts and total as numerators over cut_den, in units of total
    cut_den = lcm(*[d for _, d in shares])
    bounds = [0] + sorted({n * (cut_den // d) for n, d in shares}) + [cut_den]
    lengths = [b - a for a, b in zip(bounds, bounds[1:]) if b > a]
    gaps = [_rand_ratio(rng, 16) for _ in lengths]
    # with u_i = n_i/e_i, gap j is slack * prod_{i<j} (1 - u_i) * u_j:
    # its numerator over gap_den = prod e_i, in units of slack
    gap_den, kept = 1, 1
    gap_nums = []
    for n, e in gaps:
        gap_nums = [g * e for g in gap_nums]
        gap_nums.append(kept * n)
        kept *= e - n
        gap_den *= e
    # every position over den = q * cut_den * gap_den, total = p/q
    den = q * cut_den * gap_den
    slack, unit = (q - p) * cut_den, p * gap_den
    cuts = []
    pos = 0
    for g, ln in zip(gap_nums, lengths):
        pos += g * slack
        end = pos + ln * unit
        cuts += _clean(_reduced(pos, den), True, _reduced(end, den), False)
        pos = end
    return IntervalSet._from_cuts(cuts)


def _rand_grid_pairs(rng: random.Random, max_size: int,
                     max_den: int) -> "set[Ratio]":
    """Distinct points in [0,1) for a nonempty finite grid, as a set of
    reduced (p, q): a size from 1 to ``max_size``, then ``_rand_pair``
    draws until that many are distinct.

    [0,1) holds at least ``max_den`` rationals of denominator at most
    ``max_den`` (0 and 1/k for 1 < k <= max_den), and a grid asks for at
    most ``max_size`` of them, so a ``max_size`` above ``max_den`` is
    refused before any draw: it might ask for more than there are."""
    if max_size > max_den:
        raise DomainError(f"max_size {max_size} exceeds max_den {max_den}: "
                          "the grid might ask for more distinct points "
                          "than there are")
    size = 1 + _below(rng.getrandbits, max_size)
    pts = set()
    while len(pts) < size:
        pts.add(_rand_pair(rng, max_den))
    return pts
