"""Coin-flip and fair-lottery events over an unlimited number of trials.

The all-heads event over K fair tosses, K unlimited, has probability
h = (1/2)^K: positive but below every positive rational.  (The
real-valued sigma-additive product measure on infinite toss sequences,
which would assign this event exactly 0, is the comparison point only;
it is not built here.)  Dropping the first j tosses multiplies the
probability by 2^j, so "all heads" is strictly less probable than "all
heads after the first" with ratio exactly one half, and the index set
left after dropping j tosses is a proper part of strictly smaller
internal size K - j.

A fair lottery over a finite set containing every standard ticket gives
each ticket probability delta = 1/|F| > 0, so blocks of tickets are never
null.  Against this, :func:`archimedean_regularity_witness` shows why no
real-valued uniform chance can do the same: any common point mass
eps overruns total mass 1 after floor(1/eps) + 1 points, and rational
rotations of a single point already supply that many distinct outcomes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError
from .field import (MAX_NUMERAL_DIGITS, Generator, NonArchValue, _count,
                    _frac, render_exact)

COIN_GENERATOR = Generator("h")
LOTTERY_GENERATOR = Generator("delta")

_OUTCOMES = ("H", "T")

# 2^j for a larger drop count j is too costly to build and print
MAX_DROPPED_PREFIX = 100_000
# the CLI streams an orbit; this bound admits every eps >= 1/10^6
MAX_ORBIT_POINTS = 10 ** 6 + 1
# orbit points per piece of streamed witness text
_ORBIT_BLOCK = 4096


@dataclass(frozen=True)
class CoinEvent:
    """Constraint on an unlimited sequence of fair coin tosses.

    With ``all_heads``, ``allheads>j`` (``dropped_prefix`` j) asks that
    tosses j+1, j+2, ... all come up heads and leaves the first j free.
    ``pinned`` fixes outcomes at standard positions, and every pin is
    kept: a pin up to j fixes one of the free tosses, and a tails pin past
    j empties the event.  ``contradictory`` marks a conjunction, or a pin
    list, whose pins disagreed outright; the constructor sets it when two
    of its pins give one position two outcomes.  The constructor checks
    the drop count and every pin, so each way of building an event refuses
    what ``make`` refuses, with its messages.
    """

    dropped_prefix: int = 0
    pinned: tuple[tuple[int, str], ...] = ()
    all_heads: bool = False
    contradictory: bool = False

    def __post_init__(self):
        if _count(self.dropped_prefix, "dropped prefix") < 0:
            raise DomainError("dropped prefix must be nonnegative")
        if self.dropped_prefix > MAX_DROPPED_PREFIX:
            raise DomainError(f"dropped prefix must be at most "
                              f"{MAX_DROPPED_PREFIX}")
        for pos, outcome in self.pinned:
            if _count(pos, "pinned position") < 1:
                raise DomainError(f"pinned position {pos!r} must be a "
                                  "positive integer")
            if outcome not in _OUTCOMES:
                raise DomainError(f"pinned outcome {outcome!r} must be H or T")
        # one position pinned to both outcomes: more distinct pins than
        # pinned positions
        if len(set(self.pinned)) > len({pos for pos, _ in self.pinned}):
            object.__setattr__(self, "contradictory", True)

    @classmethod
    def make(cls, dropped_prefix: int = 0,
             pinned: "Mapping[int, str] | None" = None,
             all_heads: bool = False) -> "CoinEvent":
        # the constructor checks every pin first, so a bad position is
        # refused with its message before sorting can fail on it
        pins = cls(dropped_prefix, tuple((pinned or {}).items())).pinned
        return cls(dropped_prefix, tuple(sorted(pins)), all_heads)

    @classmethod
    def allheads(cls, dropped_prefix: int = 0) -> "CoinEvent":
        return cls.make(dropped_prefix=dropped_prefix, all_heads=True)

    @property
    def consistent(self) -> bool:
        """False for an empty event: contradictory pins, or tails pinned
        on a toss an all-heads constraint forces to heads."""
        if self.contradictory:
            return False
        if not self.all_heads:
            return True
        return all(o == "H" for p, o in self.pinned if p > self.dropped_prefix)

    @classmethod
    def conjunction(cls, events: "Sequence[CoinEvent]") -> "CoinEvent":
        """Conjunction of one or more constraints, with one dict of pins
        and one sort, so a chain of n events costs O(n log n).

        All-heads events conjoin to the stricter (smallest) drop; a pin
        that disagrees with an earlier event's pin at its position marks
        the result contradictory, which the probability maps to zero.
        """
        first, *rest = events
        if not rest:
            return first
        pins = dict(first.pinned)
        contradictory = first.contradictory
        for e in rest:
            contradictory = contradictory or e.contradictory
            for pos, o in e.pinned:
                if pins.setdefault(pos, o) != o:
                    contradictory = True
        drops = [e.dropped_prefix for e in events if e.all_heads]
        return cls(min(drops) if drops else 0, tuple(sorted(pins.items())),
                   bool(drops), contradictory)

    def intersect(self, other: "CoinEvent") -> "CoinEvent":
        """Conjunction of the two constraints."""
        return CoinEvent.conjunction((self, other))

    __and__ = intersect

    def render(self) -> str:
        return _render_coin(self.dropped_prefix, self.pinned, self.all_heads)

    __str__ = render


def _render_coin(dropped_prefix: int, pinned: tuple, all_heads: bool) -> str:
    """A coin constraint's text, as ``parse_query`` reads it, from its
    three fields, so a coin literal renders before it is checked."""
    parts = []
    if all_heads:
        parts.append(f"allheads>{dropped_prefix}"
                     if dropped_prefix else "allheads")
    if pinned:
        pins = ",".join(f"{p}:{o}" for p, o in pinned)
        parts.append(f"pin({pins})")
    return "&".join(parts) if parts else "pin()"


def coinflip_probability(e: CoinEvent) -> NonArchValue:
    """Probability of a coin event in the field over h = (1/2)^K.

    All-heads after j tosses with c distinct positions pinned up to j
    gives 2^(j-c) * h; a bare pinned pattern over c distinct positions
    gives the plain rational 2^-c, a position pinned twice to one outcome
    counted once.  An inconsistent event yields the zero value (check
    ``e.consistent``) rather than an error.
    """
    if not e.consistent:
        return NonArchValue.constant(COIN_GENERATOR, 0)
    if e.all_heads:
        j = e.dropped_prefix
        c = len({p for p, _ in e.pinned if p <= j})
        return NonArchValue.affine(COIN_GENERATOR, 0, 2 ** (j - c))
    return NonArchValue.constant(
        COIN_GENERATOR, Fraction(1, 2 ** len({p for p, _ in e.pinned})))


def lottery_ticket_probability(ticket_count: int) -> NonArchValue:
    """n*delta for a block of n tickets, n a positive int: delta for one,
    in the fair lottery over a finite set F holding every standard ticket."""
    if _count(ticket_count, "ticket count") < 1:
        raise DomainError(f"ticket count must be a positive integer, "
                          f"got {ticket_count!r}")
    return NonArchValue.affine(LOTTERY_GENERATOR, 0, ticket_count)


def _next_prime(n: int) -> int:
    candidate = max(2, n + 1)
    while True:
        for d in range(2, math.isqrt(candidate) + 1):
            if candidate % d == 0:
                break
        else:
            return candidate
        candidate += 1


@dataclass(frozen=True)
class RegularityWitness:
    """Evidence that a common real point mass eps overruns total mass 1."""

    eps: Fraction
    n: int
    product: Fraction
    mode: str
    rotation: "Fraction | None" = None

    def json_chunks(self):
        """The witness as one JSON object, in pieces: ``n``, ``product`` and,
        with a rotation 1/p, ``points``, the orbit k/p for k < n as text,
        written _ORBIT_BLOCK points at a time.  p is a prime above n, so
        each point k/p is already in lowest terms and no Fraction is built."""
        head = json.dumps({"n": self.n,
                           "product": render_exact(self.product)})
        if self.rotation is None:
            yield head
            return
        p = self.rotation.denominator
        yield head[:-1] + ', "points": ["0"'
        for start in range(1, self.n, _ORBIT_BLOCK):
            stop = min(start + _ORBIT_BLOCK, self.n)
            yield "".join(f', "{k}/{p}"' for k in range(start, stop))
        yield "]}"


def archimedean_regularity_witness(eps_r, mode: str = "uniform_points"
                                   ) -> RegularityWitness:
    """Smallest n with n*eps_r > 1, plus an orbit of n distinct points.

    uniform_points: n = floor(1/eps_r) + 1 many equal point masses already
    exceed total mass 1.  rational_orbit: additionally realizes the n
    points as rotations of a single point by multiples of 1/p, p the
    smallest prime above n, so a rotation-invariant regular assignment
    overruns mass 1 on an explicit orbit, kept as its rotation 1/p.  A
    float eps_r is a DomainError, as at every exact input; so is an n of
    more than MAX_NUMERAL_DIGITS digits, so every witness prints, and so
    is an orbit of more than MAX_ORBIT_POINTS points.
    """
    eps = _frac(eps_r)
    if eps <= 0:
        raise DomainError("the claimed point mass must be positive")
    if mode not in ("uniform_points", "rational_orbit"):
        raise DomainError(f"unknown witness mode {mode!r}")
    n = int(Fraction(1) / eps) + 1
    if n >= 10 ** MAX_NUMERAL_DIGITS:
        raise DomainError(f"the witness size n = floor(1/eps) + 1 has more "
                          f"than {MAX_NUMERAL_DIGITS} digits")
    product = n * eps
    if not (product > 1 and (n - 1) * eps <= 1):
        raise AssertionError("witness bound failed")
    if mode == "uniform_points":
        return RegularityWitness(eps, n, product, mode)
    if n > MAX_ORBIT_POINTS:
        raise DomainError(f"the orbit size n = floor(1/eps) + 1 is above "
                          f"{MAX_ORBIT_POINTS}")
    return RegularityWitness(eps, n, product, mode,
                             Fraction(1, _next_prime(n)))
