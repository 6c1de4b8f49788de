"""Cylinder events on the middle-thirds Cantor set and their conditional
coherence with the normalized Hausdorff measure at the Cantor dimension.

A cylinder is addressed by a string over {0,2}: the points whose ternary
expansion starts with those digits.  Under the normalization that gives the
whole set measure 1, a depth-n cylinder carries Hausdorff measure 2^-n.

The counting model takes the 2^m depth-m cylinder representatives, m
unlimited, as sample points; a depth-n cylinder holds 2^(m-n) of them, so
its counting probability is exactly 2^-n as well.  Conditional counting
probabilities on cylinder events therefore agree exactly with Hausdorff
measure ratios, including conditioning on events the interval-length model
cannot see at all (the whole Cantor set has length zero).

Address w of length n is the dyadic interval [b/2^n, (b+1)/2^n) of length
2^-n, b being w in binary with 2 as 1: an event is a set of integer cut
pairs over 2^depth, under the interval kernel's cut algebra over ints.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .errors import DomainError
from .field import Generator, NonArchValue, render_ratio
from .intervals import (EMPTY_CONDITION, _conditional, _gaps, _intersect,
                        _merge, _union)

CANTOR_GENERATOR = Generator("c")

# whether a string is a cylinder address: its digits are all 0 or 2
_is_address = frozenset("02").issuperset
_TO_BITS, _TO_DIGITS = str.maketrans("2", "1"), str.maketrans("1", "2")


class CantorEvent:
    """Finite cylinder union: merged int cut pairs [lo, hi) over 2^depth."""

    __slots__ = ("depth", "cuts")

    def __init__(self, addresses: Iterable[str] = ()):
        if isinstance(addresses, str):
            raise DomainError("cylinder addresses must be a list of "
                              "strings, not one string")
        addresses = list(addresses)
        try:
            text = "".join(addresses)
        except TypeError:
            bad = next(a for a in addresses if not isinstance(a, str))
            raise DomainError(f"cylinder addresses must be strings, got "
                              f"{type(bad).__name__}") from None
        if not _is_address(text):
            bad = next(a for a in addresses if not _is_address(a))
            raise DomainError(f"invalid cylinder address {bad!r}: "
                              "digits must be 0 or 2")
        depth = max(map(len, addresses), default=0)
        bits, at, cuts = text.translate(_TO_BITS), 0, []
        for n in map(len, addresses):
            lo = int(bits[at:at + n] or "0", 2) << (depth - n)
            at += n
            cuts.append((lo, lo + (1 << (depth - n))))
        self.depth, self.cuts = depth, _merge(cuts)

    @classmethod
    def full(cls) -> "CantorEvent":
        return cls(("",))

    @classmethod
    def empty(cls) -> "CantorEvent":
        return cls()

    def is_empty(self) -> bool:
        return not self.cuts

    def _at(self, depth: int) -> tuple:
        s = depth - self.depth
        return tuple((a << s, b << s) for a, b in self.cuts) if s else self.cuts

    def union(self, *others: "CantorEvent") -> "CantorEvent":
        events = (self, *others)
        depth = max(e.depth for e in events)
        return _event(depth, _union(*[e._at(depth) for e in events]))

    def intersect(self, other: "CantorEvent") -> "CantorEvent":
        depth = max(self.depth, other.depth)
        return _event(depth, _intersect(self._at(depth), other._at(depth)))

    def complement(self) -> "CantorEvent":
        """Complement within the full Cantor set: the gaps in [0, 2^depth)."""
        return _event(self.depth, _gaps(self.cuts, 0, 1 << self.depth))

    @property
    def cylinders(self) -> "frozenset[str]":
        """The prefix-free addresses, built at each read: each cut pair
        split greedily into blocks 2^k wide, k = min(tz(lo), log2(hi - lo))."""
        out = []
        for lo, hi in self.cuts:
            while lo < hi:
                k = min(hi - lo, lo & -lo or hi).bit_length() - 1
                # a leading 1 keeps the address's leading zeros
                word = format(lo >> k | 1 << (self.depth - k), "b")[1:]
                out.append(word.translate(_TO_DIGITS))
                lo += 1 << k
        return frozenset(out)

    def _least(self) -> tuple:
        """(depth, cuts) at the least depth that keeps the cuts integers."""
        low = 0
        for lo, hi in self.cuts:
            low |= lo | hi
        s = (low & -low or 1 << self.depth).bit_length() - 1
        return self.depth - s, tuple([(a >> s, b >> s) for a, b in self.cuts])

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersect(other)

    def __eq__(self, other):
        return (isinstance(other, CantorEvent)
                and self._least() == other._least())

    def __hash__(self):
        return hash(self._least())

    def render(self) -> str:
        words = sorted(self.cylinders)
        return "full" if words == [""] else "{" + ", ".join(words) + "}"

    __str__ = render

    def __repr__(self) -> str:
        return f"CantorEvent<{self.render()}>"


def _event(depth: int, cuts: tuple) -> CantorEvent:
    e = object.__new__(CantorEvent)
    e.depth, e.cuts = depth, cuts
    return e


def _total(e: CantorEvent) -> int:
    """The cut pairs' total length over 2^depth."""
    return sum([hi - lo for lo, hi in e.cuts])


def cantor_probability(e: CantorEvent) -> NonArchValue:
    """Counting probability of a cylinder event: generator-free, equal to
    the normalized Hausdorff measure, reduced from the integer cut total
    over 2^depth by its trailing zero bits."""
    total = _total(e)
    if not total:
        return NonArchValue._make(CANTOR_GENERATOR, (), (1,))
    s = min((total & -total).bit_length() - 1, e.depth)
    return NonArchValue._make(CANTOR_GENERATOR, (total >> s,),
                              (1 << (e.depth - s),))


def coherence_sides(a: CantorEvent, b: CantorEvent) -> "list[str]":
    """The counterexample to coherence on (a, b), if any: the conditional
    counting probability against the normalized Hausdorff measure ratio,
    the rule the cylinder coherence suite sweeps.  The ratio is
    ``total(a & b) / 2^depth(a & b)`` over ``total(b) / 2^depth(b)``, in
    integers over one ``gcd``, and it is compared with the conditional's
    canonical numerator and denominator, so no ``Fraction`` is built.
    ``a & b`` is built once: the conditional hands back the one it
    divides."""
    conditional, ab = _conditional(cantor_probability, a, b, EMPTY_CONDITION)
    p, q = _total(ab) << b.depth, _total(b) << ab.depth
    g = gcd(p, q)
    p, q = p // g, q // g
    if conditional.n == ((p,) if p else ()) and conditional.d == (q,):
        return []
    return [f"a={a.render()}, b={b.render()}: measure ratio "
            f"{render_ratio(p, q)} != conditional {conditional}"]
