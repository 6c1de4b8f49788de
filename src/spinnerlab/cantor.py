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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .field import Generator, NonArchValue
from .report import PropertyReport

CANTOR_GENERATOR = Generator("c")

_ALPHABET = frozenset("02")


@dataclass(frozen=True)
class CantorModel:
    """Counting model on the 2^m depth-m cylinder representatives."""

    generator: Generator = CANTOR_GENERATOR


class CantorEvent:
    """Finite union of cylinders, normalized to a prefix-free address set.

    Normalization removes addresses covered by a shorter one and merges
    complete sibling pairs (w0, w2 -> w) until none is left; the full set is
    the single empty address, the empty event has no addresses.

    Every operation is a pass over sorted addresses.  In sorted order an
    address comes right after the cylinders that cover it, apart from
    addresses they also cover, and the siblings w0 and w2 of a prefix-free
    set are neighbours.
    """

    __slots__ = ("cylinders",)

    def __init__(self, addresses: Iterable[str] = ()):
        s = set()
        for a in addresses:
            if not _ALPHABET.issuperset(a):
                raise DomainError(f"invalid cylinder address {a!r}: "
                                  "digits must be 0 or 2")
            s.add(a)
        # a stack of prefix-free addresses; a merged parent stays on top,
        # where the next address meets it as its sibling or its cover
        kept: list[str] = []
        for a in sorted(s):
            if kept and a.startswith(kept[-1]):
                continue
            while a.endswith("2") and kept and kept[-1] == a[:-1] + "0":
                kept.pop()
                a = a[:-1]
            kept.append(a)
        self.cylinders: frozenset[str] = frozenset(kept)

    @classmethod
    def full(cls) -> "CantorEvent":
        return cls(("",))

    @classmethod
    def empty(cls) -> "CantorEvent":
        return cls()

    def is_empty(self) -> bool:
        return not self.cylinders

    def union(self, other: "CantorEvent") -> "CantorEvent":
        return CantorEvent(self.cylinders | other.cylinders)

    def intersect(self, other: "CantorEvent") -> "CantorEvent":
        # two cylinders meet iff one address prefixes the other, and then
        # the intersection is the longer one; in sorted order the shorter
        # one is the last address of its event before the longer one
        last = ["1", "1"]  # "1" prefixes no address
        out = []
        for a, side in sorted([(a, 0) for a in self.cylinders]
                              + [(a, 1) for a in other.cylinders]):
            if a.startswith(last[1 - side]):
                out.append(a)
            last[side] = a
        return CantorEvent(out)

    def complement(self) -> "CantorEvent":
        """Complement within the full Cantor set; again a cylinder union:
        the root and the children of the cylinders' proper prefixes that are
        neither cylinders nor proper prefixes."""
        prefixes: set[str] = set()
        for a in self.cylinders:
            # the set stays prefix-closed, so the first prefix already in
            # it ends the walk and every prefix is sliced once
            for k in range(len(a) - 1, -1, -1):
                p = a[:k]
                if p in prefixes:
                    break
                prefixes.add(p)
        nodes = [""] + [p + d for p in prefixes for d in "02"]
        return CantorEvent(c for c in nodes
                           if c not in prefixes and c not in self.cylinders)

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersect(other)

    def __eq__(self, other):
        return (isinstance(other, CantorEvent)
                and self.cylinders == other.cylinders)

    def __hash__(self):
        return hash(self.cylinders)

    def render(self) -> str:
        if not self.cylinders:
            return "{}"
        if self.cylinders == frozenset(("",)):
            return "full"
        return "{" + ", ".join(sorted(self.cylinders)) + "}"

    __str__ = render

    def __repr__(self) -> str:
        return f"CantorEvent<{self.render()}>"


def hausdorff_measure(e: CantorEvent) -> Fraction:
    """Sum of 2^-depth over cylinders, normalized to 1 on the full set:
    one integer sum over 2^D, with D the deepest address."""
    depth = max(map(len, e.cylinders), default=0)
    return Fraction(sum(1 << (depth - len(a)) for a in e.cylinders),
                    1 << depth)


def cantor_probability(model: CantorModel, e: CantorEvent) -> NonArchValue:
    """Counting probability of a cylinder event: generator-free, equal to
    the normalized Hausdorff measure."""
    return NonArchValue.constant(model.generator, hausdorff_measure(e))


def point_probability(model: CantorModel) -> NonArchValue:
    """Probability of a single depth-m sample point: the infinitesimal c."""
    return NonArchValue.infinitesimal(model.generator)


def conditional_probability(model: CantorModel, a: CantorEvent,
                            b: CantorEvent) -> NonArchValue:
    if b.is_empty():
        raise DomainError("conditioning on the empty event")
    return cantor_probability(model, a & b) / cantor_probability(model, b)


def coherence_check(model: CantorModel, a: CantorEvent,
                    b: CantorEvent) -> PropertyReport:
    """Compare the Hausdorff measure ratio with the conditional counting
    probability; on cylinder events the two are exactly equal."""
    conditional = conditional_probability(model, a, b)
    ratio = hausdorff_measure(a & b) / hausdorff_measure(b)
    counterexamples = []
    if conditional != NonArchValue.constant(model.generator, ratio):
        counterexamples.append(
            f"a={a.render()}, b={b.render()}: measure ratio {ratio} "
            f"!= conditional {conditional}")
    witnesses = [f"measure-ratio = {ratio}", f"conditional = {conditional}"]
    return PropertyReport.from_checks(
        "cantor-conditional-coherence", cases=1,
        counterexamples=counterexamples, witnesses=witnesses)
