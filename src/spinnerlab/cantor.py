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
    complete sibling pairs (w0, w2 -> w) to a fixpoint; the full set is the
    single empty address, the empty event has no addresses.
    """

    __slots__ = ("cylinders",)

    def __init__(self, addresses: Iterable[str] = ()):
        s = set()
        for a in addresses:
            if not _ALPHABET.issuperset(a):
                raise DomainError(f"invalid cylinder address {a!r}: "
                                  "digits must be 0 or 2")
            s.add(a)
        s = {a for a in s
             if not any(a[:k] in s for k in range(len(a)))}
        merged = True
        while merged:
            merged = False
            for a in sorted(s, key=len, reverse=True):
                if a and a[:-1] + "0" in s and a[:-1] + "2" in s:
                    s.discard(a[:-1] + "0")
                    s.discard(a[:-1] + "2")
                    s.add(a[:-1])
                    merged = True
                    break
        self.cylinders: frozenset[str] = frozenset(s)

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
        # the intersection is the longer one
        out = []
        for a in self.cylinders:
            for b in other.cylinders:
                if a.startswith(b):
                    out.append(a)
                elif b.startswith(a):
                    out.append(b)
        return CantorEvent(out)

    def complement(self) -> "CantorEvent":
        """Complement within the full Cantor set; again a cylinder union."""
        out: list[str] = []

        def walk(prefix: str) -> None:
            if prefix in self.cylinders:
                return
            if not any(a.startswith(prefix) for a in self.cylinders):
                out.append(prefix)
                return
            walk(prefix + "0")
            walk(prefix + "2")

        walk("")
        return CantorEvent(out)

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
    """Sum of 2^-depth over cylinders, normalized to 1 on the full set."""
    return sum((Fraction(1, 2 ** len(a)) for a in e.cylinders), Fraction(0))


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
        counterexamples=counterexamples,
        witnesses=witnesses if not counterexamples else [])
