"""Exact rational interval sets over [0,1) and the length measure on them.

An :class:`IntervalSet` is a normalized finite union of intervals with
rational endpoints and per-endpoint inclusion flags; isolated points are
degenerate closed intervals.  The sample space is the half-open unit
interval, so the point 1 never belongs to a set: inputs that contain it
wrap it around to 0.

``lebesgue_length`` restricted to this algebra is the minimal uniform
model: translation invariant, finitely additive, and it assigns length 0
to points, so a possible point outcome carries zero measure here.

Sets are immutable; every operation returns a new normalized set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import DomainError, ParseError, QueryTypeError
from .report import PropertyReport

RawComponent = tuple[Fraction, bool, Fraction, bool]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True, order=True)
class Piece:
    """One maximal component: left/right endpoint with inclusion flags."""

    left: Fraction
    left_in: bool
    right: Fraction
    right_in: bool

    def is_point(self) -> bool:
        return self.left == self.right

    def contains(self, x: Fraction) -> bool:
        if x < self.left or x > self.right:
            return False
        if x == self.left and not self.left_in:
            return False
        if x == self.right and not self.right_in:
            return False
        return True

    def render(self) -> str:
        if self.is_point():
            return f"{{{self.left}}}"
        lb = "[" if self.left_in else "("
        rb = "]" if self.right_in else ")"
        return f"{lb}{self.left},{self.right}{rb}"


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise DomainError("float endpoints are not allowed; use exact rationals")
    return Fraction(x)


def _clean(left, left_in, right, right_in) -> "list[Piece]":
    """Validate one raw component and wrap the point 1 back to 0."""
    left, right = _as_fraction(left), _as_fraction(right)
    if left > right:
        raise DomainError(f"interval endpoints out of order: {left} > {right}")
    if left < 0 or right > 1:
        raise DomainError(f"endpoint outside [0,1]: [{left},{right}]")
    out: list[Piece] = []
    wrap = right == 1 and right_in
    if wrap:
        right_in = False
    if left == right:
        if left_in and right_in:
            out.append(Piece(left, True, right, True))
    elif left < right:
        out.append(Piece(left, bool(left_in), right, bool(right_in)))
    if wrap:
        out.append(Piece(_ZERO, True, _ZERO, True))
    return out


class IntervalSet:
    """Normalized finite union of rational-endpoint intervals in [0,1).

    Components are pairwise disjoint, non-adjacent, and sorted; equality is
    structural, and two sets are equal iff they have the same members.
    """

    __slots__ = ("components",)

    def __init__(self, raw: Iterable[Sequence] = ()):
        pieces: list[Piece] = []
        for comp in raw:
            if isinstance(comp, Piece):
                comp = (comp.left, comp.left_in, comp.right, comp.right_in)
            left, left_in, right, right_in = comp
            pieces.extend(_clean(left, left_in, right, right_in))
        pieces.sort(key=lambda p: (p.left, not p.left_in))
        merged: list[Piece] = []
        for p in pieces:
            if not merged:
                merged.append(p)
                continue
            cur = merged[-1]
            joins = p.left < cur.right or (
                p.left == cur.right and (cur.right_in or p.left_in))
            if not joins:
                merged.append(p)
                continue
            if p.right > cur.right:
                right, right_in = p.right, p.right_in
            elif p.right == cur.right:
                right, right_in = cur.right, cur.right_in or p.right_in
            else:
                right, right_in = cur.right, cur.right_in
            merged[-1] = Piece(cur.left, cur.left_in, right, right_in)
        self.components: tuple[Piece, ...] = tuple(merged)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls()

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((_ZERO, True, _ONE, False),))

    @classmethod
    def point(cls, x) -> "IntervalSet":
        x = _as_fraction(x)
        return cls(((x, True, x, True),))

    @classmethod
    def interval(cls, left, left_in, right, right_in) -> "IntervalSet":
        return cls(((left, left_in, right, right_in),))

    # -- structure ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.components

    def contains(self, x) -> bool:
        x = _as_fraction(x)
        return any(p.contains(x) for p in self.components)

    def half_open_only(self) -> bool:
        """True when every component has the shape [a,b) with a < b."""
        return all(p.left_in and not p.right_in and not p.is_point()
                   for p in self.components)

    @property
    def length(self) -> Fraction:
        return sum((p.right - p.left for p in self.components), _ZERO)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.components + other.components)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[RawComponent] = []
        for a in self.components:
            for b in other.components:
                if a.left > b.left or (a.left == b.left and not a.left_in):
                    left, left_in = a.left, a.left_in and b.contains(a.left)
                else:
                    left, left_in = b.left, b.left_in and a.contains(b.left)
                if a.right < b.right or (a.right == b.right and not a.right_in):
                    right, right_in = a.right, a.right_in and b.contains(a.right)
                else:
                    right, right_in = b.right, b.right_in and a.contains(b.right)
                if left < right or (left == right and left_in and right_in):
                    out.append((left, left_in, right, right_in))
        return IntervalSet(out)

    def complement(self) -> "IntervalSet":
        """Complement relative to the sample space [0,1)."""
        out: list[RawComponent] = []
        cursor, cursor_in = _ZERO, True
        for p in self.components:
            out.append((cursor, cursor_in, p.left, not p.left_in))
            cursor, cursor_in = p.right, not p.right_in
        out.append((cursor, cursor_in, _ONE, False))
        return IntervalSet(out)

    def translate_mod1(self, t) -> "IntervalSet":
        """Shift every member by t modulo 1, splitting at the wrap point."""
        s = _as_fraction(t) % 1
        out: list[RawComponent] = []
        for p in self.components:
            left, right = p.left + s, p.right + s
            if right < 1:
                out.append((left, p.left_in, right, p.right_in))
            elif left >= 1:
                out.append((left - 1, p.left_in, right - 1, p.right_in))
            elif right == 1:
                out.append((left, p.left_in, _ONE, False))
                if p.right_in:
                    out.append((_ZERO, True, _ZERO, True))
            else:
                out.append((left, p.left_in, _ONE, False))
                out.append((_ZERO, True, right - 1, p.right_in))
        return IntervalSet(out)

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersect(other)

    def __eq__(self, other):
        return (isinstance(other, IntervalSet)
                and self.components == other.components)

    def __hash__(self):
        return hash(self.components)

    def render(self) -> str:
        if not self.components:
            return "∅"
        return " ∪ ".join(p.render() for p in self.components)

    __str__ = render

    def __repr__(self) -> str:
        return f"IntervalSet<{self.render()}>"


# -- the operation surface ----------------------------------------------------

def normalize(raw: Iterable[Sequence]) -> IntervalSet:
    """Canonicalize a list of flagged intervals into an IntervalSet."""
    return IntervalSet(raw)


def boolean_combine(kind: str, a: IntervalSet,
                    b: "IntervalSet | None" = None) -> IntervalSet:
    if kind == "complement":
        if b is not None:
            raise DomainError("complement takes a single argument")
        return a.complement()
    if b is None:
        raise DomainError(f"{kind} takes two arguments")
    if kind == "union":
        return a.union(b)
    if kind == "intersect":
        return a.intersect(b)
    raise DomainError(f"unknown boolean combination {kind!r}")


def translate_mod1(a: IntervalSet, t) -> IntervalSet:
    return a.translate_mod1(t)


def lebesgue_length(a: IntervalSet) -> Fraction:
    """Sum of component lengths; endpoint flags carry no mass."""
    return a.length


def dyadic_tail_family(n: int) -> IntervalSet:
    """Member n of the disjoint dyadic family filling [0,1) from the left."""
    return IntervalSet.interval(1 - Fraction(1, 2 ** n), True,
                                1 - Fraction(1, 2 ** (n + 1)), False)


def sigma_additivity_probe(family: Callable[[int], IntervalSet], depth: int,
                           claimed_union: IntervalSet) -> PropertyReport:
    """Check finite prefixes of a disjoint family against their summed lengths.

    Verifies, for every k <= depth, that the measure of the union of members
    0..k equals the sum of their measures, and reports the residual
    ``length(claimed_union) - partial sum`` as a nonincreasing tail.  The
    family members must be pairwise disjoint; an overlapping pair is a
    domain error with the pair as witness.
    """
    if depth < 1:
        raise DomainError("depth must be a positive integer")
    members = [family(i) for i in range(depth + 1)]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            common = members[i] & members[j]
            if not common.is_empty():
                raise DomainError(
                    f"family members {i} and {j} overlap on {common.render()}")
    claimed = lebesgue_length(claimed_union)
    running = IntervalSet.empty()
    partial_sum = _ZERO
    residuals: list[Fraction] = []
    counterexamples: list[str] = []
    for k, m in enumerate(members):
        running = running | m
        partial_sum += lebesgue_length(m)
        if lebesgue_length(running) != partial_sum:
            counterexamples.append(
                f"k={k}: measure of partial union {lebesgue_length(running)}"
                f" != partial sum {partial_sum}")
        residuals.append(claimed - partial_sum)
    for k in range(1, len(residuals)):
        if residuals[k] > residuals[k - 1]:
            counterexamples.append(
                f"residual tail increases at k={k}: "
                f"{residuals[k - 1]} -> {residuals[k]}")
    witnesses = [
        f"consistent-with-sigma-additivity at depth {depth}",
        f"partial sum = {partial_sum}",
        f"residual = {residuals[-1]}",
    ]
    return PropertyReport.from_checks(
        "sigma-additivity-probe", cases=depth + 1,
        counterexamples=counterexamples,
        witnesses=witnesses if not counterexamples else [])


# -- text form ----------------------------------------------------------------

def format_set(a: IntervalSet) -> str:
    return a.render()


def parse_set(text: str) -> IntervalSet:
    """Parse set notation as the query language reads it: intervals "[a,b)",
    points "{p, q}", "full", "u"/"∪", "n"/"∩", "compl(...)" and
    "translate(..., q)"; "∅" and "empty" name the empty set."""
    if text.strip() in ("", "∅", "empty"):
        return IntervalSet.empty()
    # imported here because the query module imports this one
    from .query import _Parser, _to_interval_set
    parser = _Parser(text)
    node = parser.parse_set()
    parser.expect_end()
    try:
        return _to_interval_set(node, "minimal")
    except QueryTypeError as exc:
        raise ParseError(str(exc)) from None
