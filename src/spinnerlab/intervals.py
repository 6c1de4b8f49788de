"""Exact rational interval sets over [0,1) and the length measure on them.

An :class:`IntervalSet` is a normalized finite union of intervals with
rational endpoints and per-endpoint inclusion flags; isolated points are
degenerate closed intervals.  The sample space is the half-open unit
interval, so the point 1 never belongs to a set: inputs that contain it
wrap it around to 0.

``lebesgue_length`` restricted to this algebra is the minimal uniform
model: translation invariant, finitely additive, and it assigns length 0
to points, so a possible point outcome carries zero measure here.

Endpoints are compared as cuts.  A cut ``(x, after)`` sits just before x
when ``after`` is False and just after x when it is True; a component
starts at the cut ``(left, not left_in)``, ends at ``(right, right_in)``
and holds exactly the points between those two cuts.  Comparing cuts as
tuples settles every open/closed endpoint case of membership, merging and
intersection.

Sets are immutable; every operation returns a new normalized set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import DomainError, ParseError, QueryTypeError
from .report import PropertyReport

RawComponent = tuple[Fraction, bool, Fraction, bool]
Cut = tuple[Fraction, bool]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True, order=True)
class Piece:
    """One maximal component: left/right endpoint with inclusion flags."""

    left: Fraction
    left_in: bool
    right: Fraction
    right_in: bool

    @property
    def start(self) -> Cut:
        """Cut just before the first member."""
        return (self.left, not self.left_in)

    @property
    def end(self) -> Cut:
        """Cut just after the last member."""
        return (self.right, self.right_in)

    def is_point(self) -> bool:
        return self.left == self.right

    def contains(self, x: Fraction) -> bool:
        return self.start <= (x, False) and (x, True) <= self.end

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


def _clean(left, left_in, right, right_in) -> "list[tuple[Cut, Cut]]":
    """Validate one raw component, wrap the point 1 back to 0 and return the
    nonempty pieces as (start, end) cuts."""
    left, right = _as_fraction(left), _as_fraction(right)
    if left > right:
        raise DomainError(f"interval endpoints out of order: {left} > {right}")
    if left < 0 or right > 1:
        raise DomainError(f"endpoint outside [0,1]: [{left},{right}]")
    wrap = right == 1 and right_in
    start, end = (left, not left_in), (right, bool(right_in) and not wrap)
    out = [(start, end)] if start < end else []
    if wrap:
        out.append(((_ZERO, False), (_ZERO, True)))
    return out


class IntervalSet:
    """Normalized finite union of rational-endpoint intervals in [0,1).

    Components are pairwise disjoint, non-adjacent, and sorted; equality is
    structural, and two sets are equal iff they have the same members.
    """

    __slots__ = ("components",)

    def __init__(self, raw: Iterable[Sequence] = ()):
        cuts: list[tuple[Cut, Cut]] = []
        for comp in raw:
            # a Piece comes from a normalized set, so it is already clean
            if isinstance(comp, Piece):
                cuts.append((comp.start, comp.end))
            else:
                left, left_in, right, right_in = comp
                cuts.extend(_clean(left, left_in, right, right_in))
        cuts.sort(key=lambda c: c[0])
        merged: list[list[Cut]] = []
        for start, end in cuts:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        # a list, not a generator: tuple(generator) multiplied peak memory
        self.components: tuple[Piece, ...] = tuple([
            Piece(left, not after, right, right_in)
            for (left, after), (right, right_in) in merged])

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
        # a sweep over both sorted component lists: the component that ends
        # first meets nothing further on, so its pointer moves on
        out: list[Piece] = []
        mine = [(a.start, a.end) for a in self.components]
        theirs = [(b.start, b.end) for b in other.components]
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (a_start, a_end), (b_start, b_end) = mine[i], theirs[j]
            start, end = max(a_start, b_start), min(a_end, b_end)
            if start < end:
                out.append(Piece(start[0], not start[1], *end))
            if a_end < b_end:
                i += 1
            else:
                j += 1
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
            if right <= 1:
                out.append((left, p.left_in, right, p.right_in))
            elif left >= 1:
                out.append((left - 1, p.left_in, right - 1, p.right_in))
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
        counterexamples=counterexamples, witnesses=witnesses)


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
