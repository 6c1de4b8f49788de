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

Sets are immutable; every operation returns a new normalized set.  Outside
input is validated once, where it enters:

* validate: the constructor (and ``normalize``, ``point``, ``interval``)
  checks every component, a :class:`Piece` like a raw 4-tuple, for endpoint
  order, the [0,1] range and float endpoints, and wraps the point 1 to 0;
* merge: ``union`` and ``translate_mod1`` start from normalized sets and
  hand their (start, end) cut pairs straight to the sort and merge;
* normal by construction: the ``intersect`` sweep and the gaps of
  ``complement`` come out sorted, disjoint and non-adjacent, so they skip
  the sort and merge.

A ``union`` or ``intersect`` of k components with n, where k*log2(n) < n,
bisects each of the k into the n sorted components and splices, at
O(k log n) comparisons plus list copies, instead of merging or sweeping
all n + k; so a chain that keeps combining a growing set with small ones
costs near-linear time, not quadratic.

``length`` adds one integer numerator over the running lcm of the endpoint
denominators and makes a single ``Fraction`` at the end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Sequence

from .errors import DomainError, ParseError, QueryTypeError
from .report import PropertyReport

Cut = tuple[Fraction, bool]
CutPair = tuple[Cut, Cut]

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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise DomainError("float endpoints are not allowed; use exact rationals")
    return Fraction(x)


# the cut at which the sample space [0,1) ends
_END_CUT: Cut = (_ONE, False)


def _clean(left, left_in, right, right_in) -> "list[CutPair]":
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


def _piece(start: Cut, end: Cut) -> "Piece":
    return Piece(start[0], not start[1], end[0], end[1])


_START, _END = attrgetter("start"), attrgetter("end")


def _large_small(a: "tuple[Piece, ...]", b: "tuple[Piece, ...]"):
    """(larger, smaller) when bisecting the smaller's components into the
    larger's costs fewer comparisons than a pass over both, else None."""
    if len(a) < len(b):
        a, b = b, a
    return (a, b) if len(b) * len(a).bit_length() < len(a) else None


def _merge(cuts: "list[CutPair]") -> "tuple[Piece, ...]":
    """Sort nonempty cut pairs inside [0,1) and merge the ones that overlap
    or touch into components."""
    cuts.sort(key=itemgetter(0))
    merged: list[list[Cut]] = []
    for start, end in cuts:
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    # a list, not a generator: tuple(generator) multiplied peak memory
    return tuple([_piece(start, end) for start, end in merged])


def _clip(large: "tuple[Piece, ...]", small: "tuple[Piece, ...]"):
    """The pieces of ``large & small``, in order: for each component p of
    ``small``, the components of ``large`` that overlap it, the first and
    last cut to p.  Pieces inside different components of one operand are
    apart, so the output is normal as it comes."""
    out: list[Piece] = []
    for p in small:
        start, end = p.start, p.end
        i = bisect_right(large, start, key=_END)
        j = bisect_left(large, end, i, key=_START)
        if i == j:
            continue
        first, last = large[i], large[j - 1]
        if i + 1 == j:
            out.append(_piece(max(start, first.start), min(end, first.end)))
            continue
        out.append(_piece(max(start, first.start), first.end))
        out += large[i + 1:j - 1]
        out.append(_piece(last.start, min(end, last.end)))
    return out


class IntervalSet:
    """Normalized finite union of rational-endpoint intervals in [0,1).

    Components are pairwise disjoint, non-adjacent, and sorted; equality is
    structural, and two sets are equal iff they have the same members.
    """

    __slots__ = ("components",)

    def __init__(self, raw: Iterable[Sequence] = ()):
        cuts: list[CutPair] = []
        for comp in raw:
            if isinstance(comp, Piece):
                comp = (comp.left, comp.left_in, comp.right, comp.right_in)
            left, left_in, right, right_in = comp
            cuts.extend(_clean(left, left_in, right, right_in))
        self.components: tuple[Piece, ...] = _merge(cuts)

    @classmethod
    def _normal(cls, components: "tuple[Piece, ...]") -> "IntervalSet":
        """A set from components already sorted, disjoint and non-adjacent:
        the kernel's private path, which neither validates nor merges."""
        s = object.__new__(cls)
        s.components = components
        return s

    @classmethod
    def _from_cuts(cls, cuts: "list[CutPair]") -> "IntervalSet":
        """A set from cut pairs of validated pieces: sorted and merged, not
        validated again."""
        return cls._normal(_merge(cuts))

    def _cuts(self) -> "list[CutPair]":
        """The (start, end) cuts of the components, in order."""
        return [(p.start, p.end) for p in self.components]

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
        # one integer numerator over the running lcm of the denominators
        num, den = 0, 1
        for p in self.components:
            for x, sign in ((p.right, 1), (p.left, -1)):
                d = x.denominator
                if den % d:
                    scale = d // gcd(den, d)
                    num, den = num * scale, den * scale
                num += sign * x.numerator * (den // d)
        return Fraction(num, den)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        split = _large_small(self.components, other.components)
        if split is None:
            return IntervalSet._from_cuts(self._cuts() + other._cuts())
        comps = list(split[0])
        for p in split[1]:
            # comps[i:j] overlap or touch p, so they merge with it
            start, end = p.start, p.end
            i = bisect_left(comps, start, key=_END)
            j = bisect_right(comps, end, i, key=_START)
            if i < j:
                p = _piece(min(start, comps[i].start),
                           max(end, comps[j - 1].end))
            comps[i:j] = (p,)
        return IntervalSet._normal(tuple(comps))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        split = _large_small(self.components, other.components)
        if split is not None:
            return IntervalSet._normal(tuple(_clip(*split)))
        # a sweep over both sorted component lists: the component that ends
        # first meets nothing further on, so its pointer moves on.  Two
        # pieces of the output lie in different components of one operand,
        # which are apart, so the output is normal as it comes.
        out: list[Piece] = []
        mine, theirs = self._cuts(), other._cuts()
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (a_start, a_end), (b_start, b_end) = mine[i], theirs[j]
            start, end = max(a_start, b_start), min(a_end, b_end)
            if start < end:
                out.append(_piece(start, end))
            if a_end < b_end:
                i += 1
            else:
                j += 1
        return IntervalSet._normal(tuple(out))

    def complement(self) -> "IntervalSet":
        """Complement relative to the sample space [0,1): the nonempty gaps
        between the components, which are apart from each other."""
        out: list[Piece] = []
        cursor: Cut = (_ZERO, False)
        for p in self.components:
            if cursor < p.start:
                out.append(_piece(cursor, p.start))
            cursor = p.end
        if cursor < _END_CUT:
            out.append(_piece(cursor, _END_CUT))
        return IntervalSet._normal(tuple(out))

    def translate_mod1(self, t) -> "IntervalSet":
        """Shift every member by t modulo 1, splitting at the wrap point."""
        s = _as_fraction(t) % 1
        low: list[CutPair] = []
        wrapped: list[CutPair] = []
        for (left, after), (right, right_in) in self._cuts():
            start, end = (left + s, after), (right + s, right_in)
            if start < _END_CUT:
                low.append((start, min(end, _END_CUT)))
            if end > _END_CUT:
                # the part at or past 1, the point 1 itself included
                left, after = max(start, _END_CUT)
                wrapped.append(((left - 1, after), (end[0] - 1, right_in)))
        # the wrapped parts lie below s and the rest from s on, so the list
        # is sorted; the merge joins the pieces that meet at s
        return IntervalSet._from_cuts(wrapped + low)

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
