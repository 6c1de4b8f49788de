"""Exact rational interval sets over [0,1) and the length measure on them.

An :class:`IntervalSet` is a normalized finite union of intervals with
rational endpoints and per-endpoint inclusion flags; isolated points are
degenerate closed intervals.  The sample space is the half-open unit
interval, so the point 1 never belongs to a set: inputs that contain it
wrap it around to 0.

``lebesgue_length`` restricted to this algebra is the minimal uniform
model: translation invariant, finitely additive, and it assigns length 0
to points, so a possible point outcome carries zero measure here.

Endpoints are compared as cuts.  A cut ``(k, x, after)`` sits just before
the rational x when ``after`` is False and just after x when it is True; a
component starts at the cut ``(k, left, not left_in)``, ends at
``(k', right, right_in)`` and holds exactly the points between those two
cuts.  Comparing cuts as tuples settles every open/closed endpoint case of
membership, merging and intersection.

``k`` is an integer sort key, ``floor(x * 2**64)``, computed once where the
cut is made: in ``_clean`` for outside input, in ``translate_mod1`` for
shifted endpoints (``k - 2**64`` for the ones that wrap past 1) and in the
module constants for 0 and 1.  The floor is monotone, so two cuts whose
keys differ are ordered by one integer comparison; when the keys are equal
(the same endpoint, or endpoints with denominators above 2**32 that agree
in their first 64 binary digits) the tuple comparison falls back to the
exact ``Fraction`` and then to the flag.  The order is exactly the order of
``(x, after)``, only cheaper.

A set stores its components as the tuple ``cuts`` of (start, end) cut
pairs, and every operation reads and writes those.  ``components`` is a
view: the :class:`Piece` objects are built from the cuts the first time it
is read, and kept.

Sets are immutable, and outside input is validated once, where it enters:
the constructor (and ``normalize``, ``point``, ``interval``) checks every
component, a :class:`Piece` like a raw 4-tuple, for endpoint order and the
[0,1] range by integer cross-products, rejects float endpoints, and wraps
the point 1 to 0.

Every operation after that is one cut algebra over tuples of normal
(start, end) cut pairs, in module functions: ``_merge`` sorts and merges,
``_union`` merges or bisect-splices, ``_intersect`` clips, and ``_gaps``
gives the complement, normal as it comes.  They compare cuts only by
``<``, ``min`` and ``max``, so they serve two cut types: ``IntervalSet``
passes its ``(k, x, after)`` cuts, ``cantor.CantorEvent`` plain ints.  An
intersection bisects each component of the smaller operand into the
larger, and so does a union of k components with n where k*log2(n) < n,
at O(k log n) comparisons plus list copies, so a chain that keeps
combining a growing set with small ones costs near-linear time, not
quadratic.  ``contains`` bisects too.

``length`` sums the endpoint numerators per denominator, scales the sums
to one ``math.lcm`` of the denominators and makes a single ``Fraction``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import DomainError, ParseError, QueryTypeError
from .report import PropertyReport

Cut = tuple[int, Fraction, bool]
CutPair = tuple[Cut, Cut]

_ZERO = Fraction(0)
_ONE = Fraction(1)
# a cut's key is floor(x * 2**_KEY_BITS)
_KEY_BITS = 64
_KEY_ONE = 1 << _KEY_BITS


@dataclass(frozen=True, order=True)
class Piece:
    """One maximal component: left/right endpoint with inclusion flags."""

    left: Fraction
    left_in: bool
    right: Fraction
    right_in: bool

    @property
    def start(self) -> "tuple[Fraction, bool]":
        """Cut just before the first member, without its key."""
        return (self.left, not self.left_in)

    @property
    def end(self) -> "tuple[Fraction, bool]":
        """Cut just after the last member, without its key."""
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


def _key(x: Fraction) -> int:
    return (x.numerator << _KEY_BITS) // x.denominator


# the cuts at which the sample space [0,1) starts and ends
_START_CUT: Cut = (0, _ZERO, False)
_END_CUT: Cut = (_KEY_ONE, _ONE, False)
# the point 0, which the point 1 wraps to
_ZERO_POINT: CutPair = (_START_CUT, (0, _ZERO, True))


def _clean(left, left_in, right, right_in) -> "list[CutPair]":
    """Validate one raw component, wrap the point 1 back to 0 and return the
    nonempty pieces as (start, end) cuts."""
    left, right = _as_fraction(left), _as_fraction(right)
    p, q = left.numerator, left.denominator
    r, s = right.numerator, right.denominator
    ps, rq = p * s, r * q
    if ps > rq:
        raise DomainError(f"interval endpoints out of order: {left} > {right}")
    if p < 0 or r > s:
        raise DomainError(f"endpoint outside [0,1]: [{left},{right}]")
    # the component holds the point 1, which wraps to 0
    wrap = r == s and right_in and (ps < rq or left_in)
    end_after = bool(right_in) and not wrap
    # left < right, or one point with both ends closed
    if ps < rq or (left_in and end_after):
        out = [(((p << _KEY_BITS) // q, left, not left_in),
                ((r << _KEY_BITS) // s, right, end_after))]
    else:
        out = []
    if wrap:
        out.append(_ZERO_POINT)
    return out


_START, _END = itemgetter(0), itemgetter(1)


def _merge(cuts: "list[CutPair]") -> "tuple[CutPair, ...]":
    """Sort nonempty cut pairs and merge the ones that overlap or touch."""
    if not cuts:
        return ()
    cuts.sort(key=_START)
    merged: list[CutPair] = []
    start, end = cuts[0]
    for s, e in cuts:
        if s <= end:
            if e > end:
                end = e
        else:
            merged.append((start, end))
            start, end = s, e
    merged.append((start, end))
    return tuple(merged)


def _union(*operands: "Sequence[CutPair]") -> tuple:
    """The union of normal cut-pair tuples: one merge, or, for two operands
    of k <= n components with k*log2(n) < n, the smaller's components
    bisected into the larger and spliced."""
    if len(operands) == 2:
        a, b = operands
        if len(a) < len(b):
            a, b = b, a
        if len(b) * len(a).bit_length() < len(a):
            comps = list(a)
            for start, end in b:
                # comps[i:j] overlap or touch the component, so they merge
                i = bisect_left(comps, start, key=_END)
                j = bisect_right(comps, end, i, key=_START)
                if i < j:
                    start = min(start, comps[i][0])
                    end = max(end, comps[j - 1][1])
                comps[i:j] = ((start, end),)
            return tuple(comps)
    return _merge([c for cuts in operands for c in cuts])


def _intersect(a: "Sequence[CutPair]", b: "Sequence[CutPair]") -> tuple:
    """The intersection of two normal cut-pair tuples: for each component of
    the smaller, the components of the larger that overlap it, the first
    and last cut to it.  Pieces inside different components of one operand
    are apart, so the output is normal as it comes."""
    large, small = (a, b) if len(a) >= len(b) else (b, a)
    out: list[CutPair] = []
    for start, end in small:
        i = bisect_right(large, start, key=_END)
        j = bisect_left(large, end, i, key=_START)
        if i == j:
            continue
        first, last = large[i], large[j - 1]
        if i + 1 == j:
            out.append((max(start, first[0]), min(end, first[1])))
            continue
        out.append((max(start, first[0]), first[1]))
        out += large[i + 1:j - 1]
        out.append((last[0], min(end, last[1])))
    return tuple(out)


def _gaps(cuts: "Sequence[CutPair]", first, last) -> tuple:
    """The nonempty gaps between the cuts ``first``, ``cuts`` and ``last``."""
    out: list[CutPair] = []
    cursor = first
    for start, end in cuts:
        if cursor < start:
            out.append((cursor, start))
        cursor = end
    if cursor < last:
        out.append((cursor, last))
    return tuple(out)


class IntervalSet:
    """Normalized finite union of rational-endpoint intervals in [0,1).

    Components are pairwise disjoint, non-adjacent, and sorted; equality is
    structural, and two sets are equal iff they have the same members.
    ``cuts`` holds the components as (start, end) cut pairs.
    """

    __slots__ = ("cuts", "_pieces")

    def __init__(self, raw: Iterable[Sequence] = ()):
        cuts: list[CutPair] = []
        for comp in raw:
            if isinstance(comp, Piece):
                comp = (comp.left, comp.left_in, comp.right, comp.right_in)
            left, left_in, right, right_in = comp
            cuts.extend(_clean(left, left_in, right, right_in))
        self.cuts: tuple[CutPair, ...] = _merge(cuts)
        self._pieces = None

    @classmethod
    def _normal(cls, cuts: "tuple[CutPair, ...]") -> "IntervalSet":
        """A set from cut pairs already sorted, disjoint and non-adjacent:
        the kernel's private path, which neither validates nor merges."""
        s = object.__new__(cls)
        s.cuts, s._pieces = cuts, None
        return s

    @classmethod
    def _from_cuts(cls, cuts: "list[CutPair]") -> "IntervalSet":
        """A set from cut pairs of validated pieces: sorted and merged, not
        validated again."""
        return cls._normal(_merge(cuts))

    @property
    def components(self) -> "tuple[Piece, ...]":
        """The components as Pieces, built from the cuts when first read."""
        if self._pieces is None:
            self._pieces = tuple([Piece(left, not after, right, right_in)
                                  for (_, left, after), (_, right, right_in)
                                  in self.cuts])
        return self._pieces

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
        return not self.cuts

    def contains(self, x) -> bool:
        x = _as_fraction(x)
        k = _key(x)
        # the last component that starts at or before x, if any, holds it
        i = bisect_right(self.cuts, (k, x, False), key=_START)
        return i > 0 and (k, x, True) <= self.cuts[i - 1][1]

    def half_open_only(self) -> bool:
        """True when every component has the shape [a,b) with a < b."""
        # a nonempty component from the cut before a to the cut before b
        # has a < b
        return not any(start[2] or end[2] for start, end in self.cuts)

    @property
    def length(self) -> Fraction:
        # the numerators summed per denominator, then one lcm
        sums: dict[int, int] = {}
        for (_, left, _), (_, right, _) in self.cuts:
            d = right.denominator
            sums[d] = sums.get(d, 0) + right.numerator
            d = left.denominator
            sums[d] = sums.get(d, 0) - left.numerator
        den = lcm(*sums)
        num = 0
        for d, n in sums.items():
            num += n * (den // d)
        return Fraction(num, den)

    # -- algebra -----------------------------------------------------------

    def union(self, *others: "IntervalSet") -> "IntervalSet":
        return IntervalSet._normal(_union(self.cuts,
                                          *[s.cuts for s in others]))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet._normal(_intersect(self.cuts, other.cuts))

    def complement(self) -> "IntervalSet":
        """Complement relative to the sample space [0,1)."""
        return IntervalSet._normal(_gaps(self.cuts, _START_CUT, _END_CUT))

    def translate_mod1(self, t) -> "IntervalSet":
        """Shift every member by t modulo 1, splitting at the wrap point."""
        s = _as_fraction(t) % 1
        low: list[CutPair] = []
        wrapped: list[CutPair] = []
        for (_, left, after), (_, right, right_in) in self.cuts:
            left, right = left + s, right + s
            start = (_key(left), left, after)
            end = (_key(right), right, right_in)
            if start < _END_CUT:
                low.append((start, min(end, _END_CUT)))
            if end > _END_CUT:
                # the part at or past 1, the point 1 itself included
                k, left, after = max(start, _END_CUT)
                wrapped.append(((k - _KEY_ONE, left - 1, after),
                                (end[0] - _KEY_ONE, right - 1, right_in)))
        # the wrapped parts lie below s and the rest from s on, so the list
        # is sorted; the merge joins the pieces that meet at s
        return IntervalSet._from_cuts(wrapped + low)

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersect(other)

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.cuts == other.cuts

    def __hash__(self):
        return hash(self.cuts)

    def render(self) -> str:
        if not self.cuts:
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


def conditional(probability: Callable, a, b, null_message: str):
    """P(a | b) = P(a & b) / P(b) under ``probability``; DomainError with
    ``null_message`` when P(b) = 0."""
    pb = probability(b)
    if pb == 0:
        raise DomainError(null_message)
    return probability(a & b) / pb


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
