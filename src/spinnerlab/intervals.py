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

``x`` is the rational as the ints ``(p, q)``, in lowest terms with
``q > 0``, and ``k`` is an integer sort key, ``floor(x * 2**64)`` =
``(p << 64) // q``.  Both are computed once where the cut is made: in
``_clean`` for outside input (the query parser, the samplers and the
spinner checks hand it reduced pairs, and the constructor reads them off
its rationals), in ``translate_mod1`` for
shifted endpoints (``k - 2**64`` and ``(p - q, q)`` for the ones that wrap
past 1) and in the module constants for 0 and 1.  No ``Fraction`` is made
on the way.  The floor is monotone, so two cuts whose keys differ are
ordered by one integer comparison.  When the keys are equal the tuple
comparison falls back to ``x`` and then to the flag, and a plain pair
compared lexicographically would get ``x``'s order wrong.  So a pair over
a denominator above 2**32 is stored as a ``_Wide``, a tuple whose ``<``,
``<=``, ``>`` and ``>=`` compare ``p1*q2`` with ``p2*q1``, and a pair over
a smaller denominator as a plain tuple.  That order is exact:

* two distinct values whose denominators are both at most 2**32 differ by
  at least 2**-64, so their keys differ and their pairs are never compared;
* a pair's form depends only on its reduced denominator, so equal values
  have equal forms and compare, hash and test equal as tuples;
* Python tries a subclass's reflected method first, so a plain pair
  against a ``_Wide`` one is compared by value too.

The order of cuts is then exactly the order of ``(x, after)``, only
cheaper.

A set stores its components as the tuple ``cuts`` of (start, end) cut
pairs, and every operation reads and writes those.  ``components`` is a
view: each read builds the :class:`Piece` objects from the cuts.

Sets are immutable, and outside input is validated once, where it enters:
the constructor (and ``point``, ``interval``) checks every component, a
:class:`Piece` like a raw 4-tuple, for endpoint order and the [0,1] range
by integer cross-products, reads each endpoint by the field's one
exact-input rule, which refuses floats, and wraps the point 1 to 0.

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

The length is one running sum ``num/den``: each component's
``r/s - p/q`` is added with one ``gcd``, of ``den`` and the component's
denominator, and the total is reduced by one more ``gcd`` at the end.  It
is computed once per set, the first time it is read, and kept
as the reduced pair ``_length_ratio()``, which the grid count reads (the
spinner checks read it twice per set); each read of ``length`` builds
one ``Fraction`` from that pair.  A set builds a ``Fraction`` only when
``length`` or ``components`` is read; ``render`` prints from the cuts, so
it builds no ``Piece`` and no ``Fraction``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import DomainError, ParseError, QueryTypeError
from .field import _count, _ratio, render_ratio
from .report import PropertyReport

# a rational as (numerator, denominator) in lowest terms, denominator > 0
Ratio = tuple[int, int]
Cut = tuple[int, Ratio, bool]
CutPair = tuple[Cut, Cut]

# a cut's key is floor(x * 2**_KEY_BITS)
_KEY_BITS = 64
_KEY_ONE = 1 << _KEY_BITS
# a cut's pair over a denominator above this is a _Wide
_WIDE_DEN = 1 << (_KEY_BITS // 2)


class _Wide(tuple):
    """A cut's reduced pair (p, q) with q > 2**32, ordered by value: the
    only pairs whose keys can tie with another value's."""

    __slots__ = ()

    def __lt__(self, other):
        return self[0] * other[1] < other[0] * self[1]

    def __le__(self, other):
        return self[0] * other[1] <= other[0] * self[1]

    def __gt__(self, other):
        return self[0] * other[1] > other[0] * self[1]

    def __ge__(self, other):
        return self[0] * other[1] >= other[0] * self[1]


def _pair(p: int, q: int) -> Ratio:
    """The reduced p/q in its cut form: a _Wide above 2**32, else a tuple."""
    return (p, q) if q <= _WIDE_DEN else _Wide((p, q))


@dataclass(frozen=True)
class Piece:
    """One maximal component: left/right endpoint with inclusion flags."""

    left: Fraction
    left_in: bool
    right: Fraction
    right_in: bool


# the cuts at which the sample space [0,1) starts and ends
_START_CUT: Cut = (0, (0, 1), False)
_END_CUT: Cut = (_KEY_ONE, (1, 1), False)
# the point 0, which the point 1 wraps to
_ZERO_POINT: CutPair = (_START_CUT, (0, (0, 1), True))


def _clean(left: Ratio, left_in, right: Ratio,
           right_in) -> "list[CutPair]":
    """Validate one raw component with reduced-pair endpoints, wrap the
    point 1 back to 0 and return the nonempty pieces as (start, end) cuts."""
    p, q = left
    r, s = right
    ps, rq = p * s, r * q
    if ps > rq:
        raise DomainError(f"interval endpoints out of order: "
                          f"{render_ratio(p, q)} > {render_ratio(r, s)}")
    if p < 0 or r > s:
        raise DomainError(f"endpoint outside [0,1]: "
                          f"[{render_ratio(p, q)},{render_ratio(r, s)}]")
    # the component holds the point 1, which wraps to 0
    wrap = r == s and right_in and (ps < rq or left_in)
    end_after = bool(right_in) and not wrap
    # left < right, or one point with both ends closed
    if ps < rq or (left_in and end_after):
        out = [(((p << _KEY_BITS) // q,
                 _Wide(left) if q > _WIDE_DEN else left, not left_in),
                ((r << _KEY_BITS) // s,
                 _Wide(right) if s > _WIDE_DEN else right, end_after))]
    else:
        out = []
    if wrap:
        out.append(_ZERO_POINT)
    return out


def _add(p: int, q: int, a: int, b: int) -> Ratio:
    """p/q + a/b in lowest terms, for reduced operands, as ``Fraction``
    adds them: over g = gcd(q, b), only g can divide the sum and its
    denominator (Knuth, TAOCP vol. 2, 4.5.1)."""
    g = gcd(q, b)
    if g == 1:
        return p * b + a * q, q * b
    t = p * (b // g) + a * (q // g)
    g2 = gcd(t, g)
    return t // g2, (q // g) * (b // g2)


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

    __slots__ = ("cuts", "_length_pair")

    def __init__(self, raw: Iterable[Sequence] = ()):
        cuts: list[CutPair] = []
        for comp in raw:
            if isinstance(comp, Piece):
                comp = (comp.left, comp.left_in, comp.right, comp.right_in)
            left, left_in, right, right_in = comp
            cuts.extend(_clean(_ratio(left), left_in, _ratio(right),
                               right_in))
        self.cuts: tuple[CutPair, ...] = _merge(cuts)
        self._length_pair = None

    @classmethod
    def _normal(cls, cuts: "tuple[CutPair, ...]") -> "IntervalSet":
        """A set from cut pairs already sorted, disjoint and non-adjacent:
        the kernel's private path, which neither validates nor merges."""
        s = object.__new__(cls)
        s.cuts = cuts
        s._length_pair = None
        return s

    @classmethod
    def _from_cuts(cls, cuts: "list[CutPair]") -> "IntervalSet":
        """A set from cut pairs of validated pieces: sorted and merged, not
        validated again."""
        return cls._normal(_merge(cuts))

    @property
    def components(self) -> "tuple[Piece, ...]":
        """The components as Pieces, built from the cuts at each read."""
        return tuple([Piece(Fraction(*left), not after,
                            Fraction(*right), right_in)
                      for (_, left, after), (_, right, right_in)
                      in self.cuts])

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls()

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((0, True, 1, False),))

    @classmethod
    def point(cls, x) -> "IntervalSet":
        return cls(((x, True, x, True),))

    @classmethod
    def interval(cls, left, left_in, right, right_in) -> "IntervalSet":
        return cls(((left, left_in, right, right_in),))

    # -- structure ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.cuts

    def contains(self, x) -> bool:
        p, q = _ratio(x)
        k, x = (p << _KEY_BITS) // q, _pair(p, q)
        # the last component that starts at or before x, if any, holds it
        i = bisect_right(self.cuts, (k, x, False), key=_START)
        return i > 0 and (k, x, True) <= self.cuts[i - 1][1]

    def half_open_only(self) -> bool:
        """True when every component has the shape [a,b) with a < b."""
        # a nonempty component from the cut before a to the cut before b
        # has a < b
        return not any(start[2] or end[2] for start, end in self.cuts)

    def _length_ratio(self) -> Ratio:
        """The sum of the component lengths as a reduced (p, q), computed
        when first read."""
        if self._length_pair is None:
            # den is the lcm of the denominators t added so far: each
            # step scales num and n by what the other denominator lacks
            num, den = 0, 1
            for (_, (p, q), _), (_, (r, s), _) in self.cuts:
                if q == s:
                    n, t = r - p, q
                else:
                    n, t = r * q - p * s, q * s
                g = gcd(den, t)
                num = num * (t // g) + n * (den // g)
                den = den // g * t
            g = gcd(num, den)
            self._length_pair = (num // g, den // g)
        return self._length_pair

    @property
    def length(self) -> Fraction:
        """The sum of the component lengths, built at each read."""
        return Fraction(*self._length_ratio())

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
        return self._translate(*_ratio(t))

    def _translate(self, a: int, b: int) -> "IntervalSet":
        """``translate_mod1`` by the reduced a/b, b > 0."""
        a %= b
        low: list[CutPair] = []
        wrapped: list[CutPair] = []
        for (_, (p, q), after), (_, (r, s), right_in) in self.cuts:
            p, q = _add(p, q, a, b)
            r, s = _add(r, s, a, b)
            start = ((p << _KEY_BITS) // q, _pair(p, q), after)
            end = ((r << _KEY_BITS) // s, _pair(r, s), right_in)
            if start < _END_CUT:
                low.append((start, min(end, _END_CUT)))
            if end > _END_CUT:
                # the part at or past 1, the point 1 itself included
                k, (p, q), after = max(start, _END_CUT)
                wrapped.append(((k - _KEY_ONE, _pair(p - q, q), after),
                                (end[0] - _KEY_ONE, _pair(r - s, s),
                                 right_in)))
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
        """Each component from its cut pair: ``{p/q}`` for a point, else
        brackets from the two cut flags, its endpoints by ``render_ratio``."""
        if not self.cuts:
            return "∅"
        parts = []
        for (_, left, after), (_, right, right_in) in self.cuts:
            if left == right:
                parts.append(f"{{{render_ratio(*left)}}}")
                continue
            lb = "(" if after else "["
            rb = "]" if right_in else ")"
            parts.append(f"{lb}{render_ratio(*left)},"
                         f"{render_ratio(*right)}{rb}")
        return " ∪ ".join(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"IntervalSet<{self.render()}>"


def lebesgue_length(a: IntervalSet) -> Fraction:
    """Sum of component lengths; endpoint flags carry no mass."""
    return a.length


# the null-condition message where only the empty event is null
EMPTY_CONDITION = "conditioning on the empty event"


def conditional(probability: Callable, a, b, null_message: str):
    """P(a | b) = P(a & b) / P(b) under ``probability``; DomainError with
    ``null_message`` when P(b) = 0."""
    return _conditional(probability, a, b, null_message)[0]


def _conditional(probability: Callable, a, b, null_message: str) -> tuple:
    """``conditional``'s value and the intersection ``a & b`` it divides,
    for a caller that reads that intersection too."""
    pb = probability(b)
    if pb == 0:
        raise DomainError(null_message)
    ab = a & b
    return probability(ab) / pb, ab


def dyadic_tail_family(n: int) -> IntervalSet:
    """Member n of the disjoint dyadic family filling [0,1) from the left."""
    if _count(n, "family index n") < 0:
        raise DomainError("family index must be nonnegative")
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
    if _count(depth, "depth") < 1:
        raise DomainError("depth must be a positive integer")
    members = [family(i) for i in range(depth + 1)]
    claimed = lebesgue_length(claimed_union)
    running = IntervalSet.empty()
    partial_sum = Fraction(0)
    residuals: list[Fraction] = []
    counterexamples: list[str] = []
    for k, m in enumerate(members):
        # a member disjoint from the union of the earlier ones is disjoint
        # from each; only an overlap looks up the earliest one it meets
        if not (running & m).is_empty():
            for i in range(k):
                common = members[i] & m
                if not common.is_empty():
                    raise DomainError(f"family members {i} and {k} overlap "
                                      f"on {common.render()}")
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
