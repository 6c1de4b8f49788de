"""Reference computations the benchmark checks the program against.

None of these calls spinnerlab: each recomputes an expected answer from the
generated inputs with plain Python arithmetic, or with sympy for the field
kernel, so a defect in the program cannot hide behind itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# -- interval sets ---------------------------------------------------------------
#
# A generated interval set is a sorted list of pairwise disjoint,
# non-touching components (left, right); a point has left == right.

def length(components) -> Fraction:
    return sum((b - a for a, b in components), Fraction(0))


def overlap_length(xs, ys) -> Fraction:
    total = Fraction(0)
    for a1, b1 in xs:
        for a2, b2 in ys:
            lo, hi = max(a1, a2), min(b1, b2)
            if hi > lo:
                total += hi - lo
    return total


# -- cylinder events ---------------------------------------------------------------

def prefix_free(addresses) -> set:
    """Drop every address that has a proper prefix in the set."""
    s = set(addresses)
    return {a for a in s if not any(a[:k] in s for k in range(len(a)))}


def cylinder_measure(addresses) -> Fraction:
    return sum((Fraction(1, 2 ** len(a)) for a in prefix_free(addresses)),
               Fraction(0))


def cylinder_overlap(xs, ys) -> Fraction:
    """Measure of the intersection of two cylinder unions."""
    total, ys = Fraction(0), prefix_free(ys)
    for a in prefix_free(xs):
        for b in ys:
            if a.startswith(b) or b.startswith(a):
                total += Fraction(1, 2 ** max(len(a), len(b)))
    return total


# -- finite grids ------------------------------------------------------------------

def stabilizer_order(points) -> int:
    """Order of the rotation group of a finite grid in [0,1).

    Over a common denominator the grid is a cyclic gap sequence; a rotation
    maps the grid onto itself iff it shifts that sequence by a period, so
    the order is n divided by the least period.
    """
    den = 1
    for p in points:
        den = den * p.denominator // gcd(den, p.denominator)
    ints = sorted(int(p * den) for p in points)
    n = len(ints)
    gaps = [ints[i + 1] - ints[i] for i in range(n - 1)] + [den + ints[0] - ints[-1]]
    for period in range(1, n + 1):
        if n % period == 0 and all(gaps[i] == gaps[(i + period) % n]
                                   for i in range(n)):
            return n // period
    raise AssertionError("unreachable: the full length is always a period")


# -- the field kernel, against sympy -----------------------------------------------

class FieldOracle:
    """Canonical form, sign and standard part recomputed with sympy's own
    field of rational functions over QQ."""

    def __init__(self):
        import sympy  # imported lazily: only the field workload needs it
        self.qq = sympy.QQ
        self.field, self.g = sympy.field("g", sympy.QQ)

    def expr(self, num, den):
        qq, g = self.qq, self.g
        n = sum((qq(c.numerator, c.denominator) * g ** k
                 for k, c in enumerate(num)), self.field.zero)
        d = sum((qq(c.numerator, c.denominator) * g ** k
                 for k, c in enumerate(den)), self.field.zero)
        return n / d

    def canonical(self, e):
        """(num, den) coefficient lists: coprime, den's lowest coefficient 1."""
        num, den = _dense(e.numer), _dense(e.denom)
        low = next(c for c in den if c)
        return [c / low for c in num], [c / low for c in den]

    def sign(self, e) -> int:
        """Sign as g -> 0+: that of the lowest-order terms of num and den."""
        num, den = self.canonical(e)
        if not num:
            return 0
        return 1 if next(c for c in num if c) > 0 else -1

    def standard_part(self, e) -> Fraction:
        num, den = self.canonical(e)
        if not num:
            return Fraction(0)
        vn = next(k for k, c in enumerate(num) if c)
        vd = next(k for k, c in enumerate(den) if c)
        if vn < vd:
            raise ValueError("unlimited value has no standard part")
        return num[vn] / den[vd] if vn == vd else Fraction(0)


def _dense(poly):
    """Ascending Fraction coefficients of a univariate sympy PolyElement."""
    terms = {m[0]: Fraction(int(c.numerator), int(c.denominator))
             for m, c in poly.terms() if c}
    return [terms.get(k, Fraction(0))
            for k in range(max(terms) + 1)] if terms else []
