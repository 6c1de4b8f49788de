"""The hyperfinite spinner: an equally spaced grid of N = m! points in [0,1)
with m unlimited, queried symbolically.

The grid is never materialized.  Because N is a factorial of an unlimited
number, every concrete rational denominator divides N, so every rational
endpoint lands exactly on a grid point and interval counts reduce to affine
forms a*N + b with rational a and integer b.  The counting probability of a
set is then (a*N + b)/N = a + b*eps with eps = 1/N, a positive infinitesimal.

Consequences, all checked by the property suite:

* every point gets probability eps > 0, so no possible outcome is null;
* the standard part of the probability equals the interval-set length;
* sets with equal counts get equal probability;
* translation by any rational is a bijection of the grid, so probability
  is invariant under rational rotations;
* on finite unions of half-open intervals the probability is exactly the
  length, with no corner corrections at all.

Full real-rotation invariance fails for any fixed grid.  Symbolically: the
rotation by 1/(N+1) never lands on a grid point, since k/N = 1/(N+1) has
no integer solution, so already this single rational-in-N rotation moves 0
off the grid; irrational rotations have no exact representative here at
all.  For concrete finite grids :func:`finite_grid_stabilizer` computes
the cyclic group of rational rotations preserving the grid from the period
of its gap sequence and exhibits an off-grid rotation witness of exactly
that 1/(order+1) shape.

Everything in this module is immutable and the operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import pairwise

from .errors import DomainError
from .field import MAX_NUMERAL_DIGITS, Generator, NonArchValue, render_exact
from .intervals import IntervalSet, conditional, lebesgue_length
from .report import PropertyReport
from . import sampling

SPINNER_GENERATOR = Generator("eps")


@dataclass(frozen=True)
class GridModel:
    """Symbolic spinner sample space {k/N : 0 <= k < N}, N = m!, m unlimited."""

    generator: Generator = SPINNER_GENERATOR


@dataclass(frozen=True)
class CountForm:
    """Number of grid points in a set, as the affine form linear*N + constant."""

    linear: Fraction
    constant: int

    def __add__(self, other: "CountForm") -> "CountForm":
        return CountForm(self.linear + other.linear,
                         self.constant + other.constant)

    def evaluate(self, n: int) -> Fraction:
        return self.linear * n + self.constant

    def render(self) -> str:
        if self.constant < 0:
            return f"{self.linear}*N - {-self.constant}"
        return f"{self.linear}*N + {self.constant}"

    __str__ = render


def grid_count(model: GridModel, a: IntervalSet) -> CountForm:
    """Exact point count of a set, using that every endpoint is on the grid.

    A component (a,b) holds (b-a)*N - 1 grid points and each closed end adds
    one more, so [a,b) holds (b-a)*N and a single point [a,a] exactly one.
    """
    # left_in + right_in - 1 is the end cut's flag minus the start cut's
    return CountForm(a.length, sum(end[2] - start[2]
                                   for start, end in a.cuts))


def grid_probability(model: GridModel, a: IntervalSet) -> NonArchValue:
    """Counting probability count/N = linear + constant*eps."""
    c = grid_count(model, a)
    return NonArchValue.affine(model.generator, c.linear, c.constant)


def conditional_probability(model: GridModel, a: IntervalSet,
                            b: IntervalSet) -> NonArchValue:
    """P(a | b) as an exact field element; b may be a single point."""
    return conditional(partial(grid_probability, model), a, b,
                       "conditioning on the empty event")


# -- finite grids and their rotation stabilizers -------------------------------

# uniform:N builds all N points; past this it would exhaust memory
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class FiniteGrid:
    """Concrete finite set of rational positions in [0,1)."""

    points: tuple[Fraction, ...]

    def __post_init__(self):
        points = tuple(sorted(self.points))
        if points and (points[0] < 0 or points[-1] >= 1):
            raise DomainError("grid points must lie in [0,1)")
        if any(a == b for a, b in zip(points, points[1:])):
            raise DomainError("grid points must be distinct")
        object.__setattr__(self, "points", points)

    @classmethod
    def uniform(cls, n: int) -> "FiniteGrid":
        if n < 1:
            raise DomainError("uniform grid needs n >= 1")
        if n > MAX_GRID_POINTS:
            raise DomainError(f"uniform grid needs n <= {MAX_GRID_POINTS}")
        # k/n for k < n are sorted, distinct and in [0,1) as built, so the
        # checks of __post_init__ are skipped
        grid = object.__new__(cls)
        object.__setattr__(grid, "points",
                           tuple(Fraction(k, n) for k in range(n)))
        return grid


@dataclass(frozen=True)
class StabilizerResult:
    """Rotation stabilizer of a finite grid plus one off-grid witness."""

    order: int
    generator_rotation: Fraction
    witness_rotation: Fraction
    witness_point: Fraction
    witness_image: Fraction

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "generator_rotation": render_exact(self.generator_rotation),
            "witness_rotation": render_exact(self.witness_rotation),
            "witness_point": render_exact(self.witness_point),
            "witness_image": render_exact(self.witness_image),
        }


def finite_grid_stabilizer(g: FiniteGrid) -> StabilizerResult:
    """The group of rotations mapping the grid onto itself, from its gaps.

    A preserving rotation sends the least point to some p_j, so it shifts
    the cyclic gap sequence (neighbour gaps, then the wrap back to the least
    point) onto itself by j places.  With d the least such shift, a divisor
    of n, the group is cyclic of order k = n/d, generated by 1/k.  The
    rotation by 1/(k+1) cannot preserve the grid: the off-grid witness.
    """
    if not g.points:
        raise DomainError("stabilizer of an empty grid is undefined")
    pts = g.points
    n = len(pts)
    # each gap as a reduced numerator and denominator, from one cross
    # product and one gcd per pair of neighbours: the cost stays linear in
    # the digits of the grid, where a common denominator of coprime ones
    # would multiply them.  Two int lists take less memory and time than
    # one list of pairs.
    nums, dens = [], []
    for (p, q), (r, s) in pairwise(map(Fraction.as_integer_ratio,
                                       pts + (pts[0] + 1,))):
        num, den = r * q - p * s, q * s
        common = math.gcd(num, den)
        nums.append(num // common)
        dens.append(den // common)
    k = next(n // d for d in range(1, n + 1)
             if n % d == 0
             and all(seq[d:] + seq[:d] == seq for seq in (nums, dens)))
    rotation = Fraction(1, k) if k > 1 else Fraction(0)
    witness_rotation = Fraction(1, k + 1)
    for x in pts:
        image = (x + witness_rotation) % 1
        i = bisect_left(pts, image)
        if i == n or pts[i] != image:
            return StabilizerResult(k, rotation, witness_rotation, x, image)
    raise AssertionError("rotation by 1/(order+1) unexpectedly preserved "
                         "the grid")


# -- the property suite ---------------------------------------------------------

# the stabilizer suite builds every uniform grid up to size n: ~n^2/2 points
MAX_SUITE_GRID_SIZE = 1000
# a case takes about 0.6 ms, so 10000 cases take seconds
MAX_SUITE_CASES = 10_000
# a sampled denominator's digits slow every case: 1000 of them take seconds
MAX_SUITE_DENOMINATOR = 10 ** 18
# each config key's least and greatest value
_CONFIG_RANGES = {"seed": (-math.inf, math.inf),
                  "cases": (1, MAX_SUITE_CASES),
                  "max_denominator": (1, MAX_SUITE_DENOMINATOR),
                  "max_grid_size": (1, MAX_SUITE_GRID_SIZE)}


def check_digits(text: str, name: str) -> None:
    """Refuse an integer setting with more digits than ``int`` reads; the
    ``_`` separators that ``int`` accepts are not digits."""
    digits = text.strip().lstrip("+-").replace("_", "")
    if digits.isdecimal() and len(digits) > MAX_NUMERAL_DIGITS:
        raise DomainError(f"{name} must be at most {MAX_NUMERAL_DIGITS} "
                          f"digits long")


@dataclass
class SuiteConfig:
    """Sampling configuration shared by all randomized suites.

    File format: one "key = value" per line, '#' comments allowed.  Keys:
    seed, cases, max_denominator, max_grid_size, each an integer in its
    range in ``_CONFIG_RANGES``.
    """

    seed: int = 0
    cases: int = 200
    max_denominator: int = 50
    max_grid_size: int = 24

    @classmethod
    def from_file(cls, path: str) -> "SuiteConfig":
        cfg = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_RANGES:
                    raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
                where = f"{path}:{lineno}: {key}"
                check_digits(value, where)
                try:
                    n = int(value.strip())
                except ValueError:
                    raise DomainError(f"{where} needs an integer") from None
                lo, hi = _CONFIG_RANGES[key]
                if n < lo:
                    raise DomainError(f"{where} must be at least {lo}")
                if n > hi:
                    raise DomainError(f"{where} must be at most {hi}")
                setattr(cfg, key, n)
        return cfg

    def coverage_warnings(self) -> list[str]:
        """One warning witness when sampling is too thin to mean much."""
        if self.max_denominator >= 2 and self.cases >= 10:
            return []
        return [f"warning: low-coverage sampling "
                f"(cases={self.cases}, max_denominator={self.max_denominator})"]

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")


def _report(name: str, cases: int, counterexamples: list[str],
            witnesses: list[str], config: SuiteConfig) -> PropertyReport:
    return PropertyReport.from_checks(name, cases, counterexamples,
                                      witnesses + config.coverage_warnings())


def _check_regularity(model, config) -> PropertyReport:
    rng = config.rng("regularity")
    eps = NonArchValue.infinitesimal(model.generator)
    bad = []
    for _ in range(config.cases):
        x = sampling.rand_fraction(rng, config.max_denominator)
        p = grid_probability(model, IntervalSet.point(x))
        cls = p.classify()
        if p != eps or cls.render() != "infinitesimal-positive":
            bad.append(f"x={x}: P={p} classified {cls.render()}")
    return _report("spinner-regularity", config.cases, bad,
                   ["every sampled point outcome has probability eps > 0"],
                   config)


def _check_totality(model, config) -> PropertyReport:
    rng = config.rng("totality")
    zero = NonArchValue.constant(model.generator, 0)
    one = NonArchValue.constant(model.generator, 1)
    bad = []
    for _ in range(config.cases):
        a = sampling.rand_interval_set(rng, 5, config.max_denominator)
        p = grid_probability(model, a)
        if not (zero <= p <= one):
            bad.append(f"A={a.render()}: P={p} outside [0,1]")
    return _report("spinner-totality", config.cases, bad,
                   ["every sampled set is assigned a probability in [0,1]"],
                   config)


def _check_count_uniformity(model, config) -> PropertyReport:
    rng = config.rng("count-uniformity")
    bad = []
    for _ in range(config.cases):
        a = sampling.rand_interval_set(rng, 4, config.max_denominator)
        q = sampling.rand_fraction(rng, config.max_denominator)
        b = a.translate_mod1(q)
        ca, cb = grid_count(model, a), grid_count(model, b)
        if ca != cb:
            bad.append(f"A={a.render()}, q={q}: counts {ca} vs {cb}")
        elif grid_probability(model, a) != grid_probability(model, b):
            bad.append(f"A={a.render()}, q={q}: equal counts {ca} but "
                       f"unequal probabilities")
        # flag-trade pair with identical counts: [a,b] vs [a,b) u {x}
        left = sampling.rand_fraction(rng, config.max_denominator)
        right = sampling.rand_fraction(rng, config.max_denominator)
        if left > right:
            left, right = right, left
        if left == right:
            continue
        closed = IntervalSet.interval(left, True, right, True)
        outside = closed.complement()
        if outside.is_empty():
            continue
        (_, x, _), _ = outside.cuts[0]
        if not outside.contains(x):
            continue
        traded = IntervalSet.interval(left, True, right, False) \
            | IntervalSet.point(x)
        cc, ct = grid_count(model, closed), grid_count(model, traded)
        if cc != ct:
            bad.append(f"[{left},{right}] vs traded: counts {cc} vs {ct}")
        elif grid_probability(model, closed) != grid_probability(model, traded):
            bad.append(f"[{left},{right}] vs traded: equal counts, "
                       f"unequal probabilities")
    return _report("spinner-count-uniformity", config.cases, bad,
                   ["equal point counts always produced equal probabilities"],
                   config)


def _check_length_agreement(model, config, corrupt: bool = False) -> PropertyReport:
    rng = config.rng("length-agreement")
    bad = []
    for i in range(config.cases):
        a = sampling.rand_interval_set(rng, 5, config.max_denominator)
        expected = lebesgue_length(a)
        if corrupt:
            # test hook: deliberately skew the reference measure
            expected += Fraction(1, 997)
        st = grid_probability(model, a).standard_part()
        if st != expected:
            bad.append(f"A={a.render()}: st(P)={st}, length={expected}")
    return _report("spinner-length-agreement", config.cases, bad,
                   ["standard part of grid probability equals set length"],
                   config)


def _check_rational_rotation(model, config) -> PropertyReport:
    rng = config.rng("rational-rotation")
    bad = []
    for _ in range(config.cases):
        a = sampling.rand_interval_set(rng, 5, config.max_denominator)
        q = sampling.rand_fraction(rng, config.max_denominator)
        if grid_probability(model, a.translate_mod1(q)) \
                != grid_probability(model, a):
            bad.append(f"A={a.render()}, q={q}")
    return _report("spinner-rational-rotation-invariance", config.cases, bad,
                   ["probability is invariant under every sampled rational "
                    "rotation"], config)


def _check_half_open_uniformity(model, config) -> PropertyReport:
    # applies only to sets built from [a,b) pieces: no isolated points, no
    # nonempty null sets, every member has positive length
    rng = config.rng("half-open-uniformity")
    bad = []
    for _ in range(config.cases):
        a = sampling.rand_half_open_set(rng, 4, config.max_denominator)
        b = sampling.repack_half_open(rng, a.length, 4)
        if not (a.half_open_only() and b.half_open_only()):
            bad.append(f"sampler produced a non-half-open set: {a.render()}")
            continue
        pa, pb = grid_probability(model, a), grid_probability(model, b)
        la = NonArchValue.constant(model.generator, a.length)
        if not (pa == pb == la):
            bad.append(f"A={a.render()}, B={b.render()}: "
                       f"P(A)={pa}, P(B)={pb}, length={a.length}")
    return _report("spinner-half-open-uniformity", config.cases, bad,
                   ["equal-length half-open sets share the exact "
                    "generator-free probability"], config)


def property_checks(model: GridModel, corrupt: bool = False) -> list:
    """The six spinner checks in report order, each a function of the config.

    ``corrupt`` is a test hook that skews the reference measure inside the
    length-agreement check so failure reporting can be exercised end to end.
    """
    return [
        partial(_check_regularity, model),
        partial(_check_totality, model),
        partial(_check_count_uniformity, model),
        partial(_check_length_agreement, model, corrupt=corrupt),
        partial(_check_rational_rotation, model),
        partial(_check_half_open_uniformity, model),
    ]


def run_property_suite(model: GridModel, config: SuiteConfig,
                       corrupt: bool = False) -> list[PropertyReport]:
    """Run the six spinner checks; one report per property, fixed order."""
    return [check(config) for check in property_checks(model, corrupt)]
