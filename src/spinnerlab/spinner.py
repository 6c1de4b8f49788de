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

The model is its kernels, each a function of its events alone.  The forms,
grids and results here are frozen and the operations are pure, so they can
be shared freely across threads.  ``SuiteConfig`` alone is mutable:
``suites.run_suites`` sets its seed from the environment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, pairwise, repeat
from typing import Iterable

from .errors import DomainError
from .field import (MAX_NUMERAL_DIGITS, Generator, NonArchValue, _count,
                    _frac, _strip, render_exact, render_ratio)
from .intervals import IntervalSet, Ratio, _add, _clean, lebesgue_length
from .report import PropertyReport
from . import sampling

SPINNER_GENERATOR = Generator("eps")


class GridModel:
    """Holds nothing: the grid model is its kernels.  It stays only because
    ``perfbench/workloads.py`` calls ``run_property_suite(GridModel(),
    config)``; the next change to the benchmark (ROADMAP item 1) drops that
    call, and this class and that parameter with it."""


@dataclass(frozen=True)
class CountForm:
    """Number of grid points in a set, as the affine form linear*N + constant."""

    linear: Fraction
    constant: int

    def render(self) -> str:
        if self.constant < 0:
            return f"{render_exact(self.linear)}*N - {-self.constant}"
        return f"{render_exact(self.linear)}*N + {self.constant}"

    __str__ = render


def _grid_form(a: IntervalSet) -> "tuple[Ratio, int]":
    """The point count linear*N + constant of a set as (linear, constant),
    linear a reduced (p, q): the one count rule.

    A component (a,b) holds (b-a)*N - 1 grid points and each closed end adds
    one more, so [a,b) holds (b-a)*N and a single point [a,a] exactly one.
    """
    # left_in + right_in - 1 is the end cut's flag minus the start cut's
    return a._length_ratio(), sum([end[2] - start[2]
                                   for start, end in a.cuts])


def grid_count(a: IntervalSet) -> CountForm:
    """Exact point count of a set, using that every endpoint is on the grid."""
    (p, q), constant = _grid_form(a)
    return CountForm(Fraction(p, q), constant)


def grid_probability(a: IntervalSet) -> NonArchValue:
    """Counting probability count/N = linear + constant*eps."""
    (p, q), constant = _grid_form(a)
    # (p + constant*q*eps)/q is canonical: p/q is reduced, so the
    # coefficients p, constant*q and q share no factor
    return NonArchValue._make(SPINNER_GENERATOR, _strip([p, constant * q]),
                              (q,))


# -- finite grids and their rotation stabilizers -------------------------------

# uniform:N builds all N points; past this it would exhaust memory
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class FiniteGrid:
    """Concrete finite set of rational positions in [0,1), each read as a
    Fraction by the field's exact-input rule, which refuses floats."""

    points: tuple[Fraction, ...]

    def __post_init__(self):
        points = tuple(sorted(map(_frac, self.points)))
        if points and (points[0] < 0 or points[-1] >= 1):
            raise DomainError("grid points must lie in [0,1)")
        if any(a == b for a, b in zip(points, points[1:])):
            raise DomainError("grid points must be distinct")
        object.__setattr__(self, "points", points)


def _uniform_pairs(n: int) -> "list[Ratio]":
    """The points k/n, k < n, of the uniform grid of size n, in order, as
    reduced pairs; n is an int from 1 to MAX_GRID_POINTS."""
    if _count(n, "uniform grid size n") < 1:
        raise DomainError("uniform grid needs n >= 1")
    if n > MAX_GRID_POINTS:
        raise DomainError(f"uniform grid needs n <= {MAX_GRID_POINTS}")
    return [(k // g, n // g)
            for k, g in zip(range(n), map(math.gcd, range(n), repeat(n)))]


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
    """The group of rotations mapping the grid onto itself, with one
    off-grid witness: ``_stabilizer`` over the points as integer pairs."""
    return _stabilizer_result(list(map(Fraction.as_integer_ratio, g.points)))


def _stabilizer_result(pairs: "list[Ratio]") -> StabilizerResult:
    """``_stabilizer``'s answer for ``pairs``, its rationals built once."""
    k, x, image = _stabilizer(pairs)
    return StabilizerResult(k, Fraction(1, k) if k > 1 else Fraction(0),
                            Fraction(1, k + 1), Fraction(*x),
                            Fraction(*image))


def _stabilizer(pairs: "list[Ratio]") -> "tuple[int, Ratio, Ratio]":
    """The order k of the rotation stabilizer of a nonempty grid, given as
    its points in increasing order, distinct reduced pairs (p, q) in
    [0,1), and the first point whose rotation by 1/(k+1) leaves the grid,
    with that image, as pairs.

    A preserving rotation sends the least point to some p_j, so it shifts
    the cyclic gap sequence (neighbour gaps, then the wrap back to the least
    point) onto itself by j places.  With d the least such shift, a divisor
    of n, the group is cyclic of order k = n/d, generated by 1/k.  The
    rotation by 1/(k+1) cannot preserve the grid: the off-grid witness.
    """
    if not pairs:
        raise DomainError("stabilizer of an empty grid is undefined")
    n = len(pairs)
    # each gap as a reduced numerator and denominator, from one cross
    # product and one gcd per pair of neighbours: the cost stays linear in
    # the digits of the grid, where a common denominator of coprime ones
    # would multiply them.  Two int lists take less memory and time than
    # one list of pairs.
    nums, dens = [], []
    p0, q0 = pairs[0]
    for (p, q), (r, s) in pairwise(chain(pairs, ((p0 + q0, q0),))):
        num, den = r * q - p * s, q * s
        common = math.gcd(num, den)
        nums.append(num // common)
        dens.append(den // common)
    k = next(n // d for d in range(1, n + 1)
             if n % d == 0
             and all(seq[d:] + seq[:d] == seq for seq in (nums, dens)))
    # reduced pairs are equal iff their values are, so a set finds images
    members = set(pairs)
    for p, q in pairs:
        a, b = _add(p, q, 1, k + 1)
        image = (a - b, b) if a >= b else (a, b)
        if image not in members:
            return k, (p, q), image
    raise AssertionError("rotation by 1/(order+1) unexpectedly preserved "
                         "the grid")


# -- the property suite ---------------------------------------------------------

# Each spinner check states one case, and ``_sampled`` is the one rule that
# samples and reports them.  Its ``_report`` appends the coverage warnings,
# and the cylinder coherence sweep reports through it too: no other suite
# carries the low-coverage warning.

# the stabilizer suite builds every uniform grid up to size n: ~n^2/2 points
MAX_SUITE_GRID_SIZE = 1000
# 10000 cases at MAX_SUITE_DENOMINATOR take about 2.1 s of CPU time,
# 0.21 ms a case, and about 1.1 s of wall time in two lanes (Python 3.11.7,
# shared 2-vCPU VM)
MAX_SUITE_CASES = 10_000
# a sampled denominator's digits slow every case: 1000 of them take seconds
MAX_SUITE_DENOMINATOR = 10 ** 18
# each config key's least and greatest value
_CONFIG_RANGES = {"seed": (-math.inf, math.inf),
                  "cases": (1, MAX_SUITE_CASES),
                  "max_denominator": (1, MAX_SUITE_DENOMINATOR),
                  "max_grid_size": (1, MAX_SUITE_GRID_SIZE)}


def _setting(key: str, value, name: str) -> int:
    """A config value: an int by the one count rule, in its key's range in
    ``_CONFIG_RANGES`` and of at most as many digits as ``str`` prints;
    ``name`` is what a refusal calls it."""
    if key not in _CONFIG_RANGES:
        raise AttributeError(f"SuiteConfig has no setting {key!r}")
    lo, hi = _CONFIG_RANGES[key]
    if _count(value, name) < lo:
        raise DomainError(f"{name} must be at least {lo}")
    if value > hi:
        raise DomainError(f"{name} must be at most {hi}")
    # compared with a bound, as str() of a longer int raises
    if abs(value) >= 10 ** MAX_NUMERAL_DIGITS:
        raise DomainError(f"{name} must be at most {MAX_NUMERAL_DIGITS} "
                          f"digits long")
    return value


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
    range in ``_CONFIG_RANGES``, which the constructor and every
    assignment check too.
    """

    seed: int = 0
    cases: int = 200
    max_denominator: int = 50
    max_grid_size: int = 24

    @classmethod
    def from_file(cls, path: str) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_lines(fh, path)

    @classmethod
    def from_lines(cls, lines: Iterable[str], path: str) -> "SuiteConfig":
        """The config that the lines of the file ``path`` set; a bad line
        is a DomainError that starts ``<path>:<line>:``."""
        cfg = cls()
        for lineno, line in enumerate(lines, 1):
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
            setattr(cfg, key, _setting(key, n, where))
        return cfg

    def __setattr__(self, key, value):
        # the constructor and every later assignment pass the rule that
        # from_lines applies, with the key as the name
        object.__setattr__(self, key, _setting(key, value, key))

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
    """A sampled suite's report: its witnesses, then the config's coverage
    warnings, which a failing report drops with the witnesses."""
    return PropertyReport.from_checks(name, cases, counterexamples,
                                      witnesses + config.coverage_warnings())


def _sampled(name: str, label: str, witness: str):
    """Decorate a generator function ``(config, rng, **options)`` that
    draws one case from ``rng`` and yields its counterexamples; the result
    is the check ``(config, **options)``, which runs ``config.cases``
    cases from ``config.rng(label)`` into one report."""
    def rule(case):
        def check(config: SuiteConfig, **options) -> PropertyReport:
            rng, bad = config.rng(label), []
            for _ in range(config.cases):
                bad += case(config, rng, **options)
            return _report(name, config.cases, bad, [witness], config)
        return check
    return rule


@_sampled("spinner-regularity", "regularity",
          "every sampled point outcome has probability eps > 0")
def _check_regularity(config, rng):
    x = sampling._rand_pair(rng, config.max_denominator)
    p = grid_probability(IntervalSet._from_cuts(_clean(x, True, x, True)))
    cls = p.classify()
    if p != NonArchValue.infinitesimal(SPINNER_GENERATOR) \
            or cls.render() != "infinitesimal-positive":
        yield f"x={render_ratio(*x)}: P={p} classified {cls.render()}"


@_sampled("spinner-totality", "totality",
          "every sampled set is assigned a probability in [0,1]")
def _check_totality(config, rng):
    a = sampling.rand_interval_set(rng, 5, config.max_denominator)
    p = grid_probability(a)
    if not 0 <= p <= 1:
        yield f"A={a.render()}: P={p} outside [0,1]"


@_sampled("spinner-count-uniformity", "count-uniformity",
          "equal point counts always produced equal probabilities")
def _check_count_uniformity(config, rng):
    a = sampling.rand_interval_set(rng, 4, config.max_denominator)
    q = sampling._rand_pair(rng, config.max_denominator)
    b = a._translate(*q)
    if _grid_form(a) != _grid_form(b):
        yield (f"A={a.render()}, q={render_ratio(*q)}: counts "
               f"{grid_count(a)} vs {grid_count(b)}")
    elif grid_probability(a) != grid_probability(b):
        yield (f"A={a.render()}, q={render_ratio(*q)}: equal counts "
               f"{grid_count(a)} but unequal probabilities")
    # flag-trade pair with identical counts: [a,b] vs [a,b) u {x}
    left = sampling._rand_pair(rng, config.max_denominator)
    right = sampling._rand_pair(rng, config.max_denominator)
    order = left[0] * right[1] - right[0] * left[1]
    if order > 0:
        left, right = right, left
    if not order:
        return
    closed = IntervalSet._from_cuts(_clean(left, True, right, True))
    outside = closed.complement()
    # x is the least member of the complement: the start of its first
    # component, unless that component is open there
    if outside.is_empty() or outside.cuts[0][0][2]:
        return
    x = outside.cuts[0][0][1]
    traded = IntervalSet._from_cuts(_clean(left, True, right, False)
                                    + _clean(x, True, x, True))
    if _grid_form(closed) != _grid_form(traded):
        yield (f"[{render_ratio(*left)},{render_ratio(*right)}] vs traded: "
               f"counts {grid_count(closed)} vs {grid_count(traded)}")
    elif grid_probability(closed) != grid_probability(traded):
        yield (f"[{render_ratio(*left)},{render_ratio(*right)}] vs traded: "
               f"equal counts, unequal probabilities")


@_sampled("spinner-length-agreement", "length-agreement",
          "standard part of grid probability equals set length")
def _check_length_agreement(config, rng, corrupt: bool = False):
    a = sampling.rand_interval_set(rng, 5, config.max_denominator)
    expected = lebesgue_length(a)
    if corrupt:
        # test hook: deliberately skew the reference measure
        expected += Fraction(1, 997)
    st = grid_probability(a).standard_part()
    if st != expected:
        yield f"A={a.render()}: st(P)={st}, length={expected}"


@_sampled("spinner-rational-rotation-invariance", "rational-rotation",
          "probability is invariant under every sampled rational rotation")
def _check_rational_rotation(config, rng):
    a = sampling.rand_interval_set(rng, 5, config.max_denominator)
    q = sampling._rand_pair(rng, config.max_denominator)
    if grid_probability(a._translate(*q)) != grid_probability(a):
        yield f"A={a.render()}, q={render_ratio(*q)}"


@_sampled("spinner-half-open-uniformity", "half-open-uniformity",
          "equal-length half-open sets share the exact generator-free "
          "probability")
def _check_half_open_uniformity(config, rng):
    # applies only to sets built from [a,b) pieces: no isolated points, no
    # nonempty null sets, every member has positive length
    a = sampling.rand_half_open_set(rng, 4, config.max_denominator)
    p, q = a._length_ratio()
    b = sampling._repack_half_open(rng, p, q, 4)
    if not (a.half_open_only() and b.half_open_only()):
        yield f"sampler produced a non-half-open set: {a.render()}"
        return
    pa, pb = grid_probability(a), grid_probability(b)
    # the length p/q as a constant
    la = NonArchValue._make(SPINNER_GENERATOR, _strip([p]), (q,))
    if not (pa == pb == la):
        yield (f"A={a.render()}, B={b.render()}: "
               f"P(A)={pa}, P(B)={pb}, length={a.length}")


def property_checks(corrupt: bool = False) -> list:
    """The six spinner checks in report order, each a function of the config.

    ``corrupt`` is a test hook that skews the reference measure inside the
    length-agreement check so failure reporting can be exercised end to end.
    """
    return [_check_regularity, _check_totality, _check_count_uniformity,
            partial(_check_length_agreement, corrupt=corrupt),
            _check_rational_rotation, _check_half_open_uniformity]


def run_property_suite(model: GridModel, config: SuiteConfig,
                       corrupt: bool = False) -> list[PropertyReport]:
    """Run the six spinner checks; one report per property, fixed order.
    ``model`` is unread (see ``GridModel``)."""
    return [check(config) for check in property_checks(corrupt)]
