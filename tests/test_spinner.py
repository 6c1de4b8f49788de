"""Hyperfinite grid tests.

The counting oracle materializes a concrete grid {k/n} for n that every
endpoint denominator divides, counts members directly, and compares with
the affine count form evaluated at that n.
"""

import math
import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spinnerlab import spinner
from spinnerlab.errors import DomainError
from spinnerlab.field import MAX_NUMERAL_DIGITS, NonArchValue, Poly
from spinnerlab.intervals import IntervalSet, lebesgue_length
from spinnerlab.spinner import (MAX_SUITE_GRID_SIZE, CountForm, FiniteGrid,
                                GridModel, SuiteConfig,
                                conditional_probability,
                                finite_grid_stabilizer, grid_count,
                                grid_probability, run_property_suite)

M = GridModel()
EPS = NonArchValue.infinitesimal(M.generator)


def concrete_count(a: IntervalSet, n: int) -> int:
    return sum(1 for k in range(n) if a.contains(F(k, n)))


def rand_aligned_set(rng, base_den: int) -> IntervalSet:
    raw = []
    for _ in range(rng.randint(0, 4)):
        a = F(rng.randint(0, base_den), base_den)
        b = F(rng.randint(0, base_den), base_den)
        if a > b:
            a, b = b, a
        if a == b:
            raw.append((a, True, a, True))
        else:
            raw.append((a, rng.random() < 0.5, b, rng.random() < 0.5))
    return IntervalSet(raw)


# -- counting ------------------------------------------------------------------

def test_count_examples():
    assert grid_count(M, IntervalSet.interval(0, True, F(1, 2), False)) \
        == CountForm(F(1, 2), 0)
    assert grid_count(M, IntervalSet.point(F(1, 3))) == CountForm(F(0), 1)
    assert grid_count(M, IntervalSet.interval(F(1, 4), True, F(3, 4), True)) \
        == CountForm(F(1, 2), 1)


def test_count_examples_against_concrete_grids():
    cases = [
        (IntervalSet.interval(0, True, F(1, 2), False), (12, 24, 120)),
        (IntervalSet.point(F(1, 3)), (12, 24, 120)),
        (IntervalSet.interval(F(1, 4), True, F(3, 4), True), (24, 120)),
        (IntervalSet.interval(0, False, 1, False), (120,)),
    ]
    for a, grids in cases:
        form = grid_count(M, a)
        for n in grids:
            assert form.evaluate(n) == concrete_count(a, n), \
                f"{a.render()} at n={n}"


def test_count_oracle_randomized():
    rng = random.Random(21)
    for _ in range(200):
        a = rand_aligned_set(rng, 12)
        form = grid_count(M, a)
        for n in (12, 24, 120):
            assert form.evaluate(n) == concrete_count(a, n), \
                f"{a.render()} at n={n}"


def test_count_additivity():
    rng = random.Random(22)
    for _ in range(200):
        a = rand_aligned_set(rng, 10)
        b = rand_aligned_set(rng, 10)
        assert grid_count(M, a | b) + grid_count(M, a & b) \
            == grid_count(M, a) + grid_count(M, b)


def test_count_render():
    assert CountForm(F(1, 2), 0).render() == "1/2*N + 0"
    assert CountForm(F(1), -1).render() == "1*N - 1"


# -- probability -----------------------------------------------------------------

def test_probability_examples():
    assert grid_probability(M, IntervalSet.interval(0, True, F(1, 2), False)) \
        == F(1, 2)
    for x in (F(0), F(1, 3), F(7, 11)):
        p = grid_probability(M, IntervalSet.point(x))
        assert p == EPS
        assert p.classify().render() == "infinitesimal-positive"
    open_full = grid_probability(M, IntervalSet.interval(0, False, 1, False))
    assert open_full == NonArchValue(M.generator, Poly((1, -1)))
    assert str(open_full) == "1 - eps"


def test_probability_normalization():
    assert grid_probability(M, IntervalSet.full()) == 1
    assert grid_probability(M, IntervalSet.empty()).is_zero()


def test_probability_standard_part_is_length():
    rng = random.Random(23)
    for _ in range(300):
        a = rand_aligned_set(rng, 30)
        assert grid_probability(M, a).standard_part() == lebesgue_length(a)


def test_rational_rotation_invariance():
    rng = random.Random(24)
    for _ in range(300):
        a = rand_aligned_set(rng, 20)
        q = F(rng.randint(0, 60), rng.randint(1, 30))
        assert grid_probability(M, a.translate_mod1(q)) \
            == grid_probability(M, a)


def test_half_open_probability_is_exact_length():
    rng = random.Random(25)
    for _ in range(200):
        a = F(rng.randint(0, 19), 20)
        b = F(rng.randint(0, 19), 20)
        if a > b:
            a, b = b, a
        if a == b:
            continue
        s = IntervalSet.interval(a, True, b, False)
        assert grid_probability(M, s) == (b - a)


def test_flag_variants_differ_by_counts():
    # equal length, different flags: counts differ so equal-count uniformity
    # imposes nothing, and the closed set does not qualify as half-open
    closed = IntervalSet.interval(0, True, F(1, 2), True)
    halfopen = IntervalSet.interval(F(1, 2), True, 1, False)
    assert lebesgue_length(closed) == lebesgue_length(halfopen)
    assert grid_count(M, closed) == CountForm(F(1, 2), 1)
    assert grid_count(M, halfopen) == CountForm(F(1, 2), 0)
    assert grid_probability(M, closed) != grid_probability(M, halfopen)
    assert grid_probability(M, closed) > grid_probability(M, halfopen)
    assert not closed.half_open_only() and halfopen.half_open_only()


# -- conditionals -------------------------------------------------------------------

def test_conditional_examples():
    a = IntervalSet.interval(0, True, F(1, 4), False)
    b = IntervalSet.interval(0, True, F(1, 2), False)
    assert conditional_probability(M, a, b) == F(1, 2)
    two_points = IntervalSet.point(F(1, 3)) | IntervalSet.point(F(2, 3))
    assert conditional_probability(M, IntervalSet.point(F(1, 3)), two_points) \
        == F(1, 2)
    assert conditional_probability(M, b, IntervalSet.point(F(1, 3))) == 1


def test_conditional_on_point_is_defined():
    # conditioning on an event of infinitesimal chance
    p = conditional_probability(M, IntervalSet.interval(F(1, 2), True, 1, False),
                                IntervalSet.point(F(1, 4)))
    assert p.is_zero()
    with pytest.raises(DomainError):
        conditional_probability(M, IntervalSet.full(), IntervalSet.empty())


# -- stabilizers ---------------------------------------------------------------------

def test_uniform_stabilizers():
    for n in range(1, 25):
        res = finite_grid_stabilizer(FiniteGrid.uniform(n))
        assert res.order == n
        assert res.generator_rotation == (F(1, n) if n > 1 else F(0))
        assert res.witness_rotation == F(1, n + 1)
        pts = set(FiniteGrid.uniform(n).points)
        assert res.witness_point in pts and res.witness_image not in pts
        # the unchecked uniform path builds what the checked one does
        assert FiniteGrid.uniform(n) == FiniteGrid(tuple(pts))


def test_singleton_and_irregular_grids():
    assert finite_grid_stabilizer(FiniteGrid((F(1, 3),))).order == 1
    res = finite_grid_stabilizer(FiniteGrid((F(0), F(1, 4), F(1, 3))))
    assert res.order == 1
    # spot check validity of the emitted witness
    pts = {F(0), F(1, 4), F(1, 3)}
    assert res.witness_point in pts
    assert (res.witness_point + res.witness_rotation) % 1 == res.witness_image
    assert res.witness_image not in pts


def test_shifted_uniform_grid_keeps_full_symmetry():
    pts = tuple((F(k, 8) + F(1, 16)) % 1 for k in range(8))
    res = finite_grid_stabilizer(FiniteGrid(pts))
    assert res.order == 8


def test_random_grid_stabilizers_cyclic_and_bounded():
    rng = random.Random(26)
    grids = []
    for _ in range(100):
        size = rng.randint(1, 12)
        pts = set()
        while len(pts) < size:
            pts.add(F(rng.randint(0, 39), rng.randint(1, 40)) % 1)
        grids.append((pts, 1))
    # symmetric grids base + j/k, whose order is a multiple of k
    for k in (1, 2, 3, 4, 6, 8):
        for _ in range(10):
            base = [F(rng.randint(0, 39), rng.randint(1, 40))
                    for _ in range(rng.randint(1, 4))]
            grids.append(({(x + F(j, k)) % 1 for x in base
                           for j in range(k)}, k))
    for pts, k in grids:
        res = finite_grid_stabilizer(FiniteGrid(tuple(pts)))
        assert 1 <= res.order <= len(pts) and res.order % k == 0
        assert res.witness_image not in pts
        # reference: every difference to the least point that maps the
        # grid onto itself, found by brute force
        p0 = min(pts)
        brute = sorted(t for t in {(p - p0) % 1 for p in pts}
                       if {(p + t) % 1 for p in pts} == pts)
        assert brute == [F(j, len(brute)) for j in range(len(brute))]
        assert res.order == len(brute)
        assert res.generator_rotation == (brute[1] if len(brute) > 1
                                          else F(0))


def primes_from(lo: int, count: int) -> list[int]:
    hi = 2 * lo
    sieve = bytearray([1]) * hi
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]][:count]


def test_stabilizer_of_coprime_denominators_stays_small():
    # 1000 points i/(2p) over distinct primes p > 10^6, each also shifted by
    # 1/2: the lcm of the denominators has ~21000 bits, and scaling every
    # point to it took ~10 MB where the gaps themselves need ~0.3 MB
    base = [F(i, 2 * p) for i, p in enumerate(primes_from(10 ** 6, 1000), 1)]
    pts = {x + j for x in base for j in (0, F(1, 2))}
    grid = FiniteGrid(tuple(pts))
    tracemalloc.start()
    try:
        res = finite_grid_stabilizer(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.order == 2 and res.generator_rotation == F(1, 2)
    assert res.witness_rotation == F(1, 3)
    assert res.witness_point in pts
    assert res.witness_image == (res.witness_point + F(1, 3)) % 1
    assert res.witness_image not in pts
    assert peak < 2 * 10 ** 6


def test_stabilizer_rejects_empty_and_bad_grids():
    with pytest.raises(DomainError):
        FiniteGrid((F(3, 2),))
    with pytest.raises(DomainError):
        FiniteGrid((F(1, 2), F(1, 2)))
    # unsorted input: the range and the duplicate are found after sorting
    with pytest.raises(DomainError, match="lie in"):
        FiniteGrid((F(1, 2), F(-1, 4), F(1, 3)))
    with pytest.raises(DomainError, match="lie in"):
        FiniteGrid((F(1, 2), F(1), F(1, 3)))
    with pytest.raises(DomainError, match="distinct"):
        FiniteGrid((F(1, 2), F(1, 4), F(2, 4)))
    with pytest.raises(DomainError):
        finite_grid_stabilizer(FiniteGrid(()))


# -- the property suite -----------------------------------------------------------------

def test_suite_passes_default_config():
    reports = run_property_suite(M, SuiteConfig(seed=0, cases=200))
    assert [r.name for r in reports] == [
        "spinner-regularity", "spinner-totality", "spinner-count-uniformity",
        "spinner-length-agreement", "spinner-rational-rotation-invariance",
        "spinner-half-open-uniformity"]
    for r in reports:
        assert r.verdict == "pass", (r.name, r.counterexamples[:1])
        assert r.cases == 200


def test_suite_is_deterministic():
    a = run_property_suite(M, SuiteConfig(seed=3, cases=40))
    b = run_property_suite(M, SuiteConfig(seed=3, cases=40))
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_suite_corrupt_hook_fails_with_counterexample():
    reports = run_property_suite(M, SuiteConfig(seed=0, cases=40),
                                 corrupt=True)
    bad = [r for r in reports if r.verdict == "fail"]
    assert len(bad) == 1 and bad[0].name == "spinner-length-agreement"
    assert bad[0].counterexamples


def test_suite_low_coverage_warning():
    reports = run_property_suite(M, SuiteConfig(seed=0, cases=20,
                                                max_denominator=1))
    for r in reports:
        assert r.verdict == "pass"
        assert any("low-coverage" in w for w in r.witnesses)


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "suite.cfg"
    p.write_text("# sampling\nseed = 7\ncases = 33\nmax_denominator = 9\n"
                 "max_grid_size = 5\n")
    cfg = SuiteConfig.from_file(str(p))
    assert (cfg.seed, cfg.cases, cfg.max_denominator, cfg.max_grid_size) \
        == (7, 33, 9, 5)
    p.write_text("cases: 10\n")
    with pytest.raises(DomainError):
        SuiteConfig.from_file(str(p))
    p.write_text("unknown = 1\n")
    with pytest.raises(DomainError):
        SuiteConfig.from_file(str(p))
    # each key is checked against its range where it is read; every
    # uniform grid up to max_grid_size is built, so it is bounded
    for line, message in [
            ("cases = -3", "cases must be at least 1"),
            ("cases = 10001", "cases must be at most 10000"),
            ("max_denominator = -5", "max_denominator must be at least 1"),
            (f"max_denominator = {10 ** 18 + 1}",
             f"max_denominator must be at most {10 ** 18}"),
            ("max_grid_size = -1", "max_grid_size must be at least 1"),
            (f"max_grid_size = {MAX_SUITE_GRID_SIZE + 1}",
             f"max_grid_size must be at most {MAX_SUITE_GRID_SIZE}"),
            ("seed = -" + "9" * 4301, "seed must be at most 4300 digits long"),
            # int reads _ separators, and they are not digits
            ("seed = " + "1_" * 4400 + "1",
             "seed must be at most 4300 digits long"),
            ("seed = 0x10", "seed needs an integer")]:
        p.write_text(f"seed = 1\n{line}\n")
        with pytest.raises(DomainError) as exc:
            SuiteConfig.from_file(str(p))
        assert str(exc.value) == f"{p}:2: {message}"
    p.write_text(f"seed = -{'9' * 4300}\ncases = 10000\nmax_grid_size = 1\n"
                 f"max_denominator = {10 ** 18}\n")
    cfg = SuiteConfig.from_file(str(p))
    assert (cfg.seed, cfg.cases, cfg.max_denominator, cfg.max_grid_size) \
        == (-int("9" * 4300), 10000, 10 ** 18, 1)


def _edge_values(key):
    """Each finite bound of ``key``'s range and its neighbours, as decimal
    text; an unbounded side is bounded by the digits ``int`` reads."""
    lo, hi = spinner._CONFIG_RANGES[key]
    texts = [str(b + d) for b in (lo, hi) if abs(b) < math.inf
             for d in (-1, 0, 1)]
    if lo == -math.inf:
        widest = "9" * MAX_NUMERAL_DIGITS
        texts += [sign + digits for sign in ("", "-")
                  for digits in (widest[:-1] + "8", widest,
                                 "1" + "0" * MAX_NUMERAL_DIGITS)]
    return texts


def _integer_text(n, form):
    sign, digits = ("-", n[1:]) if n.startswith("-") else \
        ("+" if form == "plus" else "", n)
    if form == "underscored":
        digits = "_".join(digits)
    return f" {sign}{digits}  " if form == "spaced" else sign + digits


@st.composite
def _config_line(draw):
    key = draw(st.sampled_from(sorted(spinner._CONFIG_RANGES)))
    n = draw(st.one_of(st.sampled_from(_edge_values(key)),
                       st.integers().map(str), st.integers(-10, 2000).map(str)))
    text = draw(st.one_of(
        st.builds(_integer_text, st.just(n),
                  st.sampled_from(["plain", "plus", "spaced", "underscored"])),
        st.sampled_from(["", "x", "0x10", "1.5", "1__0", "_1", "1_", "-"])))
    comment = draw(st.sampled_from(["", "  # note"]))
    return key, f"{key} ={text}{comment}"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(_config_line(), st.sampled_from(
    [(None, ""), (None, "# comment")])), max_size=6))
def test_config_lines_load_in_range_or_name_their_line_and_key(tmp_path,
                                                              lines):
    # every example rewrites the same file
    p = tmp_path / "suite.cfg"
    p.write_text("".join(line + "\n" for _, line in lines))
    try:
        cfg = SuiteConfig.from_file(str(p))
    except DomainError as exc:
        m = re.match(rf"{re.escape(str(p))}:(\d+): (\w+) ", str(exc))
        assert m, str(exc)
        lineno, key = int(m[1]), m[2]
        assert lines[lineno - 1][0] == key
        # the lines before the one named load: it is the first bad line
        p.write_text("".join(line + "\n" for _, line in lines[:lineno - 1]))
        SuiteConfig.from_file(str(p))
        return
    expected = vars(SuiteConfig()).copy()
    for key, line in lines:
        if key is not None:
            expected[key] = int(line.split("#")[0].partition("=")[2])
    assert vars(cfg) == expected
    for key, (lo, hi) in spinner._CONFIG_RANGES.items():
        assert lo <= getattr(cfg, key) <= hi
