"""Hyperfinite grid tests.

The counting oracle materializes a concrete grid {k/n} for n that every
endpoint denominator divides, counts members directly, and compares with
the affine count form evaluated at that n.
"""

import json
import math
import random
import re
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spinnerlab import spinner
from spinnerlab.errors import DomainError
from spinnerlab.field import MAX_NUMERAL_DIGITS, NonArchValue, Poly
from spinnerlab.intervals import (EMPTY_CONDITION, IntervalSet, conditional,
                                  lebesgue_length)
from spinnerlab.spinner import (MAX_SUITE_GRID_SIZE, SPINNER_GENERATOR,
                                CountForm, FiniteGrid, GridModel, SuiteConfig,
                                finite_grid_stabilizer, grid_count,
                                grid_probability, property_checks,
                                run_property_suite)

M = GridModel()
EPS = NonArchValue.infinitesimal(SPINNER_GENERATOR)


def concrete_count(a: IntervalSet, n: int) -> int:
    return sum(1 for k in range(n) if a.contains(F(k, n)))


def form_at(form: CountForm, n: int) -> F:
    """The count form linear*N + constant at N = n."""
    return form.linear * n + form.constant


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
    assert grid_count(IntervalSet.interval(0, True, F(1, 2), False)) \
        == CountForm(F(1, 2), 0)
    assert grid_count(IntervalSet.point(F(1, 3))) == CountForm(F(0), 1)
    assert grid_count(IntervalSet.interval(F(1, 4), True, F(3, 4), True)) \
        == CountForm(F(1, 2), 1)


def test_count_examples_against_concrete_grids():
    cases = [
        (IntervalSet.interval(0, True, F(1, 2), False), (12, 24, 120)),
        (IntervalSet.point(F(1, 3)), (12, 24, 120)),
        (IntervalSet.interval(F(1, 4), True, F(3, 4), True), (24, 120)),
        (IntervalSet.interval(0, False, 1, False), (120,)),
    ]
    for a, grids in cases:
        form = grid_count(a)
        for n in grids:
            assert form_at(form, n) == concrete_count(a, n), \
                f"{a.render()} at n={n}"


def test_count_oracle_randomized():
    rng = random.Random(21)
    for _ in range(200):
        a = rand_aligned_set(rng, 12)
        form = grid_count(a)
        for n in (12, 24, 120):
            assert form_at(form, n) == concrete_count(a, n), \
                f"{a.render()} at n={n}"


def test_count_additivity():
    rng = random.Random(22)
    for _ in range(200):
        a = rand_aligned_set(rng, 10)
        b = rand_aligned_set(rng, 10)
        union, meet = grid_count(a | b), grid_count(a & b)
        x, y = grid_count(a), grid_count(b)
        assert union.linear + meet.linear == x.linear + y.linear
        assert union.constant + meet.constant == x.constant + y.constant


def test_count_render():
    assert CountForm(F(1, 2), 0).render() == "1/2*N + 0"
    assert CountForm(F(1), -1).render() == "1*N - 1"


# -- probability -----------------------------------------------------------------

def test_probability_examples():
    assert grid_probability(IntervalSet.interval(0, True, F(1, 2), False)) \
        == F(1, 2)
    for x in (F(0), F(1, 3), F(7, 11)):
        p = grid_probability(IntervalSet.point(x))
        assert p == EPS
        assert p.classify().render() == "infinitesimal-positive"
    open_full = grid_probability(IntervalSet.interval(0, False, 1, False))
    assert open_full == NonArchValue(SPINNER_GENERATOR, Poly((1, -1)))
    assert str(open_full) == "1 - eps"


def test_probability_normalization():
    assert grid_probability(IntervalSet.full()) == 1
    assert grid_probability(IntervalSet.empty()).is_zero()


def test_probability_standard_part_is_length():
    rng = random.Random(23)
    for _ in range(300):
        a = rand_aligned_set(rng, 30)
        assert grid_probability(a).standard_part() == lebesgue_length(a)


def test_rational_rotation_invariance():
    rng = random.Random(24)
    for _ in range(300):
        a = rand_aligned_set(rng, 20)
        q = F(rng.randint(0, 60), rng.randint(1, 30))
        assert grid_probability(a.translate_mod1(q)) \
            == grid_probability(a)


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
        assert grid_probability(s) == (b - a)


def test_flag_variants_differ_by_counts():
    # equal length, different flags: counts differ so equal-count uniformity
    # imposes nothing, and the closed set does not qualify as half-open
    closed = IntervalSet.interval(0, True, F(1, 2), True)
    halfopen = IntervalSet.interval(F(1, 2), True, 1, False)
    assert lebesgue_length(closed) == lebesgue_length(halfopen)
    assert grid_count(closed) == CountForm(F(1, 2), 1)
    assert grid_count(halfopen) == CountForm(F(1, 2), 0)
    assert grid_probability(closed) != grid_probability(halfopen)
    assert grid_probability(closed) > grid_probability(halfopen)
    assert not closed.half_open_only() and halfopen.half_open_only()


# -- conditionals -------------------------------------------------------------------

def conditional_probability(a, b):
    """P(a | b) under the grid model, by the rule that queries use."""
    return conditional(grid_probability, a, b, EMPTY_CONDITION)


def test_conditional_examples():
    a = IntervalSet.interval(0, True, F(1, 4), False)
    b = IntervalSet.interval(0, True, F(1, 2), False)
    assert conditional_probability(a, b) == F(1, 2)
    two_points = IntervalSet.point(F(1, 3)) | IntervalSet.point(F(2, 3))
    assert conditional_probability(IntervalSet.point(F(1, 3)), two_points) \
        == F(1, 2)
    assert conditional_probability(b, IntervalSet.point(F(1, 3))) == 1


def test_conditional_on_point_is_defined():
    # conditioning on an event of infinitesimal chance
    p = conditional_probability(IntervalSet.interval(F(1, 2), True, 1, False),
                                IntervalSet.point(F(1, 4)))
    assert p.is_zero()
    with pytest.raises(DomainError):
        conditional_probability(IntervalSet.full(), IntervalSet.empty())


# -- stabilizers ---------------------------------------------------------------------

def test_uniform_stabilizers():
    for n in range(1, 25):
        grid = FiniteGrid(tuple(F(k, n) for k in range(n)))
        res = finite_grid_stabilizer(grid)
        assert res.order == n
        assert res.generator_rotation == (F(1, n) if n > 1 else F(0))
        assert res.witness_rotation == F(1, n + 1)
        pts = set(grid.points)
        assert res.witness_point in pts and res.witness_image not in pts


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
        brute = preserving_rotations(pts)
        assert brute == [F(j, len(brute)) for j in range(len(brute))]
        assert res.order == len(brute)
        assert res.generator_rotation == (brute[1] if len(brute) > 1
                                          else F(0))
        # the pair kernel itself, on the sorted points as integer pairs
        order, x, image = spinner._stabilizer(
            [p.as_integer_ratio() for p in sorted(pts)])
        assert order == len(brute)
        assert_off_grid_witness(pts, order, x, image)


def preserving_rotations(pts) -> list:
    """Every difference to the least point that maps the grid onto itself,
    found by brute force, in increasing order."""
    p0 = min(pts)
    return sorted(t for t in {(p - p0) % 1 for p in pts}
                  if {(p + t) % 1 for p in pts} == pts)


def assert_off_grid_witness(pts, order, x, image):
    """x is a grid point and image, (x + 1/(order+1)) mod 1, is not; both
    are reduced pairs."""
    for p, q in (x, image):
        assert q > 0 and math.gcd(p, q) == 1
    assert F(*x) in pts and F(*image) not in pts
    assert F(*image) == (F(*x) + F(1, order + 1)) % 1


def test_stabilizer_of_points_whose_keys_tie():
    # neighbours over denominators above 2**32 share the integer key
    # (p << 64) // q that the interval cuts sort by: 0, 1/(2**65 + 1) and
    # 1/2**65 all have key 0, and their shifts by 1/2 key 2**63.
    # FiniteGrid sorts the points exactly and the kernel finds images by
    # pair, so the order and witness are those of brute force.
    def key(x):
        return (x.numerator << 64) // x.denominator

    wide = (F(0), F(1, 2 ** 65 + 1), F(1, 2 ** 65))
    for k in (1, 2, 3):
        pts = {(x + F(j, k)) % 1 for x in wide for j in range(k)}
        assert key(F(1, 2 ** 65 + 1)) == key(F(1, 2 ** 65))
        pairs = [p.as_integer_ratio() for p in sorted(pts)]
        order, x, image = spinner._stabilizer(pairs)
        assert order == len(preserving_rotations(pts)) == k
        assert_off_grid_witness(pts, order, x, image)
        # shuffled input: FiniteGrid's sort gives the kernel these pairs
        shuffled = list(pts)
        random.Random(k).shuffle(shuffled)
        res = finite_grid_stabilizer(FiniteGrid(tuple(shuffled)))
        assert (res.order, res.witness_point.as_integer_ratio(),
                res.witness_image.as_integer_ratio()) == (order, x, image)
    # an image can tie on the key with a grid point and still be off the
    # grid: the rotation by 1/2 sends 0 to 1/2, and 1/2 + 1/2**65 keys
    # 2**63 too
    pts = {F(0), F(1, 2) + F(1, 2 ** 65)}
    assert key(F(1, 2)) == key(F(1, 2) + F(1, 2 ** 65))
    assert spinner._stabilizer(
        [p.as_integer_ratio() for p in sorted(pts)]) == (1, (0, 1), (1, 2))
    assert len(preserving_rotations(pts)) == 1


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


def test_grid_points_are_stored_as_fractions():
    # an int point is stored as a Fraction, which the stabilizer reads
    grid = FiniteGrid((F(1, 2), 0))
    assert grid.points == (0, F(1, 2))
    assert all(type(x) is F for x in grid.points)
    assert finite_grid_stabilizer(grid).order == 2


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
    # the size of a uniform grid is an int, not a bool, a float or text
    for n in ("5", 2.0, True):
        with pytest.raises(DomainError, match="^uniform grid size n must"):
            spinner._uniform_pairs(n)


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


# The six checks' counterexamples under two planted skews that depend on
# the set alone, so the order of calls does not matter: "probability" adds
# eps to P(A), and "count" adds 1 to A's point count, whenever A has an odd
# number of components.  Between them they reach every failure branch.
# Recorded at commit dfc46d2, where the count rule was ``grid_count``, with
# the skewed length reference, for seeds 0, 4 and 5 at the default config
# and seed 0 at max_denominator 10**18 with 20 cases.  The count skew
# records only the count-uniformity check: the others read no count.
COUNTEREXAMPLES = Path(__file__).parent / "data" / \
    "spinner_counterexamples.json"


@pytest.mark.parametrize(
    "recorded", json.loads(COUNTEREXAMPLES.read_text(encoding="utf-8")),
    ids=lambda r: f"{r['skew']}-seed{r['seed']}-"
                  f"den{r['config'].get('max_denominator', 50)}")
def test_counterexample_texts_match_the_recording(monkeypatch, recorded):
    if recorded["skew"] == "probability":
        real_p = spinner.grid_probability
        monkeypatch.setattr(spinner, "grid_probability",
                            lambda a: real_p(a) + EPS * (len(a.cuts) % 2))
    else:
        real_f = spinner._grid_form
        monkeypatch.setattr(spinner, "_grid_form", lambda a: (
            real_f(a)[0], real_f(a)[1] + len(a.cuts) % 2))
    config = SuiteConfig(seed=recorded["seed"], **recorded["config"])
    got = {r.name: r.counterexamples
           for r in (check(config) for check in property_checks(True))}
    for name, texts in recorded["counterexamples"].items():
        assert got[name] == texts, name


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


# the constructor and an assignment read a setting by the rule that
# from_lines applies, so none of these reaches a suite: before, cases=True
# ran and printed "cases": true, cases=2.5 failed in range(), cases=0 gave
# vacuous passes, seed=1.5 ran, and max_grid_size=5000 ran past its bound
@pytest.mark.parametrize("setting, message", [
    ({"cases": True}, "cases must be an int, got bool"),
    ({"cases": 2.5}, "cases must be an int, got float"),
    ({"cases": 0}, "cases must be at least 1"),
    ({"seed": 1.5}, "seed must be an int, got float"),
    ({"max_grid_size": 5000},
     f"max_grid_size must be at most {MAX_SUITE_GRID_SIZE}"),
    ({"max_denominator": 10 ** 18 + 1},
     f"max_denominator must be at most {10 ** 18}"),
    # repr of an int this long raises, so the case names its id
    pytest.param({"seed": 10 ** 4300}, "seed must be at most 4300 digits long",
                 id="{'seed': 10 ** 4300}"),
], ids=repr)
def test_config_settings_are_checked_where_they_are_set(setting, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        SuiteConfig(**setting)
    cfg = SuiteConfig()
    (key, value), = setting.items()
    with pytest.raises(DomainError, match=f"^{message}$"):
        setattr(cfg, key, value)
    assert cfg == SuiteConfig()
    with pytest.raises(AttributeError, match="no setting 'case'"):
        cfg.case = 1


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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_config_line(), st.sampled_from(
    [(None, ""), (None, "# comment")])), max_size=6))
def test_config_lines_load_in_range_or_name_their_line_and_key(lines):
    # the lines as a file yields them; the round trip through a file is
    # test_config_file_round_trip's
    p = "suite.cfg"
    try:
        cfg = SuiteConfig.from_lines([line + "\n" for _, line in lines], p)
    except DomainError as exc:
        m = re.match(rf"{re.escape(p)}:(\d+): (\w+) ", str(exc))
        assert m, str(exc)
        lineno, key = int(m[1]), m[2]
        assert lines[lineno - 1][0] == key
        # the lines before the one named load: it is the first bad line
        SuiteConfig.from_lines(
            [line + "\n" for _, line in lines[:lineno - 1]], p)
        return
    expected = vars(SuiteConfig()).copy()
    for key, line in lines:
        if key is not None:
            expected[key] = int(line.split("#")[0].partition("=")[2])
    assert vars(cfg) == expected
    for key, (lo, hi) in spinner._CONFIG_RANGES.items():
        assert lo <= getattr(cfg, key) <= hi
