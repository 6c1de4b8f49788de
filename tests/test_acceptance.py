"""Acceptance criteria, one test per criterion, all tolerances exact.

Each test prints one "ACCEPTANCE <n> <name>: PASS|FAIL" line (visible with
pytest -s) and fails loudly with the first counterexamples otherwise.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import product
from pathlib import Path

from _refs import hausdorff_measure, rand_limited_value, rand_value
from spinnerlab import cli
from spinnerlab.cantor import (CANTOR_GENERATOR, CantorEvent,
                               cantor_probability)
from spinnerlab.field import Generator, NonArchValue, Ordering, compare_values
from spinnerlab.intervals import (EMPTY_CONDITION, IntervalSet, conditional,
                                  dyadic_tail_family, lebesgue_length,
                                  sigma_additivity_probe)
from spinnerlab.lottery import (CoinEvent, archimedean_regularity_witness,
                                coinflip_probability)
from spinnerlab.sampling import (_rand_ratio, _repack_half_open,
                                 rand_interval_set, rand_half_open_set)
from spinnerlab.spinner import (SPINNER_GENERATOR, FiniteGrid,
                                finite_grid_stabilizer, grid_probability)

GOLDEN = Path(__file__).parent / "golden_queries.jsonl"

G = Generator("eps")
EPS = NonArchValue.infinitesimal(SPINNER_GENERATOR)
ZERO = NonArchValue.constant(G, 0)
ONE = NonArchValue.constant(G, 1)


def _finish(num: int, name: str, failures: list, started: float):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} "
          f"({time.perf_counter() - started:.2f}s)")
    assert not failures, failures[:3]


def test_criterion_01_ordered_field_suite():
    started = time.perf_counter()
    failures = []
    rng = random.Random("acceptance-1")
    for i in range(1000):
        a = rand_value(rng, G, max_degree=4, max_den=100)
        b = rand_value(rng, G, max_degree=4, max_den=100)
        c = rand_value(rng, G, max_degree=4, max_den=100)
        ok = (a + b == b + a and a * b == b * a
              and (a + b) + c == a + (b + c)
              and (a * b) * c == a * (b * c)
              and a * (b + c) == a * b + a * c
              and (a + (-a)).is_zero())
        if not a.is_zero():
            ok = ok and a * (ONE / a) == ONE
        ordering = a.compare(b)
        ok = ok and sum(ordering is o for o in Ordering) == 1
        ok = ok and (ordering is Ordering.EQUAL) == (a == b)
        if a < b:
            ok = ok and a + c < b + c
            if c > ZERO:
                ok = ok and a * c < b * c
        la = rand_limited_value(rng, G, max_degree=4, max_den=100)
        lb = rand_limited_value(rng, G, max_degree=4, max_den=100)
        sa, sb = la.standard_part(), lb.standard_part()
        ok = (ok and (la + lb).standard_part() == sa + sb
              and (la * lb).standard_part() == sa * sb
              and (sa <= sb if la <= lb else True))
        if not ok:
            failures.append(f"case {i}: a={a}, b={b}, c={c}")
    _finish(1, "ordered-field suite (1000 triples)", failures, started)


def test_criterion_02_spinner_length_identity():
    started = time.perf_counter()
    failures = []
    rng = random.Random("acceptance-2")
    for i in range(500):
        a = rand_interval_set(rng, 5, 50)
        if grid_probability(a).standard_part() != lebesgue_length(a):
            failures.append(f"case {i}: A={a.render()}")
    _finish(2, "st of grid probability equals length (500 sets)", failures,
            started)


def test_criterion_03_point_regularity_with_contrast():
    started = time.perf_counter()
    failures = []
    rng = random.Random("acceptance-3")
    for i in range(200):
        x = F(*_rand_ratio(rng, 50))
        p = grid_probability(IntervalSet.point(x))
        if p != EPS or p.classify().render() != "infinitesimal-positive":
            failures.append(f"x={x}: grid P={p}")
        if lebesgue_length(IntervalSet.point(x)) != 0:
            failures.append(f"x={x}: minimal length nonzero")
    _finish(3, "every point gets eps > 0; minimal model gives 0 (200 points)",
            failures, started)


def test_criterion_04_rational_rotation_invariance():
    started = time.perf_counter()
    failures = []
    rng = random.Random("acceptance-4")
    for i in range(500):
        a = rand_interval_set(rng, 5, 50)
        q = F(*_rand_ratio(rng, 50))
        if grid_probability(a.translate_mod1(q)) != grid_probability(a):
            failures.append(f"case {i}: A={a.render()}, q={q}")
    _finish(4, "rational rotation invariance (500 pairs)", failures, started)


def test_criterion_05_half_open_uniformity():
    started = time.perf_counter()
    failures = []
    rng = random.Random("acceptance-5")
    for i in range(300):
        a = rand_half_open_set(rng, 4, 50)
        b = _repack_half_open(rng, *a._length_ratio(), 4)
        pa = grid_probability(a)
        pb = grid_probability(b)
        la = NonArchValue.constant(SPINNER_GENERATOR, a.length)
        if not (lebesgue_length(a) == lebesgue_length(b)
                and pa == pb == la):
            failures.append(f"case {i}: A={a.render()}, B={b.render()}")
    _finish(5, "equal-length half-open sets, identical generator-free "
               "probability (300 pairs)", failures, started)


def _witness_is_valid(grid: FiniteGrid, res) -> bool:
    pts = set(grid.points)
    return (res.witness_point in pts
            and (res.witness_point + res.witness_rotation) % 1
            == res.witness_image
            and res.witness_image not in pts)


def test_criterion_06_stabilizers_cyclic_with_witnesses():
    started = time.perf_counter()
    failures = []
    for n in range(1, 25):
        grid = FiniteGrid(tuple(F(k, n) for k in range(n)))
        res = finite_grid_stabilizer(grid)
        if res.order != n:
            failures.append(f"uniform n={n}: order {res.order}")
        if not _witness_is_valid(grid, res):
            failures.append(f"uniform n={n}: invalid witness")
        # the reported generator really does preserve the grid
        pts = set(grid.points)
        if {(p + res.generator_rotation) % 1 for p in pts} != pts:
            failures.append(f"uniform n={n}: generator does not preserve")
    rng = random.Random("acceptance-6")
    for i in range(50):
        size = rng.randint(1, 12)
        pts = set()
        while len(pts) < size:
            pts.add(F(*_rand_ratio(rng, 40)))
        grid = FiniteGrid(tuple(pts))
        try:
            res = finite_grid_stabilizer(grid)
        except AssertionError as exc:  # cyclicity certification failed
            failures.append(f"random #{i}: {exc}")
            continue
        if res.order > size or not _witness_is_valid(grid, res):
            failures.append(f"random #{i}: order/witness invalid")
    _finish(6, "stabilizers cyclic, uniform order n, off-grid witnesses "
               "(24 uniform + 50 random)", failures, started)


def test_criterion_07_overflow_witnesses():
    started = time.perf_counter()
    failures = []
    for eps in (F(1, 10), F(1, 1000), F(1, 10 ** 6)):
        w = archimedean_regularity_witness(eps, "uniform_points")
        if not (w.n * eps > 1 and (w.n - 1) * eps <= 1):
            failures.append(f"eps={eps}: bounds fail for n={w.n}")
        o = archimedean_regularity_witness(eps, "rational_orbit")
        if eps >= F(1, 1000):
            pairs = {k * o.rotation % 1 for k in range(o.n)}
            if len(pairs) != o.n:
                failures.append(f"eps={eps}: orbit not pairwise distinct")
        # the orbit as the CLI streams it, "0" then "k/p", read back as
        # integer pairs: n distinct points, each in lowest terms, with no
        # Fraction built.  JSON reads the ints of "1/p,2/p,..." as 1,p,2,p,...
        texts = json.loads("".join(o.json_chunks()))["points"]
        ints = json.loads("[" + ",".join(texts[1:]).replace("/", ",") + "]")
        nums, dens = [0] + ints[::2], [1] + ints[1::2]
        if texts[0] != "0" or len(ints) != 2 * (o.n - 1) \
                or len(set(zip(nums, dens))) != o.n:
            failures.append(f"eps={eps}: streamed orbit not pairwise "
                            f"distinct")
        if min(dens) < 1 or set(map(math.gcd, nums, dens)) != {1}:
            failures.append(f"eps={eps}: streamed orbit not in lowest terms")
    _finish(7, "point-mass overflow witnesses, orbit distinct (3 masses)",
            failures, started)


def test_criterion_08_coin_shift_comparison():
    started = time.perf_counter()
    failures = []
    h = NonArchValue.infinitesimal(Generator("h"))
    ordering, ratio, difference = compare_values(
        coinflip_probability(CoinEvent.allheads(0)),
        coinflip_probability(CoinEvent.allheads(1)))
    if not (ordering is Ordering.LESS and ratio == F(1, 2)
            and difference == -h):
        failures.append(f"compare(allheads, allheads>1) -> "
                        f"{ordering}, {ratio}, {difference}")
    probs = [coinflip_probability(CoinEvent.allheads(j)) for j in range(21)]
    for j in range(20):
        if not (probs[j] < probs[j + 1] and probs[j + 1] / probs[j] == 2):
            failures.append(f"monotonicity fails at j={j}")
    _finish(8, "all-heads below its shift, ratio 1/2, monotone j=0..20",
            failures, started)


def test_criterion_09_cantor_coherence():
    started = time.perf_counter()
    failures = []

    def check(a: CantorEvent, b: CantorEvent) -> bool:
        want = hausdorff_measure(a & b) / hausdorff_measure(b)
        got = conditional(cantor_probability, a, b, EMPTY_CONDITION)
        return got == NonArchValue.constant(CANTOR_GENERATOR, want)

    singles = [""] + ["".join(t) for d in range(1, 6)
                      for t in product("02", repeat=d)]
    assert len(singles) == 63
    for sa in singles:
        for sb in singles:
            if not check(CantorEvent((sa,)), CantorEvent((sb,))):
                failures.append(f"a={{{sa}}}, b={{{sb}}}")
    rng = random.Random("acceptance-9")
    for i in range(2000):
        a = CantorEvent("".join(rng.choice("02")
                                for _ in range(rng.randint(1, 8)))
                        for _ in range(rng.randint(0, 4)))
        b = CantorEvent("".join(rng.choice("02")
                                for _ in range(rng.randint(1, 8)))
               for _ in range(rng.randint(1, 4)))
        if not check(a, b):
            failures.append(f"case {i}: a={a.render()}, b={b.render()}")
    _finish(9, "conditional coherence with measure ratios (63^2 exhaustive "
               "+ 2000 sampled)", failures, started)


def test_criterion_10_sigma_additivity_probe():
    started = time.perf_counter()
    failures = []
    rep = sigma_additivity_probe(dyadic_tail_family, 20, IntervalSet.full())
    if rep.verdict != "pass":
        failures.append(f"probe verdict {rep.verdict}: {rep.counterexamples}")
    if f"residual = {F(1, 2 ** 21)}" not in rep.witnesses:
        failures.append(f"residual mismatch: {rep.witnesses}")
    _finish(10, "dyadic family partial sums exact, residual 2^-21", failures,
            started)


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_11_cli_determinism_and_exit_codes():
    started = time.perf_counter()
    failures = []
    with GOLDEN.open(encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    if len(entries) != 25:
        failures.append(f"expected 25 golden queries, found {len(entries)}")
    for entry in entries:
        first = _run_cli(entry["argv"])
        second = _run_cli(entry["argv"])
        if first != second:
            failures.append(f"nondeterministic: {entry['argv']}")
        if first != (entry["exit"], entry["stdout"], entry["stderr"]):
            failures.append(f"golden mismatch: {entry['argv']} -> {first}")
    code, _, _ = _run_cli(["suite", "--json"])
    if code != 0:
        failures.append(f"healthy suite exited {code}")
    code, out, _ = _run_cli(["suite", "--json", "--corrupt-oracle"])
    rows = [json.loads(l) for l in out.splitlines()]
    if code != 1 or not any(r["counterexamples"] for r in rows):
        failures.append("corrupted oracle did not fail with counterexample")
    _finish(11, "CLI golden determinism; suite exit codes healthy/corrupted",
            failures, started)
