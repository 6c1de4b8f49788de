"""Tests of the benchmark itself: its reference computations, the span shim,
and the self-check that runs every workload at a tiny size."""

import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_stabilizer_order_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.choice((1, 2, 3, 4))
        base = {Fraction(rng.randint(0, 11), 12 * k) for _ in range(rng.randint(1, 4))}
        points = {(x + Fraction(j, k)) % 1 for x in base for j in range(k)}
        brute = sum(1 for p in points
                    if {(q + p - min(points)) % 1 for q in points} == points)
        assert oracles.stabilizer_order(sorted(points)) == brute


def test_pow2_text_beyond_the_digit_limit():
    assert workloads._is_pow2_text("1024", 10)
    assert not workloads._is_pow2_text("1023", 10)
    text = str(2 ** 9000)  # 2710 digits: still under the limit
    assert workloads._is_pow2_text(text, 9000)
    assert not workloads._is_pow2_text(text[:-1] + "3", 9000)


def test_only_probes_pass_the_digit_limit():
    wl = workloads.WORKLOADS["query_mix"]
    for seed in range(5):
        corpus = wl.build(seed, False)
        drops = [int(j) for text, _ in corpus.ops
                 for j in re.findall(r"allheads>(\d+)", text)]
        assert max(drops) <= workloads.LAST_RENDERABLE_DROP
        assert len(corpus.probes) == 2
        for text, expects in corpus.probes:
            (kind, arg), = expects
            past = arg if kind == "pow2h" else -arg[1]
            assert past > workloads.LAST_RENDERABLE_DROP, text


def test_shim_wraps_every_import_site_and_restores_it():
    from spinnerlab import cli, field, spinner, suites
    original = spinner.finite_grid_stabilizer
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert suites.finite_grid_stabilizer is spinner.finite_grid_stabilizer
        assert suites.finite_grid_stabilizer.__wrapped__ is original
        assert cli.parse_query.__wrapped__ is not None
        a = field.NonArchValue.infinitesimal(field.Generator("g"))
        (a + 1).compare(a * 2)
    finally:
        tracer.uninstall()
    assert suites.finite_grid_stabilizer is original
    assert tracer.stats("field.NonArchValue.add")[0] >= 1
    # self times sum to the inclusive time of the outermost spans
    top = sum(e - s for p, s, e in zip(tracer.span_parent, tracer.span_start,
                                       tracer.span_end) if p == -1)
    assert abs(sum(tracer.layer_self().values()) - top) < 1e-9


def test_spans_round_trip(tmp_path):
    tracer = spans.Tracer()
    outer = tracer.wrap(lambda: inner(), "field.outer")
    inner = tracer.wrap(lambda: None, "field.inner")
    outer()
    tracer.dump(tmp_path / "x.spans")
    names, rows = spans.read_spans(tmp_path / "x.spans")
    assert [(n, p) for n, p, _, _ in rows] == [("field.outer", -1),
                                               ("field.inner", 0)]
    assert all(s <= e for _, _, s, e in rows)


def test_self_check():
    # field_arith checks its results against sympy, which spinnerlab's own
    # test extras do not install
    pytest.importorskip("sympy")
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--self-check"],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
