import json
import os
import random
import threading
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from _refs import coherence_check, hausdorff_measure
from spinnerlab import cantor, spinner, suites
from spinnerlab.cantor import CantorEvent
from spinnerlab.errors import DomainError
from spinnerlab.field import NonArchValue
from spinnerlab.report import PropertyReport
from spinnerlab.spinner import SuiteConfig
from spinnerlab.suites import all_passed, run_all, run_suites

SUITE_ORDER = [
    "spinner-regularity", "spinner-totality", "spinner-count-uniformity",
    "spinner-length-agreement", "spinner-rational-rotation-invariance",
    "spinner-half-open-uniformity", "cantor-conditional-coherence",
    "sigma-additivity-probe", "finite-grid-stabilizer",
    "archimedean-overflow-witness"]


def small_config():
    return SuiteConfig(seed=0, cases=30, max_denominator=20, max_grid_size=8)


def test_ten_suites_in_registration_order():
    results = run_all(small_config())
    assert [r["suite"] for r in results] == SUITE_ORDER
    assert all_passed(results)
    for r in results:
        assert r["verdict"] == "pass"
        assert json.dumps(r)  # JSON-serializable as-is


def test_results_deterministic_for_fixed_seed():
    def stripped(seed):
        rows = run_all(SuiteConfig(seed=seed, cases=25, max_grid_size=6))
        return [{k: v for k, v in r.items() if k != "duration_ms"}
                for r in rows]

    assert stripped(4) == stripped(4)
    # different seeds sample different cases but still pass
    assert all(r["verdict"] == "pass" for r in stripped(5))


def test_duration_ms_is_each_suites_own_time(monkeypatch):
    check = spinner._check_totality

    def slow_check(config):
        time.sleep(0.2)
        return check(config)

    monkeypatch.setattr(spinner, "_check_totality", slow_check)
    rows = run_all(small_config())[:6]
    assert rows[1]["suite"] == "spinner-totality"
    assert rows[1]["duration_ms"] >= 200
    assert all(r["duration_ms"] < 100 for r in rows[:1] + rows[2:])


@pytest.mark.parametrize("thin", [{"cases": 5}, {"max_denominator": 1}])
def test_exactly_the_sampled_suites_warn_of_low_coverage(thin):
    """The six spinner checks and the cylinder coherence sweep report
    through one rule, which adds the coverage warning; no other suite
    does, and the default config warns nowhere."""
    def warned(config):
        rows = run_all(config)
        assert all_passed(rows)
        return [r["suite"] for r in rows
                if any(w.startswith("warning: low-coverage")
                       for w in r["witnesses"])]

    assert warned(SuiteConfig(max_grid_size=6, **thin)) == SUITE_ORDER[:7]
    assert warned(SuiteConfig()) == []


def test_corrupt_hook_fails_exactly_one_suite():
    results = run_all(small_config(), corrupt=True)
    assert not all_passed(results)
    failing = [r for r in results if r["verdict"] == "fail"]
    assert [r["suite"] for r in failing] == ["spinner-length-agreement"]
    assert failing[0]["counterexamples"]
    assert failing[0]["witnesses"] == []


def test_run_suites_entry_point(tmp_path, monkeypatch):
    monkeypatch.delenv("SPINNERLAB_SEED", raising=False)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("cases = 20\nmax_grid_size = 5\n")
    code, results = run_suites(str(cfg))
    assert code == 0 and len(results) == 10
    code, _ = run_suites(str(cfg), corrupt=True)
    assert code == 1
    with pytest.raises(OSError):
        run_suites(str(tmp_path / "absent.cfg"))
    cfg.write_text("cases = nonsense\n")
    with pytest.raises(DomainError):
        run_suites(str(cfg))


def test_sigma_probe_suite_reports_dyadic_residual():
    results = run_all(small_config())
    probe = next(r for r in results if r["suite"] == "sigma-additivity-probe")
    assert probe["cases"] == 21
    assert any(w == "residual = 1/2097152" for w in probe["witnesses"])


def _without_durations(rows):
    return [{k: v for k, v in r.items() if k != "duration_ms"} for r in rows]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_lanes = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="lanes need os.fork and os.sched_getaffinity")


@needs_lanes
@pytest.mark.parametrize("seed", [0, 4, 5])
def test_reports_do_not_depend_on_the_number_of_lanes(monkeypatch, seed):
    config = SuiteConfig(seed=seed, cases=25, max_denominator=12,
                         max_grid_size=6)
    rows = {}
    for cpus in (1, 2, 4):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        # the corrupted suite's counterexamples are sampled from the seed
        rows[cpus] = _without_durations(run_all(config, corrupt=True))
        _assert_no_child_left()
    assert rows[1] == rows[2] == rows[4]
    assert [r["suite"] for r in rows[1]] == SUITE_ORDER


@needs_lanes
def test_a_raising_suite_raises_its_own_error_and_leaves_no_child(
        monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def broken(config):
        raise DomainError("totality check broke")

    monkeypatch.setattr(spinner, "_check_totality", broken)
    with pytest.raises(DomainError, match="^totality check broke$"):
        run_all(small_config())
    _assert_no_child_left()


@needs_lanes
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_the_first_raising_suite_in_registration_order_raises(
        monkeypatch, cpus):
    # the lanes pull the half-open uniformity check before totality
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))

    def broken(message):
        def check(config):
            raise DomainError(message)
        return check

    monkeypatch.setattr(spinner, "_check_totality", broken("totality"))
    monkeypatch.setattr(spinner, "_check_half_open_uniformity",
                        broken("half-open"))
    with pytest.raises(DomainError, match="^totality$"):
        run_all(small_config())
    _assert_no_child_left()


def _skewed(e):
    # a counting measure skewed by 1/997 puts the conditional off the
    # measure ratio on every pair where a does not hold b.  A skewed
    # hausdorff_measure would not do: the conditional and the ratio both
    # divide its values on a & b and on b, so the skew would cancel.
    return NonArchValue.constant(
        cantor.CANTOR_GENERATOR, hausdorff_measure(e) + F(1, 997))


def _recording_coherence(monkeypatch):
    """Make the cylinder sweep append every pair it checks to the list
    returned."""
    pairs, rule = [], suites.coherence_sides

    def recording(a, b):
        pairs.append((a, b))
        return rule(a, b)

    monkeypatch.setattr(suites, "coherence_sides", recording)
    return pairs


def test_coherence_sweep_reports_what_coherence_check_reports(monkeypatch):
    monkeypatch.setattr(cantor, "cantor_probability", _skewed)
    pairs = _recording_coherence(monkeypatch)
    report = suites.cantor_coherence_suite(small_config())
    expected = [c for a, b in pairs for c in
                coherence_check(a, b).counterexamples]
    assert len(pairs) == report.cases == 15 * 15 + 30
    assert 0 < len(expected) < len(pairs)
    assert report.verdict == "fail"
    assert report.counterexamples == expected


# The cylinder sweep's counterexamples under the skewed counting measure,
# and coherence_check's witnesses on the same pairs under the real one,
# where every pair passes and so keeps its witnesses: seeds 0, 4 and 5 at
# the default config, recorded at commit b6d46c3.
COHERENCE_TEXTS = Path(__file__).parent / "data" / \
    "cantor_counterexamples.json"


def coherence_texts(seed: int) -> dict:
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cantor, "cantor_probability", _skewed)
        pairs = _recording_coherence(m)
        report = suites.cantor_coherence_suite(SuiteConfig(seed=seed))
    return {"seed": seed, "counterexamples": report.counterexamples,
            "witnesses": [w for a, b in pairs
                          for w in coherence_check(a, b).witnesses]}


@pytest.mark.parametrize(
    "recorded", json.loads(COHERENCE_TEXTS.read_text(encoding="utf-8")),
    ids=lambda r: f"seed{r['seed']}")
def test_coherence_texts_match_the_recording(recorded):
    assert coherence_texts(recorded["seed"]) == recorded


def _ref_cylinder_addresses(rng, max_cylinders, max_depth, nonempty):
    """The addresses that ``suites._rand_cantor_event`` drew with
    ``rng.choice("02")`` per digit: the reference for its cheaper draw."""
    count = rng.randint(1 if nonempty else 0, max_cylinders)
    addresses = []
    for _ in range(count):
        depth = rng.randint(1, max_depth)
        addresses.append("".join(rng.choice("02") for _ in range(depth)))
    return tuple(addresses)


def test_cylinder_draws_match_choice_and_leave_the_same_state():
    # the draws stand in for randint and choice("02") through random's
    # private _randbelow, so they are pinned on every Python the tests run
    # under; the event built from cut pairs is the one CantorEvent builds
    # from the addresses, at the same depth
    for seed in range(2000):
        got, ref = random.Random(seed), random.Random(seed)
        for nonempty in (False, True, False, True):
            e = suites._rand_cantor_event(got, 4, 6, nonempty)
            want = CantorEvent(_ref_cylinder_addresses(ref, 4, 6, nonempty))
            assert (e.depth, e.cuts) == (want.depth, want.cuts), seed
        assert got.getstate() == ref.getstate(), seed


def _ref_grid_points(rng) -> list:
    """A random stabilizer grid as the suite drew it through randint and
    Fractions: up to 12 distinct points of denominator at most 40."""
    size = rng.randint(1, 12)
    pts = set()
    while len(pts) < size:
        den = rng.randint(1, 40)
        pts.add(F(rng.randint(0, den - 1), den))
    return sorted(pts)


@pytest.mark.parametrize("seed", [0, 1, 5, 17])
def test_stabilizer_grids_are_the_drawn_grids(seed):
    # the suite's grids as integer pairs are the uniform grids k/n and the
    # grids the randint reference draws, in the same order and sorted
    config = SuiteConfig(seed=seed, cases=120)
    grids = list(suites._stabilizer_grids(config))
    assert [(pts, order) for pts, order, i in grids if i is None] == [
        ([F(k, n).as_integer_ratio() for k in range(n)], n)
        for n in range(1, 25)]
    drawn = [(pts, order, i) for pts, order, i in grids if i is not None]
    assert [(order, i) for _, order, i in drawn] == [(None, i)
                                                    for i in range(30)]
    points = [[F(*x) for x in pts] for pts, _, _ in drawn]
    assert all(F(*x).as_integer_ratio() == x for pts, _, _ in drawn
               for x in pts)
    ref = config.rng("stabilizer")
    assert points == [_ref_grid_points(ref) for _ in points]


def test_the_queue_holds_every_suite_once():
    assert sorted(suites._LONGEST_FIRST) == list(range(len(SUITE_ORDER)))


@needs_lanes
@pytest.mark.parametrize("failure", ["raise", "die"])
def test_suites_a_child_lane_failed_on_run_here(monkeypatch, failure):
    serial = _without_durations(run_all(small_config()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    caller, timed = os.getpid(), suites._timed

    def fails_in_a_child(suite, config):
        if os.getpid() != caller:
            if failure == "die":
                os._exit(3)
            raise DomainError("child lane broke")
        return timed(suite, config)

    monkeypatch.setattr(suites, "_timed", fails_in_a_child)
    assert _without_durations(run_all(small_config())) == serial
    _assert_no_child_left()


@needs_lanes
def test_no_fork_while_another_thread_is_alive(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no fork while a thread is alive")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        assert suites._lane_count(10) == 1
        rows = run_all(small_config())
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert forks == []
    assert [r["suite"] for r in rows] == SUITE_ORDER
    assert suites._lane_count(10) == 4
    assert suites._lane_count(3) == 3


@pytest.mark.parametrize("counterexamples, witnesses", [
    ([], []), ([], ["w"]), (["c"], []), (["c", "d"], ["w"])])
def test_a_report_fails_exactly_when_it_has_counterexamples(counterexamples,
                                                             witnesses):
    report = PropertyReport.from_checks("p", 3, counterexamples, witnesses)
    assert report.verdict == ("fail" if counterexamples else "pass")
    assert report.to_dict() == {
        "suite": "p", "verdict": report.verdict, "cases": 3,
        "counterexamples": counterexamples,
        "witnesses": [] if counterexamples else witnesses}
    with pytest.raises(ValueError, match="failing report with witnesses"):
        PropertyReport("p", 3, ["c"], ["w"])



# every suite's report at the default config without duration_ms, for seeds
# 0, 4 and 5, with and without the skewed reference, recorded at commit
# e4b0a9b
SUITE_REPORTS = Path(__file__).parent / "data" / "suite_reports.json"


@pytest.mark.parametrize(
    "recorded", json.loads(SUITE_REPORTS.read_text(encoding="utf-8")),
    ids=lambda r: f"seed{r['seed']}-corrupt{r['corrupt']}")
def test_reports_match_the_recorded_reports(recorded):
    config = SuiteConfig(seed=recorded["seed"])
    assert _without_durations(run_all(config, corrupt=recorded["corrupt"])) \
        == recorded["reports"]
