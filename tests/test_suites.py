import json
import os
import threading
import time

import pytest

from spinnerlab import spinner, suites
from spinnerlab.errors import DomainError
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

    def slow_check(model, config):
        time.sleep(0.2)
        return check(model, config)

    monkeypatch.setattr(spinner, "_check_totality", slow_check)
    rows = run_all(small_config())[:6]
    assert rows[1]["suite"] == "spinner-totality"
    assert rows[1]["duration_ms"] >= 200
    assert all(r["duration_ms"] < 100 for r in rows[:1] + rows[2:])


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

    def broken(model, config):
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
        def check(model, config):
            raise DomainError(message)
        return check

    monkeypatch.setattr(spinner, "_check_totality", broken("totality"))
    monkeypatch.setattr(spinner, "_check_half_open_uniformity",
                        broken("half-open"))
    with pytest.raises(DomainError, match="^totality$"):
        run_all(small_config())
    _assert_no_child_left()


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
