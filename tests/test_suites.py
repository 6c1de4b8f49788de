import json
import time

import pytest

from spinnerlab import spinner
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