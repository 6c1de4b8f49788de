import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinnerlab.errors import DomainError
from spinnerlab.suites import run_suites

GOLDEN = Path(__file__).parent / "golden_queries.jsonl"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SPINNERLAB_SEED", None)
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-m", "spinnerlab", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def load_golden():
    with GOLDEN.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_golden_queries_match_and_are_deterministic():
    entries = load_golden()
    assert len(entries) == 25
    for entry in entries:
        first = run_cli(*entry["argv"])
        second = run_cli(*entry["argv"])
        assert first == second, f"nondeterministic output for {entry['argv']}"
        code, out, err = first
        assert code == entry["exit"], (entry["argv"], err)
        assert out == entry["stdout"], (entry["argv"], out)
        assert err == entry["stderr"], (entry["argv"], err)


def test_golden_queries_cover_models_and_error_paths():
    entries = load_golden()
    text = " ".join(e["argv"][-1] for e in entries)
    for model in ("minimal:", "grid:", "cantor:", "coinflip:", "lottery:"):
        assert model in text
    failures = [e for e in entries if e["exit"] != 0]
    kinds = " ".join(e["stderr"] for e in failures)
    assert "syntax error" in kinds
    assert "unknown model" in kinds
    assert "cylinder" in kinds          # type mismatch
    assert "translate" in kinds         # type mismatch, other direction
    assert "null event" in kinds        # domain error


def test_a_reader_that_exits_early_gets_no_traceback():
    # stdout is a pipe whose read end is already closed, as when the
    # reader of `spinnerlab eval ... | head -n 1` exits first
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spinnerlab", "eval", "grid: P([0,1/2))"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_compare_subcommand():
    code, out, err = run_cli("compare", "coinflip: P(allheads)",
                             "coinflip: P(allheads>1)")
    assert code == 0
    assert out == "ordering: Less\nratio: 1/2\ndifference: -h\n"


def test_compare_generator_mismatch_is_an_error():
    code, out, err = run_cli("compare", "grid: P({1/3})",
                             "coinflip: P(allheads)")
    assert code == 1
    assert "error:" in err and "generators" in err


def test_compare_across_minimal_and_grid():
    code, out, err = run_cli("compare", "minimal: P([0,1/2))",
                             "grid: P([0,1/2))")
    assert code == 0
    assert "ordering: Equal" in out


def test_suite_healthy_exit_zero_and_json_shape():
    code, out, err = run_cli("suite", "--json")
    assert code == 0, err
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 10
    assert [l["suite"] for l in lines] == [
        "spinner-regularity", "spinner-totality", "spinner-count-uniformity",
        "spinner-length-agreement", "spinner-rational-rotation-invariance",
        "spinner-half-open-uniformity", "cantor-conditional-coherence",
        "sigma-additivity-probe", "finite-grid-stabilizer",
        "archimedean-overflow-witness"]
    for l in lines:
        assert set(l) == {"suite", "verdict", "cases", "counterexamples",
                          "witnesses", "duration_ms"}
        assert l["verdict"] == "pass"


def test_suite_json_deterministic_modulo_duration(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seed = 11\ncases = 30\nmax_grid_size = 8\n")

    def stripped():
        code, out, err = run_cli("suite", "--config", str(cfg), "--json")
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        for r in rows:
            r.pop("duration_ms")
        return rows

    assert stripped() == stripped()


def test_suite_corrupt_oracle_exits_one():
    code, out, err = run_cli("suite", "--json", "--corrupt-oracle")
    assert code == 1
    rows = [json.loads(l) for l in out.splitlines()]
    bad = [r for r in rows if r["verdict"] == "fail"]
    assert bad and bad[0]["counterexamples"]


def _without_durations(rows):
    return [{k: v for k, v in r.items() if k != "duration_ms"} for r in rows]


def test_suite_config_file_and_seed_env(tmp_path, monkeypatch):
    cfg = tmp_path / "suite.cfg"
    sizes = "cases = 25\nmax_denominator = 12\nmax_grid_size = 6\n"
    cfg.write_text("seed = 5\n" + sizes)
    code, out, _ = run_cli("suite", "--config", str(cfg), "--json")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows[0]["cases"] == 25
    # env var overrides the config seed but keeps everything green
    code, out2, _ = run_cli("suite", "--config", str(cfg), "--json",
                            env_extra={"SPINNERLAB_SEED": "99"})
    assert code == 0

    # passing suites print the same for every seed, so read the seed off
    # the corrupted suite's sampled counterexamples
    def corrupted(config_seed, env_seed=None):
        path = tmp_path / f"seed{config_seed}.cfg"
        path.write_text(f"seed = {config_seed}\n" + sizes)
        env = None if env_seed is None else {"SPINNERLAB_SEED": env_seed}
        code, out, _ = run_cli("suite", "--config", str(path), "--json",
                               "--corrupt-oracle", env_extra=env)
        assert code == 1
        return _without_durations(json.loads(l) for l in out.splitlines())

    by_env = corrupted(5, "99")
    assert by_env == corrupted(99)
    assert by_env != corrupted(5)
    code, out, err = run_cli("suite", env_extra={"SPINNERLAB_SEED": "x"})
    assert (code, out) == (1, "")
    assert err == "error: SPINNERLAB_SEED must be an integer, got 'x'\n"

    # in process, run_suites applies the variable itself
    monkeypatch.setenv("SPINNERLAB_SEED", "99")
    code, rows = run_suites(str(tmp_path / "seed5.cfg"), corrupt=True)
    assert code == 1 and _without_durations(rows) == by_env
    monkeypatch.setenv("SPINNERLAB_SEED", "x")
    with pytest.raises(DomainError, match="got 'x'"):
        run_suites(str(cfg))
    for seed in ("1" * 4301, "1_" * 4400 + "1"):
        monkeypatch.setenv("SPINNERLAB_SEED", seed)
        with pytest.raises(DomainError) as exc:
            run_suites(str(cfg))
        assert str(exc.value) == \
            "SPINNERLAB_SEED must be at most 4300 digits long"


def test_suite_unreadable_config_exits_two(tmp_path):
    code, out, err = run_cli("suite", "--config",
                             str(tmp_path / "missing.cfg"))
    assert code == 2
    assert "cannot read config" in err


def test_suite_degenerate_config_warns(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("max_denominator = 1\ncases = 5\nmax_grid_size = 3\n")
    code, out, err = run_cli("suite", "--config", str(cfg), "--json")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert any(any("low-coverage" in w for w in r["witnesses"])
               for r in rows)


def test_witness_subcommand():
    code, out, _ = run_cli("witness", "--prop", "4.1", "--eps", "1/10")
    assert code == 0
    assert json.loads(out) == {"n": 11, "product": "11/10"}
    code, out, _ = run_cli("witness", "--prop", "4.2", "--eps", "1/10")
    data = json.loads(out)
    assert data["n"] == 11 and len(data["points"]) == 11
    code, _, err = run_cli("witness", "--prop", "4.1", "--eps", "0")
    assert code == 1 and "positive" in err
    code, _, err = run_cli("witness", "--prop", "4.1", "--eps", "0.1")
    assert code == 1 and "exact rational" in err
    code, out, _ = run_cli("witness", "--prop", "4.1", "--eps", " 1 / 10 ")
    assert code == 0 and json.loads(out) == {"n": 11, "product": "11/10"}
    code, _, err = run_cli("witness", "--prop", "4.1", "--eps", "1/0")
    assert code == 1 and err == ("error: expected an exact rational p/q: "
                                 "zero denominator in rational literal\n")


def test_digit_limit_inputs_print_exactly_or_fail_cleanly():
    code, out, err = run_cli("eval", "coinflip: P(allheads>20000)")
    assert code == 0 and err == ""
    value = out.splitlines()[0]
    assert value.startswith("value: 3980276840") and value.endswith("*h")
    assert len(value) == len("value: *h") + 6021  # 2^20000 has 6021 digits
    code, out, err = run_cli("compare", "coinflip: P(allheads)",
                             "coinflip: P(allheads>20000)")
    assert code == 0 and out.startswith("ordering: Less\nratio: 1/3980276840")
    long_numeral = "1" + "0" * 4300
    for argv in (("eval", f"grid: P([0,1/{long_numeral}))"),
                 ("eval", "coinflip: P(allheads>100001)"),
                 ("witness", "--prop", "4.1", "--eps", f"1/{long_numeral}"),
                 ("witness", "--prop", "4.1", "--eps", f"1/{'9' * 4300}"),
                 ("witness", "--prop", "4.2", "--eps", "1/100000000"),
                 ("witness", "--prop", "4.2", "--eps", f"1/{'1' * 30}"),
                 ("stabilizer", "--grid", "uniform:100001"),
                 ("stabilizer", "--grid", f"0,1/{long_numeral}")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv
    code, out, _ = run_cli("stabilizer", "--grid", f"1/{'9' * 4300}")
    assert code == 0
    assert json.loads(out)["witness_image"].endswith(f"/1{'9' * 4299}8")
    code, out, err = run_cli("eval", f"cantor: P(compl({{{'0' * 1200}}}))")
    assert code == 0 and err == "" and out.startswith("value: ")


def test_stabilizer_subcommand():
    code, out, _ = run_cli("stabilizer", "--grid", "uniform:12")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 12 and data["generator_rotation"] == "1/12"
    assert data["witness_rotation"] == "1/13"
    code, out, _ = run_cli("stabilizer", "--grid", "0,1/4,1/3")
    assert json.loads(out)["order"] == 1
    code, _, err = run_cli("stabilizer", "--grid", "3/2")
    assert code == 1 and "error:" in err


def test_long_set_chains_evaluate_without_recursion():
    n = 5000
    chains = {
        "grid: P(" + " u ".join(f"{{{i}/{n}}}" for i in range(n)) + ")":
            f"value: {n}*eps",
        "cantor: P(" + " u ".join(["{0}"] * n) + ")": "value: 1/2",
        "coinflip: P(" + " n ".join(["allheads"] * n) + ")": "value: h",
        # (A u B) n C, read left to right: each n cuts the point 3/4 off
        "grid: P([0,1/2)" + " u {3/4} n [0,1/2)" * (n // 2 - 1)
        + " u {3/4})": "value: 1/2 + eps",
    }
    for query, value in chains.items():
        code, out, err = run_cli("eval", query)
        assert (code, err) == (0, ""), (query[:40], err[-300:])
        assert out.splitlines()[0] == value, query[:40]
