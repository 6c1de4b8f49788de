import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import spinnerlab
from spinnerlab.errors import DomainError
from spinnerlab.field import parse_rational
from spinnerlab.lottery import archimedean_regularity_witness
from spinnerlab.query import evaluate, parse_query
from spinnerlab.suites import run_suites

GOLDEN = Path(__file__).parent / "golden_queries.jsonl"


def run_cli(*args, env_extra=None, **options):
    """(exit code, stdout, stderr) of ``python -m spinnerlab ARGS``;
    ``options`` go to ``subprocess.run``, a ``timeout`` among them."""
    env = dict(os.environ)
    env.pop("SPINNERLAB_SEED", None)
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-m", "spinnerlab", *args],
                          capture_output=True, text=True, env=env, **options)
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


def test_suite_config_upper_bounds_run_in_bounded_time(tmp_path):
    # the documented upper bounds of a suite config run in bounded time,
    # the samplers' integer sums on 18-digit denominators too
    cfg = tmp_path / "upper.cfg"
    cfg.write_text("cases = 10000\nmax_denominator = 1000000000000000000\n")
    code, out, err = run_cli("suite", "--config", str(cfg), timeout=60)
    assert (code, out.splitlines()[-1]) == (0, "all suites passed"), err


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pinning a child to one CPU needs "
                           "os.sched_setaffinity")
def test_suite_reports_do_not_depend_on_the_cpus():
    # the suites run in one lane per usable CPU, and the reports do not
    # depend on how many: a child pinned to one CPU runs one lane
    cpu = min(os.sched_getaffinity(0))
    one_lane = run_cli("suite", "--json",
                       preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    lanes = run_cli("suite", "--json")
    assert one_lane[0] == lanes[0] == 0, (one_lane[2], lanes[2])
    assert len(lanes[1].splitlines()) == 10

    def without_durations(out):
        return re.sub(r', "duration_ms": [0-9]*', "", out)

    assert without_durations(one_lane[1]) == without_durations(lanes[1])


@pytest.mark.parametrize("corrupt", [False, True])
def test_suite_plain_text_report(corrupt, monkeypatch):
    monkeypatch.delenv("SPINNERLAB_SEED", raising=False)
    flags = ("--corrupt-oracle",) if corrupt else ()
    code, out, err = run_cli("suite", *flags)
    _, rows = run_suites(None, corrupt)
    lines = out.splitlines()
    assert (code, err) == (int(corrupt), "")
    assert lines[-1] == ("suite failures detected" if corrupt
                         else "all suites passed")
    marks = [line for line in lines if line.startswith(("ok  ", "FAIL"))]
    assert marks == [
        f"{'FAIL' if r['verdict'] == 'fail' else 'ok  '} {r['suite']:40s} "
        f"verdict={r['verdict']} cases={r['cases']}" for r in rows]
    assert sum(m.startswith("FAIL") for m in marks) == int(corrupt)
    shown = [line for line in lines if line.startswith("     counterexample: ")]
    assert len(lines) == len(marks) + len(shown) + 1
    if corrupt:
        assert 1 <= len(shown) <= 3


@pytest.mark.parametrize("argv, message", [
    (("eval", "grid: P(ticket)"),
     "ticket events do not belong to the grid model"),
    (("eval", "minimal: P(tickets(2))"),
     "ticket events do not belong to the minimal model"),
    (("eval", "cantor: P(allheads)"),
     "this event does not belong to the cantor model"),
    (("eval", "cantor: P(ticket)"),
     "this event does not belong to the cantor model"),
    (("stabilizer", "--grid", ","), "empty grid specification"),
    (("stabilizer", "--grid", "uniform:1_0"),
     "uniform:N needs a natural number N: syntax error at position 1: "
     "trailing input '_0'"),
    # a condition of probability 0 is a user error under every model with
    # conditional queries, each with its own message (the minimal model's
    # is a golden), and a lottery condition is refused
    (("eval", "cantor: P(full | compl(full))"),
     "conditioning on the empty event"),
    (("eval", "grid: P(full | compl(full))"),
     "conditioning on the empty event"),
    (("eval", "coinflip: P(allheads | allheads&pin(1:T))"),
     "conditioning on an inconsistent coin event"),
    (("eval", "lottery: P(ticket | tickets(3))"),
     "conditional queries are not defined for ticket blocks"),
    # a lone interval literal is a run of one, not a union of coin events;
    # a signed endpoint is read and then refused at evaluation
    (("eval", "coinflip: P([0,1/2))"),
     "only coin literals (allheads, pin) and their intersections belong to "
     "the coinflip model"),
    (("eval", "coinflip: P([0,1/4) u [1/2,1))"),
     "union of coin events is not supported; only intersection is defined"),
    (("eval", "grid: P([-1/2,1/2))"), "endpoint outside [0,1]: [-1/2,1/2]"),
])
def test_model_mismatches_and_bad_grid_specs_are_refused(argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


def test_suite_config_out_of_range_names_file_and_line(tmp_path):
    # the path is printed as given, here relative to the working directory
    (tmp_path / "bad.cfg").write_text("seed = 1\ncases = -3\n")
    package_root = str(Path(spinnerlab.__file__).parents[1])
    code, out, err = run_cli("suite", "--config", "bad.cfg", cwd=tmp_path,
                             env_extra={"PYTHONPATH": package_root})
    assert (code, out) == (1, "")
    assert err == "error: bad.cfg:2: cases must be at least 1\n"


def test_suite_degenerate_config_warns(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("max_denominator = 1\ncases = 5\nmax_grid_size = 3\n")
    code, out, err = run_cli("suite", "--config", str(cfg), "--json")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert any(any("low-coverage" in w for w in r["witnesses"])
               for r in rows)


def test_every_exported_name_resolves_with_warnings_as_errors():
    code = ("import spinnerlab as s; missing = [n for n in s.__all__ "
            "if not hasattr(s, n)]; assert not missing, missing")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_the_4_2_orbit_streams_fixed_bytes_in_bounded_time():
    # the orbit of 10**6 + 1 points is streamed, not held
    code, out, err = run_cli("witness", "--prop", "4.2", "--eps",
                             "1/1000000", timeout=20)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "118d0436419ff75db1809cea67db6833fec1f8441e9b80966da6461b8ca834b3")


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
    # N of uniform:N is read by the token rules, and an error is short
    for spec in ("uniform:1_0", "uniform:+3", "uniform:",
                 f"uniform:{'1' * 5000}"):
        code, out, err = run_cli("stabilizer", "--grid", spec)
        assert (code, out) == (1, ""), spec[:20]
        assert err.startswith("error: ") and len(err) < 120, spec[:20]
    # n * eps passes the digit limit although both numerals are at it
    eps = f"{10 ** 4299 + 1}/{10 ** 4300 - 7}"
    product = f"1{'0' * 4298}10/{10 ** 4300 - 7}"
    for prop in ("4.1", "4.2"):
        code, out, err = run_cli("witness", "--prop", prop, "--eps", eps)
        assert (code, err) == (0, "")
        assert json.loads(out)["product"] == product
    assert json.loads("".join(archimedean_regularity_witness(
        parse_rational(eps)).json_chunks())) == {"n": 10, "product": product}
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
    assert run_cli("stabilizer", "--grid", "uniform: 12")[1] == out
    code, out, _ = run_cli("stabilizer", "--grid", "0,1/4,1/3")
    assert json.loads(out)["order"] == 1
    code, _, err = run_cli("stabilizer", "--grid", "3/2")
    assert code == 1 and "error:" in err


def test_stabilizer_of_the_largest_uniform_grid():
    code, out, err = run_cli("stabilizer", "--grid", "uniform:100000")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "order": 100000, "generator_rotation": "1/100000",
        "witness_rotation": "1/100001", "witness_point": "0",
        "witness_image": "1/100001"}


def _primes_31(n):
    """The first n probable primes of 31 digits.  The gcd skips multiples
    of 3 to 13 before the slower Fermat test; it drops no probable prime
    of 31 digits."""
    primes = (p for p in range(10 ** 30 + 1, 10 ** 31, 2)
              if math.gcd(p, 3 * 5 * 7 * 11 * 13) == 1
              and pow(2, p - 1, p) == 1)
    return [p for _, p in zip(range(n), primes)]


def test_stabilizer_of_coprime_prime_denominators_in_bounded_time():
    # 2000 points i/p over distinct 31-digit probable primes (72 KB): the
    # stabilizer's cost must stay linear in the grid's digits
    grid = ",".join(f"{i}/{p}" for i, p in enumerate(_primes_31(2000), 1))
    assert len(grid) > 70_000
    code, out, err = run_cli("stabilizer", "--grid", grid, timeout=20)
    assert (code, err) == (0, "")
    first = grid.split(",")[0]
    data = json.loads(out)
    assert (data["order"], data["witness_rotation"]) == (1, "1/2")
    assert data["witness_point"] == first
    assert parse_rational(data["witness_image"]) \
        == parse_rational(first) + Fraction(1, 2)


def test_a_union_over_coprime_prime_denominators_prints_in_bounded_time():
    # 2000 closed intervals [2i/p, (2i+1)/p] over distinct 31-digit
    # probable primes (155 KB): the length's denominator has about 62,000
    # digits, so the value prints past Python's int->str limit.  The
    # digest pins the text the value printed before sets and values
    # printed through ``render_ratio``.
    text = "grid: P(" + " u ".join(
        f"[{2 * i}/{p},{2 * i + 1}/{p}]"
        for i, p in enumerate(_primes_31(2000), 1)) + ")"
    start = time.perf_counter()
    out = "\n".join(evaluate(parse_query(text)).lines())
    assert time.perf_counter() - start < 10
    assert len(out) == 240_036
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6217c899f90f5f09dc2a6cca8686f23ec94270bdf63fa27321988ae44ef59423")


def test_endpoints_over_denominators_above_2_32_order_exactly():
    # such endpoints can share a cut's integer key, so their order falls
    # back to the exact order of their (p, q) pairs, p1*q2 against p2*q1;
    # so do endpoints that a translate wraps past 1: the wrapped start has
    # the larger numerator and the smaller value of two tied keys
    values = {
        "grid: P(compl([1/36893488147419103233,1/36893488147419103232) u "
        "(1/36893488147419103232, 1/36893488147419103231]))":
            "value: 1361129467683753853853498429727072845821/"
            "1361129467683753853853498429727072845823",
        "grid: P(translate([73786976329197944837/147573952589676412934,1), "
        "1/2) n [0,2863311531/12297829382473034411])":
            "value: 12297829385336345942/"
            "907419645122502569297154766730413735937 + eps",
    }
    for query, value in values.items():
        code, out, err = run_cli("eval", query)
        assert (code, err) == (0, ""), query
        assert out.splitlines()[0] == value, query


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


# hostile-size chains: each must evaluate in near-linear time
@pytest.mark.parametrize("text, first_line", [
    # an 8000-operand chain that alternates u and n (83 KB): the set grows
    # by one point per step
    ("grid: P(" + " u ".join(f"{{{i}/4000}} n full" for i in range(4000))
     + ")", "value: 4000*eps"),
    # a 4000-operand cantor chain that alternates u and n (104 KB):
    # cylinder events are integer cut pairs
    ("cantor: P(" + " u ".join(
        f"{{{format(2 * i, '014b').replace('1', '2')}}} n full"
        for i in range(4000)) + ")", "value: 125/512"),
    # a 9000-operand pin chain (124,903 bytes) is one n-ary conjunction
    ("coinflip: P(" + " n ".join(f"pin({i}:H)" for i in range(1, 9001))
     + ")", f"value: 1/{2 ** 9000}"),
    # a u run of 4000 interval literals is one LiteralRun, built as one set
    ("grid: P(" + " u ".join(f"[{2 * i}/8000,{2 * i + 1}/8000]"
                             for i in range(4000)) + ")",
     "value: 1/2 + 4000*eps"),
    # so is a 4000-operand run that alternates interval literals and brace
    # lists
    ("grid: P(" + " u ".join(
        f"[{4 * i}/16000,{4 * i + 1}/16000) u {{{4 * i + 2}/16000}}"
        for i in range(2000)) + ")", "value: 1/8 + 2000*eps"),
], ids=["grid-alternating", "cantor-alternating", "coinflip-pins",
        "grid-interval-run", "grid-mixed-run"])
def test_hostile_size_chains_evaluate_in_bounded_time(text, first_line):
    code, out, err = run_cli("eval", text, timeout=20)
    assert (code, err) == (0, ""), err[-300:]
    assert out.splitlines()[0] == first_line
