#!/usr/bin/env python3
"""Benchmark for spinnerlab: five closed-loop workloads, one client each;
BENCHMARK.json gates suite and query_mix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
        Untraced run: prints the end-to-end metrics.
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
        Traced run: wraps spinnerlab's public functions in spans and prints
        the per-layer metrics; spans go to .perfbench-out/.
    python3 perfbench/run.py --workload all --seed N --seconds S
        Every workload in turn, each in its own process.
    python3 perfbench/run.py --self-check
        Every workload at a tiny size, traced and untraced, with every
        correctness check; exit status 0 when all pass.

Run it from the root of a checkout: it imports spinnerlab from ./src and
exits with status 2 when there is none.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it name each metric as the workload's users know it.
"""

import time

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 10  # set-up processes per untraced run

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms",
              "p99_ms": "ms", "ops_per_s": "1/s"}


# -- measuring ------------------------------------------------------------------------

class Run:
    """Outcome of one timed loop over a workload's operations.

    Operations repeat round-robin.  On a shared machine noise only ever adds
    time, so an operation's latency is the fastest of its repetitions; the
    percentiles and the throughput are taken over those.
    """

    def __init__(self):
        self.latencies = array("d")   # every execution, in order
        self.best = {}          # operation index -> fastest execution
        self.units = {}         # operation index -> units of work
        self.parts = []         # (operation index, sub-timings) per execution
        self.attempted = 0
        self.failed = 0
        self.problems = []      # failed operations and checks
        self.outputs = {}       # first-pass output per operation index
        self.peak_rss_kb = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def timed_loop(wl, corpus, execute, seconds, min_ops=1, before=None,
               after=None) -> Run:
    """Run operations round-robin until ``seconds`` have passed (and at least
    ``min_ops`` ran).  Only ``execute`` is timed; ``before(i, op)`` and
    ``after(i, op)`` run just outside the timed window."""
    from workloads import Failure, self_peak_rss_kb
    run = Run()
    ops, n = corpus.ops, len(corpus.ops)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % n]
        if before is not None:
            before(i, op)
        t0 = time.perf_counter()
        try:
            out, units, parts = execute(op)
        except Exception as exc:  # recorded as a failed operation
            out, units, parts = Failure(type(exc).__name__, str(exc)), 1, None
        t1 = time.perf_counter()
        if after is not None:
            after(i, op)
        run.latencies.append(t1 - t0)
        run.best[i % n] = min(t1 - t0, run.best.get(i % n, t1 - t0))
        run.units[i % n] = units
        run.attempted += 1
        if parts is not None:
            run.parts.append((i % n, parts))
        if isinstance(out, Failure):
            run.failed += 1
            run.problems.append(f"operation {i % n}: {out}")
        if i < n:
            run.outputs[i] = out
        elif out != run.outputs[i % n]:
            run.failed += 1
            run.problems.append(f"operation {i % n}: output changed between "
                                f"passes")
        i += 1
        if t1 >= deadline and i >= min_ops:
            break
    run.peak_rss_kb = self_peak_rss_kb()
    checked = wl.check(corpus, run.outputs)
    run.failed += len(checked)
    run.problems += checked
    return run


def setup_samples(name, seed, tiny, repeats):
    """Wall time of fresh processes that import spinnerlab and build the
    workload's inputs, with the interpreter-start and import split."""
    from workloads import run_child
    samples = []
    for _ in range(repeats):
        t_spawn = time.perf_counter()
        _, code, out, err = run_child([sys.executable, str(HERE / "child.py"),
                                       "setup", name, str(seed), str(int(tiny))])
        t_end = time.perf_counter()
        if code != 0:
            raise RuntimeError(f"set-up process failed: {err.strip()}")
        clock = json.loads(out)
        samples.append({"setup_s": t_end - t_spawn,
                        "interp_ms": (clock["t0"] - t_spawn) * 1e3,
                        "import_ms": (clock["t_import"] - clock["t0"]) * 1e3,
                        "digest": clock["digest"]})
    return samples


def p99(values) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


# -- the untraced run -----------------------------------------------------------------------

def end_to_end(wl, run, setup):
    best = list(run.best.values())
    return {"setup_s": statistics.median(s["setup_s"] for s in setup),
            "peak_rss_mb": wl.peak_rss_kb(run) / 1024,
            "p50_ms": statistics.median(best) * 1e3,
            "p99_ms": p99(best) * 1e3,
            "ops_per_s": sum(run.units.values()) / sum(best)}


def named_metrics(wl, corpus, run, e2e):
    """The end-to-end metrics under the names this workload's users know."""
    out = wl.named(corpus, run, e2e)
    out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    out["setup_s"] = (e2e["setup_s"], "s")
    out["error_rate"] = (run.failed / run.attempted, "1")
    return out


def report(wl, corpus, run, seed, lines):
    print(f"workload {wl.name}  seed {seed}  inputs sha256 {corpus.digest()}")
    print(f"  {len(run.best)} distinct operations run {run.attempted} times, "
          f"{run.busy_s:.3f} s busy")
    for name, (value, unit) in lines.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for problem in run.problems[:10]:
        print(f"  FAILED: {problem}")


# -- the traced run ---------------------------------------------------------------------------

def per_layer(tracer, ops, wall_s, untraced_s, setup, stdout, alloc_mb):
    def calls(name):
        return tracer.stats(name)[0]

    def mean(name, scale):
        n, incl, _ = tracer.stats(name)
        return incl / n * scale if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    nav, ivs, cev = ("field.NonArchValue", "intervals.IntervalSet",
                     "cantor.CantorEvent")
    selfs = tracer.layer_self()
    m = {
        "field.add_us": (mean(f"{nav}.add", 1e6), "us"),
        "field.mul_us": (mean(f"{nav}.mul", 1e6), "us"),
        "field.div_us": (mean(f"{nav}.div", 1e6), "us"),
        "field.compare_us": (mean(f"{nav}.compare", 1e6), "us"),
        "field.poly_gcd.calls": (calls("field.poly_gcd") / ops, "calls/op"),
        "field.poly_gcd_s": (tracer.stats("field.poly_gcd")[1] / ops, "s/op"),
        "field.result_degree_max": (c.get("max:field.result_degree", 0), "degree"),
        "field.coeff_bits_max": (c.get("max:field.coeff_bits", 0), "bits"),
        "intervals.normalize_us": (mean(f"{ivs}.normalize", 1e6), "us"),
        "intervals.union_us": (mean(f"{ivs}.union", 1e6), "us"),
        "intervals.intersect_us": (mean(f"{ivs}.intersect", 1e6), "us"),
        "intervals.complement_us": (mean(f"{ivs}.complement", 1e6), "us"),
        "intervals.translate_us": (mean(f"{ivs}.translate", 1e6), "us"),
        "intervals.components_in": (
            ratio(c.get("sum:intervals.components_in", 0),
                  c.get("sum:intervals.operands", 0)), "count"),
        "cantor.event_us": (mean(f"{cev}.event", 1e6), "us"),
        "cantor.complement_us": (mean(f"{cev}.complement", 1e6), "us"),
        "cantor.probability_us": (mean("cantor.cantor_probability", 1e6), "us"),
        "spinner.grid_probability_us": (mean("spinner.grid_probability", 1e6), "us"),
        "spinner.conditional_us": (mean("spinner.conditional_probability", 1e6), "us"),
        "spinner.property_suite_s": (
            ratio(tracer.stats("spinner.run_property_suite")[2],
                  calls("spinner.run_property_suite")), "s"),
        "spinner.stabilizer_s": (mean("spinner.finite_grid_stabilizer", 1), "s"),
        "spinner.stabilizer_points": (
            ratio(c.get("sum:spinner.stabilizer_points", 0),
                  calls("spinner.finite_grid_stabilizer")), "count"),
        "lottery.witness_s": (mean("lottery.archimedean_regularity_witness", 1), "s"),
        "lottery.witness_alloc_mb": (alloc_mb, "MB"),
        "lottery.coin_us": (mean("lottery.coinflip_probability", 1e6), "us"),
        "query.parse_us": (mean("query.parse_query", 1e6), "us"),
        "query.evaluate_us": (mean("query.evaluate", 1e6), "us"),
        "query.parse_chars_per_s": (
            ratio(c.get("sum:query.chars", 0),
                  tracer.stats("query.parse_query")[1]), "chars/s"),
        "suites.spinner_properties_s": (mean("spinner.run_property_suite", 1), "s"),
        "suites.cantor_coherence_s": (mean("suites.cantor_coherence_suite", 1), "s"),
        "suites.sigma_probe_s": (mean("suites.sigma_probe_suite", 1), "s"),
        "suites.stabilizer_s": (mean("suites.stabilizer_suite", 1), "s"),
        "suites.witness_s": (mean("suites.witness_suite", 1), "s"),
        "cli.interp_ms": (statistics.median(s["interp_ms"] for s in setup), "ms"),
        "cli.import_ms": (statistics.median(s["import_ms"] for s in setup), "ms"),
        "cli.main_us": (mean("cli.main", 1e6), "us"),
        "cli.stdout_bytes": (ratio(stdout, calls("cli.main")), "bytes"),
    }
    for layer, self_s in selfs.items():
        m[f"{layer}.self_s"] = (self_s, "s")
    m["harness.self_s"] = (wall_s - sum(selfs.values()), "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (wall_s - untraced_s, "s")
    m["trace.ops"] = (ops, "count")
    m["trace.spans"] = (len(tracer.span_start)
                        or sum(a[0] for a in tracer.agg), "count")
    return m


def traced(wl, corpus, seconds, min_ops, seed, setup):
    """Every operation runs twice in a row, once traced and once untraced,
    the order swapping each pass; a slow phase of the machine then slows
    both alike.  Traced and untraced runs together fill ``seconds``."""
    import spans
    n = len(corpus.ops)
    untraced = []

    def twin(i, op, first):
        """The untraced run of ``op``: before the traced one on even passes,
        after it on odd passes."""
        if first == ((i // n) % 2 == 0):
            t0 = time.perf_counter()
            try:
                wl.execute(op)
            except Exception:  # the traced run records the failure
                pass
            untraced.append(time.perf_counter() - t0)

    folder = OUT / f"trace-{wl.name}-seed{seed}"
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    if wl.traces_in_children:
        tracer = None
        on = off = lambda: None
    else:
        tracer = spans.Tracer()
        spans.add_counter_hooks(tracer)
        on, off = tracer.install, tracer.uninstall

    def before(i, op):
        twin(i, op, True)
        on()

    def after(i, op):
        off()
        twin(i, op, False)

    run = timed_loop(wl, corpus, lambda op: wl.execute_traced(op, folder),
                     seconds, min_ops, before=before, after=after)
    if tracer is None:
        tracer = spans.merge(p["spans"] for _, p in run.parts)
    else:
        tracer.dump(folder / "run.spans")
    stdout = sum(p["stdout"] for _, p in run.parts if "stdout" in p)
    alloc_mb = 0.0
    if tracer.witness_call is not None:
        from spinnerlab import lottery
        tracemalloc.start()
        lottery.archimedean_regularity_witness(*tracer.witness_call[1])
        alloc_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
    metrics = per_layer(tracer, len(run.latencies), run.busy_s,
                        sum(untraced), setup, stdout, alloc_mb)
    print(f"workload {wl.name}  seed {seed}  traced, spans in "
          f"{folder.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for problem in run.problems[:10]:
        print(f"  FAILED: {problem}")
    return run, metrics


# -- entry points --------------------------------------------------------------------------

def run_one(name, seed, seconds, trace, tiny=False):
    import workloads
    wl = workloads.WORKLOADS[name]
    half = 1 if tiny else SETUP_REPEATS // 2
    setup = setup_samples(name, seed, tiny, half)
    corpus = wl.build(seed, tiny)
    min_ops = len(corpus.ops) if tiny else 1
    if trace:
        run, metrics = traced(wl, corpus, seconds, min_ops, seed, setup)
    else:
        run = timed_loop(wl, corpus, wl.execute, seconds, min_ops)
        # the other half after the loop, so that one slow moment of the
        # machine sways the median less
        setup += setup_samples(name, seed, tiny, half)
        e2e = end_to_end(wl, run, setup)
        report(wl, corpus, run, seed, named_metrics(wl, corpus, run, e2e))
        metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    if any(s["digest"] != corpus.digest() for s in setup):
        run.failed += 1
        run.problems.append("set-up processes generated other inputs")
    notes, bad = wl.probe(corpus)
    for line in notes + [f"FAILED probe: {b}" for b in bad]:
        print(f"  {line}")
    run.failed += len(bad)
    run.problems += bad
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def self_check() -> int:
    """Every workload, tiny, untraced and traced; metric names must match
    BENCHMARK.json."""
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in workloads.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_one(name, 0, 0, trace, tiny=True)
            expected = {m["name"]: m["unit"] for m in listed}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            good = result["correct"] and got == expected
            ok &= good
            print(f"self-check {name} trace={trace}: "
                  f"{'ok' if good else 'FAILED'}", flush=True)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "spinnerlab" / "__init__.py").is_file():
        print(f"error: no spinnerlab sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spinnerlab
    if Path(spinnerlab.__file__).resolve().parent != ROOT / "src" / "spinnerlab":
        print(f"error: imported spinnerlab from {spinnerlab.__file__}, not "
              f"from this checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    import workloads
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
