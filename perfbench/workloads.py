"""The benchmark's five workloads: seeded inputs, one timed operation each,
and the correctness checks run on the outputs outside the timed region.

Every workload is closed-loop with one client: the next operation starts
only after the previous one returned.  Inputs come from ``--seed`` alone and
are generated here, never by spinnerlab's own samplers, so a later change to
the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent

from spinnerlab import cli, field, query, spinner, suites  # noqa: E402
from spinnerlab.errors import DomainError, ParseError, QueryTypeError  # noqa: E402

USER_ERRORS = (ParseError, QueryTypeError, DomainError)

# Python refuses to render an int of more than 4300 decimal digits:
# P(allheads>j) renders up to this drop count and raises past it.
LAST_RENDERABLE_DROP = 14284
DIGIT_LIMIT_DEFECT = ("coin-render-digit-limit: P(allheads>j) and coin-flip "
                      "ratios render 2^j with more than 4300 digits, which "
                      "Python's int->str limit turns into a ValueError "
                      "traceback")


@dataclass(frozen=True)
class Failure:
    """An operation that raised instead of returning."""

    kind: str
    message: str

    def __str__(self):
        return f"{self.kind}: {self.message[:200]}"


@dataclass
class Corpus:
    """The generated inputs of one run: ``ops`` are timed one at a time;
    ``probes`` run once, outside the timed loop (see ``Workload.probe``)."""

    ops: list
    text: str  # canonical text of every input, for the input hash
    probes: tuple = ()

    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


class Workload:
    """What the harness asks of a workload, with the in-process defaults.

    ``build(seed, tiny)`` makes the inputs; ``execute(op)`` runs one timed
    operation and returns ``(output, units of work, parts)``, where ``parts``
    is a dict of side readings or None; ``check(corpus, outputs)`` lists the
    failed checks.
    """

    # True when each operation is its own process, which runs the shim itself
    traces_in_children = False

    def execute_traced(self, op, folder):
        """``execute`` for the traced run; ``folder`` receives span files."""
        return self.execute(op)

    def probe(self, corpus):
        """Run ``corpus.probes``, inputs that reach a known defect, once.

        Returns (lines that say whether the defect still shows, failed
        checks).  The timed loop holds no such input, so no timed operation
        fails.
        """
        return [], []

    def peak_rss_kb(self, run) -> int:
        return run.peak_rss_kb  # the measuring process itself

    def named(self, corpus, run, e2e) -> dict:
        """Metrics under the names this workload's users know:
        name -> (value, unit)."""
        return {}


def _rational(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den - 1), den)


# -- suite -------------------------------------------------------------------------

class Suite(Workload):
    name = "suite"
    why = ("the verifier users run: every registered suite at the default "
           "config, dominated by the 10^6-point overflow witness")
    # SuiteConfig defaults; the case counts below follow from them
    cases, max_grid_size = 200, 24

    def build(self, seed: int, tiny: bool) -> Corpus:
        cfg = {"seed": seed}
        if tiny:
            cfg.update(cases=10, max_grid_size=4)
        return Corpus([cfg], json.dumps(cfg, sort_keys=True))

    def execute(self, cfg):
        results = suites.run_all(spinner.SuiteConfig(**cfg))
        return [(r["suite"], r["verdict"], r["cases"]) for r in results], 1, None

    def execute_traced(self, cfg, folder):
        """The same work as ``execute`` with one call per suite, so the
        traced run times each suite on its own."""
        config = spinner.SuiteConfig(**cfg)
        reports = list(spinner.run_property_suite(spinner.GridModel(), config))
        for fn in (suites.cantor_coherence_suite, suites.sigma_probe_suite,
                   suites.stabilizer_suite, suites.witness_suite):
            reports.append(fn(config))
        return [(r.name, r.verdict, r.cases) for r in reports], 1, None

    def named(self, corpus, run, e2e):
        return {"suite_s": (e2e["p50_ms"] / 1e3, "s")}

    def check(self, corpus, outputs):
        cfg = corpus.ops[0]
        cases = cfg.get("cases", self.cases)
        grid = cfg.get("max_grid_size", self.max_grid_size)
        expected = [cases] * 6 + [15 * 15 + cases, 21, grid + max(10, cases // 4), 6]
        bad = []
        for rows in outputs.values():
            if isinstance(rows, Failure):
                continue
            if [c for _, _, c in rows] != expected:
                bad.append(f"case counts {[c for _, _, c in rows]}, expected {expected}")
            bad.extend(f"{name}: verdict {v}" for name, v, _ in rows if v != "pass")
        return bad


# -- query_mix ---------------------------------------------------------------------

def _interval_set(rng, k: int, max_den: int = 97):
    """k disjoint, non-touching components; about one in ten is a point."""
    ends = set()
    while len(ends) < 2 * k:
        ends.add(_rational(rng, max_den))
    ends = sorted(ends)
    comps, parts = [], []
    for i in range(k):
        a, b = ends[2 * i], ends[2 * i + 1]
        if rng.random() < 0.1:
            comps.append((a, a))
            parts.append(f"{{{a}}}")
        else:
            comps.append((a, b))
            parts.append(rng.choice("[(") + f"{a},{b}" + rng.choice(")]"))
    return comps, " u ".join(parts)


def _addresses(rng, k: int, lo: int, hi: int):
    out = set()
    while len(out) < k:
        out.add("".join(rng.choices("02", k=rng.randint(lo, hi))))
    return sorted(out)


def _drop(rng) -> int:
    # log-uniform over 0..LAST_RENDERABLE_DROP
    return int(2 ** rng.uniform(0, math.log2(LAST_RENDERABLE_DROP + 1))) - 1


class QueryMix(Workload):
    name = "query_mix"
    why = ("in-process parse+evaluate across all five models; sets of 1, 8 "
           "and 64 components put p50 on small sets and p99 on large ones")
    # (group kind, set size, groups per block): fixed shares, so every seed
    # gives the same mix and only the contents change.  The shares are fitted
    # to the profile this workload is meant to reproduce: `query` 26%,
    # `intervals` 15% and `field` 3% of self time, with self time as
    # cProfile's tottime per source file (stdlib `fractions` and builtins
    # take the rest).  Two constraints come first: more than 1% of the
    # queries are 64-component interval sets, so that p99 sits on them, and
    # 4% are user errors.  Those 64-component queries cost ~25 ms each, about
    # half the time, and parse little, so `query` reaches only ~15%;
    # `profile_mix.py` prints the split.
    RECIPE = [("interval", 1, 12), ("interval", 8, 8), ("interval", 64, 1),
              ("conditional", 1, 12), ("conditional", 8, 2),
              ("complement", 8, 4), ("compare", 8, 2),
              ("cantor", 1, 8), ("cantor", 8, 12), ("cantor", 64, 16),
              ("coin", 0, 12), ("lottery", 0, 6), ("error", 0, 12)]
    BLOCKS, TINY_BLOCKS = 6, 1

    def build(self, seed: int, tiny: bool) -> Corpus:
        rng = random.Random(f"query_mix:{seed}")
        groups = []
        for _ in range(self.TINY_BLOCKS if tiny else self.BLOCKS):
            for kind, k, count in self.RECIPE:
                for _ in range(count):
                    groups.append(getattr(self, "_" + kind)(rng, k))
        rng.shuffle(groups)
        ops = []
        for group in groups:
            base = len(ops)
            for text, expects in group:
                ops.append((text, [(e[0], base + e[1]) if e[0] in ("same", "st_is")
                                   else e for e in expects]))
        probes = self._digit_limit_probes(rng)
        return Corpus(ops, "\n".join(text for text, _ in ops + probes),
                      tuple(probes))

    # each group is a list of (query, expectations); ("same", i) and
    # ("st_is", i) refer to the i-th query of the same group

    def _interval(self, rng, k):
        comps, a = _interval_set(rng, k)
        q = _rational(rng, 97)
        ln = str(oracles.length(comps))
        return [(f"minimal: P({a})", [("value", ln)]),
                (f"grid: P({a})", [("st", ln), ("st_is", 0)]),
                (f"grid: P(translate({a},{q}))", [("same", 1)]),
                (f"grid: st(P({a}))", [("value", ln)])]

    def _conditional(self, rng, k):
        ca, a = _interval_set(rng, k)
        while True:
            cb, b = _interval_set(rng, k)
            if oracles.length(cb) > 0:
                break
        ratio = str(oracles.overlap_length(ca, cb) / oracles.length(cb))
        return [(f"minimal: P({a} | {b})", [("value", ratio)]),
                (f"grid: P({a} | {b})", [("st", ratio), ("st_is", 0)])]

    def _complement(self, rng, k):
        comps, a = _interval_set(rng, k)
        rest = str(1 - oracles.length(comps))
        return [(f"minimal: P(compl({a}))", [("value", rest)]),
                (f"grid: P(compl({a}))", [("st", rest), ("st_is", 0)])]

    def _compare(self, rng, k):
        _, a = _interval_set(rng, k)
        q = _rational(rng, 97)
        return [(f"grid: compare(P({a}), P(translate({a},{q})))",
                 [("value", "Equal (ratio 1)")])]

    def _cantor(self, rng, k):
        lo, hi = (4, 10) if k > 8 else (1, 8)
        e, f = _addresses(rng, k, lo, hi), _addresses(rng, k, lo, hi)
        es, fs = ", ".join(e), ", ".join(f)
        m = oracles.cylinder_measure(e)
        cond = oracles.cylinder_overlap(e, f) / oracles.cylinder_measure(f)
        return [(f"cantor: P({{{es}}})", [("value", str(m))]),
                (f"cantor: P(compl({{{es}}}))", [("value", str(1 - m))]),
                (f"cantor: P({{{es}}} | {{{fs}}})", [("value", str(cond))])]

    def _coin(self, rng, k):
        j, i = _drop(rng), _drop(rng)
        pins = sorted(rng.sample(range(1, 40), rng.randint(1, 6)))
        pin = ",".join(f"{p}:{rng.choice('HT')}" for p in pins)
        ordering = "Less" if i < j else "Greater" if i > j else "Equal"
        return [(f"coinflip: P(allheads>{j})", [("pow2h", j)]),
                (f"coinflip: compare(P(allheads>{i}), P(allheads>{j}))",
                 [("pow2ratio", (ordering, i - j))]),
                (f"coinflip: P(pin({pin}))",
                 [("value", str(Fraction(1, 2 ** len(pins))))]),
                (f"coinflip: st(P(allheads>{j}))", [("value", "0")])]

    @staticmethod
    def _digit_limit_probes(rng):
        """Coin queries past LAST_RENDERABLE_DROP: each run tries them once,
        so the known defect shows without failing timed operations."""
        j = rng.randint(LAST_RENDERABLE_DROP + 1, 18800)
        i = rng.randint(0, j - LAST_RENDERABLE_DROP - 1)  # 2^(j-i) too long
        return [(f"coinflip: P(allheads>{j})", [("pow2h", j)]),
                (f"coinflip: compare(P(allheads>{i}), P(allheads>{j}))",
                 [("pow2ratio", ("Less", i - j))])]

    def _lottery(self, rng, k):
        n = rng.randint(2, 10 ** 6)
        return [(f"lottery: P(tickets({n}))", [("value", f"{n}*delta")]),
                ("lottery: P(ticket)", [("value", "delta")])]

    def _error(self, rng, k):
        comps, a = _interval_set(rng, rng.choice((1, 8)))
        x = _rational(rng, 97)
        addr = "".join(rng.choice("02") for _ in range(rng.randint(2, 6)))
        return [rng.choice([
            (f"minimal: P({a}", [("error", "ParseError")]),
            ("uniform: P(full)", [("error", "ParseError")]),
            (f"grid: P({{{addr}}})", [("error", "QueryTypeError")]),
            (f"cantor: P(translate({{{addr}}},{x}))", [("error", "QueryTypeError")]),
            ("coinflip: P(allheads u allheads>3)", [("error", "QueryTypeError")]),
            (f"minimal: P({a} | {{{x}}})", [("error", "DomainError")]),
            (f"grid: P({a} | ({x},{x}))", [("error", "DomainError")]),
        ])]

    def execute(self, op):
        try:
            result = query.evaluate(query.parse_query(op[0]))
        except USER_ERRORS as exc:
            return ("user-error", type(exc).__name__), 1, None
        return ("ok", tuple(result.lines())), 1, None

    def named(self, corpus, run, e2e):
        return {"query_qps": (e2e["ops_per_s"], "1/s"),
                "query_p50_us": (e2e["p50_ms"] * 1e3, "us"),
                "query_p99_us": (e2e["p99_ms"] * 1e3, "us")}

    def probe(self, corpus):
        reproduced, bad = 0, []
        for text, expects in corpus.probes:
            try:
                out = self.execute((text, expects))[0]
            except Exception as exc:  # a check failure unless the known defect
                if (isinstance(exc, ValueError)
                        and "integer string conversion" in str(exc)):
                    reproduced += 1
                else:
                    bad.append(f"{text!r}: {Failure(type(exc).__name__, str(exc))}")
                continue
            bad += [f"{text!r}: expected {kind} {arg!r}, got {out!r}"
                    for kind, arg in expects
                    if not self._holds(kind, arg, out, {})]
        return [f"known defect, reproduced by {reproduced} of "
                f"{len(corpus.probes)} probes run once outside the timed "
                f"loop: {DIGIT_LIMIT_DEFECT}"], bad

    def check(self, corpus, outputs):
        bad = []
        for i, out in outputs.items():
            if isinstance(out, Failure):
                continue  # counted as failed where it ran
            text, expects = corpus.ops[i]
            for kind, arg in expects:
                if not self._holds(kind, arg, out, outputs):
                    bad.append(f"{text!r}: expected {kind} {arg!r}, got {out!r}")
        return bad

    @staticmethod
    def _holds(kind, arg, out, outputs) -> bool:
        if kind == "error":
            return out == ("user-error", arg)
        if out[0] != "ok":
            return False
        lines = out[1]
        if kind == "value":
            return lines[0] == f"value: {arg}"
        if kind == "st":
            return f"standard_part: {arg}" in lines
        if kind == "same":
            return outputs.get(arg, out) == out
        if kind == "st_is":
            other = outputs.get(arg)
            return (other is None or other[0] != "ok"
                    or f"standard_part: {other[1][0][len('value: '):]}" in lines)
        if kind == "pow2h":
            return lines[0] == "value: h" if arg == 0 else (
                lines[0].endswith("*h")
                and _is_pow2_text(lines[0][len("value: "):-2], arg))
        if kind == "pow2ratio":
            ordering, d = arg
            head = f"value: {ordering} (ratio "
            if not (lines[0].startswith(head) and lines[0].endswith(")")):
                return False
            ratio = lines[0][len(head):-1]
            if d >= 0:
                return _is_pow2_text(ratio, d)
            return ratio.startswith("1/") and _is_pow2_text(ratio[2:], -d)
        raise ValueError(f"unknown expectation {kind!r}")


def _is_pow2_text(s: str, e: int) -> bool:
    """True when s is the decimal text of 2^e, without building an int past
    Python's digit limit: short values exactly, long ones by length and
    their last 12 digits."""
    if e <= 4000:
        return s == str(2 ** e)
    return (s.isdigit() and len(s) == math.floor(e * math.log10(2)) + 1
            and int(s[-12:]) == pow(2, e, 10 ** 12))


# -- field_arith ----------------------------------------------------------------------

class FieldArith(Workload):
    name = "field_arith"
    why = ("chains of + * / compare standard_part on random values of degree "
           "1, 4 and 8; each degree takes about a third of the time")
    # chains per round, chosen so each degree took about the same time at
    # the commit that defined the benchmark
    ROUND = ((1, 17), (4, 6), (8, 1))
    ROUNDS, TINY_ROUNDS = 16, 1
    GENERATOR = field.Generator("g")

    def _poly(self, rng, degree):
        def coeff(nonzero):
            while True:
                c = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
                if c or not nonzero:
                    return c
        return ([coeff(True)] + [coeff(False) for _ in range(degree - 1)]
                + [coeff(True)] * (degree > 0))

    def build(self, seed: int, tiny: bool) -> Corpus:
        rng = random.Random(f"field_arith:{seed}")
        ops, text = [], []
        for _ in range(self.TINY_ROUNDS if tiny else self.ROUNDS):
            for degree, count in self.ROUND:
                for _ in range(count):
                    # nonzero constant terms: every operand is a unit of the
                    # valuation ring, so quotients stay limited
                    raw = [(self._poly(rng, degree), self._poly(rng, degree))
                           for _ in range(3)]
                    values = [field.NonArchValue(self.GENERATOR, field.Poly(n),
                                                 field.Poly(d)) for n, d in raw]
                    ops.append((degree, *values, raw))
                    text.append(repr(raw))
        return Corpus(ops, "\n".join(text))

    def execute(self, op):
        _, a, b, c, _ = op
        s = a + b
        p = a * b
        q = s / c
        return (s, p, q, p.compare(q), q.standard_part()), 5, None

    def named(self, corpus, run, e2e):
        out = {"field_ops_per_s": (e2e["ops_per_s"], "1/s")}
        for degree, _ in self.ROUND:
            ops = [i for i in run.best if corpus.ops[i][0] == degree]
            out[f"field_ops_per_s.degree{degree}"] = (
                sum(run.units[i] for i in ops) / sum(run.best[i] for i in ops),
                "1/s")
        return out

    def check(self, corpus, outputs):
        oracle = oracles.FieldOracle()
        signs = {"Less": -1, "Equal": 0, "Greater": 1}
        bad = []
        for i, out in outputs.items():
            if isinstance(out, Failure):
                continue
            raw = corpus.ops[i][4]
            a, b, c = (oracle.expr(n, d) for n, d in raw)
            s, p, q, order, st = out
            exp_s, exp_p = a + b, a * b
            exp_q = exp_s / c
            for label, got, expected in (("a+b", s, exp_s), ("a*b", p, exp_p),
                                         ("(a+b)/c", q, exp_q)):
                if oracle.canonical(expected) != (list(got.num.coeffs),
                                                  list(got.den.coeffs)):
                    bad.append(f"chain {i} {label}: not the canonical form "
                               f"{oracle.canonical(expected)}")
            if signs[str(order)] != oracle.sign(exp_p - exp_q):
                bad.append(f"chain {i}: compare gave {order}")
            if st != oracle.standard_part(exp_q):
                bad.append(f"chain {i}: standard part {st}")
        return bad


# -- certificates -------------------------------------------------------------------

def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Certificates(Workload):
    name = "certificates"
    why = ("stabilizer and overflow-witness commands whose cost grows with a "
           "proof parameter: grids of ~250-300 points and 1/eps near 10^5")
    ROUNDS, TINY_ROUNDS = 4, 2
    SYMMETRIES = (1, 2, 3, 4, 6)

    def build(self, seed: int, tiny: bool) -> Corpus:
        rng = random.Random(f"certificates:{seed}")
        ops = []
        for r in range(self.TINY_ROUNDS if tiny else self.ROUNDS):
            n = rng.randint(10, 14) if tiny else rng.randint(247, 253)
            k = self.SYMMETRIES[r % len(self.SYMMETRIES)]
            base = set()
            while len(base) < (24 if tiny else 300) // k:
                base.add(_rational(rng, 1000) / k)
            points = sorted(x + Fraction(j, k) for x in base for j in range(k))
            a = rng.randint(1, 9)
            m = rng.randint(1000, 1100) if tiny else rng.randint(100000, 104999)
            eps = [Fraction(a, a * m + rng.randint(0, a - 1)) for _ in range(2)]
            ops += [
                ("stabilizer", ["stabilizer", "--grid", f"uniform:{n}"],
                 [Fraction(i, n) for i in range(n)]),
                ("stabilizer", ["stabilizer", "--grid", ",".join(map(str, points))],
                 points),
                ("witness", ["witness", "--prop", "4.1", "--eps", str(eps[0])], eps[0]),
                ("witness", ["witness", "--prop", "4.2", "--eps", str(eps[1])], eps[1]),
            ]
        return Corpus(ops, "\n".join(" ".join(argv) for _, argv, _ in ops))

    def execute(self, command):
        code, out, err = _capture(command[1])
        return (code, out, err), 1, {"stdout": len(out.encode())}

    def named(self, corpus, run, e2e):
        return {f"{kind}_p50_ms": (statistics.median(
            t for i, t in run.best.items() if corpus.ops[i][0] == kind) * 1e3, "ms")
            for kind in ("stabilizer", "witness")}

    def check(self, corpus, outputs):
        bad = []
        for i, got in outputs.items():
            if isinstance(got, Failure):
                continue
            kind, argv, arg = corpus.ops[i]
            code, out, err = got
            label = " ".join(argv)[:60]
            if code != 0 or err:
                bad.append(f"{label}: exit {code}, stderr {err!r}")
                continue
            got = json.loads(out)
            problem = (self._check_stabilizer(arg, got) if kind == "stabilizer"
                       else self._check_witness(arg, argv[2], got))
            if problem:
                bad.append(f"{label}: {problem}")
        return bad

    @staticmethod
    def _check_stabilizer(points, got):
        order = oracles.stabilizer_order(points)
        if got["order"] != order:
            return f"order {got['order']}, expected {order}"
        rotation = Fraction(got["witness_rotation"])
        x, image = Fraction(got["witness_point"]), Fraction(got["witness_image"])
        grid = set(points)
        if not (rotation == Fraction(1, order + 1) and x in grid
                and image == (x + rotation) % 1 and image not in grid):
            return f"invalid off-grid witness {got}"
        return None

    @staticmethod
    def _check_witness(eps, prop, got):
        n = math.floor(1 / eps) + 1
        if got["n"] != n or Fraction(got["product"]) != n * eps or n * eps <= 1:
            return f"n={got['n']} product={got['product']}, expected n={n}"
        if prop == "4.2":
            pts = got.get("points", [])
            if len(pts) != n or len(set(pts)) != n:
                return "orbit points are not n distinct values"
        return None


# -- cli_cold -----------------------------------------------------------------------

class CliCold(Workload):
    name = "cli_cold"
    why = ("each golden query in a fresh python -m spinnerlab process: "
           "interpreter start and package import dominate")
    GOLDEN = ROOT / "tests" / "golden_queries.jsonl"

    def build(self, seed: int, tiny: bool) -> Corpus:
        with self.GOLDEN.open(encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        if tiny:
            entries = entries[::5]
        random.Random(f"cli_cold:{seed}").shuffle(entries)
        return Corpus(entries, "\n".join(json.dumps(e, sort_keys=True)
                                         for e in entries))

    traces_in_children = True

    def execute(self, entry):
        return self._child([sys.executable, "-m", "spinnerlab", *entry["argv"]])

    def execute_traced(self, entry, folder):
        """The same CLI call through ``child.py cli``, which installs the span
        shim in the child; its per-name totals come back in ``parts``."""
        k = len(list(folder.glob("child-*.json")))
        summary = folder / f"child-{k}.json"
        out, units, parts = self._child(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), "cli",
             str(summary), str(folder / f"child-{k}.spans"), *entry["argv"]])
        parts["spans"] = json.loads(summary.read_text())
        return out, units, parts

    @staticmethod
    def _child(cmd):
        rusage, code, out, err = run_child(cmd)
        return (code, out, err), 1, {"maxrss_kb": rusage.ru_maxrss,
                                     "stdout": len(out.encode())}

    def peak_rss_kb(self, run):
        return max(p["maxrss_kb"] for _, p in run.parts)  # the largest child

    def named(self, corpus, run, e2e):
        return {"cli_p50_ms": (e2e["p50_ms"], "ms")}

    def check(self, corpus, outputs):
        bad = []
        for i, got in outputs.items():
            if isinstance(got, Failure):
                continue
            e = corpus.ops[i]
            if got != (e["exit"], e["stdout"], e["stderr"]):
                bad.append(f"{e['argv']}: got {got!r}")
        return bad


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPINNERLAB_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd, env=None):
    """Run a process to completion; returns (rusage, exit code, stdout, stderr).

    os.wait4 reaps the child itself, so its own peak RSS is known."""
    with tempfile.TemporaryFile(dir=ROOT) as out, \
            tempfile.TemporaryFile(dir=ROOT) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=env or child_env())
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (rusage, proc.returncode, out.read().decode(),
                err.read().decode())


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {w.name: w for w in (Suite(), QueryMix(), FieldArith(),
                                 Certificates(), CliCold())}
