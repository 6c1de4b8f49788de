"""Registry and runner for the verification suites.

Ten suites report in a fixed registration order: the six spinner property
checks, the cylinder coherence sweep, the sigma-additivity probe of the
minimal model, the finite-grid stabilizer sweep, and the point-mass
overflow witnesses.  Each produces one JSON-ready dict in the schema
{suite, verdict, cases, counterexamples, witnesses, duration_ms}.

``run_all`` runs them in parallel lanes, one per usable CPU
(``os.sched_getaffinity``) and at most one per suite.  The registry
indices go into one pipe, one byte each, longest suite first; the calling
process and ``lanes - 1`` forked children each pull the next index until
the pipe is empty.  So the load balances as it runs, and the lanes end on
short suites: a lane that the machine slows holds up the last report by
a short suite's time.  A lane stops at a suite that raises.  A child
sends its reports back as one JSON object over its own pipe and leaves by
``os._exit``.  The caller reads and reaps every child, and then runs every
suite that no lane reported (it raised, its child died or could not be
forked) itself, in registry order, so an exception surfaces as a serial
run raises it.  There is one lane where ``fork`` or ``sched_getaffinity``
is missing, and where the caller has another thread alive.  Every suite
seeds its own generator from (seed, label), so the reports do not depend
on the number of lanes; ``duration_ms`` is each suite's own wall time.
"""

from __future__ import annotations

import json
import os
import threading
import time
from fractions import Fraction
from itertools import product

from . import cantor as cantor_mod
from . import lottery as lottery_mod
from .cantor import CantorEvent, CantorModel
from .errors import DomainError
from .intervals import IntervalSet, dyadic_tail_family, sigma_additivity_probe
from .report import PropertyReport
from .spinner import (FiniteGrid, GridModel, SuiteConfig, check_digits,
                      finite_grid_stabilizer, property_checks)
from . import sampling

WITNESS_MASSES = (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10 ** 6))


def _rand_cantor_event(rng, max_cylinders: int, max_depth: int,
                       nonempty: bool) -> CantorEvent:
    count = rng.randint(1 if nonempty else 0, max_cylinders)
    addresses = []
    for _ in range(count):
        depth = rng.randint(1, max_depth)
        addresses.append("".join(rng.choice("02") for _ in range(depth)))
    return CantorEvent(addresses)


def cantor_coherence_suite(config: SuiteConfig) -> PropertyReport:
    """Exhaustive single-cylinder pairs at small depth plus sampled unions."""
    model = CantorModel()
    rng = config.rng("cantor-coherence")
    counterexamples: list[str] = []
    cases = 0
    singles = [""] + ["".join(addr) for d in range(1, 4)
                      for addr in product("02", repeat=d)]
    for a in singles:
        for b in singles:
            cases += 1
            rep = cantor_mod.coherence_check(model, CantorEvent((a,)),
                                             CantorEvent((b,)))
            counterexamples.extend(rep.counterexamples)
    for _ in range(config.cases):
        cases += 1
        a = _rand_cantor_event(rng, 4, 6, nonempty=False)
        b = _rand_cantor_event(rng, 4, 6, nonempty=True)
        rep = cantor_mod.coherence_check(model, a, b)
        counterexamples.extend(rep.counterexamples)
    witnesses = ["conditional counting probability equals the measure ratio "
                 "on every checked pair"] + config.coverage_warnings()
    return PropertyReport.from_checks(
        "cantor-conditional-coherence", cases, counterexamples, witnesses)


def sigma_probe_suite(config: SuiteConfig) -> PropertyReport:
    return sigma_additivity_probe(dyadic_tail_family, 20, IntervalSet.full())


def stabilizer_suite(config: SuiteConfig) -> PropertyReport:
    rng = config.rng("stabilizer")
    counterexamples: list[str] = []
    cases = 0

    def check(grid: FiniteGrid, label: str, expect_order=None):
        nonlocal cases
        cases += 1
        res = finite_grid_stabilizer(grid)
        if expect_order is not None and res.order != expect_order:
            counterexamples.append(f"{label}: order {res.order}, "
                                   f"expected {expect_order}")
        if res.order > len(grid.points):
            counterexamples.append(f"{label}: order exceeds grid size")
        pts = set(grid.points)
        valid = (res.witness_point in pts
                 and (res.witness_point + res.witness_rotation) % 1
                 == res.witness_image and res.witness_image not in pts)
        if not valid:
            counterexamples.append(f"{label}: invalid off-grid witness")

    for n in range(1, config.max_grid_size + 1):
        check(FiniteGrid.uniform(n), f"uniform n={n}", expect_order=n)
    for i in range(max(10, config.cases // 4)):
        pts = sampling.rand_grid_points(rng, 12, 40)
        check(FiniteGrid(tuple(pts)), f"random grid #{i} {pts}")
    witnesses = ["every stabilizer was cyclic with a valid off-grid "
                 "rotation witness"]
    return PropertyReport.from_checks(
        "finite-grid-stabilizer", cases, counterexamples, witnesses)


def witness_suite(config: SuiteConfig) -> PropertyReport:
    counterexamples: list[str] = []
    cases = 0
    for eps in WITNESS_MASSES:
        for mode in ("uniform_points", "rational_orbit"):
            cases += 1
            w = lottery_mod.archimedean_regularity_witness(eps, mode)
            if not (w.product > 1 and (w.n - 1) * eps <= 1):
                counterexamples.append(f"eps={eps} {mode}: bound failed "
                                       f"(n={w.n})")
            # k * rotation mod 1, k < n, are distinct iff its denominator >= n
            if mode == "rational_orbit" and w.rotation.denominator < w.n:
                counterexamples.append(f"eps={eps}: orbit points not distinct")
    witnesses = [f"n * eps exceeds total mass 1 with (n-1) * eps <= 1 "
                 f"for eps in {', '.join(str(e) for e in WITNESS_MASSES)}"]
    return PropertyReport.from_checks(
        "archimedean-overflow-witness", cases, counterexamples, witnesses)


def _timed(suite, config: SuiteConfig) -> dict:
    start = time.perf_counter()
    d = suite(config).to_dict()
    d["duration_ms"] = int((time.perf_counter() - start) * 1000)
    return d


def _lane(queue: int, registry: list, config: SuiteConfig) -> dict:
    """Run suites by the registry index read from ``queue``, one byte at a
    time, until it is empty or a suite raised; the reports by index of the
    suites that returned."""
    done = {}
    try:
        while index := os.read(queue, 1):
            done[index[0]] = _timed(registry[index[0]], config)
    except Exception:
        pass    # run_all runs the suite again in the caller, in order
    return done


def _lane_count(count: int) -> int:
    """One lane per usable CPU, at most one per suite.  One lane where
    there is no ``fork`` or ``sched_getaffinity``, and where another
    thread is alive: it may hold a lock that a forked child would wait on
    for ever."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def _run_lanes(registry: list, order: bytes, config: SuiteConfig,
               lanes: int) -> dict:
    """Reports by registry index of the suites that ``lanes`` lanes ran:
    this process and ``lanes - 1`` forked children pull the indices of
    ``order`` from one pipe.  A child that died reports nothing; every
    child is read and reaped before this returns or raises."""
    queue, feed = os.pipe()
    os.write(feed, order)
    os.close(feed)
    children = []   # (pid, read end of the child's report pipe)
    done = {}
    try:
        for _ in range(lanes - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                # a child lane leaves by _exit: no atexit handlers and no
                # flush of stdio buffers inherited from the parent
                status = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "w", encoding="utf-8") as out:
                        out.write(json.dumps(_lane(queue, registry, config)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r))
        done.update(_lane(queue, registry, config))
    finally:
        os.close(queue)
        for pid, r in children:
            with os.fdopen(r, "rb") as fh:
                data = fh.read()
            if os.waitpid(pid, 0)[1] == 0:
                done.update((int(i), d) for i, d in json.loads(data).items())
    return done


# the registry indices, longest suite first at the default config: half-open
# and count uniformity, cantor coherence, rotation, totality, length
# agreement, stabilizer, regularity, sigma probe, witnesses.  The lanes end
# on short suites, so a lane that runs slow holds up the last report by a
# short suite's time, not a long one's.
_LONGEST_FIRST = bytes((5, 2, 6, 4, 1, 3, 8, 0, 7, 9))


def run_all(config: SuiteConfig, corrupt: bool = False) -> list[dict]:
    """Run every registered suite; one dict per suite, registration order.

    The suites run in parallel lanes (see the module docstring), and the
    reports do not depend on how many.  ``duration_ms`` is each suite's
    own wall time.
    """
    registry = property_checks(GridModel(), corrupt) + [
        cantor_coherence_suite, sigma_probe_suite, stabilizer_suite,
        witness_suite]
    done = _run_lanes(registry, _LONGEST_FIRST, config,
                      _lane_count(len(registry)))
    # a suite no lane reported runs here, so its exception surfaces as is
    return [done[i] if i in done else _timed(suite, config)
            for i, suite in enumerate(registry)]


def all_passed(results: list[dict]) -> bool:
    return all(r["verdict"] != "fail" for r in results)


def run_suites(config_path: "str | None" = None,
               corrupt: bool = False) -> "tuple[int, list[dict]]":
    """Run every suite from a config file; returns (exit_code, reports).

    ``SPINNERLAB_SEED``, when set, overrides the configured seed; a value
    that is not an integer, or has more than 4300 digits, is a
    DomainError.  ``spinnerlab suite`` calls this.  Exit code 0 iff no
    suite failed.  An unreadable path propagates OSError so callers can
    map it to their own exit status.
    """
    config = SuiteConfig() if config_path is None \
        else SuiteConfig.from_file(config_path)
    seed = os.environ.get("SPINNERLAB_SEED")
    if seed is not None:
        check_digits(seed, "SPINNERLAB_SEED")
        try:
            config.seed = int(seed)
        except ValueError:
            raise DomainError(f"SPINNERLAB_SEED must be an integer, "
                              f"got {seed!r}") from None
    results = run_all(config, corrupt=corrupt)
    return (0 if all_passed(results) else 1), results
