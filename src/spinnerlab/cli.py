"""Command-line front end.

Subcommands:

    eval "<query>"                 evaluate one query
    compare "<query>" "<query>"    compare two query values exactly
    suite [--config FILE] [--json] run the verification suites
    witness --prop {4.1|4.2} --eps P/Q   point-mass overflow witness
    stabilizer --grid SPEC         rotation stabilizer of a finite grid

All numeric input and output is exact rationals "p/q"; no floating point
appears anywhere in the interface.  SPINNERLAB_SEED overrides the
configured suite seed.  Exit codes: 0 success, 1 failure or evaluation
error, 2 unreadable configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import DomainError, ParseError, QueryTypeError
from .lottery import archimedean_regularity_witness
from .field import TokenCursor, compare_values, parse_rational, render_exact
from .query import evaluate, evaluate_value, parse_query
from .spinner import (FiniteGrid, StabilizerResult, _stabilizer_result,
                      _uniform_pairs, finite_grid_stabilizer)
from . import suites

_USER_ERRORS = (ParseError, QueryTypeError, DomainError)


def _parse_fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise DomainError(f"expected an exact rational p/q: {exc}") from None


def _cmd_eval(args) -> int:
    result = evaluate(parse_query(args.query))
    for line in result.lines():
        print(line)
    return 0


def _cmd_compare(args) -> int:
    a = evaluate_value(parse_query(args.left))
    b = evaluate_value(parse_query(args.right))
    ordering, ratio, difference = compare_values(a, b)
    print(f"ordering: {ordering}")
    if ratio is not None:
        print(f"ratio: {render_exact(ratio)}")
    print(f"difference: {render_exact(difference)}")
    return 0


def _cmd_suite(args) -> int:
    try:
        code, results = suites.run_suites(args.config, args.corrupt_oracle)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.json:
        for r in results:
            print(json.dumps(r))
    else:
        for r in results:
            mark = "ok  " if r["verdict"] != "fail" else "FAIL"
            print(f"{mark} {r['suite']:40s} verdict={r['verdict']} "
                  f"cases={r['cases']}")
            for c in r["counterexamples"][:3]:
                print(f"     counterexample: {c}")
        print("all suites passed" if code == 0 else "suite failures detected")
    return code


def _cmd_witness(args) -> int:
    mode = "uniform_points" if args.prop == "4.1" else "rational_orbit"
    witness = archimedean_regularity_witness(_parse_fraction(args.eps), mode)
    sys.stdout.writelines(witness.json_chunks())
    print()
    return 0


def _grid_stabilizer(spec: str) -> StabilizerResult:
    """The stabilizer of the grid that ``spec`` names: uniform:N as its
    integer pairs, a point list through ``FiniteGrid``'s checks."""
    spec = spec.strip()
    if spec.startswith("uniform:"):
        try:
            cursor = TokenCursor(spec[len("uniform:"):], "-/")
            n = cursor.expect_nat()
            cursor.expect_end()
        except ParseError as exc:
            raise DomainError(f"uniform:N needs a natural number N: "
                              f"{exc}") from None
        return _stabilizer_result(_uniform_pairs(n))
    points = tuple(_parse_fraction(part)
                   for part in spec.split(",") if part.strip())
    if not points:
        raise DomainError("empty grid specification")
    return finite_grid_stabilizer(FiniteGrid(points))


def _cmd_stabilizer(args) -> int:
    print(json.dumps(_grid_stabilizer(args.grid).to_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinnerlab",
        description="Exact models of a fair spinner: interval-length, "
                    "hyperfinite grid, cylinder, coin-flip and lottery "
                    "probabilities, with verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a query")
    p.add_argument("query")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("compare", help="compare two query values")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("suite", help="run the verification suites")
    p.add_argument("--config", default=None, metavar="FILE")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per suite")
    p.add_argument("--corrupt-oracle", action="store_true",
                   help="test hook: skew one reference measure to force a "
                        "failure")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("witness",
                       help="point-mass overflow witness for a claimed "
                            "uniform real point mass")
    p.add_argument("--prop", choices=("4.1", "4.2"), required=True,
                   help="4.1: equal point masses; 4.2: rational-orbit form")
    p.add_argument("--eps", required=True, metavar="P/Q")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("stabilizer",
                       help="rotation stabilizer of a finite grid")
    p.add_argument("--grid", required=True,
                   help="comma-separated rationals, or uniform:N")
    p.set_defaults(fn=_cmd_stabilizer)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader exited early: point stdout at devnull so that the
        # flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
