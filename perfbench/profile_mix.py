#!/usr/bin/env python3
"""Self time per source file over one pass of a workload's inputs, as
cProfile's tottime counts it: spinnerlab's modules by name, everything else
(stdlib ``fractions``, builtins, the benchmark) as ``other``.

    python3 perfbench/profile_mix.py --workload query_mix --seed 1

This is the attribution the query_mix recipe is fitted to.  The traced run
(``run.py --trace 1``) attributes differently: a span's self time includes
the Fraction arithmetic and builtins it calls, so ``intervals.self_s`` there
holds what this script splits between ``intervals`` and ``other``.
"""

import argparse
import cProfile
import pstats
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="query_mix")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.build(args.seed, False).ops

    def one_pass():
        for op in ops:
            try:
                wl.execute(op)
            except Exception:  # failures are the timed runs' business
                pass

    one_pass()  # warm caches, as the timed loop's later passes are
    profile = cProfile.Profile()
    profile.runcall(one_pass)
    by_file = Counter()
    for (path, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        module = Path(path).stem
        inside = Path(path).parent.name == "spinnerlab"
        by_file[module if inside and module in spans.LAYERS else "other"] += tottime
    total = sum(by_file.values())
    for module, seconds in by_file.most_common():
        print(f"{module:10s} {seconds / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
