"""Fresh-interpreter helpers that perfbench/run.py starts.

    child.py setup WORKLOAD SEED TINY
        Import spinnerlab, build the workload's inputs, print one JSON line
        with the clock readings (t0 = first line of this script).
    child.py cli SUMMARY SPANS ARG...
        Run spinnerlab's CLI on ARG... with the span shim installed, as
        ``python -m spinnerlab ARG...`` would; write the per-name totals to
        SUMMARY and the spans to SPANS.

time.perf_counter reads CLOCK_MONOTONIC, which all processes share, so the
parent subtracts its own readings from these.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(name, seed, tiny):
    import spinnerlab.cli  # noqa: F401  (imports every layer)
    import spinnerlab.suites  # noqa: F401
    t_import = time.perf_counter()
    import workloads
    corpus = workloads.WORKLOADS[name].build(int(seed), tiny == "1")
    print(json.dumps({"t0": T0, "t_import": t_import,
                      "t_built": time.perf_counter(),
                      "digest": corpus.digest()}))
    return 0


def cli(summary_path, spans_path, *argv):
    import spans
    from spinnerlab import cli as cli_mod
    tracer = spans.Tracer()
    spans.add_counter_hooks(tracer)
    tracer.install()
    try:
        return cli_mod.main(list(argv))
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "cli": cli}[mode](*rest))
