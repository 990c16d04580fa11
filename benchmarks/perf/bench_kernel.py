#!/usr/bin/env python
"""Regenerate BENCH_kernel.json at the repo root (run from the repo root).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_kernel.py [--repeats N]
    PYTHONPATH=src python benchmarks/perf/bench_kernel.py --quick

Keeps the existing snapshot's ``baseline`` block (the pre-fast-path seed
numbers) so the history of the speedup stays in the committed file.

``--quick`` is the CI smoke mode: 1 repeat, 10% simulated durations,
lead backend only.  Quick numbers are *not* baseline-comparable, so the
snapshot on disk is left untouched — the run only proves the suite still
executes and prints the measured rows (including the ``+compiled``
variant row when the mypyc core is built).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.perf.bench import main  # noqa: E402

if __name__ == "__main__":
    argv = ["--kind", "kernel"]
    if "--quick" not in sys.argv[1:]:
        # A full run refreshes the committed snapshot; quick runs must
        # never overwrite it with non-comparable numbers.
        out = "BENCH_kernel.json"
        argv += ["--out", out]
        if os.path.exists(out):
            argv += ["--keep-baseline", out]
    sys.exit(main(argv + sys.argv[1:]))
