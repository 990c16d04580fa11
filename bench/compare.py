#!/usr/bin/env python3
"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: both medians, the ratio B / A
(A is the base), and a verdict against the bound BENCHMARK.json fixes
for that metric:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — B's median is better than A's by more than the bound;
* ``same``       — within the bound either way;
* ``unresolved`` — the min-max spread of either side exceeds the bound,
  so the medians cannot carry a verdict.

Exits non-zero on any ``worse`` row or when B failed a larger share of
its flows than A.  Two runs of one commit are the A/A check: every row
must read ``same``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

from run import load_spec


def spread(row: dict) -> float:
    return (row["max"] - row["min"]) / abs(row["median"]) if row["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> Tuple[float, str]:
    """``(B/A ratio, verdict)`` for one metric on one workload."""
    ratio = b["median"] / a["median"] if a["median"] else float("nan")
    if spread(a) > bound or spread(b) > bound:
        return ratio, "unresolved"
    change = ratio - 1.0 if better == "higher" else 1.0 - ratio
    if change < -bound:
        return ratio, "worse"
    if change > bound:
        return ratio, "better"
    return ratio, "same"


def rows(a: dict, b: dict, spec: dict) -> Iterator[Tuple[str, dict, dict, dict, float, str]]:
    """``(workload, metric spec, A row, B row, ratio, verdict)`` per pairing."""
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            row_a = a["workloads"][workload]["end_to_end"][metric["name"]]
            row_b = b["workloads"][workload]["end_to_end"][metric["name"]]
            ratio, word = verdict(row_a, row_b, metric["better"], metric["bound"])
            yield workload, metric, row_a, row_b, ratio, word


def failed_share(results: dict) -> Dict[str, float]:
    return {
        name: block["failed"] / block["attempted"]
        for name, block in results["workloads"].items()
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec = load_spec()
    for side, results in zip("AB", (a, b)):
        info = results["manifest"]
        print(f"{side}: {info['git_sha']} dirty={info['git_dirty']} seed {info['seed']} "
              f"nproc {info['nproc']} comparable={info['comparable']}")
    print(f"\n{'workload':20s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    bad = 0
    for workload, metric, row_a, row_b, ratio, word in rows(a, b, spec):
        print(f"{workload:20s} {metric['name']:22s} {row_a['median']:12.6g} "
              f"{row_b['median']:12.6g} {ratio:8.4f} {metric['bound']:6.3f}  {word}")
        bad += word == "worse"
    shares_a, shares_b = failed_share(a), failed_share(b)
    for workload, share in shares_b.items():
        if share > shares_a[workload]:
            print(f"{workload}: failed-flow share rose {shares_a[workload]:.4f} -> {share:.4f}")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
