"""Perf-regression gate: fresh measurement vs committed snapshot.

Loads a committed ``BENCH_*.json``, re-runs the same pinned workloads,
and exits non-zero when any workload's throughput regressed more than
the threshold (default 15%).  "Throughput" is events/sec for kernel
snapshots and 1/wall-clock for experiment snapshots, so the threshold
means the same thing for both kinds.

CLI::

    python -m repro.perf.compare BENCH_kernel.json
    python -m repro.perf.compare BENCH_experiments.json --threshold 0.20
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .bench import run_experiment_suite, run_kernel_suite

DEFAULT_THRESHOLD = 0.15


def _canonical(name: str) -> str:
    """Row key: bare pre-backend names alias to the adaptive default."""
    return name if "@" in name else f"{name}@adaptive"


def _throughputs(kind: str, results: List[Dict[str, float]]) -> Dict[str, float]:
    """canonical name -> higher-is-better throughput for either kind."""
    if kind == "kernel":
        return {
            _canonical(r["name"]): float(r["events_per_sec"]) for r in results
        }
    return {
        _canonical(r["name"]): (
            1.0 / float(r["wall_s"]) if r["wall_s"] > 0 else 0.0
        )
        for r in results
    }


def compare_results(
    kind: str,
    committed: List[Dict[str, float]],
    fresh: List[Dict[str, float]],
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[str], List[str]]:
    """Return (report_lines, regressions) for fresh vs committed runs.

    A workload present in only one side is reported but never fails the
    gate (renames and newly added workloads need a baseline
    regeneration, not a red build).  A committed row with zero/negative
    throughput is likewise warn-and-skip: there is no meaningful ratio
    to gate on.
    """
    old = _throughputs(kind, committed)
    new = _throughputs(kind, fresh)
    report: List[str] = []
    regressions: List[str] = []
    for name in old:
        if name not in new:
            report.append(f"{name}: missing from fresh run (skipped)")
            continue
        if old[name] <= 0:
            report.append(
                f"{name}: committed throughput is zero (skipped)"
            )
            continue
        ratio = new[name] / old[name]
        line = f"{name}: {ratio:6.2%} of committed throughput"
        if ratio < 1.0 - threshold:
            regressions.append(
                f"{name} regressed to {ratio:.2%} of the committed snapshot "
                f"(threshold {1.0 - threshold:.0%})"
            )
            line += "  <-- REGRESSION"
        report.append(line)
    for name in new:
        if name not in old:
            report.append(f"{name}: new workload, no committed number")
    return report, regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.compare",
        description="Fail when current perf regresses vs a committed snapshot.",
    )
    parser.add_argument("snapshot", help="committed BENCH_*.json to compare against")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown (default 0.15)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    with open(args.snapshot) as fh:
        snapshot = json.load(fh)
    kind = snapshot.get("kind", "kernel")
    committed = snapshot["results"]

    if kind == "kernel":
        fresh = run_kernel_suite(repeats=args.repeats)
    else:
        fresh = run_experiment_suite(repeats=args.repeats)

    report, regressions = compare_results(
        kind, committed, fresh, args.threshold
    )
    print(f"comparing against {args.snapshot} (kind={kind}, "
          f"measured at {snapshot.get('git_sha', 'unknown')[:12]})")
    for line in report:
        print("  " + line)
    if regressions:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for line in regressions:
            print("  " + line, file=sys.stderr)
        return 1
    print("no regression beyond threshold")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
