"""Benchmark runner: measure the pinned workloads, write BENCH_*.json.

The JSON schema (version 1)::

    {
      "schema": 1,
      "kind": "kernel" | "experiments",
      "git_sha": "<commit the numbers were measured at>",
      "machine": {"python": ..., "platform": ..., "cpu_count": ...},
      "repeats": 3,
      "results": [{"name": "<workload>@heap",
                   "workload": ...,
                   "events_per_sec" | "wall_s": ...}, ...],
      "baseline": {           # optional: what compare.py diffs against
        "label": "...",
        "results": {"<name>": <events_per_sec | wall_s>, ...}
      }
    }

Per-workload numbers are the best of ``repeats`` runs (max events/sec,
min wall-clock) — perf measurements are one-sided-noise: interference
only ever makes a run slower, so the best run is the least-noisy
estimate of the machine's capability.

CLI::

    python -m repro.perf.bench --kind kernel --out BENCH_kernel.json
    python -m repro.perf.bench --kind experiments --out BENCH_experiments.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from .workloads import (
    EXPERIMENT_WORKLOADS,
    KERNEL_WORKLOADS,
    run_experiment_workload,
    run_kernel_workload,
)

SCHEMA_VERSION = 1


def machine_info() -> Dict[str, object]:
    """Enough machine context to judge whether two snapshots are comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def git_sha() -> str:
    """Current commit, or 'unknown' outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def run_kernel_suite(
    repeats: int = 3,
    duration_scale: float = 1.0,
    workloads: Optional[Sequence[str]] = None,
) -> List[Dict[str, float]]:
    """Best-of-``repeats`` events/sec for every pinned kernel workload.

    One row per workload.  Repeats interleave across workloads so
    machine noise spreads evenly instead of biasing whichever ran last.
    ``workloads`` filters the suite to the named subset (unknown names
    raise, so a CI filter cannot silently measure nothing).
    """
    if workloads is not None:
        wanted = set(workloads)
        known = {w.name for w in KERNEL_WORKLOADS}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown kernel workload(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        pool = [w for w in KERNEL_WORKLOADS if w.name in wanted]
    else:
        pool = list(KERNEL_WORKLOADS)
    best: Dict[int, Dict[str, float]] = {}
    for _ in range(max(repeats, 1)):
        for idx, workload in enumerate(pool):
            run = run_kernel_workload(workload, duration_scale)
            if (
                idx not in best
                or run["events_per_sec"] > best[idx]["events_per_sec"]
            ):
                best[idx] = run
    return [best[idx] for idx in range(len(pool))]


def run_experiment_suite(
    repeats: int = 1,
    duration_scale: float = 1.0,
) -> List[Dict[str, float]]:
    """Best-of-``repeats`` wall-clock for every pinned experiment cell."""
    cells = list(EXPERIMENT_WORKLOADS)
    best: Dict[int, Dict[str, float]] = {}
    for _ in range(max(repeats, 1)):
        for idx, workload in enumerate(cells):
            run = run_experiment_workload(workload, duration_scale)
            if idx not in best or run["wall_s"] < best[idx]["wall_s"]:
                best[idx] = run
    return [best[idx] for idx in range(len(cells))]


def build_payload(
    kind: str,
    results: List[Dict[str, float]],
    repeats: int,
    baseline: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "git_sha": git_sha(),
        "machine": machine_info(),
        "repeats": repeats,
        "results": results,
    }
    if baseline is not None:
        payload["baseline"] = baseline
    return payload


def write_bench(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=False)
        fh.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Measure the pinned perf workloads and write a snapshot.",
    )
    parser.add_argument(
        "--kind", choices=("kernel", "experiments"), default="kernel"
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--duration-scale",
        type=float,
        default=1.0,
        help="shrink simulated durations (smoke runs; not baseline-comparable)",
    )
    parser.add_argument(
        "--keep-baseline",
        metavar="PATH",
        default=None,
        help="carry the 'baseline' block over from an existing snapshot",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help=(
            "comma-separated workload names to measure (kernel kind "
            "only; default: all pinned workloads).  Unknown names are "
            "an error."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI smoke mode: 1 repeat, 10%% simulated durations — NOT "
            "comparable against committed baselines"
        ),
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = 1
        args.duration_scale = min(args.duration_scale, 0.1)
        print(
            "--quick: 1 repeat, duration scale "
            f"{args.duration_scale} (not baseline-comparable)"
        )

    workload_filter = None
    if args.workloads:
        workload_filter = [w for w in args.workloads.split(",") if w.strip()]

    if args.kind == "kernel":
        results = run_kernel_suite(
            args.repeats,
            args.duration_scale,
            workloads=workload_filter,
        )
        metric = "events_per_sec"
    else:
        results = run_experiment_suite(args.repeats, args.duration_scale)
        metric = "wall_s"

    baseline = None
    if args.keep_baseline:
        with open(args.keep_baseline) as fh:
            baseline = json.load(fh).get("baseline")

    payload = build_payload(args.kind, results, args.repeats, baseline)
    for row in results:
        print(f"{row['name']:32s} {metric} = {row[metric]:,.1f}")
    if args.out:
        write_bench(args.out, payload)
        print(f"snapshot written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
