"""Benchmark runner: measure the pinned workloads, write BENCH_*.json.

The JSON schema (version 1)::

    {
      "schema": 1,
      "kind": "kernel" | "experiments",
      "git_sha": "<commit the numbers were measured at>",
      "machine": {"python": ..., "platform": ..., "cpu_count": ...},
      "repeats": 3,
      "results": [{"name": "<workload>@<scheduler>",
                   "workload": ..., "scheduler": ...,
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

#: The backend dimension measured by default: the opt-in adaptive policy
#: plus every pinned backend (``heap`` is what users get).  Rows are named
#: ``<workload>@<scheduler>`` so each (workload, backend) pair carries
#: its own baseline through the regression gate.
DEFAULT_SCHEDULERS = ("adaptive", "heap", "calendar", "wheel")


def default_variants() -> tuple:
    """Kernel-mode variants measured by default, on the lead backend only.

    ``unbatched`` always (the plain/unbatched ratio is the batching
    speedup); ``compiled`` only when the mypyc twin is actually built —
    an interpreted-fallback row would just duplicate the plain number.
    """
    variants = ["unbatched"]
    from ..sim.engine import load_core

    if load_core(True).COMPILED:
        variants.append("compiled")
    return tuple(variants)


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
    schedulers: Optional[Sequence[str]] = DEFAULT_SCHEDULERS,
    variants: Sequence[str] = (),
    workloads: Optional[Sequence[str]] = None,
) -> List[Dict[str, float]]:
    """Best-of-``repeats`` events/sec for every pinned kernel workload.

    One row per (workload, scheduler).  ``schedulers=None`` runs the
    session default backend only, with bare row names (the pre-backend
    snapshot format).  Repeats interleave across backends so machine
    noise spreads evenly instead of biasing whichever backend ran last.

    ``variants`` adds one extra row per (workload, variant) measured on
    the lead backend only (``<workload>@<lead>+<variant>``) — the
    kernel-mode dimension (unbatched / compiled) is backend-independent
    enough that the full cross product would only add noise surface.
    Each variant cell runs immediately after its workload's lead-backend
    plain cell: the pair is the comparison readers make, so it must not
    straddle minutes of machine drift.

    Workloads that declare ``lead_only`` (the sharded-fabric twins)
    measure on the lead backend only and skip the variant dimension:
    they compare against their serial/sharded twin, not across backends.
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
    sched_list = list(schedulers or (None,))
    cells: List[tuple] = []
    for workload in pool:
        lead_only = getattr(workload, "lead_only", False)
        for sched in sched_list:
            if lead_only and sched != sched_list[0]:
                continue
            cells.append((workload, sched, None))
            if sched == sched_list[0] and not lead_only:
                cells.extend(
                    (workload, sched, variant)
                    for variant in variants
                    if variant
                )
    best: Dict[int, Dict[str, float]] = {}
    for _ in range(max(repeats, 1)):
        for idx, (workload, sched, variant) in enumerate(cells):
            run = run_kernel_workload(
                workload, duration_scale, sched, variant
            )
            if (
                idx not in best
                or run["events_per_sec"] > best[idx]["events_per_sec"]
            ):
                best[idx] = run
    return [best[idx] for idx in range(len(cells))]


def run_experiment_suite(
    repeats: int = 1,
    duration_scale: float = 1.0,
    schedulers: Optional[Sequence[str]] = DEFAULT_SCHEDULERS,
) -> List[Dict[str, float]]:
    """Best-of-``repeats`` wall-clock for every pinned experiment cell."""
    cells = [
        (workload, sched)
        for workload in EXPERIMENT_WORKLOADS
        for sched in (schedulers or (None,))
    ]
    best: Dict[int, Dict[str, float]] = {}
    for _ in range(max(repeats, 1)):
        for idx, (workload, sched) in enumerate(cells):
            run = run_experiment_workload(workload, duration_scale, sched)
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
        "--schedulers",
        default=",".join(DEFAULT_SCHEDULERS),
        help=(
            "comma-separated backend list to measure "
            f"(default: {','.join(DEFAULT_SCHEDULERS)})"
        ),
    )
    parser.add_argument(
        "--variants",
        default="auto",
        help=(
            "comma-separated kernel-mode variants measured on the lead "
            "backend (kernel kind only); 'auto' = unbatched plus "
            "compiled-when-built, 'none' disables the dimension"
        ),
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
            "CI smoke mode: 1 repeat, 10%% simulated durations, lead "
            "backend only — NOT comparable against committed baselines"
        ),
    )
    args = parser.parse_args(argv)
    schedulers = [s for s in args.schedulers.split(",") if s.strip()]
    if args.variants == "auto":
        variants = list(default_variants())
    elif args.variants == "none":
        variants = []
    else:
        variants = [v for v in args.variants.split(",") if v.strip()]
    if args.quick:
        args.repeats = 1
        args.duration_scale = min(args.duration_scale, 0.1)
        schedulers = schedulers[:1]
        print(
            "--quick: 1 repeat, duration scale "
            f"{args.duration_scale}, backend {schedulers[0]} only "
            "(not baseline-comparable)"
        )

    workload_filter = None
    if args.workloads:
        workload_filter = [w for w in args.workloads.split(",") if w.strip()]

    if args.kind == "kernel":
        results = run_kernel_suite(
            args.repeats,
            args.duration_scale,
            schedulers,
            variants,
            workloads=workload_filter,
        )
        metric = "events_per_sec"
    else:
        results = run_experiment_suite(
            args.repeats, args.duration_scale, schedulers
        )
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
