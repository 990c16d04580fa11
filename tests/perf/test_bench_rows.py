"""Pinned sharded-fabric bench rows and the suite wiring around them."""

import json
import os

import pytest

from repro.perf.bench import run_kernel_suite
from repro.perf.workloads import KERNEL_WORKLOADS, ShardedFabricWorkload

SNAPSHOT = os.path.join(
    os.path.dirname(__file__), "..", "..", "BENCH_kernel.json"
)


def test_sharded_twin_workloads_are_pinned():
    by_name = {w.name: w for w in KERNEL_WORKLOADS}
    serial = by_name["fattree8_tfc_serial"]
    sharded = by_name["fattree8_tfc_sharded4"]
    assert isinstance(serial, ShardedFabricWorkload)
    assert serial.pod_shards == 0  # the serial reference
    assert sharded.pod_shards == 4
    # Identical workload physics — only the execution mode differs.
    for field in ("protocol", "k", "flows_per_pod", "seed", "duration_s"):
        assert getattr(serial, field) == getattr(sharded, field)
    assert serial.lead_only and sharded.lead_only


def test_snapshot_carries_sharded_rows_with_machine_aware_speedup():
    """The committed twin rows, and the speedup claim scaled to the
    snapshot machine.

    The >= 2.5x events/sec target only makes sense where the machine can
    actually run the shards concurrently (cores >= worker processes).
    The committed baseline machine reports its cpu_count in the snapshot;
    on a single-core machine the honest sharded number is a *slowdown*
    (coordination overhead with zero parallelism — DESIGN.md §6i), and
    the pinned contract is that the rows exist, are measured, and are
    internally consistent.
    """
    with open(SNAPSHOT) as fh:
        snap = json.load(fh)
    rows = {
        row["workload"]: row
        for row in snap["results"]
        if not row.get("variant") and row.get("scheduler") == "adaptive"
    }
    serial = rows["fattree8_tfc_serial"]
    sharded = rows["fattree8_tfc_sharded4"]
    assert sharded["shards"] == 5  # 4 pod shards + the core shard
    assert serial["events_per_sec"] > 0 and sharded["events_per_sec"] > 0
    speedup = sharded["events_per_sec"] / serial["events_per_sec"]
    cores = snap["machine"]["cpu_count"]
    if cores >= sharded["shards"]:
        assert speedup >= 2.5, (
            f"sharded speedup {speedup:.2f}x below the 2.5x target on a "
            f"{cores}-core snapshot machine"
        )
    else:
        # Single-/few-core snapshot: parallel speedup is physically
        # unavailable; the honest measured ratio is still pinned > 0.
        assert speedup > 0


def test_lead_only_workloads_measure_one_backend_and_no_variants():
    rows = run_kernel_suite(
        repeats=1,
        duration_scale=0.02,
        variants=("compiled",),
        workloads=["fattree8_tfc_serial"],
    )
    assert [row["name"] for row in rows] == ["fattree8_tfc_serial@heap"]


def test_workload_filter_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown kernel workload"):
        run_kernel_suite(repeats=1, workloads=["no_such_workload"])
