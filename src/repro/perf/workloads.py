"""Pinned benchmark workloads.

These definitions are the contract between past and future measurements:
the committed ``BENCH_*.json`` baselines were produced by *exactly* these
configurations, so do not change a workload in place — add a new one with
a new name, keep the old, and regenerate the baseline.

Three tiers:

* **Kernel workloads** — dumbbell saturation runs dominated by the event
  loop, queue, and port machinery.  The metric is simulator events per
  wall-clock second; it moves with kernel fast-path changes and very
  little else.
* **Timer-churn workloads** — event-queue stress: thousands of flows each
  keeping several armed timers (RTO / delayed-ACK / probe style) that
  are cancelled and re-armed on every ack arrival, shortly before they
  would fire.  Almost every stored entry dies and *surfaces* at the
  heap head.  Same metric as kernel workloads (executed events per wall
  second).
* **Experiment workloads** — one Fig. 13 benchmark cell per protocol at
  reduced duration.  The metric is wall-clock per cell; it tracks what a
  user actually waits for when regenerating figures.

Rows are named ``<workload>@heap``: the suffix matches the ``@heap``
rows of the committed snapshots, so those keep gating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from ..config import env as config_env
from ..experiments.common import build_topology
from ..net.topology import dumbbell, fat_tree
from ..sim.engine import Simulator
from ..sim.units import seconds
from ..transport.registry import open_flow


@dataclass(frozen=True)
class KernelWorkload:
    """An n-sender dumbbell saturated for a fixed simulated duration."""

    name: str
    protocol: str
    n_senders: int
    seed: int
    duration_s: float


@dataclass(frozen=True)
class TimerChurnWorkload:
    """n flows x k armed timers, all cancelled and re-armed per ack.

    Each flow holds ``len(timer_delays_ns)`` pending timers.  An "ack"
    arrives every ``ack_gap_ns`` (plus a small deterministic jitter),
    cancels every pending timer — each of them 10-110 us short of
    firing, so the dead entries surface at the queue head instead of
    being swept by compaction — and re-arms them all.  Timer delays are
    datacenter-scale (sub-262 us, DCTCP-style RTOmin territory).  No RNG
    anywhere: the event trace is fully deterministic.
    """

    name: str
    n_flows: int
    duration_s: float
    timer_delays_ns: Tuple[int, ...] = (
        150_000,
        175_000,
        200_000,
        225_000,
        250_000,
    )
    ack_gap_ns: int = 140_000


@dataclass(frozen=True)
class FabricWorkload:
    """Cross-pod flows saturating a k-ary fat tree under a routing policy.

    Exercises the multi-path forwarding path — candidate-set lookup plus
    a policy ``select`` call per packet per hop — which none of the
    dumbbell workloads touch.  ``spray`` is the pinned policy because it
    takes the selection branch on every single packet (ECMP caches the
    pick per flow), making it the upper bound on routing overhead.
    """

    name: str
    protocol: str
    routing: str
    k: int
    n_flows: int
    seed: int
    duration_s: float


@dataclass(frozen=True)
class ShardedFabricWorkload:
    """Pod-traffic on a fat tree, run serial or pod-sharded.

    The serial/sharded twin rows are the pinned speedup measurement for
    ``repro.sim.shard``: the same workload (same seed, bit-identical
    results — pinned by tests/shard) run once on one Simulator and once
    across ``pod_shards`` pod partitions plus the core shard with the
    conservative-lookahead coordinator.  ``pod_shards=0`` is the serial
    reference.
    """

    name: str
    protocol: str
    k: int
    pod_shards: int  # 0 = serial reference (one Simulator)
    flows_per_pod: int
    seed: int
    duration_s: float


@dataclass(frozen=True)
class TelemetryWorkload:
    """A kernel dumbbell run with a telemetry session attached.

    Same shape as :class:`KernelWorkload` plus a telemetry mode; the row
    it produces is the pinned cost of the observability machinery (slot
    recorder + flight recorder subscriptions on the tracer's dispatch
    path).  Compared against its telemetry-off twin it bounds the
    telemetry-on overhead; its *absence* from the hot path is gated by
    the twin staying flat against the committed baseline.
    """

    name: str
    protocol: str
    n_senders: int
    seed: int
    duration_s: float
    telemetry: str = "full"


@dataclass(frozen=True)
class ExperimentWorkload:
    """One Fig. 13 testbed benchmark cell (workload generator + FCT)."""

    name: str
    protocol: str
    duration_s: float
    drain_s: float
    seed: int


AnyKernelWorkload = Union[
    KernelWorkload,
    TimerChurnWorkload,
    FabricWorkload,
    TelemetryWorkload,
    ShardedFabricWorkload,
]

KERNEL_WORKLOADS: Tuple[AnyKernelWorkload, ...] = (
    KernelWorkload("dumbbell_tfc_4", "tfc", 4, 1, 0.4),
    KernelWorkload("dumbbell_dctcp_8", "dctcp", 8, 2, 0.2),
    KernelWorkload("dumbbell_tcp_8", "tcp", 8, 3, 0.2),
    TimerChurnWorkload("timer_churn_16k", 16384, 0.0012),
    TimerChurnWorkload("timer_churn_32k", 32768, 0.0006),
    FabricWorkload("fattree4_tfc_spray_8", "tfc", "spray", 4, 8, 4, 0.05),
    TelemetryWorkload("dumbbell_tfc_4_telemetry", "tfc", 4, 1, 0.4),
    ShardedFabricWorkload("fattree8_tfc_serial", "tfc", 8, 0, 4, 5, 0.004),
    ShardedFabricWorkload("fattree8_tfc_sharded4", "tfc", 8, 4, 4, 5, 0.004),
)

EXPERIMENT_WORKLOADS: Tuple[ExperimentWorkload, ...] = (
    ExperimentWorkload("fig13_testbed_tfc", "tfc", 0.3, 0.3, 0),
    ExperimentWorkload("fig13_testbed_dctcp", "dctcp", 0.3, 0.3, 0),
    ExperimentWorkload("fig13_testbed_tcp", "tcp", 0.3, 0.3, 0),
)


def _row_name(workload_name: str) -> str:
    return f"{workload_name}@heap"


def run_kernel_workload(
    workload: AnyKernelWorkload,
    duration_scale: float = 1.0,
) -> Dict[str, float]:
    """Run one kernel workload; returns events, wall_s, events_per_sec.

    ``duration_scale`` shrinks the simulated window for smoke runs (CI);
    scaled runs are *not* comparable against the committed baselines.
    """
    if isinstance(workload, TimerChurnWorkload):
        return run_churn_workload(workload, duration_scale)
    if isinstance(workload, FabricWorkload):
        return run_fabric_workload(workload, duration_scale)
    if isinstance(workload, TelemetryWorkload):
        return run_telemetry_workload(workload, duration_scale)
    if isinstance(workload, ShardedFabricWorkload):
        return run_sharded_fabric_workload(workload, duration_scale)
    topo = build_topology(
        dumbbell,
        workload.protocol,
        buffer_bytes=256_000,
        n_senders=workload.n_senders,
        seed=workload.seed,
    )
    receiver = topo.host(workload.n_senders)
    for i in range(workload.n_senders):
        open_flow(topo.host(i), receiver, workload.protocol)
    start = time.perf_counter()
    topo.network.run_for(seconds(workload.duration_s * duration_scale))
    wall = time.perf_counter() - start
    events = topo.sim.events_processed
    row = {
        "name": _row_name(workload.name),
        "workload": workload.name,
        "protocol": workload.protocol,
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }
    return row


def run_telemetry_workload(
    workload: TelemetryWorkload,
    duration_scale: float = 1.0,
) -> Dict[str, float]:
    """Run one telemetry-on dumbbell workload."""
    from ..obs import drain_pending

    with config_env(telemetry=workload.telemetry):
        topo = build_topology(
            dumbbell,
            workload.protocol,
            buffer_bytes=256_000,
            n_senders=workload.n_senders,
            seed=workload.seed,
        )
        receiver = topo.host(workload.n_senders)
        for i in range(workload.n_senders):
            open_flow(topo.host(i), receiver, workload.protocol)
        start = time.perf_counter()
        topo.network.run_for(seconds(workload.duration_s * duration_scale))
        wall = time.perf_counter() - start
    drain_pending()  # nothing exports; keep the pending queue clean
    events = topo.sim.events_processed
    row = {
        "name": _row_name(workload.name),
        "workload": workload.name,
        "protocol": workload.protocol,
        "telemetry": workload.telemetry,
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }
    return row


def run_churn_workload(
    workload: TimerChurnWorkload,
    duration_scale: float = 1.0,
) -> Dict[str, float]:
    """Run one timer-churn workload."""
    sim = Simulator()
    timers = workload.timer_delays_ns
    # Per-slot base delay precomputed (the j*977 de-aliasing stagger is
    # static); the ack handler only adds the per-step jitter.
    base = tuple(t + j * 977 for j, t in enumerate(timers))
    indexes = range(len(timers))
    pending = [[None] * len(timers) for _ in range(workload.n_flows)]
    schedule = sim.schedule
    ack_gap = workload.ack_gap_ns

    def timer_fire(i: int, j: int) -> None:
        # Clearing the slot inside the callback keeps the kernel's
        # handle contract: a fired handle is never cancelled later.
        pending[i][j] = None

    def ack(i: int, step: int) -> None:
        slots = pending[i]
        jitter = (i * 2654435761 + step * 40503) & 2047
        for j in indexes:
            handle = slots[j]
            if handle is not None:
                handle.cancel()
            slots[j] = schedule(base[j] + jitter, timer_fire, i, j)
        schedule(ack_gap + jitter, ack, i, step + 1)

    for i in range(workload.n_flows):
        schedule((i * 7919) % ack_gap, ack, i, 0)

    duration_ns = seconds(workload.duration_s * duration_scale)
    start = time.perf_counter()
    sim.run(until_ns=duration_ns)
    wall = time.perf_counter() - start
    events = sim.events_processed
    row = {
        "name": _row_name(workload.name),
        "workload": workload.name,
        "protocol": "timers",
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }
    return row


def run_fabric_workload(
    workload: FabricWorkload,
    duration_scale: float = 1.0,
) -> Dict[str, float]:
    """Run one fat-tree multi-path workload."""
    topo = build_topology(
        fat_tree,
        workload.protocol,
        buffer_bytes=256_000,
        k=workload.k,
        seed=workload.seed,
        routing=workload.routing,
    )
    n_hosts = len(topo.hosts)
    for i in range(workload.n_flows):
        open_flow(
            topo.hosts[i],
            topo.hosts[n_hosts // 2 + i],
            workload.protocol,
        )
    start = time.perf_counter()
    topo.network.run_for(seconds(workload.duration_s * duration_scale))
    wall = time.perf_counter() - start
    events = topo.sim.events_processed
    row = {
        "name": _row_name(workload.name),
        "workload": workload.name,
        "protocol": workload.protocol,
        "routing": workload.routing,
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }
    return row


def run_sharded_fabric_workload(
    workload: ShardedFabricWorkload,
    duration_scale: float = 1.0,
) -> Dict[str, float]:
    """Run one sharded-fabric workload (serial when ``pod_shards == 0``).

    Wall-clock covers the whole run including coordination (worker
    startup, epoch barriers, message exchange), so the serial/sharded
    events-per-second ratio is the honest end-to-end speedup, not a
    per-shard number.
    """
    from ..sim.shard import (
        ShardSpec,
        plan_fat_tree,
        run_serial_reference,
        run_sharded,
    )
    from ..sim.shard.workload import build_pod_traffic, collect_pod_traffic

    plan = plan_fat_tree(k=workload.k, pod_shards=max(workload.pod_shards, 1))
    spec = ShardSpec(
        plan=plan,
        build=build_pod_traffic,
        collect=collect_pod_traffic,
        end_ns=seconds(workload.duration_s * duration_scale),
        root_seed=workload.seed,
        build_kwargs={
            "k": workload.k,
            "protocol": workload.protocol,
            "flows_per_pod": workload.flows_per_pod,
        },
    )
    if workload.pod_shards == 0:
        outcome = run_serial_reference(spec)
        events, wall = outcome.events, outcome.wall_s
        extra: Dict[str, float] = {"shards": 0}
    else:
        result = run_sharded(spec)
        events, wall = result.events, result.wall_s
        extra = {
            "shards": result.shards,
            "epochs": result.epochs,
            "messages": result.messages,
            "exec_mode": result.mode,
        }
    row = {
        "name": _row_name(workload.name),
        "workload": workload.name,
        "protocol": workload.protocol,
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        **extra,
    }
    return row


def run_experiment_workload(
    workload: ExperimentWorkload,
    duration_scale: float = 1.0,
) -> Dict[str, float]:
    """Run one Fig. 13 cell; returns wall-clock seconds for the cell."""
    from ..experiments.fig13_benchmark import run_benchmark

    start = time.perf_counter()
    result = run_benchmark(
        workload.protocol,
        scale="testbed",
        duration_s=workload.duration_s * duration_scale,
        drain_s=workload.drain_s * duration_scale,
        seed=workload.seed,
    )
    wall = time.perf_counter() - start
    return {
        "name": _row_name(workload.name),
        "workload": workload.name,
        "protocol": workload.protocol,
        "wall_s": wall,
        "flows_launched": result.flows_launched,
        "completed": result.collector.completed(),
    }
