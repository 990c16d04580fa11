"""Figs. 12 and 15 — incast: goodput/queue (testbed) and throughput/
timeouts (large-scale) versus the number of senders.

Testbed variant (Fig. 12): 1 Gbps links, 256 KB buffers, 256 KB blocks,
barrier-synchronised rounds.  TFC holds 800-900 Mbps goodput at any fan-in
and keeps the queue near zero; TCP collapses beyond ~10 senders with the
queue pinned at the buffer size; DCTCP collapses beyond ~50.

Large-scale variant (Fig. 15): 10 Gbps links, 512 KB buffers, block sizes
64/128/256 KB, up to 400 senders; the metric is averaged throughput and
the *maximum timeouts one flow suffers per block*.

Both figures are grids of :func:`run_incast_cell`; the runner's
``default_plan`` assembles the paper's x-axis.
"""

from __future__ import annotations

from ..metrics.samplers import QueueSampler
from ..net.topology import dumbbell
from ..sim.units import GBPS, MILLISECOND, microseconds, seconds
from ..workloads.incast import IncastCoordinator
from .common import ExperimentResult, build_topology


def run_incast_cell(
    protocol: str,
    n_senders: int,
    block_bytes: int = 256_000,
    rounds: int = 10,
    rate_bps: int = GBPS,
    buffer_bytes: int = 256_000,
    min_rto_ns: int = 10 * MILLISECOND,
    max_duration_s: float = 20.0,
    seed: int = 0,
) -> ExperimentResult:
    """One incast configuration, run to round completion (or a time cap)."""
    topo = build_topology(
        dumbbell,
        protocol,
        buffer_bytes=buffer_bytes,
        n_senders=n_senders,
        rate_bps=rate_bps,
        seed=seed,
    )
    net = topo.network
    client = topo.hosts[-1]
    servers = topo.hosts[:n_senders]

    coordinator = IncastCoordinator(
        client,
        servers,
        protocol,
        block_bytes=block_bytes,
        rounds=rounds,
        min_rto_ns=min_rto_ns,
    )
    queue_sampler = QueueSampler(
        net.sim, topo.bottleneck("main"), microseconds(100)
    )

    horizon = seconds(max_duration_s)
    chunk = seconds(0.05)
    while not coordinator.finished and net.sim.now < horizon:
        net.run_for(chunk)

    return ExperimentResult(
        name=f"fig12:{protocol}:n{n_senders}:blk{block_bytes}:seed{seed}",
        protocol=protocol,
        scalars={
            "n_senders": float(n_senders),
            "block_bytes": float(block_bytes),
            "goodput_bps": coordinator.goodput_bps,
            "rounds_completed": float(coordinator.rounds_completed),
            "max_timeouts_per_block": coordinator.max_timeouts_per_block,
            "total_timeouts": float(coordinator.total_timeouts),
            "queue_mean_bytes": queue_sampler.mean(),
            "queue_max_bytes": queue_sampler.max(),
            "drops": float(net.total_drops()),
        },
    )
