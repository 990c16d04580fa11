"""Related-work baseline head-to-head (DESIGN.md §6k).

One contended dumbbell cell per registered transport: every sender host
opens one fixed-size flow towards the single receiver at t=0, so all
flows fight for the same bottleneck from the first RTT.  The reported
row is the fairness/FCT/queue-occupancy triple the baseline table in
EXPERIMENTS.md is built from:

* **Jain index** over per-flow average rates — per-flow mechanisms
  (TFC's token allocation, BFC's per-flow pause, FairQ's computed fair
  share) should sit near 1.0; per-port and endpoint-only mechanisms
  spread out;
* **FCT spread** (min/mean/max/p99) — collapse and HoL victims show up
  as a long max;
* **bottleneck queue** (mean/max) plus drops — the buffer-pressure
  axis: TB-TCP caps it by construction, lossless fabrics by pause.

The cell never branches on the protocol name: everything flows through
the registry's :class:`~repro.transport.registry.Protocol` hooks, so a
transport registered at runtime via ``register_protocol`` sweeps the
same way the built-ins do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..metrics.samplers import QueueSampler
from ..metrics.stats import jain_fairness, mean, percentile
from ..net.topology import dumbbell
from ..sim.units import GBPS, MILLISECOND, microseconds, seconds
from ..transport.registry import open_flow
from .common import BASELINE_PROTOCOLS, ExperimentResult, build_topology


@dataclass
class BaselinePoint:
    """One (protocol, fan-in) contention measurement."""

    protocol: str
    n_senders: int
    flow_bytes: int
    completed: int
    jain_index: float
    fct_min_us: float
    fct_mean_us: float
    fct_p99_us: float
    fct_max_us: float
    goodput_bps: float
    queue_mean_bytes: float
    queue_max_bytes: float
    drops: int
    pause_frames: int
    resume_frames: int


def run_baseline_point(
    protocol: str,
    n_senders: int = 8,
    flow_bytes: int = 2_000_000,
    rate_bps: int = GBPS,
    buffer_bytes: int = 256_000,
    min_rto_ns: int = 10 * MILLISECOND,
    max_duration_s: float = 20.0,
    seed: int = 0,
) -> BaselinePoint:
    """One protocol's row: n concurrent equal flows through one bottleneck."""
    topo = build_topology(
        dumbbell,
        protocol,
        buffer_bytes=buffer_bytes,
        n_senders=n_senders,
        rate_bps=rate_bps,
        seed=seed,
    )
    net = topo.network
    receiver = topo.hosts[-1]

    fcts_ns: Dict[int, int] = {}

    def _on_complete(sender, index: int) -> None:
        fcts_ns[index] = net.sim.now

    senders = []
    for i, source in enumerate(topo.hosts[:n_senders]):
        senders.append(
            open_flow(
                source,
                receiver,
                protocol,
                size_bytes=flow_bytes,
                min_rto_ns=min_rto_ns,
                on_complete=(lambda s, i=i: _on_complete(s, i)),
            )
        )
    queue_sampler = QueueSampler(
        net.sim, topo.bottleneck("main"), microseconds(100)
    )

    horizon = seconds(max_duration_s)
    chunk = seconds(0.05)
    while len(fcts_ns) < n_senders and net.sim.now < horizon:
        net.run_for(chunk)

    fct_list_ns = [fcts_ns[i] for i in sorted(fcts_ns)]
    fct_us = [ns / 1_000.0 for ns in fct_list_ns]
    # Average per-flow rate over that flow's own lifetime (all start at 0).
    rates = [flow_bytes * 8.0 / (ns / 1e9) for ns in fct_list_ns if ns > 0]
    total_ns = max(fct_list_ns) if fct_list_ns else net.sim.now
    goodput = (
        len(fct_list_ns) * flow_bytes * 8.0 / (total_ns / 1e9)
        if total_ns > 0
        else 0.0
    )

    # Whichever backpressure fabric is installed (BFC per-flow, PFC
    # per-port) exposes the same pause/resume counters.
    fabric = net.bfc or net.lossless
    return BaselinePoint(
        protocol=protocol,
        n_senders=n_senders,
        flow_bytes=flow_bytes,
        completed=len(fct_list_ns),
        jain_index=jain_fairness(rates) if rates else 0.0,
        fct_min_us=min(fct_us) if fct_us else 0.0,
        fct_mean_us=mean(fct_us) if fct_us else 0.0,
        fct_p99_us=percentile(fct_us, 99) if fct_us else 0.0,
        fct_max_us=max(fct_us) if fct_us else 0.0,
        goodput_bps=goodput,
        queue_mean_bytes=queue_sampler.mean(),
        queue_max_bytes=queue_sampler.max(),
        drops=net.total_drops(),
        pause_frames=getattr(fabric, "pause_frames", 0),
        resume_frames=getattr(fabric, "resume_frames", 0),
    )


def run_baseline_sweep(
    protocols: Sequence[str] = BASELINE_PROTOCOLS,
    n_senders: int = 8,
    flow_bytes: int = 2_000_000,
    seed: int = 0,
    **kwargs,
) -> List[BaselinePoint]:
    """The full grid: every baseline under the same contention pattern."""
    return [
        run_baseline_point(
            protocol,
            n_senders=n_senders,
            flow_bytes=flow_bytes,
            seed=seed,
            **kwargs,
        )
        for protocol in protocols
    ]


def run_baselines_cell(
    protocol: str,
    n_senders: int = 8,
    flow_bytes: int = 2_000_000,
    rate_bps: int = GBPS,
    buffer_bytes: int = 256_000,
    seed: int = 0,
) -> "ExperimentResult":
    """Picklable cell adapter for the parallel runner."""
    point = run_baseline_point(
        protocol,
        n_senders=n_senders,
        flow_bytes=flow_bytes,
        rate_bps=rate_bps,
        buffer_bytes=buffer_bytes,
        seed=seed,
    )
    scalars = {
        "n_senders": float(point.n_senders),
        "flow_bytes": float(point.flow_bytes),
        "completed": float(point.completed),
        "jain_index": point.jain_index,
        "fct_min_us": point.fct_min_us,
        "fct_mean_us": point.fct_mean_us,
        "fct_p99_us": point.fct_p99_us,
        "fct_max_us": point.fct_max_us,
        "goodput_bps": point.goodput_bps,
        "queue_mean_bytes": point.queue_mean_bytes,
        "queue_max_bytes": point.queue_max_bytes,
        "drops": float(point.drops),
    }
    if point.pause_frames or point.resume_frames:
        scalars["pause_frames"] = float(point.pause_frames)
        scalars["resume_frames"] = float(point.resume_frames)
    return ExperimentResult(
        name=f"baselines:{protocol}:n{n_senders}:seed{seed}",
        protocol=protocol,
        scalars=scalars,
    )
