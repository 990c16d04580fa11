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

from typing import Dict

from ..metrics.samplers import QueueSampler
from ..metrics.stats import jain_fairness, mean, percentile
from ..net.topology import dumbbell
from ..sim.units import GBPS, MILLISECOND, microseconds, seconds
from ..transport.registry import open_flow
from .common import ExperimentResult, build_topology


def run_baselines_cell(
    protocol: str,
    n_senders: int = 8,
    flow_bytes: int = 2_000_000,
    rate_bps: int = GBPS,
    buffer_bytes: int = 256_000,
    seed: int = 0,
) -> ExperimentResult:
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
                min_rto_ns=10 * MILLISECOND,
                on_complete=(lambda s, i=i: _on_complete(s, i)),
            )
        )
    queue_sampler = QueueSampler(
        net.sim, topo.bottleneck("main"), microseconds(100)
    )

    horizon = seconds(20.0)
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
    scalars = {
        "n_senders": float(n_senders),
        "flow_bytes": float(flow_bytes),
        "completed": float(len(fct_list_ns)),
        "jain_index": jain_fairness(rates) if rates else 0.0,
        "fct_min_us": min(fct_us) if fct_us else 0.0,
        "fct_mean_us": mean(fct_us) if fct_us else 0.0,
        "fct_p99_us": percentile(fct_us, 99) if fct_us else 0.0,
        "fct_max_us": max(fct_us) if fct_us else 0.0,
        "goodput_bps": goodput,
        "queue_mean_bytes": queue_sampler.mean(),
        "queue_max_bytes": queue_sampler.max(),
        "drops": float(net.total_drops()),
    }
    pause_frames = getattr(fabric, "pause_frames", 0)
    resume_frames = getattr(fabric, "resume_frames", 0)
    if pause_frames or resume_frames:
        scalars["pause_frames"] = float(pause_frames)
        scalars["resume_frames"] = float(resume_frames)
    return ExperimentResult(
        name=f"baselines:{protocol}:n{n_senders}:seed{seed}",
        protocol=protocol,
        scalars=scalars,
    )
