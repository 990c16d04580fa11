"""Fig. 11 — work-conserving behaviour with two bottlenecks.

Paper setup (Fig. 5 topology): host 1 opens n1 = 8 flows to host 4 and
n2 = 2 flows to host 3; host 2 opens n3 = 2 flows to host 3.  Two
bottlenecks form: S1's uplink (carrying n1 + n2 = 10 flows) and S2's
downlink to host 3 (carrying n2 + n3 = 4 flows).  S2 allocates the n2
flows more window than S1 lets them use; without the token adjustment the
S2 downlink would sit idle-in-part.  The paper reports both links at high
goodput (S1 slightly below S2) and the S2 queue hovering near one packet.
"""

from __future__ import annotations

from ..metrics.samplers import QueueSampler, RateSampler, Series
from ..net.topology import multi_bottleneck
from ..sim.units import microseconds, milliseconds, seconds
from ..transport.registry import open_flow
from .common import ExperimentResult, build_topology


def _steady_mean(series: Series) -> float:
    """Mean of a series past its first 30 % (handshakes, token convergence)."""
    values = [v for _, v in series[int(len(series) * 0.3):]]
    return sum(values) / len(values) if values else 0.0


def run_fig11_cell(
    protocol: str = "tfc",
    n1: int = 8,
    n2: int = 2,
    n3: int = 2,
    duration_s: float = 1.0,
    buffer_bytes: int = 256_000,
    seed: int = 0,
) -> ExperimentResult:
    """Run the two-bottleneck scenario and measure both links."""
    topo = build_topology(
        multi_bottleneck, protocol, buffer_bytes=buffer_bytes, seed=seed
    )
    net = topo.network
    h1, h2, h3, h4 = topo.hosts

    senders_via_s1 = [open_flow(h1, h4, protocol) for _ in range(n1)]
    senders_n2 = [open_flow(h1, h3, protocol) for _ in range(n2)]
    senders_n3 = [open_flow(h2, h3, protocol) for _ in range(n3)]

    # Aggregate goodput through each bottleneck: S1's uplink carries n1+n2,
    # S2's downlink to host 3 carries n2+n3.
    via_s1 = senders_via_s1 + senders_n2
    via_s2 = senders_n2 + senders_n3

    s1_rate = RateSampler(
        net.sim,
        (lambda: sum(s.receiver.bytes_received for s in via_s1)),
        milliseconds(20),
    )
    s2_rate = RateSampler(
        net.sim,
        (lambda: sum(s.receiver.bytes_received for s in via_s2)),
        milliseconds(20),
    )
    s2_queue = QueueSampler(net.sim, topo.bottleneck("s2_to_h3"), microseconds(100))

    net.run_for(seconds(duration_s))

    return ExperimentResult(
        name=f"fig11:{protocol}:seed{seed}",
        protocol=protocol,
        scalars={
            "s1_goodput_bps": _steady_mean(s1_rate.series),
            "s2_goodput_bps": _steady_mean(s2_rate.series),
            "s2_queue_mean_bytes": _steady_mean(s2_queue.series),
            "drops": float(net.total_drops()),
        },
    )
