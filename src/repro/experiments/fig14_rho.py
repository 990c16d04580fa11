"""Fig. 14 — sensitivity to the expected-utilisation parameter rho0.

Paper setup: hosts H1-H5 each send one long-lived flow to H6 while rho0
sweeps 0.90 -> 1.00.  Receiver goodput tracks rho0 (880 -> 940 Mbps on the
testbed) and the queue stays under ~1 KB until rho0 approaches 0.98, after
which variance in the instantaneous RTT lets packets accumulate (about
6 KB at rho0 = 1.0).
"""

from __future__ import annotations

from ..core.params import TfcParams
from ..metrics.samplers import QueueSampler, RateSampler
from ..net.topology import testbed
from ..sim.units import microseconds, milliseconds, seconds
from ..transport.registry import open_flow
from .common import ExperimentResult, build_topology


def run_rho_cell(
    rho0: float,
    n_flows: int = 5,
    duration_s: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Steady-state goodput and queue for a single rho0 value."""
    params = TfcParams(rho0=rho0)
    topo = build_topology(
        testbed, "tfc", buffer_bytes=256_000, protocol_params=params, seed=seed
    )
    net = topo.network
    h6 = topo.host(5)
    senders = [open_flow(topo.host(i), h6, "tfc") for i in range(n_flows)]

    queue_sampler = QueueSampler(
        net.sim, topo.bottleneck("to_H6"), microseconds(100)
    )
    rate_sampler = RateSampler(
        net.sim,
        (lambda: sum(s.receiver.bytes_received for s in senders)),
        milliseconds(20),
    )
    net.run_for(seconds(duration_s))

    # Steady state: skip the first 30% (handshakes + token convergence).
    skip = int(len(rate_sampler.series) * 0.3)
    rates = [v for _, v in rate_sampler.series[skip:]]
    queue_skip = int(len(queue_sampler.series) * 0.3)
    queues = [v for _, v in queue_sampler.series[queue_skip:]]
    return ExperimentResult(
        name=f"fig14:rho{rho0:.2f}:seed{seed}",
        protocol="tfc",
        scalars={
            "rho0": rho0,
            "goodput_bps": sum(rates) / len(rates) if rates else 0.0,
            "queue_mean_bytes": sum(queues) / len(queues) if queues else 0.0,
            "queue_max_bytes": max(queues, default=0.0),
            "drops": float(net.total_drops()),
        },
    )
