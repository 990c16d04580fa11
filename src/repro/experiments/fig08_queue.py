"""Figs. 8-10 — queue length, goodput/fairness, and convergence.

One scenario serves all three figures, exactly as in the paper: hosts H1
and H2 each start two long-lived flows to H3, one every 3 seconds (flow i
starts at ``i x interval``).  The paper then reports:

* Fig. 8 — bottleneck queue length over time (TFC near zero, DCTCP ~30 KB
  around its marking threshold, TCP pinned at the 256 KB buffer);
* Fig. 9 — per-flow goodput sampled every 20 ms (fairness);
* Fig. 10 — zoom on flow 3's start: TFC converges in about one round,
  DCTCP in tens of milliseconds, TCP much later.

The default stagger interval is scaled down from the paper's 3 s (nothing
changes after a few hundred ms of steady state; the scale-down is recorded
in EXPERIMENTS.md).
"""

from __future__ import annotations

from ..metrics.samplers import QueueSampler, RateSampler, convergence_time_ns
from ..metrics.stats import jain_fairness
from ..net.topology import testbed
from ..sim.units import microseconds, milliseconds, seconds
from ..transport.registry import open_flow
from .common import ExperimentResult, build_topology


def run_staggered_cell(
    protocol: str,
    n_flows: int = 4,
    interval_s: float = 0.25,
    tail_s: float = 0.5,
    goodput_sample_ms: float = 20.0,
    queue_sample_us: float = 100.0,
    buffer_bytes: int = 256_000,
    seed: int = 0,
) -> ExperimentResult:
    """Run the shared Figs. 8-10 scenario for one protocol.

    Fig. 8 reads ``queue_series`` and the queue scalars; Fig. 9 the
    per-flow ``goodput_series:flow{i}`` and the steady-state fairness and
    aggregate goodput once all flows run; Fig. 10 ``convergence_ns:flow{i}``,
    the time from flow i's start until it holds its fair share of the
    bottleneck within 25 % (-1 = never).
    """
    topo = build_topology(testbed, protocol, buffer_bytes=buffer_bytes, seed=seed)
    net = topo.network
    h1, h2, h3 = topo.host(0), topo.host(1), topo.host(2)
    sources = [h1, h2] * ((n_flows + 1) // 2)

    interval_ns = seconds(interval_s)
    senders = [
        open_flow(sources[i], h3, protocol, start_ns=i * interval_ns)
        for i in range(n_flows)
    ]

    bottleneck = topo.bottleneck("to_H3")
    queue_sampler = QueueSampler(net.sim, bottleneck, microseconds(queue_sample_us))
    rate_samplers = [
        RateSampler(
            net.sim,
            (lambda s=sender: s.receiver.bytes_received),
            milliseconds(goodput_sample_ms),
            label=f"flow{i}",
        )
        for i, sender in enumerate(senders)
    ]

    net.run_for((n_flows - 1) * interval_ns + seconds(tail_s))

    queue = [v for _, v in queue_sampler.series]
    # Per-flow mean goodput once every flow has run for half an interval.
    steady_ns = (n_flows - 1) * interval_ns + interval_ns // 2
    rates = []
    for sampler in rate_samplers:
        values = [v for t, v in sampler.series if t >= steady_ns]
        rates.append(sum(values) / len(values) if values else 0.0)
    scalars = {
        "queue_mean_bytes": sum(queue) / len(queue) if queue else 0.0,
        "queue_max_bytes": max(queue, default=0.0),
        "fairness": jain_fairness(rates),
        "aggregate_goodput_bps": sum(rates),
        "drops": float(net.total_drops()),
        "timeouts": float(sum(sender.stats.timeouts for sender in senders)),
    }
    for i in range(1, n_flows):
        start_ns = i * interval_ns
        # Flow i shares the bottleneck with the i flows started before it.
        target = bottleneck.rate_bps * (1460 / 1518) / (i + 1)
        reached = convergence_time_ns(
            [(t, v) for t, v in rate_samplers[i].series if t >= start_ns],
            target,
            0.25,
        )
        scalars[f"convergence_ns:flow{i}"] = (
            -1.0 if reached is None else float(reached - start_ns)
        )
    series = {"queue_series": queue_sampler.series}
    for i, sampler in enumerate(rate_samplers):
        series[f"goodput_series:flow{i}"] = sampler.series
    return ExperimentResult(
        name=f"fig08:{protocol}:n{n_flows}:seed{seed}",
        protocol=protocol,
        scalars=scalars,
        series=series,
    )
