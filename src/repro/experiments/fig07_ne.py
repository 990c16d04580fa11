"""Fig. 7 — accuracy of the effective-flow count with inactive flows.

Paper setup: host H4 keeps n2 = 5 steady flows to H6 (one of them is the
delimiter); host H1 runs n1 flows that ramp 1 -> 10 and then go inactive
back down to 0, changing once per step.  The switch port feeding H6
measures E every slot.  Because H1's flows have a longer RTT than the
delimiter (cross-rack vs intra-rack), the expected count is
``n1 / r + n2`` where r is the RTT ratio (Eq. 1) — and silent flows must
drop out of the count immediately even though their connections stay open.

"Active" here means backlogged (the paper's flows are bandwidth-greedy
while active); "inactive" flows keep their connection but queue nothing.
"""

from __future__ import annotations

from typing import List, Tuple

from ..net.topology import testbed
from ..sim.units import GBPS, seconds
from ..transport.registry import open_flow
from .common import ExperimentResult, build_topology


def _mean_srtt(senders) -> float:
    """Mean smoothed RTT (ns) over senders that have a sample."""
    values = [s.rto.srtt for s in senders if s.rto.srtt]
    return sum(values) / len(values) if values else 0.0


def run_fig07_cell(
    n2: int = 5,
    n1_max: int = 10,
    step_s: float = 0.04,
    sample_interval_s: float = 0.005,
    settle_s: float = 0.2,
    rate_bps: int = 10 * GBPS,
    seed: int = 0,
) -> ExperimentResult:
    """Ramp n1 active cross-rack flows up then down; record measured E.

    The links default to 10 Gbps so that W = T/E stays above one MSS for
    all 15 flows: in the sub-MSS regime the switch delay function paces
    every flow to the same grant cycle, which (correctly) equalises their
    round durations and hides the RTT-ratio weighting this figure is
    about.
    """
    topo = build_topology(
        testbed, "tfc", buffer_bytes=256_000, rate_bps=rate_bps, seed=seed
    )
    net = topo.network
    h1, h4, h6 = topo.host(0), topo.host(3), topo.host(5)

    # Steady intra-rack flows H4 -> H6 (the first becomes the delimiter,
    # as in the paper: "The delimiter flow ... is a flow sent from H4").
    intra_senders = [open_flow(h4, h6, "tfc") for _ in range(n2)]

    # n1_max cross-rack connections H1 -> H6, established shortly after
    # the intra flows (so the delimiter election is settled) and toggled
    # between backlogged (long_lived) and silent.
    cross_senders = [
        open_flow(h1, h6, "tfc", size_bytes=0, start_ns=seconds(0.02))
        for _ in range(n1_max)
    ]
    for sender in cross_senders:
        sender.fin_on_empty = False

    state = {"n1": 0}

    def apply_step(n1: int) -> None:
        state["n1"] = n1
        for i, sender in enumerate(cross_senders):
            active = i < n1
            if active and not sender.long_lived:
                sender.long_lived = True
                sender.try_send()
            elif not active and sender.long_lived:
                # Silent: connection stays open, nothing more is queued.
                sender.long_lived = False
                sender.flow_bytes = sender.snd_nxt

    schedule: List[Tuple[int, int]] = []
    t = seconds(settle_s)
    for n1 in list(range(1, n1_max + 1)) + list(range(n1_max - 1, -1, -1)):
        schedule.append((t, n1))
        t += seconds(step_s)
    end_ns = t + seconds(step_s)
    for when, n1 in schedule:
        net.sim.post(when - net.sim.now, apply_step, n1)

    agent = topo.bottleneck("to_H6").agent
    # (time_s, measured_E, expected_E)
    samples: List[Tuple[float, float, float]] = []
    rtt_ratio = 2.0

    def sample() -> None:
        nonlocal rtt_ratio
        measured = float(agent.published_e)
        # Expected E per Eq. 1: each cross flow counts as rtt_m / rtt_f.
        # Use the live RTT estimates so the prediction reflects the actual
        # topology rather than a hard-coded hop ratio (paper used ~1.5).
        intra_rtt = _mean_srtt(intra_senders)
        cross_rtt = _mean_srtt(cross_senders[: max(state["n1"], 1)])
        rtt_ratio = cross_rtt / intra_rtt if intra_rtt and cross_rtt else 2.0
        expected = state["n1"] / rtt_ratio + n2
        samples.append((net.sim.now_seconds, measured, expected))
        net.sim.post(seconds(sample_interval_s), sample)

    net.sim.post(seconds(settle_s * 0.9), sample)
    net.run_until(end_ns)
    errors = [abs(measured - expected) for _, measured, expected in samples]
    return ExperimentResult(
        name=f"fig07:n2={n2}:n1max={n1_max}:seed{seed}",
        protocol="tfc",
        scalars={
            "max_error": max(errors),
            "mean_error": sum(errors) / len(errors),
            "rtt_ratio": rtt_ratio,
        },
        series={"samples": samples},
    )
