"""End-to-end TFC properties on real topologies (the paper's headline
claims, asserted at small scale so the suite stays fast)."""

import statistics

from repro.core.params import TfcParams
from repro.experiments.common import build_topology
from repro.metrics.samplers import QueueSampler, RateSampler
from repro.metrics.stats import jain_fairness
from repro.net.topology import dumbbell, fat_tree, multi_bottleneck
from repro.sim.units import microseconds, milliseconds, seconds
from repro.transport.base import FlowState
from repro.transport.registry import get_protocol, open_flow


def tfc_dumbbell(n, params=None, **kwargs):
    tfc = get_protocol("tfc")
    topo = dumbbell(n_senders=n, queue_factory=tfc.port_queue_factory(256_000), **kwargs)
    tfc.install(topo.network, params)
    return topo


def test_near_zero_queueing_steady_state():
    topo = tfc_dumbbell(4)
    receiver = topo.hosts[-1]
    for host in topo.hosts[:4]:
        open_flow(host, receiver, "tfc")
    sampler = QueueSampler(topo.sim, topo.bottleneck("main"), microseconds(100))
    topo.network.run_for(seconds(0.5))
    # Paper Fig. 8: mean a couple of KB, max below ~10 KB.
    assert sampler.mean() < 10_000
    assert sampler.max() < 40_000


def test_high_utilisation():
    topo = tfc_dumbbell(4)
    receiver = topo.hosts[-1]
    flows = [open_flow(host, receiver, "tfc") for host in topo.hosts[:4]]
    rate = RateSampler(
        topo.sim,
        (lambda: sum(f.receiver.bytes_received for f in flows)),
        milliseconds(50),
    )
    topo.network.run_for(seconds(0.5))
    steady = statistics.mean(rate.values[-5:])
    assert steady > 0.80 * 1e9  # at least 80% of the 1 Gbps bottleneck


def test_fairness_across_flows():
    topo = tfc_dumbbell(6)
    receiver = topo.hosts[-1]
    flows = [open_flow(host, receiver, "tfc") for host in topo.hosts[:6]]
    topo.network.run_for(seconds(0.5))
    shares = [f.stats.bytes_acked for f in flows]
    assert jain_fairness(shares) > 0.99


def test_no_loss_with_many_concurrent_flows():
    """Paper section 4.6: no drops even when W < 1 MSS (60 flows here)."""
    topo = tfc_dumbbell(60)
    receiver = topo.hosts[-1]
    flows = [open_flow(host, receiver, "tfc") for host in topo.hosts[:60]]
    topo.network.run_for(seconds(0.5))
    assert topo.network.total_drops() == 0
    assert sum(f.stats.timeouts for f in flows) == 0
    assert all(f.stats.bytes_acked > 0 for f in flows)


def _cross_pod_incast(protocol):
    """Every host of pods 1-3 of a ``fat_tree(4)`` sends to H1 (pod 0)
    through 64 KB switch buffers: the 12 flows meet at the core."""
    topo = build_topology(fat_tree, protocol, buffer_bytes=64_000, k=4)
    victim = topo.hosts[0]
    flows = [
        open_flow(host, victim, protocol, start_ns=1_000 * i)
        for i, host in enumerate(topo.hosts[4:])
    ]
    topo.network.run_for(milliseconds(10))
    return topo, flows


def test_no_loss_in_a_cross_pod_incast_on_a_fat_tree():
    """The three-tier version of section 4.6: the flows cross aggregation
    and core before they share the victim's edge port, and TFC still
    drops nothing where TCP overflows the same buffers."""
    topo, flows = _cross_pod_incast("tfc")
    assert topo.network.total_drops() == 0
    assert sum(f.stats.timeouts for f in flows) == 0
    assert all(f.stats.bytes_acked > 0 for f in flows)
    tcp_topo, _ = _cross_pod_incast("tcp")
    assert tcp_topo.network.total_drops() > 0


def test_flash_crowd_of_new_flows_does_not_drop():
    """Window acquisition + grant budget: 100 simultaneous opens survive."""
    topo = tfc_dumbbell(100)
    receiver = topo.hosts[-1]
    flows = [
        open_flow(host, receiver, "tfc", size_bytes=50_000)
        for host in topo.hosts[:100]
    ]
    topo.network.run_for(seconds(2))
    assert topo.network.total_drops() == 0
    assert all(f.state is FlowState.DONE for f in flows)


def test_work_conserving_two_bottlenecks():
    topo = multi_bottleneck(queue_factory=get_protocol("tfc").port_queue_factory(256_000))
    get_protocol("tfc").install(topo.network)
    h1, h2, h3, h4 = topo.hosts
    n1 = [open_flow(h1, h4, "tfc") for _ in range(8)]
    n2 = [open_flow(h1, h3, "tfc") for _ in range(2)]
    n3 = [open_flow(h2, h3, "tfc") for _ in range(2)]
    topo.network.run_for(seconds(0.6))
    s2_bytes = sum(f.stats.bytes_acked for f in n2 + n3)
    # The S2 downlink must be well utilised despite n2 being S1-limited:
    # without token adjustment it would sit near (2/10 + tiny) utilisation.
    s2_goodput = s2_bytes * 8 / 0.6
    assert s2_goodput > 0.75 * 1e9
    assert topo.network.total_drops() == 0


def test_silent_flows_release_bandwidth():
    """A silent flow's share is taken over within a few slots."""
    topo = tfc_dumbbell(2)
    receiver = topo.hosts[-1]
    active = open_flow(topo.hosts[0], receiver, "tfc")
    silent = open_flow(topo.hosts[1], receiver, "tfc", size_bytes=0)
    silent.fin_on_empty = False
    silent.queue_bytes(500_000)
    topo.network.run_for(seconds(0.2))  # both active, then one goes silent
    acked_at_silence = active.stats.bytes_acked
    topo.network.run_for(seconds(0.2))
    delta = active.stats.bytes_acked - acked_at_silence
    # The survivor should now run near the full link, not at half.
    assert delta * 8 / 0.2 > 0.8 * 1e9


def test_eq7_mode_underperforms_iterative():
    """The ablation the DESIGN.md documents: literal Eq. 7 loses goodput."""
    results = {}
    for mode in ("iterative", "eq7"):
        topo = tfc_dumbbell(4, params=TfcParams(token_adjustment=mode))
        receiver = topo.hosts[-1]
        flows = [open_flow(host, receiver, "tfc") for host in topo.hosts[:4]]
        topo.network.run_for(seconds(0.4))
        results[mode] = sum(f.stats.bytes_acked for f in flows)
    assert results["iterative"] > results["eq7"]


def test_rho0_controls_utilisation_direction():
    totals = {}
    for rho0 in (0.90, 1.00):
        topo = tfc_dumbbell(4, params=TfcParams(rho0=rho0))
        receiver = topo.hosts[-1]
        flows = [open_flow(host, receiver, "tfc") for host in topo.hosts[:4]]
        topo.network.run_for(seconds(0.4))
        totals[rho0] = sum(f.stats.bytes_acked for f in flows)
    assert totals[1.00] >= totals[0.90]


def test_tfc_vs_tcp_queue_comparison():
    """The core Fig. 8 claim: TFC's queue is orders below TCP's."""
    maxima = {}
    for proto in ("tfc", "tcp"):
        spec = get_protocol(proto)
        topo = dumbbell(n_senders=4, queue_factory=spec.port_queue_factory(256_000))
        spec.install(topo.network)
        receiver = topo.hosts[-1]
        for host in topo.hosts[:4]:
            open_flow(host, receiver, proto)
        topo.network.run_for(seconds(0.3))
        maxima[proto] = topo.bottleneck("main").queue.max_bytes_seen
    assert maxima["tfc"] < maxima["tcp"] / 5
