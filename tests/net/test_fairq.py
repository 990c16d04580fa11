"""FairQ: switch-computed fair shares, selectively ECN-marked."""

import pytest

from repro.experiments.common import build_topology
from repro.metrics.stats import jain_fairness
from repro.net.fairq import FairqParams, FairqPortAgent, make_fairq_queue
from repro.net.pfc import protocol_agent
from repro.net.queues import EcnQueue
from repro.net.topology import dumbbell
from repro.sim.units import milliseconds
from repro.transport.registry import open_flow


def test_params_validation():
    FairqParams()
    with pytest.raises(ValueError, match="slot"):
        FairqParams(slot_us=0)
    with pytest.raises(ValueError, match="utilization"):
        FairqParams(target_utilization=0.0)
    with pytest.raises(ValueError, match="utilization"):
        FairqParams(target_utilization=1.5)
    with pytest.raises(ValueError, match="ecn threshold"):
        FairqParams(ecn_threshold_bytes=0)


def test_backstop_queue_threshold():
    queue = make_fairq_queue(FairqParams(), 256_000, 10**9)
    assert isinstance(queue, EcnQueue)
    assert queue.mark_threshold_bytes == 96_000
    # Threshold never exceeds the physical buffer.
    small = make_fairq_queue(FairqParams(), 64_000, 10**9)
    assert small.mark_threshold_bytes == 64_000


def test_agents_installed_on_every_switch_port():
    topo = build_topology(dumbbell, "fairq", buffer_bytes=256_000, n_senders=2)
    for switch in topo.switches:
        for port in switch.ports:
            assert isinstance(protocol_agent(port.agent), FairqPortAgent)
    for host in topo.hosts:  # FairQ is a switch function, hosts stay plain
        for port in host.ports:
            assert protocol_agent(port.agent) is None


def test_contended_flows_converge_to_fair_share():
    """Four long-lived flows into one port: the agent publishes the
    budget split four ways, marks only overshooting bytes, and the flows
    end up near-perfectly fair with zero drops."""
    topo = build_topology(
        dumbbell, "fairq", buffer_bytes=256_000, n_senders=4, seed=1
    )
    senders = [
        open_flow(topo.host(i), topo.host(4), "fairq") for i in range(4)
    ]
    topo.network.run_for(milliseconds(40))
    agent = topo.bottleneck("main").agent
    # Steady state: the published share is the budget split across the
    # competitors (3 or 4 active in any given slot, as ECN backoff
    # briefly idles a flow) — never the whole budget.
    assert (
        agent.slot_budget_bytes / 5
        < agent.fair_share_bytes
        <= agent.slot_budget_bytes / 3
    )
    assert agent.marked_packets > 0
    assert topo.network.total_drops() == 0
    rates = [s.stats.bytes_acked for s in senders]
    assert jain_fairness(rates) > 0.99


def test_selective_marking_spares_compliant_flows():
    """A heavy flow against a light one: only the overshooting flow's
    packets are marked (depth-based EcnQueue would hit both)."""
    topo = build_topology(
        dumbbell, "fairq", buffer_bytes=256_000, n_senders=2, seed=1
    )
    heavy = open_flow(topo.host(0), topo.host(2), "fairq")
    marked = {True: 0, False: 0}  # is_heavy -> CE-marked deliveries
    receiver_host = topo.hosts[2]
    original = receiver_host.handle_packet

    def spy(packet, in_port_index=0):
        if packet.payload > 0:
            marked[packet.sport == heavy.flow_key[2]] += bool(packet.ecn_ce)
        return original(packet, in_port_index)

    receiver_host.handle_packet = spy
    # The light flow: short trickle bursts well under the fair share.
    light = open_flow(
        topo.host(1), topo.host(2), "fairq", size_bytes=40_000,
        start_ns=milliseconds(5),
    )
    topo.network.run_for(milliseconds(30))
    assert light.stats.bytes_acked == 40_000
    assert marked[True] > 0  # the hog was pushed back...
    assert marked[False] == 0  # ...the compliant flow never saw a mark


def test_reset_forgets_measured_state():
    topo = build_topology(
        dumbbell, "fairq", buffer_bytes=256_000, n_senders=2, seed=1
    )
    open_flow(topo.host(0), topo.host(2), "fairq")
    open_flow(topo.host(1), topo.host(2), "fairq")
    topo.network.run_for(milliseconds(5))
    agent = topo.bottleneck("main").agent
    assert agent.fair_share_bytes < agent.slot_budget_bytes
    agent.reset()
    assert agent.fair_share_bytes == agent.slot_budget_bytes
    assert agent.slot_start_ns == topo.sim.now
    assert not agent._slot_bytes


def _fairq_fingerprint():
    topo = build_topology(
        dumbbell, "fairq", buffer_bytes=256_000, n_senders=4, seed=1
    )
    senders = [
        open_flow(topo.host(i), topo.host(4), "fairq") for i in range(4)
    ]
    topo.network.run_for(milliseconds(10))
    agent = topo.bottleneck("main").agent
    return (
        topo.network.sim.events_processed,
        agent.marked_packets,
        agent.slot_index,
        [s.stats.bytes_acked for s in senders],
    )


def test_fairq_runs_are_bit_identical():
    assert _fairq_fingerprint() == _fairq_fingerprint()


#: (events, marked packets, slot index, bytes acked per flow), captured
#: once.
FAIRQ_PIN = (8169, 222, 99, [315_360, 297_840, 289_080, 275_940])


def test_fairq_run_is_pinned():
    assert _fairq_fingerprint() == FAIRQ_PIN
