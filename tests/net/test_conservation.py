"""Packet conservation: every frame is accounted for, under every fault.

An oracle that shares no code with the datapath.  Each case runs a
network until no event is pending and then balances three ledgers from
the counters the datapath keeps anyway, plus one independent count:
every ``Link.carry`` call (the path PFC and BFC control frames take,
bypassing the transmitting port) is tallied per destination node.

* **Queue:** every packet a queue admitted either left on the wire or
  is still queued: ``enqueues == port.tx_packets + packet_length``.
* **Cable:** a node received every frame its inbound cables delivered —
  the upstream ports' transmissions plus the control frames carried to
  it, minus the frames a cut cable swallowed (``faulted_frames``).
* **Switch:** every frame a switch received was offered to an egress
  queue (admitted or dropped), or consumed on the way: a PFC/BFC
  control frame, or an RMA ACK the TFC delay arbiter dropped or still
  parks.

Cases: the 8 registered transports on the dumbbell under no fault and
under each transport-agnostic fault primitive; a switch reboot for every
transport with switch state, and TFC's delimiter kill; and the 8
transports on an ECMP fat tree, healthy and with an aggregation uplink
cut under ``reroute=True``.  Every case also asserts that its fault took
effect, so a fault that silently does nothing cannot pass.
"""

from collections import Counter

import pytest

from repro.experiments.common import build_topology
from repro.faults import FaultInjector
from repro.faults.engine import reverse_port
from repro.net.port import Link
from repro.net.topology import dumbbell, fat_tree
from repro.sim.trace import FAULT_CLEARED, FAULT_INJECTED
from repro.sim.units import milliseconds, seconds
from repro.transport.base import FlowState
from repro.transport.registry import open_flow, registered_protocols

TRANSPORTS = registered_protocols()
FLOW_BYTES = 400_000
N_SENDERS = 4
#: Drain bounds, far above any case that quiesces (<= 24 ms simulated,
#: <= 30 k events): a run still busy at either one never quiesces.
DRAIN_NS = seconds(1)
MAX_EVENTS = 100_000

#: Cases that never quiesce, by the leak that keeps them running.
LEAKS = {
    ("bfc", "link_flap"): (
        "leak: a BFC XON carried onto the cut cable is lost, so the "
        "sender's NIC keeps its flow paused forever while the RTO re-fires"
    ),
    ("tracks", "kill_flow"): (
        "leak: the T-RACKs receiver's tail timer keeps ACKing the aborted "
        "sender forever"
    ),
}


def _leak_mark(protocol, fault):
    """A strict xfail naming the leak, when the case has one."""
    return pytest.mark.xfail(
        (protocol, fault) in LEAKS, strict=True, raises=AssertionError,
        reason=LEAKS.get((protocol, fault), ""),
    )


@pytest.fixture
def carried(monkeypatch):
    """Count every ``Link.carry`` call by destination node."""
    counts = Counter()
    original = Link.carry

    def counting(link, packet):
        counts[link.dst_node] += 1
        return original(link, packet)

    monkeypatch.setattr(Link, "carry", counting)
    return counts


def _drain(net):
    net.sim.run(until_ns=DRAIN_NS, max_events=MAX_EVENTS)
    assert net.sim.pending_events == 0, "the run never quiesced"


def _check_ledgers(net, carried):
    # Queue ledger.
    for node in net.nodes:
        for port in node.ports:
            queue = port.queue
            assert queue.enqueues == port.tx_packets + queue.packet_length, (
                node.name, port.index,
            )
    # Cable ledger.
    delivered = Counter()
    for node in net.nodes:
        for port in node.ports:
            link = port.link
            delivered[link.dst_node] += (
                port.tx_packets - link.faulted_frames
            )
    for node in net.nodes:
        expected = delivered[node] + carried[node]
        assert node.rx_packets == expected, node.name
    # Switch ledger.
    for switch in net.switches:
        offered = sum(p.queue.enqueues + p.queue.drops for p in switch.ports)
        consumed = carried[switch]
        for port in switch.ports:
            arbiter = getattr(port.agent, "delay_arbiter", None)
            if arbiter is not None:
                consumed += arbiter.dropped_acks + arbiter.queued
        assert switch.rx_packets == offered + consumed, switch.name
    # Every carried frame is a control frame some fabric counted.
    control = 0
    if net.lossless is not None:
        control += net.lossless.pause_frames + net.lossless.resume_frames
    bfc = getattr(net, "bfc", None)
    if bfc is not None:
        control += bfc.pause_frames + bfc.resume_frames
    assert sum(carried[node] for node in net.nodes) == control


def _dumbbell(protocol):
    topo = build_topology(
        dumbbell, protocol, buffer_bytes=256_000, n_senders=N_SENDERS, seed=1
    )
    receiver = topo.host(N_SENDERS)
    senders = [
        open_flow(topo.host(i), receiver, protocol, size_bytes=FLOW_BYTES)
        for i in range(N_SENDERS)
    ]
    return topo, senders


def _probe(net, at_ns, read):
    """Record ``read()`` at ``at_ns`` (one extra event; moves no frame)."""
    seen = []
    net.sim.schedule_at(at_ns, lambda: seen.append(read()))
    return seen


def _link_flap(topo, injector, senders):
    port = topo.host(0).ports[0]
    reverse = reverse_port(port)
    injector.link_flap(port, at_ns=milliseconds(2), down_ns=milliseconds(3))
    return lambda: port.link.faulted_frames + reverse.link.faulted_frames > 0


def _degrade(topo, injector, senders):
    port = topo.bottleneck()
    injector.degrade_link(
        port, 0.25, at_ns=milliseconds(2), duration_ns=milliseconds(4)
    )
    net = topo.network
    start = _probe(net, milliseconds(2) + 1, lambda: (
        port.link.effective_rate_bps, port.tx_packets
    ))
    end = _probe(net, milliseconds(6) - 1, lambda: port.tx_packets)
    # Frames were serialised at the degraded rate.
    return lambda: (
        start[0][0] == port.link.rate_bps // 4 and end[0] > start[0][1]
    )


def _burst_loss(topo, injector, senders):
    port = topo.bottleneck()
    injector.burst_loss(
        port, at_ns=milliseconds(2), duration_ns=milliseconds(4),
        mean_gap_packets=40.0,
    )
    return lambda: port.queue.faulted_drops > 0


def _ack_loss(topo, injector, senders):
    port = topo.host(N_SENDERS).ports[0]  # the receiver's ACK path
    injector.ack_loss(port, at_ns=milliseconds(2), duration_ns=milliseconds(4))
    return lambda: port.queue.faulted_drops > 0


def _switch_ack_loss(topo, injector, senders):
    # The switch egress carrying sender 0's ACKs, after any delay arbiter.
    port = topo.switches[0].port_towards(topo.host(0).node_id)
    injector.ack_loss(port, at_ns=milliseconds(2), duration_ns=milliseconds(4))
    return lambda: port.queue.faulted_drops > 0


def _host_pause(topo, injector, senders):
    receiver = topo.host(N_SENDERS)
    injector.pause_host(
        receiver, at_ns=milliseconds(2), duration_ns=milliseconds(3)
    )
    # Frames that arrived during the stall were held, not delivered.
    held = _probe(
        topo.network, milliseconds(5) - 1, lambda: len(receiver._paused_rx)
    )
    return lambda: receiver.pauses == 1 and held[0] > 0


def _sender_pause(topo, injector, senders):
    sender = topo.host(0)
    injector.pause_host(
        sender, at_ns=milliseconds(2), duration_ns=milliseconds(3)
    )
    # ACKs held by the stalled host, or data queued behind its NIC.
    stalled = _probe(
        topo.network,
        milliseconds(5) - 1,
        lambda: len(sender._paused_rx) + len(sender.ports[0].queue),
    )
    return lambda: sender.pauses == 1 and stalled[0] > 0


def _kill_flow(topo, injector, senders):
    victim = senders.pop(0)
    injector.kill_flow(victim, at_ns=milliseconds(2))
    return lambda: (
        victim.state is FlowState.DONE and victim.stats.complete_ns is None
    )


DUMBBELL_FAULTS = {
    "none": None,
    "link_flap": _link_flap,
    "degrade": _degrade,
    "burst_loss": _burst_loss,
    "ack_loss": _ack_loss,
    "switch_ack_loss": _switch_ack_loss,
    "host_pause": _host_pause,
    "sender_pause": _sender_pause,
    "kill_flow": _kill_flow,
}


def _run_dumbbell(protocol, fault, carried):
    topo, senders = _dumbbell(protocol)
    net = topo.network
    injector = FaultInjector(net)
    took_effect = None
    if DUMBBELL_FAULTS[fault] is not None:
        took_effect = DUMBBELL_FAULTS[fault](topo, injector, senders)
    _drain(net)
    if took_effect is not None:
        assert net.tracer.counters[FAULT_INJECTED] == 1
        assert took_effect(), f"{fault} had no effect on {protocol}"
    for sender in senders:  # the survivors delivered every byte
        assert sender.stats.bytes_acked == FLOW_BYTES
        assert sender.receiver.bytes_received == FLOW_BYTES
    _check_ledgers(net, carried)
    return net


@pytest.mark.parametrize(
    "protocol, fault",
    [
        pytest.param(protocol, fault, marks=_leak_mark(protocol, fault))
        for protocol in TRANSPORTS
        for fault in sorted(DUMBBELL_FAULTS)
    ],
)
def test_dumbbell_conserves_packets(protocol, fault, carried):
    _run_dumbbell(protocol, fault, carried)


#: transport -> the switch state a reboot wipes, read at the bottleneck.
RESET_STATE = {
    "tfc": lambda topo: topo.bottleneck().agent.delimiter_key is not None,
    "bfc": lambda topo: bool(
        topo.network.bfc._ingress[topo.switches[0].node_id]
    ),
    "fairq": lambda topo: (
        topo.bottleneck().agent.fair_share_bytes
        < topo.bottleneck().agent.slot_budget_bytes
    ),
}


@pytest.mark.parametrize(
    "protocol",
    [
        pytest.param(protocol, marks=_leak_mark(protocol, "switch_reset"))
        for protocol in sorted(RESET_STATE)
    ],
)
def test_switch_reset_conserves_packets(protocol, carried):
    topo, senders = _dumbbell(protocol)
    net = topo.network
    learned = RESET_STATE[protocol]
    at_ns = milliseconds(4)
    # Same-instant probes run in schedule order: before and after the reset.
    before = _probe(net, at_ns, lambda: learned(topo))
    FaultInjector(net).reset_switch(topo.switches[0], at_ns=at_ns)
    after = _probe(net, at_ns, lambda: learned(topo))
    _drain(net)
    assert net.tracer.counters[FAULT_INJECTED] == 1
    assert before == [True] and after == [False]  # the reboot wiped it
    for sender in senders:
        assert sender.receiver.bytes_received == FLOW_BYTES
    _check_ledgers(net, carried)


def test_tfc_delimiter_kill_conserves_packets(carried):
    topo, senders = _dumbbell("tfc")
    net = topo.network
    injector = FaultInjector(net)
    record = injector.kill_delimiter(
        topo.bottleneck(), senders, at_ns=milliseconds(4)
    )
    _drain(net)
    victim = record.detail["delimiter_key"]
    assert victim is not None
    assert net.tracer.counters[FAULT_INJECTED] == 1
    for sender in senders:
        if sender.flow_key == victim:
            assert sender.stats.complete_ns is None  # aborted mid-flow
        else:
            assert sender.receiver.bytes_received == FLOW_BYTES
    _check_ledgers(net, carried)


@pytest.mark.parametrize("fault", ["none", "link_down_reroute"])
@pytest.mark.parametrize("protocol", TRANSPORTS)
def test_fat_tree_conserves_packets(protocol, fault, carried):
    topo = build_topology(
        fat_tree, protocol, buffer_bytes=256_000, k=4, seed=3, routing="ecmp"
    )
    net = topo.network
    if fault != "none":
        FaultInjector(net).link_down(
            topo.switches[0].ports[2],  # an aggregation uplink, both ways
            at_ns=milliseconds(1),
            duration_ns=milliseconds(5),
            reroute=True,
        )
    senders = [
        open_flow(
            topo.hosts[i], topo.hosts[8 + i], protocol, size_bytes=FLOW_BYTES
        )
        for i in range(4)
    ]
    _drain(net)
    if fault != "none":
        assert net.tracer.counters[FAULT_CLEARED] == 1
        assert net.route_rebuilds >= 2  # cut and restore both re-routed
    for sender in senders:
        assert sender.receiver.bytes_received == FLOW_BYTES
    _check_ledgers(net, carried)
