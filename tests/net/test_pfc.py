"""Lossless fabric (PFC) unit tests: thresholds, headroom, propagation.

The contract under test, in order of importance:

1. **Losslessness** — with tight XOFF/XON watermarks an incast that
   would overflow a drop-tail buffer instead pauses upstream and drops
   nothing, and per-ingress occupancy never exceeds XOFF + headroom.
2. **Propagation** — pause frames reach host NICs (the transmitters
   actually feeding the congestion), and every pause is eventually
   matched by a resume once the ingress drains to XON.
3. **Determinism** — two same-seed runs are bit-identical, because the
   detectors and golden shards rely on it.
4. **Composability** — ``enable_pfc`` sets ``port.fabric`` and leaves
   the protocol agent in ``port.agent`` alone, so install order does not
   matter; it installs exactly once, and TFC under a lossless fabric
   never trips a pause at all.
"""

import hashlib
import json

import pytest

from repro.core.switch_agent import TfcPortAgent, enable_tfc
from repro.experiments.common import build_topology
from repro.net.fairq import enable_fairq
from repro.net.packet import MTU, Packet
from repro.net.pfc import (
    PfcIngress,
    PfcParams,
    default_params_for,
    enable_pfc,
    peer_tx_port,
)
from repro.net.topology import dumbbell, fat_tree
from repro.sim.trace import PFC_PAUSE, PFC_RESUME
from repro.sim.units import microseconds, milliseconds
from repro.transport.registry import get_protocol, open_flow
from tests.frames import apply_frame

#: Watermarks low enough that a 4-way incast pauses within a millisecond.
TIGHT = PfcParams(xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000)


def _incast(protocol, n_senders=4, duration_ms=20, params=TIGHT, seed=1):
    topo = build_topology(
        dumbbell,
        protocol,
        buffer_bytes=256_000,
        n_senders=n_senders,
        seed=seed,
        pfc_params=params,
    )
    senders = [
        open_flow(
            topo.host(i), topo.host(n_senders), protocol, awnd_bytes=200_000
        )
        for i in range(n_senders)
    ]
    topo.network.run_for(milliseconds(duration_ms))
    return topo, senders


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
def test_params_validation():
    PfcParams()  # defaults are self-consistent
    with pytest.raises(ValueError, match="xoff"):
        PfcParams(xoff_bytes=0)
    with pytest.raises(ValueError, match="xon"):
        PfcParams(xoff_bytes=10_000, xon_bytes=20_000)
    with pytest.raises(ValueError, match="xon"):
        PfcParams(xon_bytes=0)
    with pytest.raises(ValueError, match="headroom"):
        PfcParams(headroom_bytes=MTU - 1)
    with pytest.raises(ValueError, match="lossless class"):
        PfcParams(lossless_classes=())


def test_default_params_scale_with_buffer():
    params = default_params_for(256_000)
    assert params.xoff_bytes == 128_000
    assert params.headroom_bytes == 128_000
    assert 0 < params.xon_bytes <= params.xoff_bytes
    # Degenerate buffers still yield a valid (MTU-floored) config.
    tiny = default_params_for(1_000)
    assert tiny.headroom_bytes >= MTU


# ----------------------------------------------------------------------
# The lossless guarantee
# ----------------------------------------------------------------------
def test_incast_pauses_instead_of_dropping():
    """Tight watermarks under a TCP incast: pauses fire, nothing drops,
    and occupancy stays inside XOFF + headroom everywhere."""
    topo, senders = _incast("pfc")
    net = topo.network
    fab = net.lossless
    assert fab.pause_frames > 0
    assert net.total_drops() == 0
    assert fab.headroom_overflows == 0
    assert fab.max_ingress_bytes() <= TIGHT.xoff_bytes + TIGHT.headroom_bytes
    # The incast made progress while pausing (not a livelock).
    assert all(s.stats.bytes_acked > 0 for s in senders)


def test_every_pause_matched_by_resume_on_drain():
    """Once finite flows complete, ingresses drain to XON, every paused
    port resumes, and the accounting returns to zero: the fabric ends
    idle, not wedged."""
    topo = build_topology(
        dumbbell, "pfc", buffer_bytes=256_000, n_senders=4, seed=1,
        pfc_params=TIGHT,
    )
    net = topo.network
    senders = [
        open_flow(
            topo.host(i), topo.host(4), "pfc",
            size_bytes=300_000, awnd_bytes=200_000,
        )
        for i in range(4)
    ]
    net.run_for(milliseconds(100))
    fab = net.lossless
    assert all(s.stats.bytes_acked >= 300_000 for s in senders)
    assert fab.pause_frames > 0
    assert not fab.any_paused()
    assert all(i.bytes == 0 for i in fab.ingresses.values())
    assert all(not i.paused_classes for i in fab.ingresses.values())
    # Pause intervals all closed (every XOFF has its XON).
    for intervals in fab.pause_intervals.values():
        assert all(end is not None for _, end in intervals)


def test_pause_reaches_host_nics():
    """The dumbbell's congested ingresses face the sending hosts, so
    pause frames must land on (and stop) host NIC ports.  Host pauses
    surface through the trace stream (``port=`` names the throttled
    transmitter), which is also what the storm detector consumes."""
    from repro.sim.trace import PFC_PAUSE

    topo = build_topology(
        dumbbell, "pfc", buffer_bytes=256_000, n_senders=4, seed=1,
        pfc_params=TIGHT,
    )
    net = topo.network
    paused_targets = []
    net.tracer.subscribe(
        PFC_PAUSE, lambda port=None, **_kw: paused_targets.append(port)
    )
    hosts = set(topo.hosts)
    host_paused_seen = []

    def probe():  # 50 µs sampling of actual NIC transmitter state
        if any(host.ports[0].paused for host in hosts):
            host_paused_seen.append(net.sim.now)
        net.sim.schedule(50_000, probe)

    net.sim.schedule(50_000, probe)
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "pfc", awnd_bytes=200_000)
    net.run_for(milliseconds(20))
    # Pause frames targeted host NICs...
    assert any(port.node in hosts for port in paused_targets if port)
    # ...and actually stopped at least one NIC transmitter.
    assert host_paused_seen


def test_best_effort_priority_is_never_charged():
    """Packets outside the lossless class set bypass ingress accounting
    entirely (they can still drop; they can never cause a pause)."""

    class BestEffort(Packet):
        __slots__ = ()
        priority = 7  # not in TIGHT.lossless_classes

    topo, _ = _incast("pfc", duration_ms=1)
    fab = topo.network.lossless
    ingress = next(iter(fab.ingresses.values()))
    before = ingress.bytes
    packet = BestEffort(src=0, dst=1, sport=1, dport=1, payload=1000)
    ingress.charge(packet)
    assert ingress.bytes == before
    assert packet.pfc_ingress is None


# ----------------------------------------------------------------------
# Pause/resume port semantics
# ----------------------------------------------------------------------
def test_xoff_pauses_port_and_xon_resumes():
    """Direct fabric-level check of the pause state machine, including
    the any-class-pauses-the-port collapse the module documents."""
    topo = build_topology(
        dumbbell, "pfc", buffer_bytes=256_000, n_senders=2, seed=1,
        pfc_params=TIGHT,
    )
    fab = topo.network.lossless
    port = topo.switches[0].ports[0]
    ingress = port.fabric
    assert isinstance(ingress, PfcIngress)

    apply_frame(port, "xoff", 0)
    assert port.paused
    assert port in fab.paused_ports
    # A second class pausing changes nothing; resuming only one of the
    # two keeps the port stopped.
    apply_frame(port, "xoff", 1)
    apply_frame(port, "xon", 0)
    assert port.paused
    apply_frame(port, "xon", 1)
    assert not port.paused
    assert port not in fab.paused_ports
    assert fab.pause_events == 1
    assert fab.resume_events == 1


def test_reset_clears_pause_state():
    """The fault hook (switch reboot) forgets pause state and restarts
    the transmitter — a rebooted switch must not stay wedged."""
    topo = build_topology(
        dumbbell, "pfc", buffer_bytes=256_000, n_senders=2, seed=1,
        pfc_params=TIGHT,
    )
    fab = topo.network.lossless
    port = topo.switches[0].ports[0]
    apply_frame(port, "xoff", 0)
    assert port.paused
    port.fabric.reset()
    assert not port.paused
    assert port not in fab.paused_ports


def test_reset_while_paused_closes_the_pause():
    """A reset leaves the paused state through the same transition as an
    XON: the pause interval closes at the reset and the resume counts,
    so every XOFF still has its XON."""
    topo = build_topology(
        dumbbell, "pfc", buffer_bytes=256_000, n_senders=2, seed=1,
        pfc_params=TIGHT,
    )
    net = topo.network
    fab = net.lossless
    port = topo.switches[0].ports[0]
    apply_frame(port, "xoff", 0)
    net.run_for(1_000)
    port.fabric.reset()
    assert fab.pause_intervals[port] == [[0, 1_000]]
    assert (fab.pause_events, fab.resume_events) == (1, 1)

    net.run_for(1_000)
    apply_frame(port, "xoff", 0)
    net.run_for(1_000)
    apply_frame(port, "xon", 0)
    assert fab.pause_intervals[port] == [[0, 1_000], [2_000, 3_000]]
    assert (fab.pause_events, fab.resume_events) == (2, 2)
    # A reset with nothing paused closes nothing and counts nothing.
    port.fabric.reset()
    assert fab.resume_events == 2


def test_peer_tx_port_finds_reverse_transmitter():
    topo = build_topology(
        dumbbell, "pfc", buffer_bytes=256_000, n_senders=2, seed=1,
        pfc_params=TIGHT,
    )
    for switch in topo.switches:
        for port in switch.ports:
            peer = peer_tx_port(port)
            assert peer is not None
            assert peer.node is port.peer_node
            assert peer.link.dst_node is port.node
            assert peer.link.dst_port_index == port.index


# ----------------------------------------------------------------------
# Install semantics
# ----------------------------------------------------------------------
def test_enable_pfc_is_idempotent():
    topo = build_topology(
        dumbbell, "pfc", buffer_bytes=256_000, n_senders=2, seed=1,
        pfc_params=TIGHT,
    )
    net = topo.network
    fab = net.lossless
    assert fab is not None
    assert enable_pfc(net) is fab
    assert enable_pfc(net, PfcParams()) is fab  # params of 2nd call ignored
    assert fab.params is TIGHT
    # One ingress per switch port, in the fabric role; TCP+PFC runs no
    # protocol agent on the switch.
    for switch in topo.switches:
        for port in switch.ports:
            assert port.fabric is fab.ingresses[port]
            assert port.agent is None


def _tfc_incast_with_pfc(pfc_first):
    """A TFC incast on a PFC-armed dumbbell, PFC installed before or
    after TFC; returns what a run can tell about both roles."""
    topo = dumbbell(
        n_senders=4, seed=1, queue_factory=get_protocol("tfc").port_queue_factory(256_000)
    )
    net = topo.network
    if pfc_first:
        enable_pfc(net, TIGHT)
        enable_tfc(net)
    else:
        enable_tfc(net)
        enable_pfc(net, TIGHT)
    senders = [
        open_flow(topo.host(i), topo.host(4), "tfc", awnd_bytes=200_000)
        for i in range(4)
    ]
    net.run_for(milliseconds(5))
    fab = net.lossless
    for switch in topo.switches:
        for port in switch.ports:
            assert isinstance(port.agent, TfcPortAgent)
            assert port.fabric is fab.ingresses[port]
    return (
        net.sim.events_processed,
        [s.stats.bytes_acked for s in senders],
        topo.bottleneck().agent.tokens,
        sorted(
            (ingress.name, ingress.max_bytes_seen)
            for ingress in fab.ingresses.values()
        ),
    )


def test_pfc_and_tfc_install_in_either_order():
    """PFC (``port.fabric``) and TFC (``port.agent``) do not wrap each
    other, so installing PFC first gives the same run."""
    usual = _tfc_incast_with_pfc(pfc_first=False)
    assert usual == _tfc_incast_with_pfc(pfc_first=True)
    assert any(peak > 0 for _, peak in usual[3])  # the fabric saw traffic


def test_a_second_protocol_on_a_port_is_refused():
    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=2)
    port = topo.switches[0].ports[0]
    with pytest.raises(ValueError) as excinfo:
        enable_fairq(topo.network)
    message = str(excinfo.value)
    assert f"{port.node.name}[{port.index}]" in message
    assert "TfcPortAgent" in message and "FairqPortAgent" in message
    assert isinstance(port.agent, TfcPortAgent)
    # Re-installing the same protocol replaces its agents (fresh state).
    agent = port.agent
    enable_tfc(topo.network)
    assert isinstance(port.agent, TfcPortAgent) and port.agent is not agent


def test_tfc_under_lossless_fabric_never_pauses():
    """TFC's token admission keeps ingress occupancy far below even the
    tight XOFF watermark: the fabric stays silent end to end."""
    topo, senders = _incast("tfc")
    fab = topo.network.lossless
    assert fab.pause_frames == 0
    assert fab.resume_frames == 0
    assert fab.max_ingress_bytes() < TIGHT.xoff_bytes
    assert topo.network.total_drops() == 0
    assert all(s.stats.bytes_acked > 0 for s in senders)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def _pfc_incast_fingerprint():
    topo, senders = _incast("pfc")
    net = topo.network
    fab = net.lossless
    return (
        net.sim.events_processed,
        fab.pause_frames,
        fab.resume_frames,
        [s.stats.bytes_acked for s in senders],
        sorted(
            (ingress.name, ingress.max_bytes_seen)
            for ingress in fab.ingresses.values()
        ),
    )


def test_pfc_runs_are_bit_identical():
    """Same seed, same results — down to per-ingress peak occupancy and
    the exact pause/resume frame counts."""
    assert _pfc_incast_fingerprint() == _pfc_incast_fingerprint()


#: (events, pause frames, resume frames, bytes acked per flow, digest of
#: the per-ingress peaks), captured once: XOFF/XON pause and resume host
#: ports and release ingress buffer from ``on_dequeue``.
PFC_INCAST_PIN = (
    16656,
    63,
    60,
    [598_600, 584_000, 598_600, 598_600],
    "92c5f6d677ae9378",
)


def test_pfc_incast_is_pinned():
    *head, peaks = _pfc_incast_fingerprint()
    digest = hashlib.sha256(json.dumps(peaks).encode("utf-8")).hexdigest()
    assert (*head, digest[:16]) == PFC_INCAST_PIN


# ----------------------------------------------------------------------
# Pause frames crossing the pod/core boundary of a fat tree
# ----------------------------------------------------------------------
#: (events, pause frames sent per core ingress, pauses per aggregation
#: uplink, fingerprint digest), captured once.
CROSS_POD_PIN = (
    4537,
    [("C0_0<-A1_0", 3), ("C0_0<-A2_0", 1), ("C0_0<-A3_0", 4)],
    [("A1_0->C0_0", 3), ("A2_0->C0_0", 1), ("A3_0->C0_0", 4)],
    "d0e926cc8bb704b8",
)


def _cross_pod_incast(on_pause=None, on_resume=None):
    """Cross-pod incast: every host of pods 1-3 floods H1 (pod 0).

    Congestion builds where the victim's pod meets the core, and the
    core pauses the aggregation switches feeding it: pause frames cross
    from the core layer into the pods.  ``on_pause(now, record)`` sees
    every XOFF as it is sent, ``on_resume`` every XON.
    """
    topo = build_topology(fat_tree, "pfc", buffer_bytes=16_000, k=4)
    for topic, handler in ((PFC_PAUSE, on_pause), (PFC_RESUME, on_resume)):
        if handler is not None:
            topo.network.tracer.subscribe(
                topic,
                lambda handler=handler, **record: handler(topo.sim.now, record),
            )
    victim = topo.hosts[0]
    flows = [
        (
            f"{host.name}->{victim.name}",
            open_flow(
                host, victim, "pfc", start_ns=1_000 * i, awnd_bytes=200_000
            ),
        )
        for i, host in enumerate(topo.hosts[4:])
    ]
    topo.network.run_for(milliseconds(2))
    return topo, flows


def _cross_pod_incast_fingerprint():
    """Events, XOFFs sent per core ingress, pauses per aggregation uplink,
    and a digest of each flow's counters, each ingress's PFC state and
    each node's drops."""
    sent_by = {}  # ingress name -> [XOFFs, XONs] it sent

    def count(index):
        def on_frame(now, record):
            sent_by.setdefault(record["ingress"], [0, 0])[index] += 1

        return on_frame

    topo, flows = _cross_pod_incast(count(0), count(1))
    fabric = topo.network.lossless
    out = {}
    for label, sender in flows:
        receiver = sender.receiver
        out[f"{label}:tx"] = (
            sender.stats.bytes_acked,
            sender.stats.packets_sent,
            sender.stats.retransmissions,
        )
        out[f"{label}:rx"] = (receiver.bytes_received, receiver.rcv_nxt)
    for ingress in fabric.ingresses.values():
        pauses, resumes = sent_by.get(ingress.name, (0, 0))
        out[f"{ingress.name}:pfc"] = (pauses, resumes, ingress.max_bytes_seen)
    for node in topo.network.nodes:
        out[f"{node.name}:drops"] = sum(port.queue.drops for port in node.ports)
    sent = sorted(
        (name, pauses)
        for name, (pauses, _) in sent_by.items()
        if name.startswith("C") and pauses
    )
    paused = sorted(
        (f"{port.node.name}->{port.peer_node.name}", len(intervals))
        for port, intervals in fabric.pause_intervals.items()
        if port.node.name.startswith("A")
    )
    digest = hashlib.sha256(
        json.dumps(out, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return topo.sim.events_processed, sent, paused, digest


def test_pause_frames_cross_the_pod_core_boundary():
    events, sent, paused, digest = _cross_pod_incast_fingerprint()
    # The core sent pauses, and aggregation uplinks into it were paused.
    assert sent and all(count > 0 for _, count in sent)
    assert paused and all(
        link.split("->")[1].startswith("C") for link, _ in paused
    )
    assert (events, sent, paused, digest) == CROSS_POD_PIN


def test_core_pauses_reach_aggregation_after_one_link_delay():
    """An XOFF is carried straight on the cable, ahead of any queued
    data: each one the core sends pauses its aggregation uplink exactly
    one 5 us propagation delay later."""
    sent = []

    def on_pause(now, record):
        if record["node"].startswith("C"):
            sent.append((record["port"].node.name, now + microseconds(5)))

    topo, _ = _cross_pod_incast(on_pause)
    started = [
        (port.node.name, start)
        for port, intervals in topo.network.lossless.pause_intervals.items()
        if port.node.name.startswith("A")
        for start, _end in intervals
    ]
    assert len(sent) == 8
    assert sorted(started) == sorted(sent)
