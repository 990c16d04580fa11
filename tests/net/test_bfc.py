"""Per-flow backpressure (BFC) unit tests and the PFC differential.

The contract, in order of importance:

1. **Per-flow granularity** — pauses name a single flow; other flows on
   the same link keep flowing (the head-of-line-blocking fix over PFC,
   verified head-to-head at the bottom of this file).
2. **Losslessness in practice** — tiny per-flow thresholds absorb an
   incast with zero drops, and matched pause/resume leaves the fabric
   idle, not wedged.
3. **Determinism** — round-robin service order and pause state are
   structural (deque rotation, callback-driven), so same-seed runs are
   bit-identical.
"""

import hashlib
import json

import pytest

from repro.experiments.common import build_topology
from repro.net.bfc import (
    BFC_PAUSE,
    BfcHostAgent,
    BfcParams,
    BfcPortAgent,
    BfcQueue,
    enable_bfc,
)
from repro.net.network import Network
from repro.net.packet import MTU, Packet
from repro.net.pfc import PfcParams
from repro.net.topology import Topology, dumbbell, fat_tree
from repro.sim.units import GBPS, microseconds, milliseconds
from repro.transport.registry import open_flow


def _packet(sport, seq=0, payload=1000):
    return Packet(src=0, dst=1, sport=sport, dport=9, seq=seq, payload=payload)


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
def test_params_validation():
    BfcParams()  # defaults are self-consistent
    with pytest.raises(ValueError, match="xoff"):
        BfcParams(xoff_bytes=MTU - 1)
    with pytest.raises(ValueError, match="xon"):
        BfcParams(xoff_bytes=3 * MTU, xon_bytes=4 * MTU)
    with pytest.raises(ValueError, match="xon"):
        BfcParams(xon_bytes=0)


# ----------------------------------------------------------------------
# The per-flow queue
# ----------------------------------------------------------------------
def test_per_flow_fifo_and_round_robin():
    """Flows are served round-robin in first-arrival order; packets
    within a flow stay FIFO."""
    queue = BfcQueue(1_000_000)
    for seq in range(3):
        assert queue.enqueue(_packet(sport=1, seq=seq))
    for seq in range(2):
        assert queue.enqueue(_packet(sport=2, seq=seq))
    order = []
    while True:
        packet = queue.dequeue()
        if packet is None:
            break
        order.append((packet.sport, packet.seq))
    assert order == [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]
    assert len(queue) == 0 and queue.byte_length == 0


def test_paused_flow_is_skipped_not_blocking():
    """Pausing one flow starves only that flow — the ring serves the
    others; with every flow paused the queue reports idle (and counts
    the pause-skip, the backpressure-bites signal)."""
    queue = BfcQueue(1_000_000)
    queue.enqueue(_packet(sport=1))
    queue.enqueue(_packet(sport=2))
    queue.pause_flow((0, 1, 1, 9))
    packet = queue.dequeue()
    assert packet.sport == 2
    assert queue.dequeue() is None
    assert queue.pause_skips == 1
    queue.resume_flow((0, 1, 1, 9))
    assert queue.dequeue().sport == 1


def test_threshold_callbacks_fire_on_crossings():
    """XOFF fires once on the upward crossing, XON once on draining back
    to the watermark — no re-signalling while the level stays high."""
    params = BfcParams(xoff_bytes=3 * MTU, xon_bytes=MTU)
    queue = BfcQueue(1_000_000, params)
    events = []
    queue.on_congested = lambda key: events.append(("xoff", key))
    queue.on_drained = lambda key: events.append(("xon", key))
    # 4 x 1500 B > 3 MTU crosses; the 5th does not re-signal.
    for seq in range(5):
        queue.enqueue(_packet(sport=1, seq=seq, payload=1460))
    assert [e[0] for e in events] == ["xoff"]
    # Drain: crossing back under XON signals exactly once.
    while queue.dequeue() is not None:
        pass
    assert [e[0] for e in events] == ["xoff", "xon"]


def test_capacity_overflow_still_drops():
    """Per-flow pause is the primary defence; the shared capacity stays
    a hard drop-tail backstop."""
    queue = BfcQueue(2_000)
    assert queue.enqueue(_packet(sport=1, payload=1460))
    assert not queue.enqueue(_packet(sport=2, payload=1460))
    assert queue.drops == 1


# ----------------------------------------------------------------------
# Install semantics
# ----------------------------------------------------------------------
def test_enable_bfc_installs_agents_and_nic_queues():
    topo = build_topology(dumbbell, "bfc", buffer_bytes=256_000, n_senders=2)
    net = topo.network
    fabric = net.bfc
    assert fabric is not None
    assert enable_bfc(net) is fabric  # idempotent
    for switch in topo.switches:
        for port in switch.ports:
            assert isinstance(port.agent, BfcPortAgent)
            assert isinstance(port.queue, BfcQueue)
    for host in topo.hosts:
        for port in host.ports:
            assert isinstance(port.agent, BfcHostAgent)
            assert isinstance(port.queue, BfcQueue)


# ----------------------------------------------------------------------
# The lossless-in-practice guarantee
# ----------------------------------------------------------------------
def test_incast_pauses_per_flow_without_drops():
    topo = build_topology(dumbbell, "bfc", buffer_bytes=256_000, n_senders=4, seed=1)
    net = topo.network
    senders = [
        open_flow(
            topo.host(i), topo.host(4), "bfc",
            size_bytes=300_000, awnd_bytes=200_000,
        )
        for i in range(4)
    ]
    net.run_for(milliseconds(100))
    fabric = net.bfc
    assert all(s.stats.bytes_acked >= 300_000 for s in senders)
    assert net.total_drops() == 0
    assert fabric.pause_frames > 0
    # Finite flows drained: every XOFF got its XON, nothing stays paused.
    assert fabric.pause_frames == fabric.resume_frames
    assert fabric.paused_flow_count() == 0
    assert fabric.unknown_upstream == 0


def _bfc_incast_fingerprint():
    topo = build_topology(
        dumbbell, "bfc", buffer_bytes=256_000, n_senders=4, seed=1
    )
    senders = [
        open_flow(topo.host(i), topo.host(4), "bfc", awnd_bytes=200_000)
        for i in range(4)
    ]
    topo.network.run_for(milliseconds(20))
    fabric = topo.network.bfc
    return (
        topo.network.sim.events_processed,
        fabric.pause_frames,
        fabric.resume_frames,
        [s.stats.bytes_acked for s in senders],
    )


def test_bfc_runs_are_bit_identical():
    assert _bfc_incast_fingerprint() == _bfc_incast_fingerprint()


#: (events, pause frames, resume frames, bytes acked per flow), captured
#: once: per-flow queues leave ports idle and restart them by ``kick``.
BFC_INCAST_PIN = (16795, 204, 201, [595_680, 594_220, 595_680, 594_220])


def test_bfc_incast_is_pinned():
    assert _bfc_incast_fingerprint() == BFC_INCAST_PIN


# ----------------------------------------------------------------------
# Backpressure across the tiers of a fat tree
# ----------------------------------------------------------------------
def _cross_pod_incast_fingerprint():
    """Every host of pods 1-3 of ``fat_tree(4)`` floods H1 (pod 0).

    Returns events, the XOFFs each tier sent to the tier below it, the
    fabric's drops and a digest of every flow's counters.
    """
    topo = build_topology(fat_tree, "bfc", buffer_bytes=256_000, k=4)
    tiers = {}

    def on_pause(node, upstream, flow_key):
        hop = f"{node[0]}->{upstream[0]}"
        tiers[hop] = tiers.get(hop, 0) + 1

    topo.network.tracer.subscribe(BFC_PAUSE, on_pause)
    victim = topo.hosts[0]
    senders = [
        open_flow(host, victim, "bfc", start_ns=1_000 * i, awnd_bytes=200_000)
        for i, host in enumerate(topo.hosts[4:])
    ]
    topo.network.run_for(milliseconds(2))
    counters = [
        (s.stats.bytes_acked, s.stats.packets_sent, s.receiver.rcv_nxt)
        for s in senders
    ]
    digest = hashlib.sha256(json.dumps(counters).encode("utf-8")).hexdigest()
    return (
        topo.sim.events_processed,
        dict(sorted(tiers.items())),
        topo.network.total_drops(),
        digest[:16],
    )


#: Captured once: per-flow XOFFs step down from the core through the
#: aggregation and edge tiers to the senders' NICs, with no drop.
CROSS_POD_PIN = (
    4938,
    {"A->E": 36, "C->A": 36, "E->H": 24},
    0,
    "3b4e8c827a4f7009",
)


def test_backpressure_crosses_the_pod_core_boundary():
    events, tiers, drops, digest = _cross_pod_incast_fingerprint()
    assert set(tiers) == {"C->A", "A->E", "E->H"}
    assert drops == 0
    assert (events, tiers, drops, digest) == CROSS_POD_PIN


# ----------------------------------------------------------------------
# The differential: per-flow pause avoids HoL victim collapse
# ----------------------------------------------------------------------
def _hol_topology(buffer_bytes=256_000, queue_factory=None, seed=1):
    """Four culprits + one victim behind a shared inter-switch link.

    Culprits C0-C3 incast into HOT (congesting switch B's 1 Gbps egress
    to it); the victim V sends to the idle COLD through the same A->B
    link.  The inter-switch link runs at 4 Gbps so it is *not* itself a
    bottleneck — all congestion lives at B's egress to HOT, and any
    pause B sends up the A->B link is where the two fabrics diverge:
    PFC stops the whole link (victim included), BFC names the culprit
    flows and lets the victim through.
    """
    net = Network(seed=seed, default_buffer_bytes=buffer_bytes)
    a = net.add_switch("A")
    b = net.add_switch("B")
    culprits = [net.add_host(f"C{i}") for i in range(4)]
    victim = net.add_host("V")
    hot = net.add_host("HOT")
    cold = net.add_host("COLD")
    delay = microseconds(5)
    for host in culprits + [victim]:
        net.cable(host, a, GBPS, delay, queue_factory)
    net.cable(a, b, 4 * GBPS, delay, queue_factory)
    net.cable(hot, b, GBPS, delay, queue_factory)
    net.cable(cold, b, GBPS, delay, queue_factory)
    net.build_routes()
    return Topology(
        network=net,
        hosts=culprits + [victim, hot, cold],
        switches=[a, b],
    )


def _run_hol(protocol, **build_kwargs):
    topo = build_topology(
        _hol_topology, protocol, buffer_bytes=256_000, seed=1, **build_kwargs
    )
    culprit_hosts, victim = topo.hosts[:4], topo.hosts[4]
    hot, cold = topo.hosts[5], topo.hosts[6]
    culprits = [
        open_flow(host, hot, protocol, awnd_bytes=200_000)
        for host in culprit_hosts
    ]
    victim_flow = open_flow(victim, cold, protocol, awnd_bytes=200_000)
    topo.network.run_for(milliseconds(20))
    return topo, culprits, victim_flow


def test_per_flow_pause_avoids_hol_victim_collapse():
    """The head-to-head DESIGN.md §6k promises: under per-port PFC the
    victim flow is collaterally paused by the culprits' congestion
    (classic HoL victim collapse); under per-flow BFC the same victim
    runs at a large multiple of its PFC goodput, with zero drops and
    pauses aimed only at the culprit flows."""
    tight = PfcParams(xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000)
    pfc_topo, pfc_culprits, pfc_victim = _run_hol("pfc", pfc_params=tight)
    bfc_topo, bfc_culprits, bfc_victim = _run_hol("bfc")

    # Both fabrics actually paused, and both kept the fabric lossless.
    assert pfc_topo.network.lossless.pause_frames > 0
    assert bfc_topo.network.bfc.pause_frames > 0
    assert pfc_topo.network.total_drops() == 0
    assert bfc_topo.network.total_drops() == 0

    # The culprits saturate HOT's 1 Gbps downlink either way.
    assert sum(s.stats.bytes_acked for s in pfc_culprits) > 1_000_000
    assert sum(s.stats.bytes_acked for s in bfc_culprits) > 1_000_000

    # The victim: collateral damage under PFC, unharmed under BFC.
    assert bfc_victim.stats.bytes_acked >= 2 * pfc_victim.stats.bytes_acked
    # BFC never paused the victim's flow anywhere in the fabric.
    victim_key = bfc_victim.flow_key
    for node in bfc_topo.network.nodes:
        for port in node.ports:
            if isinstance(port.queue, BfcQueue):
                assert victim_key not in port.queue.paused_flows


def _hol_fingerprint(protocol, **build_kwargs):
    topo, culprits, victim = _run_hol(protocol, **build_kwargs)
    net = topo.network
    return (
        net.sim.events_processed,
        [s.stats.bytes_acked for s in culprits + [victim]],
        [
            (port.tx_packets, port.queue.max_bytes_seen, port.queue.drops)
            for node in net.nodes
            for port in node.ports
        ],
    )


#: protocol -> (events, bytes acked per culprit then victim, digest of
#: every port's (tx packets, peak queue bytes, drops)), captured once.
HOL_PINS = {
    "pfc": (
        29758,
        [594_220, 601_520, 582_540, 607_360, 652_620],
        "898b40dcf5e503d8",
    ),
    "bfc": (
        47337,
        [598_600, 598_600, 597_140, 598_600, 2_384_180],
        "92a6f9ff35460472",
    ),
}


@pytest.mark.parametrize("protocol", ["pfc", "bfc"])
def test_hol_head_to_head_is_pinned(protocol):
    """Whole-link (PFC) and per-flow (BFC) pauses on a shared uplink."""
    kwargs = {}
    if protocol == "pfc":
        kwargs["pfc_params"] = PfcParams(
            xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000
        )
    events, acked, ports = _hol_fingerprint(protocol, **kwargs)
    digest = hashlib.sha256(json.dumps(ports).encode("utf-8")).hexdigest()
    assert (events, acked, digest[:16]) == HOL_PINS[protocol]
