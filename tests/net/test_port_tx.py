"""The port's one TX path, alone and under mid-frame interference.

A port serialises one frame at a time: the frame on the wire finishes at
the time committed when it started, and every interaction (a rate change,
a pause, a cut cable) takes effect from the next frame.  Expected times
are computed here from frame sizes and link rates alone.
"""

import pytest
from hypothesis import given, strategies as st

from repro.experiments.common import build_topology
from repro.net.bfc import BfcQueue
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import HEADER_BYTES, MSS, Packet
from repro.net.pfc import PfcParams
from repro.net.port import Link, Port
from repro.net.queues import DropTailQueue, LossModel
from repro.net.topology import dumbbell
from repro.sim.engine import Simulator
from repro.sim.trace import PACKET_DROP, Tracer
from repro.sim.units import GBPS, microseconds, transmission_time_ns
from tests.arrivals import frames_received, spy_arrivals
from tests.frames import apply_frame

DELAY = microseconds(1)


class Recorder(Node):
    """Logs ``(arrival_ns, packet)`` for every frame it receives."""

    def __init__(self, sim):
        super().__init__(sim, 0, "rec", Tracer())
        self.arrivals = []

    def receive(self, packet, in_port_index):
        self.rx_packets += 1
        self.rx_bytes += packet.frame_size
        self.arrivals.append((self.sim.now, packet))


def _port(sim, rate=GBPS, delay=DELAY, queue=None, tracer=None):
    """A port feeding a :class:`Recorder` over one link."""
    sink = Recorder(sim)
    link = Link(sim, rate, delay, sink, 0)
    if queue is None:
        queue = DropTailQueue(1_000_000)
    return Port(sim, sink, 0, link, queue, tracer), sink


def _packets(*payloads, sport=3):
    return [Packet(1, 2, sport, 4, payload=size) for size in payloads]


def _back_to_back(packets, rate, start=0):
    """Completion times of ``packets`` sent back to back from ``start``."""
    done = []
    t = start
    for packet in packets:
        t += transmission_time_ns(packet.frame_size, rate)
        done.append(t)
    return done


def test_idle_port_starts_serialising_at_send():
    sim = Simulator()
    port, sink = _port(sim)
    sim.run(until_ns=500)
    (packet,) = _packets(MSS)
    assert port.send(packet)
    sim.run()
    assert sink.arrivals == [(_back_to_back([packet], GBPS, 500)[0] + DELAY, packet)]


@pytest.mark.parametrize(
    "rate", [GBPS, 3 * GBPS, 25 * GBPS, 100 * GBPS], ids=lambda r: f"{r // GBPS}G"
)
def test_back_to_back_frames_finish_at_the_sum_of_per_frame_times(rate):
    sim = Simulator()
    port, sink = _port(sim, rate=rate)
    packets = _packets(MSS, 0, 700, MSS, 1)
    for packet in packets:
        port.send(packet)
    sim.run()
    done = _back_to_back(packets, rate)
    assert sink.arrivals == [(t + DELAY, p) for t, p in zip(done, packets)]


@given(
    st.lists(st.integers(min_value=0, max_value=9_000), min_size=1, max_size=20),
    st.integers(min_value=1_000, max_value=400 * GBPS),
)
def test_property_arrivals_are_running_sums_of_per_frame_times(payloads, rate):
    sim = Simulator()
    port, sink = _port(sim, rate=rate)
    packets = _packets(*payloads)
    for packet in packets:
        port.send(packet)
    sim.run()
    done = _back_to_back(packets, rate)
    assert sink.arrivals == [(t + DELAY, p) for t, p in zip(done, packets)]


@given(
    st.lists(st.integers(min_value=0, max_value=MSS), min_size=1, max_size=12),
    st.lists(st.integers(min_value=0, max_value=200_000), max_size=8),
)
def test_property_pauses_never_reorder_or_lose_frames(payloads, toggles):
    """Pause and resume the port at arbitrary instants: every frame still
    arrives exactly once, in send order, no earlier than back to back."""
    sim = Simulator()
    port, sink = _port(sim)
    packets = _packets(*payloads)
    for packet in packets:
        port.send(packet)
    for i, at in enumerate(sorted(toggles)):
        sim.schedule(at, port.resume if i % 2 else port.pause)
    sim.schedule(200_001, port.resume)
    sim.run()
    assert [p for _, p in sink.arrivals] == packets
    earliest = _back_to_back(packets, GBPS)
    assert all(t >= e + DELAY for (t, _), e in zip(sink.arrivals, earliest))
    assert port.queue.packet_length == 0


def test_each_frame_is_rounded_up_on_its_own():
    """Minimum-size frames at 3 Gb/s: 512 bits take 170.67 ns, so each
    frame is charged 171 ns and the third ends at 513 ns, not at the
    rounded-up total of 512 ns."""
    sim = Simulator()
    port, sink = _port(sim, rate=3 * GBPS, delay=0)
    packets = _packets(0, 0, 0)
    for packet in packets:
        port.send(packet)
    sim.run()
    assert [p.frame_size for p in packets] == [64, 64, 64]
    assert [t for t, _ in sink.arrivals] == [171, 342, 513]


def test_full_queue_refuses_the_frame_and_counts_the_drop():
    """The first frame goes straight onto the wire; two more fill the
    queue; the fourth is refused, counted and traced, never sent."""
    sim = Simulator()
    tracer = Tracer()
    port, sink = _port(
        sim, queue=DropTailQueue(2 * (MSS + HEADER_BYTES)), tracer=tracer
    )
    packets = _packets(MSS, MSS, MSS, MSS)
    assert [port.send(p) for p in packets] == [True, True, True, False]
    assert port.queue.drops == 1
    assert tracer.counters[PACKET_DROP] == 1
    sim.run()
    assert [p for _, p in sink.arrivals] == packets[:3]
    assert port.tx_packets == 3


def test_drop_is_emitted_with_the_packet_and_port_when_watched():
    sim = Simulator()
    tracer = Tracer()
    seen = []
    tracer.subscribe(PACKET_DROP, lambda **kw: seen.append(kw))
    port, _ = _port(sim, queue=DropTailQueue(MSS + HEADER_BYTES), tracer=tracer)
    packets = _packets(MSS, MSS, MSS)
    assert [port.send(p) for p in packets] == [True, True, False]
    assert seen == [{"packet": packets[2], "port": port}]
    assert tracer.counters[PACKET_DROP] == 1


class DropPayload(LossModel):
    """Drops every packet carrying ``payload`` bytes."""

    def __init__(self, payload):
        self.payload = payload

    def should_drop(self, packet):
        return packet.payload == self.payload


def test_loss_model_refuses_frames_before_they_reach_the_wire():
    """A faulted queue drops on arrival; the frames around the victim
    close ranks and go back to back."""
    sim = Simulator()
    tracer = Tracer()
    port, sink = _port(sim, tracer=tracer)
    port.queue.loss_model = DropPayload(500)
    packets = _packets(MSS, 500, 300, 500, MSS)
    assert [port.send(p) for p in packets] == [True, False, True, False, True]
    assert port.queue.faulted_drops == 2
    assert tracer.counters[PACKET_DROP] == 2
    sim.run()
    kept = [packets[0], packets[2], packets[4]]
    done = _back_to_back(kept, GBPS)
    assert sink.arrivals == [(t + DELAY, p) for t, p in zip(done, kept)]


def test_tx_counters_count_whole_frames_at_completion():
    sim = Simulator()
    port, sink = _port(sim)
    packets = _packets(MSS, 0, 300)
    for packet in packets:
        port.send(packet)
    done = _back_to_back(packets, GBPS)
    sim.run(until_ns=done[0] - 1)
    assert (port.tx_packets, port.tx_bytes) == (0, 0)
    sim.run()
    assert port.tx_packets == 3
    assert port.tx_bytes == sum(p.frame_size for p in packets)
    assert sink.rx_bytes == port.tx_bytes


def test_pause_lets_the_frame_on_the_wire_finish():
    """A host stall (``Port.pause``) mid-frame: the frame on the wire
    arrives on time, the rest wait for ``resume`` and then go back to
    back from the resume instant."""
    sim = Simulator()
    port, sink = _port(sim)
    packets = _packets(MSS, 500, MSS)
    for packet in packets:
        port.send(packet)
    first = _back_to_back(packets[:1], GBPS)[0]
    sim.schedule(first // 2, port.pause)
    held_until = 10 * first
    sim.run(until_ns=held_until)
    assert sink.arrivals == [(first + DELAY, packets[0])]
    assert port.queue.packet_length == 2
    port.resume()
    sim.run()
    rest = _back_to_back(packets[1:], GBPS, held_until)
    assert sink.arrivals[1:] == [(t + DELAY, p) for t, p in zip(rest, packets[1:])]


def test_frames_sent_to_a_paused_port_wait_for_resume():
    sim = Simulator()
    port, sink = _port(sim)
    port.pause()
    packets = _packets(MSS, 100)
    for packet in packets:
        assert port.send(packet)
    sim.run(until_ns=5_000)
    assert sink.arrivals == []
    assert port.queue.packet_length == 2
    port.resume()
    sim.run()
    done = _back_to_back(packets, GBPS, 5_000)
    assert sink.arrivals == [(t + DELAY, p) for t, p in zip(done, packets)]


def test_resume_and_kick_never_start_a_second_frame():
    """``resume`` on a running port and ``kick`` on a busy or paused one
    are no-ops: a second start would put two frames on one wire."""
    sim = Simulator()
    port, sink = _port(sim)
    packets = _packets(MSS, MSS, MSS)
    for packet in packets:
        port.send(packet)
    done = _back_to_back(packets, GBPS)
    sim.schedule(10, port.resume)
    sim.schedule(20, port.kick)
    sim.schedule(done[0] + 5, port.pause)
    sim.schedule(done[0] + 10, port.kick)
    held_until = done[2] + 1_000
    sim.run(until_ns=held_until)
    # Frame 1 was on the wire when the pause landed; frame 2 is held.
    assert sink.arrivals == [(t + DELAY, p) for t, p in zip(done[:2], packets)]
    assert port.queue.packet_length == 1
    port.resume()
    sim.run()
    assert sink.arrivals[2:] == [
        (_back_to_back(packets[2:], GBPS, held_until)[0] + DELAY, packets[2])
    ]


def test_kick_restarts_a_port_its_queue_left_idle():
    """A queue that holds its only flow back (BFC per-flow pause) leaves
    the port idle with bytes buffered; releasing the flow and kicking
    starts service at the kick instant."""
    sim = Simulator()
    queue = BfcQueue(1_000_000)
    port, sink = _port(sim, queue=queue)
    (packet,) = _packets(MSS)
    queue.pause_flow(packet.flow_key)
    assert port.send(packet)
    assert queue.pause_skips == 1
    sim.run(until_ns=7_000)
    assert sink.arrivals == []
    queue.resume_flow(packet.flow_key)
    port.kick()
    sim.run()
    assert sink.arrivals == [(_back_to_back([packet], GBPS, 7_000)[0] + DELAY, packet)]


def test_on_dequeue_fires_as_each_frame_starts():
    sim = Simulator()
    port, _ = _port(sim)
    starts = []
    port.on_dequeue = lambda packet: starts.append((sim.now, packet))
    packets = _packets(MSS, 40, 900)
    for packet in packets:
        port.send(packet)
    sim.run()
    done = _back_to_back(packets, GBPS)
    assert starts == list(zip([0] + done[:-1], packets))


def test_frames_finishing_on_a_cut_link_vanish():
    """Cut the cable during frame 0 and restore it during frame 2: frames
    0 and 1 complete into the cut and vanish, the port keeps draining,
    and frames 2 and 3 arrive on time."""
    sim = Simulator()
    port, sink = _port(sim)
    packets = _packets(MSS, MSS, MSS, MSS)
    for packet in packets:
        port.send(packet)
    done = _back_to_back(packets, GBPS)
    link = port.link
    sim.schedule(done[0] // 2, setattr, link, "up", False)
    sim.schedule(done[1] + 1, setattr, link, "up", True)
    sim.run()
    assert link.faulted_frames == 2
    assert port.tx_packets == 4
    assert sink.arrivals == [(t + DELAY, p) for t, p in zip(done[2:], packets[2:])]
    assert [p.hops for p in packets] == [0, 0, 1, 1]


def test_rate_change_on_an_idle_port_applies_to_the_next_send():
    sim = Simulator()
    port, sink = _port(sim)
    port.link.degrade(0.5)
    sim.run(until_ns=100)
    packets = _packets(MSS, 0)
    for packet in packets:
        port.send(packet)
    sim.run()
    done = _back_to_back(packets, GBPS // 2, 100)
    assert sink.arrivals == [(t + DELAY, p) for t, p in zip(done, packets)]


def test_frame_sent_as_the_wire_frees_up_queues_behind_the_waiting_ones():
    """At the instant frame 0 completes, the completion runs first (it
    was scheduled first) and starts frame 1; a frame sent at that same
    instant joins the tail of the queue."""
    sim = Simulator()
    port, sink = _port(sim)
    packets = _packets(MSS, 100, 200)
    for packet in packets:
        port.send(packet)
    (late,) = _packets(300)
    done = _back_to_back(packets, GBPS)
    sim.schedule(done[0], port.send, late)
    sim.run()
    order = packets + [late]
    assert sink.arrivals == [
        (t + DELAY, p) for t, p in zip(_back_to_back(order, GBPS), order)
    ]


def test_every_rate_change_drops_the_cached_serialisation_times():
    sim = Simulator()
    port, _ = _port(sim)
    (packet,) = _packets(MSS)
    port.send(packet)
    sim.run()
    full = transmission_time_ns(packet.frame_size, GBPS)
    assert port._tx_cache == {packet.frame_size: full}
    port.link.degrade(0.5)
    assert port._tx_cache == {}
    port.send(packet)
    sim.run()
    half = transmission_time_ns(packet.frame_size, GBPS // 2)
    assert port._tx_cache == {packet.frame_size: half}
    port.link.restore_rate()
    assert port._tx_cache == {}


def test_cable_makes_each_port_the_owner_of_its_own_link():
    """A rate change on one direction of a cable clears that direction's
    cache only."""
    net = Network(seed=1, host_processing_delay_ns=0)
    a = net.add_host("A")
    b = net.add_host("B")
    port_a, port_b = net.cable(a, b, GBPS, DELAY)
    net.build_routes()
    assert port_a.link.owner is port_a
    assert port_b.link.owner is port_b
    port_a.send(Packet(a.node_id, b.node_id, 3, 4, payload=MSS))
    port_b.send(Packet(b.node_id, a.node_id, 4, 3, payload=MSS))
    net.sim.run()
    assert port_a._tx_cache and port_b._tx_cache
    kept = dict(port_b._tx_cache)
    port_a.link.degrade(0.25)
    assert port_a._tx_cache == {}
    assert port_b._tx_cache == kept


def test_degraded_rate_is_clamped_and_restored_exactly():
    sim = Simulator()
    port, _ = _port(sim, rate=10 * GBPS)
    link = port.link
    link.degrade(0.3)
    assert link.effective_rate_bps == 3 * GBPS
    assert link.rate_bps == 10 * GBPS  # the nominal rate never moves
    link.degrade(1e-12)
    assert link.effective_rate_bps == 1
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            link.degrade(bad)
    assert link.rate_factor == 1e-12
    link.restore_rate()
    assert (link.rate_factor, link.effective_rate_bps) == (1.0, 10 * GBPS)


def test_link_rejects_a_nonpositive_rate_or_a_negative_delay():
    sim = Simulator()
    sink = Recorder(sim)
    with pytest.raises(ValueError):
        Link(sim, 0, DELAY, sink, 0)
    with pytest.raises(ValueError):
        Link(sim, GBPS, -1, sink, 0)


def test_carry_delivers_after_the_delay_or_vanishes_when_cut():
    sim = Simulator()
    port, sink = _port(sim)
    first, second = _packets(MSS, MSS)
    port.link.carry(first)
    port.link.up = False
    port.link.carry(second)
    sim.run()
    assert sink.arrivals == [(DELAY, first)]
    assert (first.hops, second.hops) == (1, 0)
    assert port.link.faulted_frames == 1
    assert port.tx_packets == 0  # carry bypasses the port


def test_round_robin_queue_drives_the_wire_back_to_back():
    """A per-flow round-robin queue (BFC) decides the order; the port
    still serialises frame after frame with no gap.  Frame A0 starts at
    send, so A is re-queued behind B's arrival order: A1 B0 A2 B1 B2."""
    sim = Simulator()
    port, sink = _port(sim, queue=BfcQueue(1_000_000))
    flow_a = _packets(MSS, 0, 700, sport=3)
    flow_b = _packets(200, MSS, 1, sport=5)
    for packet in flow_a + flow_b:
        port.send(packet)
    sim.run()
    order = [flow_a[0], flow_a[1], flow_b[0], flow_a[2], flow_b[1], flow_b[2]]
    done = _back_to_back(order, GBPS)
    assert sink.arrivals == [(t + DELAY, p) for t, p in zip(done, order)]


def test_rate_change_mid_frame_applies_from_the_next_frame():
    """The frame on the wire keeps its committed completion; the frames
    queued behind it serialise at the degraded rate, and at the full rate
    again once it is restored.  Frame sizes repeat, so a serialisation
    time cached at the old rate would show."""
    sim = Simulator()
    rate, delay = GBPS, microseconds(1)
    sink = Recorder(sim)
    link = Link(sim, rate, delay, sink, 0)
    port = Port(sim, sink, 0, link, DropTailQueue(1_000_000))
    packets = [
        Packet(1, 2, 3, 4, payload=size)
        for size in (MSS, 500, MSS, 500, 0, MSS)
    ]
    for packet in packets:
        port.send(packet)

    degraded = int(rate * 0.25)
    rates = [rate, degraded, degraded, degraded, rate, rate]
    done = []
    t = 0
    for packet, frame_rate in zip(packets, rates):
        t += transmission_time_ns(packet.frame_size, frame_rate)
        done.append(t)
    # Degrade while frame 0 is on the wire; restore while frame 3 is.
    sim.schedule(done[0] // 3, link.degrade, 0.25)
    sim.schedule(done[2] + 1, link.restore_rate)
    sim.run()

    assert sink.arrivals == [(t + delay, p) for t, p in zip(done, packets)]
    assert port.tx_packets == len(packets)


def test_pfc_xoff_holds_frames_queued_behind_the_wire(monkeypatch):
    """An XOFF landing mid-frame lets the on-wire frame finish; the frames
    queued behind it wait, undropped, until the XON, then go back to
    back."""
    arrivals = []
    spy_arrivals(
        monkeypatch,
        lambda node, packet, _: arrivals.append((node.sim.now, node, packet)),
    )
    topo = build_topology(
        dumbbell,
        "pfc",
        buffer_bytes=256_000,
        n_senders=1,
        seed=1,
        pfc_params=PfcParams(
            xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000
        ),
    )
    net = topo.network
    port = topo.bottleneck_ports["main"]
    receiver = port.peer_node
    packets = [
        Packet(topo.host(0).node_id, receiver.node_id, 3, 4, payload=MSS)
        for _ in range(4)
    ]
    for packet in packets:
        port.send(packet)
    tx = transmission_time_ns(packets[0].frame_size, port.link.rate_bps)
    delay = port.link.delay_ns
    net.sim.schedule(tx // 2, apply_frame, port, "xoff")

    held_until = 20 * tx
    net.sim.run(until_ns=held_until)
    assert port.paused
    assert [(t, p) for t, node, p in arrivals if node is receiver] == [
        (tx + delay, packets[0])
    ]
    assert port.queue.packet_length == 3
    assert port.tx_packets == 1

    apply_frame(port, "xon")
    net.sim.run()
    assert [(t, p) for t, node, p in arrivals if node is receiver] == [
        (tx + delay, packets[0])
    ] + [(held_until + k * tx + delay, packets[k]) for k in (1, 2, 3)]
    assert len(arrivals) == frames_received(net)
    assert port.queue.packet_length == 0
    assert port.queue.drops == 0
    assert net.total_drops() == 0
