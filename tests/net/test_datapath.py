"""Integration tests for ports, links, switches, and hosts."""

import random

import pytest

from repro.net.network import Network
from repro.net.packet import MSS, Packet
from repro.sim.trace import PACKET_DROP
from repro.sim.units import GBPS, microseconds


class SinkHostMixin:
    """Capture packets delivered to a host endpoint."""


def two_hosts_one_switch(jitter=0):
    net = Network(seed=1, host_processing_jitter_ns=jitter, host_processing_delay_ns=0)
    a = net.add_host("A")
    b = net.add_host("B")
    sw = net.add_switch("SW")
    net.cable(a, sw, GBPS, microseconds(1))
    net.cable(b, sw, GBPS, microseconds(1))
    net.build_routes()
    return net, a, b, sw


class Capture:
    def __init__(self):
        self.packets = []
        self.times = []

    def on_packet(self, packet):
        self.packets.append(packet)


def test_end_to_end_delivery_and_demux():
    net, a, b, sw = two_hosts_one_switch()
    sink = Capture()
    b.register_connection((a.node_id, b.node_id, 5, 6), sink)
    pkt = Packet(a.node_id, b.node_id, 5, 6, payload=100)
    a.send(pkt)
    net.sim.run()
    assert sink.packets == [pkt]
    assert pkt.hops == 2  # host->switch, switch->host


def test_store_and_forward_latency():
    # Full MTU at 1 Gbps: 12.144 us serialisation per hop (1518 B frame),
    # two hops, plus 2 x 1 us propagation.  Store-and-forward means the
    # second hop only starts after the first fully arrives.
    net, a, b, sw = two_hosts_one_switch()
    sink = Capture()
    arrival = []
    sink.on_packet = lambda pkt: arrival.append(net.sim.now)
    b.register_connection((a.node_id, b.node_id, 5, 6), sink)
    a.send(Packet(a.node_id, b.node_id, 5, 6, payload=MSS))
    net.sim.run()
    tx = 12_144  # 1518 * 8 ns at 1 Gbps
    assert arrival[0] == 2 * tx + 2 * 1000


def test_back_to_back_packets_spaced_at_line_rate():
    net, a, b, sw = two_hosts_one_switch()
    times = []
    sink = Capture()
    sink.on_packet = lambda pkt: times.append(net.sim.now)
    b.register_connection((a.node_id, b.node_id, 5, 6), sink)
    for _ in range(3):
        a.send(Packet(a.node_id, b.node_id, 5, 6, payload=MSS))
    net.sim.run()
    gaps = [t2 - t1 for t1, t2 in zip(times, times[1:])]
    assert gaps == [12_144, 12_144]


def test_switch_drop_emits_trace():
    # Two hosts fan in to one egress: the switch queue must overflow.
    net = Network(seed=1, default_buffer_bytes=1600)
    a = net.add_host("A")
    c = net.add_host("C")
    b = net.add_host("B")
    sw = net.add_switch("SW")
    net.cable(a, sw, GBPS, microseconds(1))
    net.cable(c, sw, GBPS, microseconds(1))
    net.cable(b, sw, GBPS, microseconds(1))
    net.build_routes()
    drops = []
    net.tracer.subscribe(PACKET_DROP, lambda packet=None, port=None: drops.append(packet))
    for _ in range(20):
        a.send(Packet(a.node_id, b.node_id, 5, 6, payload=MSS))
        c.send(Packet(c.node_id, b.node_id, 5, 6, payload=MSS))
    net.sim.run()
    # Host NIC queues are deep; drops happen at the switch port to B.
    assert net.total_drops() == len(drops) > 0


def test_unknown_destination_raises():
    net, a, b, sw = two_hosts_one_switch()
    with pytest.raises(KeyError):
        sw.forward(Packet(a.node_id, 999, 1, 2, payload=10))


def test_host_processing_jitter_within_bounds():
    net = Network(
        seed=3, host_processing_delay_ns=2_000, host_processing_jitter_ns=4_000
    )
    a = net.add_host("A")
    b = net.add_host("B")
    sw = net.add_switch("SW")
    net.cable(a, sw, GBPS, microseconds(1))
    net.cable(b, sw, GBPS, microseconds(1))
    net.build_routes()
    delays = []
    sink = Capture()
    base = 2 * 12_144 + 2_000  # wire time for MTU
    sink.on_packet = lambda pkt: delays.append(net.sim.now - pkt.sent_at - base)
    b.register_connection((a.node_id, b.node_id, 5, 6), sink)
    for _ in range(50):
        pkt = Packet(a.node_id, b.node_id, 5, 6, payload=MSS)
        pkt.sent_at = net.sim.now
        a.send(pkt)
        net.sim.run()
    assert all(2_000 <= d <= 6_000 for d in delays)
    assert len(set(delays)) > 1  # actually random


class _DelayLog:
    """Stands in for a host's simulator: logs each posted delay."""

    def __init__(self):
        self.delays = []

    def post(self, delay, callback, *args):
        self.delays.append(delay)


@pytest.mark.parametrize("jitter", [None, 999, 1_023], ids=["default", "999", "1023"])
def test_host_jitter_draw_is_randrange(jitter):
    """The host's inline jitter draw returns exactly what ``randrange(jitter
    + 1)`` on its stream would, draw for draw: 10 k arrivals, then 1 k
    held by a stalled host until ``resume()``.  1,023 + 1 is a power of
    two, the edge of the draw's bit width."""
    kwargs = {} if jitter is None else {"host_processing_jitter_ns": jitter}
    net = Network(seed=5, host_processing_delay_ns=0, **kwargs)
    host = net.add_host("H")
    jitter = host.processing_jitter_ns
    reference = random.Random()
    reference.setstate(host._rng.getstate())
    host.sim = log = _DelayLog()
    packet = Packet(1, 2, 3, 4, payload=MSS)
    for _ in range(10_000):
        host.receive(packet, 0)
    host.pause()
    for _ in range(1_000):
        host.receive(packet, 0)
    assert len(log.delays) == 10_000
    host.resume()
    assert log.delays == [reference.randrange(jitter + 1) for _ in range(11_000)]


def test_orphan_packet_traced_not_crashing():
    net, a, b, sw = two_hosts_one_switch()
    a.send(Packet(a.node_id, b.node_id, 5, 6, payload=10))
    net.sim.run()
    assert net.tracer.count("host.orphan_packet") == 1


def test_listener_accepts_syn():
    net, a, b, sw = two_hosts_one_switch()
    accepted = []

    def acceptor(syn):
        sink = Capture()
        b.register_connection(syn.flow_key, sink)
        accepted.append(sink)
        return sink

    b.listen(6, acceptor)
    a.send(Packet(a.node_id, b.node_id, 5, 6, syn=True))
    net.sim.run()
    assert len(accepted) == 1
    assert len(accepted[0].packets) == 1
    # A second packet of the same flow reaches the registered endpoint.
    a.send(Packet(a.node_id, b.node_id, 5, 6, payload=10))
    net.sim.run()
    assert len(accepted[0].packets) == 2


def test_duplicate_registration_rejected():
    net, a, b, sw = two_hosts_one_switch()
    b.register_connection((1, 2, 3, 4), Capture())
    with pytest.raises(ValueError):
        b.register_connection((1, 2, 3, 4), Capture())
    b.unregister_connection((1, 2, 3, 4))
    b.register_connection((1, 2, 3, 4), Capture())  # ok after release


def test_allocate_port_is_unique():
    net, a, b, sw = two_hosts_one_switch()
    ports = {a.allocate_port() for _ in range(10)}
    assert len(ports) == 10
