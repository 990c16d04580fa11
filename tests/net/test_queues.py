"""Unit and property tests for drop-tail, ECN-marking and random-drop
queues."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import MSS, Packet
from repro.net.queues import DropTailQueue, EcnQueue, RandomDropQueue


def data_packet(payload=1460, ecn=False):
    return Packet(1, 2, 10, 20, payload=payload, ecn_capable=ecn)


def test_fifo_order():
    queue = DropTailQueue(100_000)
    packets = [data_packet() for _ in range(5)]
    for pkt in packets:
        assert queue.enqueue(pkt)
    out = [queue.dequeue() for _ in range(5)]
    assert out == packets


def test_dequeue_empty_returns_none():
    assert DropTailQueue(1000).dequeue() is None


def test_capacity_enforced():
    queue = DropTailQueue(3000)  # fits two 1500-byte packets
    assert queue.enqueue(data_packet())
    assert queue.enqueue(data_packet())
    assert not queue.enqueue(data_packet())
    assert queue.drops == 1
    assert queue.dropped_bytes == 1500


def test_byte_length_tracks_contents():
    queue = DropTailQueue(100_000)
    queue.enqueue(data_packet())
    queue.enqueue(data_packet(payload=100))
    assert queue.byte_length == 1500 + 140
    queue.dequeue()
    assert queue.byte_length == 140


def test_max_bytes_seen_watermark():
    queue = DropTailQueue(100_000)
    queue.enqueue(data_packet())
    queue.enqueue(data_packet())
    queue.dequeue()
    queue.dequeue()
    assert queue.max_bytes_seen == 3000


def test_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        DropTailQueue(0)


def test_ecn_marks_above_threshold():
    queue = EcnQueue(100_000, mark_threshold_bytes=3000)
    first = data_packet(ecn=True)
    second = data_packet(ecn=True)
    third = data_packet(ecn=True)
    queue.enqueue(first)
    queue.enqueue(second)
    queue.enqueue(third)
    assert not first.ecn_ce
    assert not second.ecn_ce  # exactly at threshold, not above
    assert third.ecn_ce
    assert queue.marks == 1


def test_ecn_ignores_non_capable_packets():
    queue = EcnQueue(100_000, mark_threshold_bytes=100)
    pkt = data_packet(ecn=False)
    queue.enqueue(pkt)
    assert not pkt.ecn_ce


def test_ecn_rejects_bad_threshold():
    with pytest.raises(ValueError):
        EcnQueue(1000, 0)


@given(st.lists(st.integers(min_value=0, max_value=1460), max_size=60))
def test_property_occupancy_never_exceeds_capacity(payloads):
    queue = DropTailQueue(10_000)
    accepted = 0
    for payload in payloads:
        if queue.enqueue(data_packet(payload=payload)):
            accepted += 1
    assert queue.byte_length <= queue.capacity_bytes
    assert queue.enqueues == accepted
    assert queue.drops == len(payloads) - accepted
    # Conservation: everything accepted can be dequeued, in order.
    drained = 0
    while queue.dequeue() is not None:
        drained += 1
    assert drained == accepted
    assert queue.byte_length == 0


def test_random_drop_queue_drops_fraction():
    queue = RandomDropQueue(10**9, drop_probability=0.3, seed=1)
    accepted = sum(
        1 for _ in range(2000)
        if queue.enqueue(Packet(1, 2, 3, 4, payload=MSS))
    )
    assert 1250 < accepted < 1550  # ~70% of 2000
    assert queue.random_drops == 2000 - accepted


def test_random_drop_queue_deterministic_from_seed():
    def accepted(queue):
        return [
            queue.enqueue(Packet(1, 2, 3, 4, payload=MSS)) for _ in range(500)
        ]

    first = accepted(RandomDropQueue(10**9, drop_probability=0.3, seed=42))
    second = accepted(RandomDropQueue(10**9, drop_probability=0.3, seed=42))
    other = accepted(RandomDropQueue(10**9, drop_probability=0.3, seed=43))
    assert first == second
    assert first != other


def test_random_drop_queue_validates():
    with pytest.raises(ValueError):
        RandomDropQueue(1000, drop_probability=1.0, seed=0)
    with pytest.raises(ValueError):  # exactly one of rng/seed
        RandomDropQueue(1000, drop_probability=0.5)
    with pytest.raises(ValueError):
        RandomDropQueue(1000, 0.5, rng=random.Random(0), seed=1)


def test_protocols_survive_random_loss():
    """End-to-end robustness: 1% random loss, all protocols complete."""
    from repro.net.topology import dumbbell
    from repro.sim.units import MILLISECOND, seconds
    from repro.transport.base import FlowState
    from repro.transport.registry import get_protocol, open_flow

    for proto in ("tcp", "dctcp", "tfc"):
        rng = random.Random(7)
        topo = dumbbell(
            n_senders=2,
            queue_factory=lambda rate: RandomDropQueue(256_000, 0.01, rng=rng),
        )
        get_protocol(proto).install(topo.network)
        receiver = topo.hosts[-1]
        flows = [
            open_flow(h, receiver, proto, size_bytes=300_000, min_rto_ns=MILLISECOND)
            for h in topo.hosts[:2]
        ]
        topo.network.run_for(seconds(5))
        for flow in flows:
            assert flow.state is FlowState.DONE, proto
            assert flow.receiver.bytes_received == 300_000
