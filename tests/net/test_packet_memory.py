"""Per-packet memory: a queued packet allocates only its own state.

Queues are where packets pile up: BFC's per-flow NIC pause holds
thousands of them at once on the ``baselines8-dumbbell`` benchmark, so
the bytes one queued data packet costs multiply straight into peak
memory.  A packet carries its flow's own key tuple (the sender's
``flow_key``; an ACK the sender's ``ack_key``), its ``size`` and
``frame_size`` ints are shared per payload length, its reverse key is
computed on read, and a full-MSS first transmission shares one in-flight
entry in its sender's table.  These tests queue data packets behind a
paused host NIC and pin both the byte cost and the key sharing.

Run as a script to print the bytes per queued packet of each transport::

    PYTHONPATH=src python tests/net/test_packet_memory.py
"""

import gc
import tracemalloc

import pytest

from repro.experiments.common import build_topology
from repro.net.packet import MSS
from repro.net.topology import dumbbell
from repro.sim.units import microseconds, milliseconds
from repro.transport.registry import open_flow

PROTOCOLS = ["tfc", "dctcp", "tcp", "bfc"]

#: Data packets queued behind the paused NIC per measurement.
QUEUED = 2_000

#: Bytes one queued full-MSS data packet may cost: the packet, its
#: sequence/timestamp/id ints, its queue slot and its sender's in-flight
#: entry.  ~340 B on CPython 3.11; ~610 B while every packet built its own
#: flow key, reverse key and size ints and every in-flight entry its own
#: tuple.  The bound leaves ~40 % headroom for other CPython layouts.
MAX_BYTES_PER_QUEUED_PACKET = 480


def _paused_flow(protocol):
    """A long-lived flow, established, whose sender's NIC is paused."""
    topo = build_topology(dumbbell, protocol, buffer_bytes=256_000, n_senders=1)
    src, dst = topo.hosts[0], topo.hosts[-1]
    sender = open_flow(src, dst, protocol, awnd_bytes=1 << 30)
    topo.network.run_for(microseconds(300))
    src.ports[0].pause()
    topo.network.run_for(microseconds(300))  # the frame on the wire lands
    return topo, sender


def _queue_more(sender, count):
    """Open the window by ``count`` segments and let the sender fill it."""
    sender.cwnd = float((sender.flight_size // MSS + count) * MSS)
    sender.try_send()


def _contents(queue):
    """The packets in ``queue``, in order, left in place (drained and
    re-queued, so BFC's per-flow FIFOs read the same as one FIFO)."""
    packets = []
    while (packet := queue.dequeue()) is not None:
        packets.append(packet)
    for packet in packets:
        assert queue.enqueue(packet)
    return packets


def bytes_per_queued_packet(protocol, count=QUEUED):
    """Traced bytes each of ``count`` newly queued data packets costs."""
    _, sender = _paused_flow(protocol)
    queue = sender.host.ports[0].queue
    queued_before = len(queue)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _queue_more(sender, count)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(queue) - queued_before == count
    return grown / count


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_queued_packet_keeps_bounded_memory(protocol):
    per_packet = bytes_per_queued_packet(protocol)
    assert per_packet < MAX_BYTES_PER_QUEUED_PACKET, f"{per_packet:.0f} B per packet"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_packets_carry_their_flows_key_objects(protocol):
    topo, sender = _paused_flow(protocol)
    src, dst = sender.host, topo.hosts[-1]
    _queue_more(sender, 50)
    data = _contents(src.ports[0].queue)
    assert len(data) >= 50
    assert all(p.flow_key is sender.flow_key for p in data)
    # The payload-size ints are shared, not rebuilt per packet.
    full = [p for p in data if p.payload == MSS]
    assert all(p.size is full[0].size for p in full)
    assert all(p.frame_size is full[0].frame_size for p in full)

    # Let the data through and hold the ACKs at the receiver's NIC.
    dst.ports[0].pause()
    src.ports[0].resume()
    topo.network.run_for(milliseconds(2))
    acks = _contents(dst.ports[0].queue)
    assert acks and all(p.is_ack for p in acks)
    assert all(p.flow_key is sender.ack_key for p in acks)
    assert sender.receiver.ack_key is sender.ack_key
    assert src._connections[sender.ack_key] is sender


def test_full_segments_share_one_inflight_entry():
    _, sender = _paused_flow("tcp")
    _queue_more(sender, 20)
    entries = [e for e in sender._inflight.values() if e == MSS]
    assert len(entries) >= 20
    assert all(e is entries[0] for e in entries)


if __name__ == "__main__":
    print(
        "bytes per queued packet:",
        " ".join(f"{p} {bytes_per_queued_packet(p):.0f}" for p in PROTOCOLS),
    )
