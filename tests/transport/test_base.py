"""Tests for the shared reliability framework (handshake, sliding window,
reassembly, retransmission, completion accounting)."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.net.packet import MSS, Packet
from repro.sim.units import MILLISECOND, seconds
from repro.transport.base import FlowState, Receiver
from repro.transport.registry import open_flow


def test_handshake_then_transfer_completes(tiny_net):
    net, a, b, _ = tiny_net
    done = []
    sender = open_flow(a, b, "tcp", size_bytes=10_000, on_complete=done.append)
    net.run_for(seconds(1))
    assert sender.state is FlowState.DONE
    assert done == [sender]
    assert sender.stats.bytes_acked == 10_000
    assert sender.receiver.bytes_received == 10_000
    assert sender.receiver.fin_seen


def test_fct_measured_from_open(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", size_bytes=1460)
    net.run_for(seconds(1))
    fct = sender.stats.fct_ns
    # SYN + SYN-ACK + one segment + ACK: at least 2 RTTs, below 1 ms here.
    assert 2 * 30_000 < fct < MILLISECOND


def test_zero_byte_flow_completes(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", size_bytes=0)
    net.run_for(seconds(1))
    assert sender.state is FlowState.DONE
    assert sender.stats.bytes_acked == 0


def test_sub_mss_flow(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", size_bytes=700)
    net.run_for(seconds(1))
    assert sender.state is FlowState.DONE
    assert sender.receiver.bytes_received == 700


def test_long_lived_flow_never_completes(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp")
    net.run_for(seconds(0.1))
    assert sender.state is FlowState.ESTABLISHED
    assert sender.stats.complete_ns is None
    assert sender.stats.bytes_acked > 1_000_000  # actually moving data


def test_finish_closes_long_lived_flow(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp")
    net.run_for(seconds(0.05))
    sender.finish()
    net.run_for(seconds(0.5))
    assert sender.state is FlowState.DONE


def test_queue_bytes_on_off_source(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", size_bytes=0)
    sender.fin_on_empty = False
    net.run_for(seconds(0.01))
    sender.queue_bytes(5_000)
    net.run_for(seconds(0.05))
    assert sender.stats.bytes_acked == 5_000
    assert sender.state is FlowState.ESTABLISHED  # still open
    sender.queue_bytes(5_000)
    sender.finish()
    net.run_for(seconds(0.5))
    assert sender.state is FlowState.DONE
    assert sender.stats.bytes_acked == 10_000


def test_queue_bytes_after_done_rejected(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", size_bytes=100)
    net.run_for(seconds(0.5))
    with pytest.raises(ValueError):
        sender.queue_bytes(10)


def test_syn_retransmitted_on_loss(tiny_net):
    net, a, b, _ = tiny_net
    # Break routing temporarily by filling the switch egress with junk is
    # fiddly; instead drop the SYN by unregistering the receiver demux so
    # the SYN orphan-drops, then restoring it.
    sender = open_flow(a, b, "tcp", size_bytes=1460, min_rto_ns=MILLISECOND)
    receiver = sender.receiver
    b.unregister_connection(sender.flow_key)
    net.run_for(MILLISECOND // 2)  # first SYN orphaned
    b.register_connection(sender.flow_key, receiver)
    net.run_for(seconds(1))
    assert sender.state is FlowState.DONE


def test_flight_size_bounded_by_window(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", awnd_bytes=4 * MSS)
    observed = []

    def watch():
        observed.append(sender.flight_size)
        net.sim.schedule(10_000, watch)

    net.sim.schedule(0, watch)
    net.run_for(seconds(0.05))
    assert max(observed) <= 4 * MSS
    assert sender.stats.bytes_acked > 0


def test_receiver_reassembles_out_of_order():
    # Drive the receiver directly with crafted segments.
    from repro.net.network import Network
    from repro.sim.units import GBPS, microseconds

    net = Network(seed=0)
    a = net.add_host("A")
    b = net.add_host("B")
    net.cable(a, b, GBPS, microseconds(1))
    net.build_routes()
    receiver = Receiver(b, (a.node_id, b.node_id, 1, 2))
    for seq in (1460, 4380, 2920):  # holes first
        receiver.on_packet(Packet(a.node_id, b.node_id, 1, 2, seq=seq, payload=1460))
    assert receiver.rcv_nxt == 0
    receiver.on_packet(Packet(a.node_id, b.node_id, 1, 2, seq=0, payload=1460))
    assert receiver.rcv_nxt == 5840
    assert receiver.bytes_received == 5840


def test_receiver_ignores_duplicates():
    from repro.net.network import Network
    from repro.sim.units import GBPS, microseconds

    net = Network(seed=0)
    a = net.add_host("A")
    b = net.add_host("B")
    net.cable(a, b, GBPS, microseconds(1))
    net.build_routes()
    receiver = Receiver(b, (a.node_id, b.node_id, 1, 2))
    pkt = Packet(a.node_id, b.node_id, 1, 2, seq=0, payload=1000)
    receiver.on_packet(pkt)
    receiver.on_packet(Packet(a.node_id, b.node_id, 1, 2, seq=0, payload=1000))
    assert receiver.bytes_received == 1000
    assert receiver.rcv_nxt == 1000


def test_receiver_merges_overlapping_segments():
    from repro.net.network import Network
    from repro.sim.units import GBPS, microseconds

    net = Network(seed=0)
    a = net.add_host("A")
    b = net.add_host("B")
    net.cable(a, b, GBPS, microseconds(1))
    net.build_routes()
    receiver = Receiver(b, (a.node_id, b.node_id, 1, 2))
    receiver.on_packet(Packet(a.node_id, b.node_id, 1, 2, seq=1000, payload=1000))
    receiver.on_packet(Packet(a.node_id, b.node_id, 1, 2, seq=1500, payload=1000))
    receiver.on_packet(Packet(a.node_id, b.node_id, 1, 2, seq=0, payload=1000))
    assert receiver.rcv_nxt == 2500
    assert receiver.bytes_received == 2500


class _AckLog:
    """Stands in for the receiving host: keeps every ACK's ``ack`` field."""

    sim = None

    def __init__(self):
        self.acks = []

    def register_connection(self, key, endpoint):
        pass

    def send(self, packet):
        self.acks.append(packet.ack)


def _reference_reassembly(segments):
    """``(rcv_nxt, reordered, acks)``: a byte set, rcv_nxt its first gap."""
    have = set()
    rcv_nxt = reordered = 0
    acks = []
    for kind, seq, length in segments:
        if kind == "fin":
            acks.append(rcv_nxt)
            continue
        if kind == "data" and not length:
            continue  # zero payload, not RM: nothing to accept or ACK
        if seq > rcv_nxt:
            reordered += 1
        have.update(range(seq, seq + length))
        while rcv_nxt in have:
            rcv_nxt += 1
        acks.append(rcv_nxt)
    return rcv_nxt, reordered, acks


_SEGMENTS = st.lists(
    st.tuples(
        st.sampled_from(("data", "data", "data", "rm", "fin")),
        st.integers(min_value=0, max_value=24).map(lambda k: k * 250),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=MSS)),
    ),
    max_size=40,
)


@seed(40)
@settings(max_examples=300, deadline=None)
@given(_SEGMENTS)
def test_receiver_matches_reference_reassembly(segments):
    """In-order, duplicate, overlapping and out-of-order segments, FINs and
    zero-payload RM probes: the receiver's ``rcv_nxt``, byte count,
    reordering gauge and every ACK match a byte-set reassembler."""
    host = _AckLog()
    receiver = Receiver(host, (1, 2, 3, 4))
    for kind, seq, length in segments:
        fin = kind == "fin"
        receiver.on_packet(
            Packet(1, 2, 3, 4, seq=seq, payload=0 if fin else length, rm=kind == "rm", fin=fin)
        )
    rcv_nxt, reordered, acks = _reference_reassembly(segments)
    assert receiver.rcv_nxt == rcv_nxt
    assert receiver.bytes_received == rcv_nxt
    assert receiver.reordered_segments == reordered
    assert host.acks == acks


def test_karn_rule_no_rtt_sample_from_retransmission(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", size_bytes=20 * MSS, min_rto_ns=MILLISECOND)
    receiver = sender.receiver
    # Black-hole the flow mid-stream so segments need retransmission.
    net.run_for(80_000)
    b.unregister_connection(sender.flow_key)
    net.run_for(2 * MILLISECOND)
    b.register_connection(sender.flow_key, receiver)
    net.run_for(seconds(1))
    assert sender.state is FlowState.DONE
    assert sender.stats.timeouts >= 1
    # The retransmission's ACK must not have produced a bogus multi-ms
    # RTT sample.
    assert sender.rto.srtt < 2 * MILLISECOND


def test_stats_count_retransmissions(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", size_bytes=50 * MSS, min_rto_ns=MILLISECOND)
    receiver = sender.receiver
    net.run_for(150_000)
    b.unregister_connection(sender.flow_key)
    net.run_for(MILLISECOND)
    b.register_connection(sender.flow_key, receiver)
    net.run_for(seconds(2))
    assert sender.state is FlowState.DONE
    assert sender.stats.retransmissions > 0
    assert sender.stats.bytes_acked == 50 * MSS
    assert receiver.bytes_received == 50 * MSS


def test_go_back_n_rewinds_snd_nxt(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tcp", size_bytes=100 * MSS, min_rto_ns=MILLISECOND)
    receiver = sender.receiver
    net.run_for(200_000)
    high_before = sender.snd_nxt
    assert high_before > 0
    b.unregister_connection(sender.flow_key)
    net.run_for(3 * MILLISECOND)  # RTO fires while black-holed
    assert sender.stats.timeouts >= 1
    b.register_connection(sender.flow_key, receiver)
    net.run_for(seconds(3))
    assert sender.state is FlowState.DONE
    assert receiver.bytes_received == 100 * MSS
