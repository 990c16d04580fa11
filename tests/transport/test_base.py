"""Tests for the shared reliability framework (handshake, sliding window,
reassembly, retransmission, completion accounting)."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core.sender import TfcSender
from repro.net.packet import MSS, Packet
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.sim.units import MILLISECOND, seconds
from repro.transport.base import FlowState, Receiver
from repro.transport.dctcp import DctcpSender
from repro.transport.newreno import NewRenoSender
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


class _Wire:
    """Stands in for the sending host: logs every data segment and FIN as
    ``(seq, len, retransmitted)``; SYNs and TFC's zero-payload probes are
    not logged."""

    node_id = 1

    def __init__(self):
        self.sim = Simulator()
        self.tracer = Tracer()
        self.sent = []

    def register_connection(self, key, endpoint):
        pass

    def retire_connection(self, key, sink, record):
        pass

    def send(self, packet):
        if packet.payload or packet.fin:
            self.sent.append((packet.seq, packet.payload, packet.retransmitted))


class _ReferenceSender:
    """Byte-window sender reliability written from the spec: segments in a
    dict, go-back-N on timeout, the protocol's loss triggers (NewReno's
    fast recovery with partial ACKs; TFC's third dupack).  The window is
    an input: congestion control is the protocol modules' business."""

    def __init__(self, protocol, flow_bytes):
        self.newreno = protocol != "tfc"
        self.flow_bytes = flow_bytes  # None: long-lived
        self.una = self.nxt = self.high = self.dupacks = 0
        self.segments, self.sent = {}, []
        self.stats = dict(bytes_acked=0, bytes_sent=0, packets_sent=0,
                          retransmissions=0, timeouts=0, fast_retransmits=0)
        self.recovering, self.recover_end = False, 0
        self.acquired = self.sampled = self.done = False

    def _emit(self, seq, length, again):
        self.sent.append((seq, length, again))
        self.segments[seq] = length
        self.stats["packets_sent"] += 1
        self.stats["bytes_sent"] += length
        self.stats["retransmissions"] += again

    def _fill(self, window):
        while True:
            left = MSS if self.flow_bytes is None else self.flow_bytes - self.nxt
            length = min(MSS, left)
            if length <= 0 or self.nxt - self.una + length > window + 0.5:
                return
            self._emit(self.nxt, length, self.nxt < self.high)
            self.nxt += length
            self.high = max(self.high, self.nxt)

    def _resend_first(self):
        if self.una < self.nxt:
            fallback = min(MSS, self.nxt - self.una)
            self._emit(self.una, self.segments.get(self.una, fallback), True)

    def ack(self, ack, clean, rma, window):
        if self.done:
            return
        outstanding = self.nxt > self.una
        if rma and not self.newreno and not self.acquired:
            self.acquired = True
            self._fill(window)  # the first grant sends before the ACK counts
        if ack > self.una:
            seq = self.una  # release the contiguous run of segments ...
            while seq < ack and seq in self.segments:
                seq += self.segments.pop(seq)
            if seq < ack:  # ... and, if it stops short, everything below
                self.segments = {s: e for s, e in self.segments.items() if s >= ack}
            self.stats["bytes_acked"] += ack - self.una
            self.una, self.nxt, self.dupacks = ack, max(self.nxt, ack), 0
            self.sampled |= clean
            if self.recovering and ack >= self.recover_end:
                self.recovering = False
            elif self.recovering:
                self._resend_first()  # NewReno partial ACK
            self._fill(window)
            if self.flow_bytes is not None and self.una >= self.flow_bytes:
                self.done, self.segments = True, {}
                self.sent.append((self.nxt, 0, False))  # the FIN
        elif ack == self.una and outstanding:
            self.dupacks += 1
            if self.newreno and self.dupacks >= 3 and not self.recovering:
                self.recovering, self.recover_end = True, self.nxt
                self.stats["fast_retransmits"] += 1
                self._resend_first()
            elif not self.newreno and self.dupacks == 3:
                self.stats["fast_retransmits"] += 1
                self._resend_first()
            self._fill(window)

    def timeout(self, window):
        if self.done or self.nxt == self.una:
            return
        self.stats["timeouts"] += 1
        self.nxt, self.segments, self.dupacks, self.recovering = self.una, {}, 0, False
        self._fill(window)


_SENDERS = {"tcp": NewRenoSender, "dctcp": DctcpSender, "tfc": TfcSender}

_ACK_SCRIPT = st.lists(
    st.tuples(
        st.sampled_from(("segment", "segment", "byte", "dup", "dup3", "stale", "rto")),
        st.integers(min_value=0, max_value=1 << 16),
        st.booleans(),  # the ACK echoes a retransmission (no RTT sample)
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)),  # RMA window, MSS
    ),
    max_size=40,
)


def _script_ack(ref, kind, pick):
    """The ACK number one scripted event carries, chosen from the
    reference's state (never beyond the highest byte sent)."""
    ends = sorted({seq + length for seq, length, _ in ref.sent if ref.una < seq + length <= ref.high})
    if kind == "segment" and ends:
        return ends[pick % len(ends)]
    if kind == "byte" and ref.high > ref.una:
        return ref.una + 1 + pick % (ref.high - ref.una)
    if kind == "stale" and ref.una > 0:
        return pick % ref.una
    return ref.una  # "dup", "dup3", or nothing to acknowledge yet


@seed(52)
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_SENDERS)),
    st.one_of(st.none(), st.integers(min_value=1, max_value=40 * MSS)),
    st.sampled_from((2, 4, 8, 16)),
    _ACK_SCRIPT,
)
def test_sender_matches_reference_reliability(protocol, flow_bytes, awnd_segments, script):
    """New, duplicate, mid-segment, stale and post-rewind ACKs, with and
    without a retransmission echo, and RTOs: tcp, dctcp and tfc senders
    transmit the same ``(seq, len, retransmitted)`` segments and end with
    the same window edges, in-flight table and counters as the reference."""
    wire = _Wire()
    sender = _SENDERS[protocol](
        wire, 2, 80, size_bytes=flow_bytes, sport=1000, awnd_bytes=awnd_segments * MSS
    )
    ref = _ReferenceSender(protocol, flow_bytes)
    sender.start()
    sender.on_packet(Packet(sender.ack_key, syn=True, is_ack=True))
    ref._fill(min(sender.cwnd, sender.peer_awnd))
    for kind, pick, echoes_retransmission, rma_segments in script:
        if kind == "rto":
            sender._on_rto()
            ref.timeout(min(sender.cwnd, sender.peer_awnd))
            continue
        number = _script_ack(ref, kind, pick)
        rma = protocol == "tfc" and rma_segments is not None
        for _ in range(3 if kind == "dup3" else 1):
            ack = Packet(sender.ack_key, ack=number, is_ack=True, rma=rma)
            if rma:
                ack.window = float(rma_segments * MSS)
            ack.sent_at = None if echoes_retransmission else 0
            ack.retransmitted = echoes_retransmission
            sender.on_packet(ack)
            ref.ack(number, not echoes_retransmission, rma, min(sender.cwnd, sender.peer_awnd))
        assert wire.sent == ref.sent
    assert (sender.snd_una, sender.snd_nxt, sender._high_tx) == (ref.una, ref.nxt, ref.high)
    assert sender._inflight == ref.segments
    assert {name: getattr(sender.stats, name) for name in ref.stats} == ref.stats
    assert (sender.rto.srtt is not None) == ref.sampled
    assert (sender.state is FlowState.DONE) == ref.done


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
