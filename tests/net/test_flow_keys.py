"""Flow-key contract: every frame's key is its header fields.

Endpoints hand packets a key tuple their flow already owns instead of
four header fields, so nothing but the constructor ties ``flow_key`` to
``src``/``dst``/``sport``/``dport``.  This pins that tie for every frame
a congested dumbbell puts on a wire, for every registered transport,
with a PFC fabric armed under each (as the lossless CI step arms it,
with watermarks tight enough to trip): SYNs, SYN-ACKs, data, TFC
probes, FINs, ACKs, T-RACKs tail-probe dupacks, and PFC/BFC control
frames.  ``reverse_flow_key`` is computed, not stored; it must be the
swapped tuple.
"""

import pytest

from repro.experiments.common import build_topology
from repro.net.packet import Packet
from repro.net.pfc import PfcParams
from repro.net.topology import dumbbell
from repro.sim.units import milliseconds
from repro.transport import tracks
from repro.transport.registry import open_flow, registered_protocols
from tests.arrivals import frames_received, spy_arrivals

#: Watermarks low enough that a 4-way incast pauses within a millisecond.
TIGHT = PfcParams(xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000)

#: Frame kinds every transport's incast must produce.
COMMON_KINDS = {"syn", "synack", "data", "fin", "ack"}

#: Kinds only some transports produce on this incast.
EXTRA_KINDS = {
    "tfc": {"probe"},
    "bfc": {"bfc"},
    "pfc": {"pfc"},
    "tcp": {"pfc"},
    "tracks": {"pfc", "dupack"},
}


def _kind(packet):
    if packet.backpressure is not None:
        return packet.backpressure.name  # a pause frame: "pfc" or "bfc"
    if packet.syn:
        return "synack" if packet.is_ack else "syn"
    if packet.fin:
        return "fin"
    if packet.is_ack:
        return "ack"
    return "data" if packet.payload else "probe"


def _frames(protocol, monkeypatch):
    """Every frame a 4-to-1 incast delivers anywhere, plus the dupacks."""
    delivered = {}
    arrivals = []

    def record(node, packet, in_port_index):
        delivered[packet.packet_id] = packet
        arrivals.append(packet)

    # T-RACKs builds packets only for its tail-probe dupack trains.
    dupacks = []

    def recording_packet(*args, **kwargs):
        packet = Packet(*args, **kwargs)
        dupacks.append(packet)
        return packet

    spy_arrivals(monkeypatch, record)
    monkeypatch.setattr(tracks, "Packet", recording_packet)
    topo = build_topology(
        dumbbell, protocol, buffer_bytes=64_000, n_senders=4, pfc_params=TIGHT
    )
    senders = [
        open_flow(
            topo.host(i), topo.host(4), protocol,
            size_bytes=300_000, awnd_bytes=200_000,
        )
        for i in range(4)
    ]
    topo.network.run_for(milliseconds(20))
    assert all(s.stats.complete_ns is not None for s in senders)
    assert len(arrivals) == frames_received(topo.network)
    return list(delivered.values()), dupacks


@pytest.mark.parametrize("protocol", registered_protocols())
def test_every_frame_key_matches_its_header(protocol, monkeypatch):
    frames, dupacks = _frames(protocol, monkeypatch)
    kinds = {_kind(p) for p in frames} | ({"dupack"} if dupacks else set())
    assert kinds >= COMMON_KINDS | EXTRA_KINDS.get(protocol, set())
    for packet in frames + dupacks:
        header = (packet.src, packet.dst, packet.sport, packet.dport)
        assert packet.flow_key == header, (_kind(packet), packet)
        assert packet.reverse_flow_key == (
            packet.dst, packet.src, packet.dport, packet.sport
        )


def test_packet_built_from_a_key_unpacks_it():
    key = (3, 7, 10_001, 10_002)
    packet = Packet(key, seq=5, payload=100)
    assert packet.flow_key is key
    assert (packet.src, packet.dst, packet.sport, packet.dport) == key
    assert packet.reverse_flow_key == (7, 3, 10_002, 10_001)
    assert Packet(3, 7, 10_001, 10_002).flow_key == key
