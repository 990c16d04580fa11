"""Unit tests for the packet model."""

from hypothesis import given, strategies as st

from repro.net.packet import (
    ETHERNET_OVERHEAD,
    HEADER_BYTES,
    MIN_FRAME_BYTES,
    MSS,
    MTU,
    WINDOW_SENTINEL,
    Packet,
)


def make(payload=0, **kwargs):
    return Packet(1, 2, 1000, 2000, payload=payload, **kwargs)


def test_mtu_is_mss_plus_header():
    assert MTU == MSS + HEADER_BYTES == 1500


def test_full_segment_sizes():
    pkt = make(payload=MSS)
    assert pkt.size == 1500
    assert pkt.frame_size == 1500 + ETHERNET_OVERHEAD


def test_pure_ack_hits_min_frame():
    ack = make(is_ack=True)
    assert ack.size == HEADER_BYTES
    assert ack.frame_size == MIN_FRAME_BYTES


def test_flow_key_and_reverse():
    pkt = make()
    assert pkt.flow_key == (1, 2, 1000, 2000)
    assert pkt.reverse_flow_key == (2, 1, 2000, 1000)


def test_end_seq():
    pkt = make(payload=100, seq=500)
    assert pkt.end_seq == 600


def test_window_defaults_to_sentinel():
    assert make().window == WINDOW_SENTINEL
    assert WINDOW_SENTINEL > 10 * 1024 * 1024  # effectively infinite


def test_fresh_packet_flags_clear():
    pkt = make()
    assert not pkt.ecn_ce
    assert not pkt.ecn_echo
    assert not pkt.retransmitted
    assert pkt.hops == 0


@given(st.integers(min_value=0, max_value=MSS))
def test_property_frame_at_least_min_and_at_least_size(payload):
    pkt = make(payload=payload)
    assert pkt.frame_size >= MIN_FRAME_BYTES
    assert pkt.frame_size >= pkt.size
    assert pkt.size == payload + HEADER_BYTES
