"""Unit tests for the TFC per-port switch agent, driven by crafted packets."""

import sys

import pytest

from repro.core.params import TfcParams
from repro.core.switch_agent import TfcPortAgent, _quantize_window, enable_tfc
from repro.net.network import Network
from repro.net.packet import MSS, Packet, WINDOW_SENTINEL
from repro.sim.units import GBPS, bandwidth_delay_product, microseconds


def build_agent(params=None):
    net = Network(seed=0)
    a = net.add_host("A")
    b = net.add_host("B")
    sw = net.add_switch("SW")
    net.cable(a, sw, GBPS, microseconds(5))
    sw_to_b, _ = net.cable(sw, b, GBPS, microseconds(5))
    net.build_routes()
    agent = TfcPortAgent(sw, sw_to_b, params or TfcParams())
    sw_to_b.agent = agent
    return net, agent, a, b


def data_packet(a, b, sport=100, rm=False, payload=MSS, syn=False, fin=False):
    return Packet(
        a.node_id, b.node_id, sport, 200,
        payload=payload, rm=rm, syn=syn, fin=fin,
    )


def advance(net, delta_ns):
    """Move the clock forward so agent timestamps differ."""
    net.sim.schedule(delta_ns, lambda: None)
    net.sim.run()


# ----------------------------------------------------------------------
# Window quantisation helper
# ----------------------------------------------------------------------
def test_quantize_whole_packets():
    assert _quantize_window(2.9 * MSS) == 2 * MSS
    assert _quantize_window(float(MSS)) == MSS
    assert _quantize_window(10_000.0) == 6 * MSS


def test_quantize_keeps_sub_mss_fractional():
    assert _quantize_window(700.0) == 700.0


# ----------------------------------------------------------------------
# Delimiter election and E counting
# ----------------------------------------------------------------------
def test_first_rm_packet_elected_delimiter():
    net, agent, a, b = build_agent()
    pkt = data_packet(a, b, sport=1, rm=True)
    agent.on_transit(pkt)
    assert agent.delimiter_key == pkt.flow_key


def test_effective_flows_counted_per_slot():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))  # delimiter
    advance(net, 10_000)
    for sport in (2, 3, 4):
        agent.on_transit(data_packet(a, b, sport=sport, rm=True))
    # Delimiter counts as the initial 1.
    assert agent.effective_flows == 4
    # Non-RM packets do not count.
    agent.on_transit(data_packet(a, b, sport=5, rm=False))
    assert agent.effective_flows == 4


def test_marked_syn_counts_toward_e():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    agent.on_transit(data_packet(a, b, sport=2, rm=True, syn=True, payload=0))
    assert agent.effective_flows == 2


def test_slot_closes_on_delimiter_rm_and_updates_window():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 100_000)
    # Election slot: publishes W from counted E but skips rho adjustment.
    agent.on_transit(data_packet(a, b, sport=2, rm=True))
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    assert agent.slot_index == 0  # adjustment skipped on election slot
    tokens_before = agent.tokens
    # Next slot: saturate with traffic then close.
    for _ in range(8):
        agent.on_transit(data_packet(a, b, sport=2))
    advance(net, 100_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    assert agent.slot_index == 1
    assert agent.rttm_ns == 100_000


def test_fin_drops_delimiter_and_next_rm_takes_over():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    agent.on_transit(data_packet(a, b, sport=1, fin=True, payload=0))
    assert agent.delimiter_key is None
    new_pkt = data_packet(a, b, sport=7, rm=True)
    agent.on_transit(new_pkt)
    assert agent.delimiter_key == new_pkt.flow_key


def test_silent_delimiter_reelected_after_backoff():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    rtt_last = agent.rtt_last_ns
    # Less than 4 x rtt_last of silence: delimiter keeps its seat.
    advance(net, 3 * rtt_last)
    agent.on_transit(data_packet(a, b, sport=2, rm=True))
    assert agent.delimiter_key == (a.node_id, b.node_id, 1, 200)
    # Beyond 4 x rtt_last: the next foreign RM is adopted.
    advance(net, 5 * rtt_last)
    pkt = data_packet(a, b, sport=3, rm=True)
    agent.on_transit(pkt)
    assert agent.delimiter_key == pkt.flow_key


# ----------------------------------------------------------------------
# rtt_b measurement
# ----------------------------------------------------------------------
def test_rttb_tracks_minimum_of_full_frames():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 120_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))  # election slot
    advance(net, 90_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    assert agent.rttb_ns == 90_000
    advance(net, 130_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    assert agent.rttb_ns == 90_000  # min is kept


def test_small_frames_do_not_update_rttb():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 100_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    rttb_before = agent.rttb_ns
    advance(net, 10_000)
    # A tiny RM frame closes the slot but must not poison rtt_b.
    agent.on_transit(data_packet(a, b, sport=1, rm=True, payload=0))
    assert agent.rttb_ns == rttb_before
    assert agent.rttm_ns == 10_000  # rtt_m does update


def test_rttb_refresch_ages_out_stale_minimum():
    params = TfcParams(rttb_refresh_slots=2)
    net, agent, a, b = build_agent(params)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 50_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))  # election slot
    for gap in (50_000, 100_000, 100_000, 100_000):
        advance(net, gap)
        agent.on_transit(data_packet(a, b, sport=1, rm=True))
    # The old 50 us minimum must have been aged out by the refresh.
    assert agent.rttb_ns == 100_000


# ----------------------------------------------------------------------
# Window stamping
# ----------------------------------------------------------------------
def test_stamp_lowers_window_field_only_downwards():
    net, agent, a, b = build_agent()
    pkt = data_packet(a, b, rm=True)
    assert pkt.window == WINDOW_SENTINEL
    agent.on_transit(pkt)
    assert pkt.window <= agent.window
    # A packet already carrying a smaller window is left alone.
    pkt2 = data_packet(a, b, sport=9, rm=False)
    pkt2.window = 100.0
    agent.on_transit(pkt2)
    assert pkt2.window == 100.0


def test_non_rm_transit_makes_no_calls():
    """A non-RM, unit-weight data packet is switch-pipeline work: a byte
    add, the ACK and FIN tests and a compare-and-store of the cached
    stamp.  No nested Python call and no C call may run under it."""
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    agent.on_transit(data_packet(a, b, sport=2, rm=True))
    packet = data_packet(a, b, sport=3)
    transit = agent.on_transit
    here = sys._getframe().f_code
    events = []

    def profiler(frame, event, arg):
        if frame.f_code is not here:  # skip setprofile(None) itself
            events.append((event, frame.f_code.co_name))

    sys.setprofile(profiler)
    try:
        transit(packet)
    finally:
        sys.setprofile(None)
    assert events == [("call", "on_transit"), ("return", "on_transit")]
    assert packet.window == agent.stamp < WINDOW_SENTINEL


def test_grant_budget_prevents_harmonic_overcommit():
    """A burst of RM probes within one slot is granted at most ~T total."""
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 1000)
    granted = []
    for sport in range(2, 40):
        pkt = data_packet(a, b, sport=sport, rm=True, payload=0)
        agent.on_transit(pkt)
        granted.append(pkt.window)
    assert sum(granted) <= agent.tokens + 40 * 64 + MSS


def test_pure_acks_count_bytes_but_not_flows():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    before = agent.effective_flows
    ack = Packet(a.node_id, b.node_id, 5, 6, is_ack=True, rma=True)
    agent.on_transit(ack)
    assert agent.effective_flows == before
    assert agent.arrived_bytes > 0


# ----------------------------------------------------------------------
# Token adjustment
# ----------------------------------------------------------------------
def run_slots(agent, net, a, b, rho_bytes, slots, gap_ns=100_000):
    """Close `slots` slots, each carrying `rho_bytes` of traffic."""
    for _ in range(slots):
        filler = rho_bytes
        while filler > 0:
            payload = min(MSS, filler)
            agent.on_transit(data_packet(a, b, sport=2, payload=payload))
            filler -= payload
        advance(net, gap_ns)
        agent.on_transit(data_packet(a, b, sport=1, rm=True))


def test_underutilisation_boosts_tokens():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 100_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))  # election
    tokens_start = agent.tokens
    run_slots(agent, net, a, b, rho_bytes=3_000, slots=10)
    assert agent.tokens > tokens_start


def test_overutilisation_shrinks_tokens():
    net, agent, a, b = build_agent()
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 100_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    run_slots(agent, net, a, b, rho_bytes=9_000, slots=5)  # settle
    tokens_before = agent.tokens
    run_slots(agent, net, a, b, rho_bytes=14_000, slots=10)  # rho > 1
    assert agent.tokens < tokens_before


def test_tokens_clamped_to_bdp_range():
    params = TfcParams(max_token_bdp_factor=2.0, rho_floor=0.25)
    net, agent, a, b = build_agent(params)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 100_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    run_slots(agent, net, a, b, rho_bytes=MSS, slots=60)
    bdp = bandwidth_delay_product(agent.rate_bps, agent.rttb_ns)
    assert agent.tokens <= 2.0 * bdp * (1 + 1e-9)
    assert agent.tokens >= 0.25 * bdp * (1 - 1e-9)


def test_eq7_mode_uses_bdp_base():
    params = TfcParams(token_adjustment="eq7", queue_drain=False)
    net, agent, a, b = build_agent(params)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    advance(net, 100_000)
    agent.on_transit(data_packet(a, b, sport=1, rm=True))
    run_slots(agent, net, a, b, rho_bytes=9_000, slots=40)
    bdp = bandwidth_delay_product(agent.rate_bps, agent.rttb_ns)
    rho = agent.last_rho
    # Fixed point of the literal Eq. 7 under EWMA: T = bdp * rho0 / rho.
    assert agent.tokens == pytest.approx(bdp * 0.97 / rho, rel=0.3)


def test_enable_tfc_installs_agent_on_every_switch_port():
    net = Network(seed=0)
    a = net.add_host("A")
    b = net.add_host("B")
    s1 = net.add_switch("S1")
    s2 = net.add_switch("S2")
    net.cable(a, s1, GBPS, 1000)
    net.cable(s1, s2, GBPS, 1000)
    net.cable(s2, b, GBPS, 1000)
    net.build_routes()
    installed = enable_tfc(net)
    assert installed == 4  # two ports per switch
    for sw in (s1, s2):
        for port in sw.ports:
            assert isinstance(port.agent, TfcPortAgent)
    # Hosts keep plain NICs.
    assert a.ports[0].agent is None
