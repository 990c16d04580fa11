"""Cross-cutting TFC invariants observed through the tracer."""

import pytest

from repro.core.params import TfcParams
from repro.net.packet import MSS
from repro.net.topology import dumbbell
from repro.sim.trace import (
    TFC_ACK_DELAYED,
    TFC_DELIMITER_ELECTED,
    TFC_WINDOW_UPDATE,
)
from repro.sim.units import seconds
from repro.transport.base import FlowState
from repro.transport.registry import get_protocol, open_flow


def tfc_topo(n, params=None):
    tfc = get_protocol("tfc")
    topo = dumbbell(n_senders=n, queue_factory=tfc.port_queue_factory(256_000))
    tfc.install(topo.network, params)
    return topo


def test_window_updates_happen_every_slot():
    topo = tfc_topo(3)
    receiver = topo.hosts[-1]
    for host in topo.hosts[:3]:
        open_flow(host, receiver, "tfc")
    topo.network.run_for(seconds(0.2))
    # Slots are one RTT (~110 us); 0.2 s should see thousands of updates
    # across the agents.
    assert topo.network.tracer.count(TFC_WINDOW_UPDATE) > 500


def test_delimiter_elected_once_per_port_in_steady_state():
    topo = tfc_topo(3)
    receiver = topo.hosts[-1]
    for host in topo.hosts[:3]:
        open_flow(host, receiver, "tfc")
    topo.network.run_for(seconds(0.3))
    # Steady long flows: elections happen at startup and then stay put
    # (re-election churn would show up as a large count).
    assert topo.network.tracer.count(TFC_DELIMITER_ELECTED) <= 2 * len(
        [p for sw in topo.switches for p in sw.ports]
    )


def test_delimiter_reelected_after_fin():
    topo = tfc_topo(2)
    receiver = topo.hosts[-1]
    first = open_flow(topo.hosts[0], receiver, "tfc", size_bytes=200_000)
    open_flow(topo.hosts[1], receiver, "tfc")
    topo.network.run_for(seconds(0.5))
    assert first.state is FlowState.DONE
    agent = topo.bottleneck("main").agent
    # The surviving flow must have taken over as delimiter and windows
    # keep updating.
    assert agent.delimiter_key is not None
    assert agent.delimiter_key != first.flow_key
    before = agent.slot_index
    topo.network.run_for(seconds(0.05))
    assert agent.slot_index > before


def test_sub_mss_regime_engages_delay_function():
    topo = tfc_topo(40)
    receiver = topo.hosts[-1]
    for host in topo.hosts[:40]:
        open_flow(host, receiver, "tfc")
    topo.network.run_for(seconds(0.3))
    agent = topo.bottleneck("main").agent
    assert agent.window < MSS  # allocation genuinely sub-MSS
    assert topo.network.tracer.count(TFC_ACK_DELAYED) > 0
    assert agent.delay_arbiter.dropped_acks == 0
    assert topo.network.total_drops() == 0


def test_tokens_track_bdp_in_steady_state():
    topo = tfc_topo(4)
    receiver = topo.hosts[-1]
    for host in topo.hosts[:4]:
        open_flow(host, receiver, "tfc")
    topo.network.run_for(seconds(0.5))
    agent = topo.bottleneck("main").agent
    from repro.sim.units import bandwidth_delay_product

    bdp = bandwidth_delay_product(agent.rate_bps, agent.rttb_ns)
    assert 0.5 * bdp <= agent.tokens <= 3 * bdp


def test_total_grants_per_slot_bounded_by_tokens():
    """The core token invariant, sampled over many slots."""
    topo = tfc_topo(6)
    receiver = topo.hosts[-1]
    for host in topo.hosts[:6]:
        open_flow(host, receiver, "tfc")
    agent = topo.bottleneck("main").agent
    violations = []

    def check(agent=None):
        if agent is topo.bottleneck("main").agent:
            # granted_bytes was just reset; check the previous slot's
            # published allocation instead: E * W <= T + one quantum.
            total = agent.published_e * agent.window
            if total > agent.tokens + MSS:
                violations.append((total, agent.tokens))

    topo.network.tracer.subscribe(TFC_WINDOW_UPDATE, check)
    topo.network.run_for(seconds(0.3))
    assert not violations


@pytest.mark.parametrize("subscribed", [False, True], ids=["counted", "subscribed"])
def test_ack_delayed_trace_counts_every_parked_and_dropped_ack(subscribed):
    """``TFC_ACK_DELAYED`` fires once per ACK the arbiter parks or drops,
    whether it is only counted (nobody listens) or dispatched; a listener
    is told which ACK and whether it was dropped."""
    topo = tfc_topo(40, TfcParams(delay_queue_limit=8))
    receiver = topo.hosts[-1]
    for host in topo.hosts[:40]:
        open_flow(host, receiver, "tfc", size_bytes=100_000)
    seen = []
    if subscribed:
        topo.network.tracer.subscribe(
            TFC_ACK_DELAYED, lambda packet, dropped: seen.append((packet.rma, dropped))
        )
    topo.network.run_for(seconds(0.03))
    arbiters = [port.agent.delay_arbiter for sw in topo.switches for port in sw.ports]
    delayed = sum(arbiter.delayed_acks for arbiter in arbiters)
    dropped = sum(arbiter.dropped_acks for arbiter in arbiters)
    assert delayed > 0 and dropped > 0
    assert topo.network.tracer.count(TFC_ACK_DELAYED) == delayed + dropped
    if subscribed:
        assert sorted(set(seen)) == [(True, False), (True, True)]
        assert seen.count((True, True)) == dropped
