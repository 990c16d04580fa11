"""The switch agent against a reference ``on_transit`` built from DESIGN.md §5a.

The agent stamps non-RM packets from a cached ``min(W, live bound)`` and
evaluates the delimiter-silence count on RM packets only.  The reference
below does neither: it re-derives the live bound (§5a item 4) and advances
the silence count (item 8) on every packet, debits RM stamps against
the slot budget (item 3), and takes its own round-mark step: elect on
the first RM packet, close the slot on the delimiter's, and count any
other flow's RM packet as its weight.  Slot closes and elections
themselves are the agent's (``_close_slot``/``_elect``); what is compared
is everything the cache and the lazy count could get wrong: every
stamped window, and the whole agent state, the stamp cached for the next
non-RM packet included, after each RM packet.

It also holds the agent to its contract with the path: a switch only
ever *lowers* a packet's window field (min-reduction), so no stamp may
raise the window the packet arrived with.
"""

from hypothesis import given, seed, settings, strategies as st

from repro.core.params import TfcParams
from repro.core.switch_agent import TfcPortAgent, _quantize_window
from repro.net.network import Network
from repro.net.packet import MSS, Packet, WINDOW_SENTINEL
from repro.sim.units import GBPS, microseconds

_STATE = (
    "delimiter_key", "_delimiter_weight", "slot_start_ns", "miss_count",
    "_slots_since_election", "effective_flows", "arrived_bytes", "e_smooth",
    "granted_bytes", "tokens", "window", "slot_index", "last_rho",
    "published_e", "rttb_ns", "rttm_ns", "rtt_last_ns",
    "_slots_until_rttb_refresh", "stamp",
)


def _live_stamp(agent: TfcPortAgent) -> float:
    """Item 4: min(W, T / max(E_so_far, e_smooth / 2)), never below MSS / 8."""
    share = max(agent.effective_flows, agent.e_smooth / 2.0, 1.0)
    return min(agent.window, _quantize_window(max(agent.tokens / share, MSS / 8.0)))


def reference_on_transit(agent: TfcPortAgent, packet: Packet) -> None:
    """Eager per-packet TFC transit: nothing cached, nothing deferred."""
    now = agent.sim.now
    agent.arrived_bytes += packet.frame_size
    if packet.is_ack and packet.payload == 0 and not packet.syn:
        return
    if packet.fin and packet.flow_key == agent.delimiter_key:
        agent.delimiter_key = None
        agent.miss_count = 0
    # Item 8: miss = k once the delimiter is silent past 2^k x rtt_last;
    # a foreign RM packet is adopted from miss >= 2 on.
    if agent.delimiter_key is not None:
        while agent.miss_count < agent.params.max_delimiter_miss and (
            now - agent.slot_start_ns
            > 2 ** (agent.miss_count + 1) * agent.rtt_last_ns
        ):
            agent.miss_count += 1
        if (
            agent.miss_count >= 2
            and packet.rm
            and packet.flow_key != agent.delimiter_key
        ):
            agent._elect(packet, now)
    stamp = _live_stamp(agent)
    if packet.weight > 1:
        stamp = _quantize_window(stamp * packet.weight)
    if packet.rm:
        # Item 3: RM grants are debited against the slot's token budget.
        stamp = min(stamp, max(agent.tokens - agent.granted_bytes, 64.0))
        agent.granted_bytes += stamp
    packet.window = min(packet.window, stamp)
    if packet.rm:
        # The round mark: the first RM packet elects its flow, the
        # delimiter's closes the slot, any other counts w for weight w.
        if agent.delimiter_key is None:
            agent._elect(packet, now)
        elif packet.flow_key == agent.delimiter_key:
            agent._close_slot(packet, now)
        else:
            agent.effective_flows += max(packet.weight, 1)
        agent.stamp = _live_stamp(agent)


# One step: advance the clock by a gap, then transit a packet or reset.
_STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.just(0),
            st.integers(min_value=1, max_value=5_000),
            st.integers(min_value=5_000, max_value=200_000),
            st.integers(min_value=200_000, max_value=3_000_000),  # miss >= 2
        ),
        st.integers(min_value=0, max_value=3),  # flow (sport)
        st.sampled_from(
            ("data", "data", "rm", "rm", "rm", "fin", "rm_fin", "ack", "syn_ack", "reset")
        ),
        st.sampled_from((0, 64, 700, MSS)),  # payload
        st.sampled_from((0, 1, 1, 1, 2, 3)),  # weight
        st.sampled_from((WINDOW_SENTINEL, WINDOW_SENTINEL, 500.0, 3.0 * MSS, 50.0 * MSS)),
    ),
    max_size=60,
)


def _packet(dst, sport, kind, payload, weight, window):
    ack = kind in ("ack", "syn_ack")
    packet = Packet(
        0, dst, sport, 200,
        payload=payload,
        rm=kind.startswith("rm"),
        fin=kind.endswith("fin"),
        syn=kind == "syn_ack",
        is_ack=ack,
        window=window,
    )
    packet.weight = weight
    return packet


def _noop():
    pass


@seed(41)
@settings(max_examples=300, deadline=None)
@given(_STEPS)
def test_agent_matches_reference_transit(steps):
    """RM, non-RM, FIN (the delimiter's too), pure-ACK and weighted
    packets, silence gaps and resets: the agent stamps every packet and
    ends every RM packet exactly as the eager reference does."""
    net = Network(seed=0)
    a = net.add_host("A")
    b = net.add_host("B")
    switch = net.add_switch("SW")
    net.cable(a, switch, GBPS, microseconds(5))
    port, _ = net.cable(switch, b, GBPS, microseconds(5))
    net.build_routes()
    agent = TfcPortAgent(switch, port, TfcParams())
    reference = TfcPortAgent(switch, port, TfcParams())
    for gap, *fields in steps:
        if gap:
            net.sim.post(gap, _noop)
            net.sim.run()
        if fields[1] == "reset":
            agent.reset()
            reference.reset()
            continue
        packet = _packet(b.node_id, *fields)
        expected = _packet(b.node_id, *fields)
        window_before = packet.window
        agent.on_transit(packet)
        reference_on_transit(reference, expected)
        assert packet.window <= window_before, "a switch raised the window"
        assert packet.window == expected.window
        if packet.rm:
            for name in _STATE:
                assert getattr(agent, name) == getattr(reference, name), name
