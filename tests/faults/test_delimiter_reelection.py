"""Satellite: silent delimiter death -> re-election within the paper bound.

Section 5.2: when the delimiter flow goes silent without a FIN, the agent
waits ``2^k x rtt_last`` (k <= 7) before giving up on it.  This test kills
the delimiter mid-run with :meth:`FaultInjector.kill_delimiter` (an abort,
no FIN) and asserts a replacement is adopted within the k=7 bound — with
the invariant monitor attached, so the E and token clamps are checked on
every slot throughout the churn.
"""

from repro.experiments.common import build_topology
from repro.faults import FaultInjector, InvariantMonitor
from repro.net.topology import dumbbell
from repro.sim.trace import TFC_DELIMITER_ELECTED
from repro.sim.units import milliseconds
from repro.transport.base import FlowState
from repro.transport.registry import open_flow


def test_silent_delimiter_death_triggers_bounded_reelection():
    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=3)
    net = topo.network
    receiver = topo.hosts[-1]
    senders = [open_flow(topo.host(i), receiver, "tfc") for i in range(3)]
    agent = topo.bottleneck().agent
    monitor = InvariantMonitor(net)  # raises on any clamp breach

    elections = []
    net.tracer.subscribe(
        TFC_DELIMITER_ELECTED,
        lambda agent=None, flow_key=None, **kw: elections.append(
            (net.sim.now, agent, flow_key)
        ),
    )

    kill_ns = milliseconds(20)
    at_kill = {}

    def snapshot():
        at_kill["key"] = agent.delimiter_key
        at_kill["rtt_last_ns"] = agent.rtt_last_ns

    net.sim.schedule_at(kill_ns, snapshot)  # scheduled first: runs first
    injector = FaultInjector(net)
    record = injector.kill_delimiter(topo.bottleneck(), senders, kill_ns)

    net.run_for(milliseconds(60))

    # The injector found and killed the delimiter flow, silently.
    killed_key = record.detail["delimiter_key"]
    assert killed_key == at_kill["key"] is not None
    killed = next(s for s in senders if s.flow_key == killed_key)
    assert killed.state is FlowState.DONE
    assert killed.stats.complete_ns is None

    # A replacement delimiter was adopted within 2^7 x rtt_last.
    adoption = [
        (t, key)
        for t, a, key in elections
        if a is agent and t > kill_ns and key != killed_key
    ]
    assert adoption, "no replacement delimiter was ever elected"
    adopted_ns, adopted_key = adoption[0]
    bound_ns = (1 << 7) * at_kill["rtt_last_ns"]
    assert adopted_ns - kill_ns <= bound_ns
    assert adopted_key in {s.flow_key for s in senders if s is not killed}

    # The survivors keep running and no invariant broke during the churn.
    for sender in senders:
        if sender is not killed:
            assert sender.state is FlowState.ESTABLISHED
    monitor.assert_clean()
    assert monitor.checks_run > 0


def test_delimiter_fin_handover_still_immediate():
    """Clean FIN hand-over (the non-fault path) does not use the backoff:
    the agent forgets the delimiter the moment the FIN transits."""
    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=2)
    net = topo.network
    receiver = topo.hosts[-1]
    senders = [open_flow(topo.host(i), receiver, "tfc") for i in range(2)]
    agent = topo.bottleneck().agent

    net.run_for(milliseconds(20))
    delimiter = next(
        s for s in senders if s.flow_key == agent.delimiter_key
    )
    delimiter.finish()
    net.run_for(milliseconds(20))
    assert agent.delimiter_key is not None
    assert agent.delimiter_key != delimiter.flow_key
