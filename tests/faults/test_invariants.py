"""The runtime invariant monitor."""

import pytest

from repro.experiments.common import build_topology
from repro.faults import InvariantMonitor, InvariantViolation
from repro.net.packet import MSS, Packet
from repro.net.pfc import protocol_agent
from repro.net.topology import dumbbell
from repro.sim.trace import INVARIANT_VIOLATION
from repro.sim.units import milliseconds
from repro.transport.registry import open_flow


def tfc_scenario(n_senders=2, seed=0):
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=n_senders, seed=seed
    )
    receiver = topo.hosts[-1]
    senders = [
        open_flow(topo.host(i), receiver, "tfc") for i in range(n_senders)
    ]
    return topo, senders


def test_clean_run_has_no_violations():
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network)
    topo.network.run_for(milliseconds(30))
    assert monitor.violations == []
    assert monitor.checks_run > 100  # slots closed and sweeps ran
    monitor.assert_clean()


def test_token_clamp_violation_raises_with_context():
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network)
    agent = topo.bottleneck().agent

    def corrupt():
        agent.tokens = 1e12  # way past 6 x BDP

    topo.network.sim.schedule_at(milliseconds(10), corrupt)
    with pytest.raises(InvariantViolation) as excinfo:
        topo.network.run_for(milliseconds(30))
    violation = excinfo.value.violation
    assert violation.invariant == "token_clamps"
    # The EWMA has pulled the corrupted value toward its own by the time
    # the slot closes, but it is still orders of magnitude past the clamp.
    assert violation.context["tokens"] > violation.context["high"]
    assert "SW" in violation.location
    assert "token" in str(excinfo.value)
    assert monitor.violations == [violation]


def test_collect_mode_keeps_running_and_emits_trace():
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network, raise_on_violation=False)
    agent = topo.bottleneck().agent
    topo.network.sim.schedule_at(
        milliseconds(10), lambda: setattr(agent, "effective_flows", -50)
    )
    topo.network.run_for(milliseconds(12))
    assert any(v.invariant == "effective_flows" for v in monitor.violations)
    assert topo.network.tracer.counters[INVARIANT_VIOLATION] >= 1
    with pytest.raises(InvariantViolation):
        monitor.assert_clean()


def test_window_min_reduction_check():
    """A switch that *raises* the window field is caught by the wrapper."""
    topo, _ = tfc_scenario()
    agent = topo.bottleneck().agent
    def raising_transit(packet):
        packet.window += float(MSS)

    agent.on_transit = raising_transit
    monitor = InvariantMonitor(topo.network, raise_on_violation=False)
    packet = Packet(0, 3, 1, 2, payload=MSS, window=float(10 * MSS))
    agent.on_transit(packet)
    assert [v.invariant for v in monitor.violations] == ["window_min_reduction"]
    assert monitor.violations[0].context["window_after"] == float(11 * MSS)


def test_queue_capacity_sweep():
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network, raise_on_violation=False)
    queue = topo.bottleneck().queue
    queue._bytes = queue.capacity_bytes + 1  # simulate an accounting bug
    monitor._sweep()
    assert any(v.invariant == "queue_capacity" for v in monitor.violations)


def test_detach_removes_all_hooks():
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network)
    # The monitor shadows on_transit on the *protocol* agent (under the
    # REPRO_LOSSLESS=pfc shard, port.agent is the PFC wrapper above it).
    agent = protocol_agent(topo.bottleneck().agent)
    assert "on_transit" in agent.__dict__  # wrapped
    monitor.detach()
    assert "on_transit" not in agent.__dict__
    agent.tokens = 1e12  # would violate, but nobody is watching
    topo.network.run_for(milliseconds(5))
    assert monitor.violations == []


def test_monitor_mirrors_counters_into_registry():
    """With a registry attached, checks and violations surface as
    ``invariant.*`` counters (the chaos driver's telemetry export path)."""
    from repro.obs import MetricRegistry

    registry = MetricRegistry()
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(
        topo.network, raise_on_violation=False, registry=registry
    )
    topo.network.run_for(milliseconds(10))
    assert registry.get("invariant.checks").value == monitor.checks_run
    assert registry.get("invariant.violations").value == 0
    agent = topo.bottleneck().agent
    agent.effective_flows = -1
    monitor._check_agent(agent)
    assert registry.get("invariant.violations").value == len(monitor.violations)
    assert registry.get("invariant.violations").value > 0


def test_violation_report_is_readable():
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network, raise_on_violation=False)
    agent = topo.bottleneck().agent
    agent.effective_flows = -3
    monitor._check_agent(agent)
    report = monitor.violations[0].report()
    assert "effective_flows" in report
    assert "-3" in report
    assert "location" in report


def test_locations_are_formatted_only_for_violations(monkeypatch):
    located = []
    locate = InvariantMonitor._locate
    monkeypatch.setattr(
        InvariantMonitor,
        "_locate",
        staticmethod(lambda agent: located.append(agent) or locate(agent)),
    )
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network, raise_on_violation=False)
    topo.network.run_for(milliseconds(10))
    assert monitor.checks_run > 100
    assert located == []  # clean sweeps and slot checks format nothing

    port = topo.bottleneck()
    protocol_agent(port.agent).effective_flows = -1
    monitor._check_agent(protocol_agent(port.agent))
    port.queue._bytes = port.queue.capacity_bytes + 1
    monitor._sweep()
    locations = {v.invariant: v.location for v in monitor.violations}
    assert locations == {
        "effective_flows": f"{port.node.name}[{port.index}]->{port.peer_node.name}",
        "queue_capacity": f"{port.node.name}[{port.index}]",
    }
