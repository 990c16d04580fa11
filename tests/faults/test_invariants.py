"""The runtime invariant monitor."""

import pytest

from repro.experiments.common import build_topology
from repro.faults import InvariantMonitor, InvariantViolation
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


@pytest.mark.parametrize("protocol", ["bfc", "fairq"])
def test_monitor_sweeps_fabrics_without_tfc_agents(protocol):
    """A BFC or FairQ port agent carries no TFC state: the monitor skips
    it and still sweeps every queue."""
    topo = build_topology(dumbbell, protocol, buffer_bytes=256_000, n_senders=2, seed=0)
    for i in range(2):
        open_flow(topo.host(i), topo.hosts[-1], protocol)
    assert any(port.agent is not None for switch in topo.network.switches for port in switch.ports)
    monitor = InvariantMonitor(topo.network)
    topo.network.run_for(milliseconds(1))
    assert monitor.agents == []
    assert monitor.checks_run >= 19  # one sweep per 50 us
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


def test_queue_capacity_sweep():
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network, raise_on_violation=False)
    queue = topo.bottleneck().queue
    queue.byte_length = queue.capacity_bytes + 1  # simulate an accounting bug
    monitor._sweep()
    assert any(v.invariant == "queue_capacity" for v in monitor.violations)


def test_detach_removes_all_hooks():
    topo, _ = tfc_scenario()
    monitor = InvariantMonitor(topo.network)
    topo.network.run_for(milliseconds(1))
    checks = monitor.checks_run
    assert checks > 0
    monitor.detach()
    agent = topo.bottleneck().agent
    agent.tokens = 1e12  # would violate, but nobody is watching
    topo.network.run_for(milliseconds(5))
    assert monitor.violations == []
    assert monitor.checks_run == checks  # no slot check, no sweep


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
    port.agent.effective_flows = -1
    monitor._check_agent(port.agent)
    port.queue.byte_length = port.queue.capacity_bytes + 1
    monitor._sweep()
    locations = {v.invariant: v.location for v in monitor.violations}
    assert locations == {
        "effective_flows": f"{port.node.name}[{port.index}]->{port.peer_node.name}",
        "queue_capacity": f"{port.node.name}[{port.index}]",
    }
