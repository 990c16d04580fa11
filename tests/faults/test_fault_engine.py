"""FaultInjector primitives: links, hosts, flows, switch state."""

import pytest

from repro.experiments.chaos import FAULT_KINDS
from repro.experiments.common import build_topology
from repro.faults import FaultInjector
from repro.faults.engine import reverse_port
from repro.net.topology import dumbbell
from repro.sim.trace import FAULT_CLEARED, FAULT_INJECTED
from repro.sim.units import bandwidth_delay_product, milliseconds
from repro.transport.base import FlowState
from repro.transport.registry import open_flow


def tcp_dumbbell(n_senders=2, seed=0):
    topo = dumbbell(n_senders=n_senders, seed=seed)
    return topo, topo.hosts[-1]


# ----------------------------------------------------------------------
# Wiring helpers
# ----------------------------------------------------------------------
def test_reverse_port_finds_the_opposite_direction():
    topo, _ = tcp_dumbbell()
    host_port = topo.host(0).ports[0]
    reverse = reverse_port(host_port)
    assert reverse is not None
    assert reverse.node is topo.switches[0]
    assert reverse.link.dst_node is topo.host(0)
    # And back again.
    assert reverse_port(reverse) is host_port


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
def test_link_down_blackholes_both_directions():
    topo, receiver = tcp_dumbbell()
    injector = FaultInjector(topo.network)
    injector.link_down(topo.host(0).ports[0], at_ns=0)
    flow = open_flow(topo.host(0), receiver, "tcp", size_bytes=20_000)
    topo.network.run_for(milliseconds(50))
    assert flow.state is not FlowState.DONE
    assert flow.receiver.bytes_received == 0
    assert topo.host(0).ports[0].link.faulted_frames > 0
    assert topo.network.tracer.counters[FAULT_INJECTED] == 1


def test_link_flap_recovers_via_retransmission():
    topo, receiver = tcp_dumbbell()
    injector = FaultInjector(topo.network)
    record = injector.link_flap(
        topo.host(0).ports[0], at_ns=milliseconds(1), down_ns=milliseconds(5)
    )
    flow = open_flow(
        topo.host(0), receiver, "tcp", size_bytes=100_000,
        min_rto_ns=milliseconds(2),
    )
    topo.network.run_for(milliseconds(200))
    assert flow.state is FlowState.DONE
    assert flow.receiver.bytes_received == 100_000
    assert record.duration_ns == milliseconds(5)
    assert topo.network.tracer.counters[FAULT_CLEARED] == 1
    assert topo.host(0).ports[0].link.up


def test_degrade_link_halves_effective_rate():
    topo, _ = tcp_dumbbell()
    port = topo.bottleneck()
    nominal = port.link.rate_bps
    injector = FaultInjector(topo.network)
    injector.degrade_link(port, 0.5, at_ns=0, duration_ns=milliseconds(1))
    topo.network.run_for(1)
    assert port.link.effective_rate_bps == nominal // 2
    assert port.link.rate_bps == nominal  # nominal rate untouched
    topo.network.run_for(milliseconds(2))
    assert port.link.effective_rate_bps == nominal


def test_degrade_validates_factor():
    topo, _ = tcp_dumbbell()
    with pytest.raises(ValueError):
        topo.bottleneck().link.degrade(0.0)
    with pytest.raises(ValueError):
        topo.bottleneck().link.degrade(1.5)


# ----------------------------------------------------------------------
# Host faults
# ----------------------------------------------------------------------
def test_pause_host_freezes_and_resume_restores():
    topo, receiver = tcp_dumbbell()
    injector = FaultInjector(topo.network)
    flow = open_flow(topo.host(0), receiver, "tcp", size_bytes=200_000)
    injector.pause_host(
        receiver, at_ns=milliseconds(2), duration_ns=milliseconds(5)
    )
    topo.network.run_for(milliseconds(100))
    assert receiver.pauses == 1
    assert not receiver.paused
    assert flow.state is FlowState.DONE
    assert flow.receiver.bytes_received == 200_000


# ----------------------------------------------------------------------
# Flow faults
# ----------------------------------------------------------------------
def test_kill_flow_is_silent():
    topo, receiver = tcp_dumbbell()
    injector = FaultInjector(topo.network)
    flow = open_flow(topo.host(0), receiver, "tcp")  # long-lived
    injector.kill_flow(flow, at_ns=milliseconds(5))
    topo.network.run_for(milliseconds(20))
    assert flow.state is FlowState.DONE
    assert flow.stats.complete_ns is None  # crashed, not completed


# ----------------------------------------------------------------------
# Switch-state faults
# ----------------------------------------------------------------------
def test_reset_switch_wipes_learned_state_then_relearns():
    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=2)
    receiver = topo.hosts[-1]
    senders = [
        open_flow(topo.host(i), receiver, "tfc") for i in range(2)
    ]
    warmup = milliseconds(20)
    topo.network.run_for(warmup)
    agent = topo.bottleneck().agent
    learned_rttb = agent.rttb_ns
    assert learned_rttb < agent.params.init_rttb_ns  # it learned something

    injector = FaultInjector(topo.network)
    injector.reset_switch(topo.switches[0], at_ns=warmup)
    topo.network.run_for(1)
    assert agent.delimiter_key is None
    assert agent.rttb_ns == agent.params.init_rttb_ns
    assert agent.tokens == bandwidth_delay_product(
        agent.rate_bps, agent.params.init_rttb_ns
    )

    topo.network.run_for(milliseconds(20))
    assert agent.delimiter_key is not None  # re-elected from live traffic
    assert agent.rttb_ns < agent.params.init_rttb_ns  # re-learned
    for sender in senders:
        assert sender.state is FlowState.ESTABLISHED


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_chaos_runs_are_deterministic():
    """Same seed, same fault schedule: bit-identical goodput series."""
    from repro.experiments.chaos import run_chaos

    kwargs = dict(
        warmup_ns=milliseconds(10),
        fault_ns=milliseconds(5),
        tail_ns=milliseconds(15),
    )
    first = run_chaos("burst_loss", seed=9, **kwargs)
    second = run_chaos("burst_loss", seed=9, **kwargs)
    other = run_chaos("burst_loss", seed=10, **kwargs)
    assert first.goodput_series == second.goodput_series
    assert [r.kind for r in first.records] == [r.kind for r in second.records]
    assert first.goodput_series != other.goodput_series


@pytest.mark.parametrize("fault", FAULT_KINDS)
def test_every_fault_is_bit_identical_on_the_compiled_core(monkeypatch, fault):
    """Each catalogue fault (cut cables, rate changes, loss, switch
    resets, killed delimiters, stalled hosts) lands on the compiled-core
    group drain exactly as on the inlined loop."""
    from repro.experiments.chaos import run_chaos

    kwargs = dict(
        warmup_ns=milliseconds(10),
        fault_ns=milliseconds(5),
        tail_ns=milliseconds(15),
    )

    def observe():
        result = run_chaos(fault, seed=9, **kwargs)
        return (
            result.goodput_series,
            result.records,
            result.invariant_checks,
            result.violations,
            result.report,
        )

    monkeypatch.setenv("REPRO_COMPILED", "off")
    reference = observe()
    monkeypatch.setenv("REPRO_COMPILED", "on")
    assert observe() == reference
