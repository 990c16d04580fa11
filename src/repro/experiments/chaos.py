"""Chaos scenarios — TFC recovery under every fault primitive.

The robustness claim behind the paper's recovery machinery (delimiter
re-election, window re-acquisition, token re-learning) is testable: under
any single fault, a TFC dumbbell should reconverge to at least 90% of its
pre-fault aggregate goodput without ever breaking a control-loop
invariant.  This driver runs that experiment for one fault, with the
:class:`~repro.faults.InvariantMonitor` attached throughout, and reports
time-to-reconverge, goodput dip depth, and post-fault timeouts.  The
runner's ``chaos`` figure runs the whole catalogue, one cell per fault::

    python -m repro.experiments.runner --figures chaos

Every run is deterministic: topology, workload and fault schedule all
derive from the single scenario seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..faults import (
    FaultInjector,
    FaultRecord,
    InvariantMonitor,
    RecoveryReport,
    Violation,
    measure_recovery,
)
from ..metrics.samplers import RateSampler, Series
from ..net.topology import dumbbell
from ..sim.units import microseconds, milliseconds
from ..transport.registry import open_flow
from .common import ExperimentResult, build_topology

# The complete fault catalogue: the runner's ``chaos`` plan and the
# acceptance test run one scenario per entry.
FAULT_KINDS = (
    "link_flap",
    "degrade",
    "burst_loss",
    "ack_loss",
    "switch_reset",
    "delimiter_kill",
    "host_pause",
)


@dataclass
class ChaosResult:
    """Outcome of one chaos scenario run."""

    fault: str
    seed: int
    report: RecoveryReport
    violations: List[Violation] = field(default_factory=list)
    records: List[FaultRecord] = field(default_factory=list)
    goodput_series: Series = field(default_factory=list)
    invariant_checks: int = 0


def _inject(
    fault: str,
    injector: FaultInjector,
    topo,
    senders,
    at_ns: int,
    duration_ns: int,
) -> int:
    """Schedule ``fault`` and return the settle time (ns after onset
    before recovery may be declared — the fault window for faults with a
    cure event, 0 for one-shot faults)."""
    switch = topo.switches[0]
    bottleneck = topo.bottleneck()
    if fault == "link_flap":
        # Cut sender 0's access cable; the other flows absorb its share.
        injector.link_flap(topo.host(0).ports[0], at_ns, duration_ns)
        return duration_ns
    if fault == "degrade":
        # Bottleneck serialises at half rate; tokens must shrink to match
        # and then re-grow once the optics recover.
        injector.degrade_link(bottleneck, 0.5, at_ns, duration_ns)
        return duration_ns
    if fault == "burst_loss":
        injector.burst_loss(bottleneck, at_ns, duration_ns)
        return duration_ns
    if fault == "ack_loss":
        # Drop pure ACKs heading back to sender 0 (one-way loss).
        injector.ack_loss(switch.ports[0], at_ns, duration_ns)
        return duration_ns
    if fault == "switch_reset":
        injector.reset_switch(switch, at_ns)
        return 0
    if fault == "delimiter_kill":
        # Silent death of the slot-defining flow: no FIN, so the agent
        # must re-elect from the silence backoff.
        injector.kill_delimiter(bottleneck, senders, at_ns)
        return 0
    if fault == "host_pause":
        injector.pause_host(topo.host(0), at_ns, duration_ns)
        return duration_ns
    raise ValueError(f"unknown fault {fault!r}; choose from {FAULT_KINDS}")


def run_chaos(
    fault: str,
    n_flows: int = 4,
    seed: int = 1,
    warmup_ns: int = milliseconds(60),
    fault_ns: int = milliseconds(20),
    tail_ns: int = milliseconds(120),
    threshold: float = 0.9,
    sample_interval_ns: int = microseconds(500),
    buffer_bytes: int = 256_000,
    raise_on_violation: bool = False,
) -> ChaosResult:
    """Run one fault scenario on a TFC dumbbell and measure recovery.

    ``n_flows`` long-lived flows warm up for ``warmup_ns``, the fault
    fires, and the run continues for ``tail_ns`` past the fault window.
    Aggregate goodput across all receivers is the recovery signal.

    When the network's resolved config records telemetry, the invariant
    counters, the goodput timeline (``chaos.goodput_bps``) and the
    recovery report (``recovery.*``) are folded into its registry; the
    runner exports the session after the cell like any other.
    """
    topo = build_topology(
        dumbbell,
        "tfc",
        buffer_bytes=buffer_bytes,
        n_senders=n_flows,
        seed=seed,
    )
    net = topo.network
    registry = net.telemetry.registry if net.telemetry is not None else None
    receiver_host = topo.host(n_flows)  # first (only) receiver
    senders = [
        open_flow(topo.host(i), receiver_host, "tfc") for i in range(n_flows)
    ]

    sampler = RateSampler(
        net.sim,
        lambda: sum(s.receiver.bytes_received for s in senders),
        sample_interval_ns,
        label="aggregate",
    )
    monitor = InvariantMonitor(
        net, raise_on_violation=raise_on_violation, registry=registry
    )
    injector = FaultInjector(net)
    settle_ns = _inject(fault, injector, topo, senders, warmup_ns, fault_ns)

    # Snapshot the timeout counters at fault onset so the report only
    # counts timeouts the fault (or the recovery from it) caused.
    timeouts_at_fault = {"n": 0}

    def snapshot() -> None:
        timeouts_at_fault["n"] = sum(s.stats.timeouts for s in senders)

    net.sim.post(warmup_ns - net.sim.now, snapshot)

    net.sim.run(until_ns=warmup_ns + fault_ns + tail_ns)
    sampler.stop()
    monitor.detach()

    post_fault_timeouts = (
        sum(s.stats.timeouts for s in senders) - timeouts_at_fault["n"]
    )
    report = measure_recovery(
        sampler.series,
        fault_start_ns=warmup_ns,
        threshold=threshold,
        settle_ns=settle_ns,
        post_fault_timeouts=post_fault_timeouts,
    )
    if registry is not None:
        sampler.register(registry, "chaos.goodput_bps")
        report.register(registry)
    return ChaosResult(
        fault=fault,
        seed=seed,
        report=report,
        violations=list(monitor.violations),
        records=list(injector.records),
        goodput_series=sampler.series,
        invariant_checks=monitor.checks_run,
    )


def run_chaos_cell(fault: str, seed: int = 1, **kwargs) -> ExperimentResult:
    """Runner entry point: one fault scenario, plain scalars.

    ``reconverge_ns`` is the absolute recovery time, -1 when the run
    never reconverged (as in the registry's ``recovery.reconverge_ns``).
    """
    result = run_chaos(fault, seed=seed, **kwargs)
    report = result.report
    reconverge_ns = report.reconverge_ns
    return ExperimentResult(
        name=f"chaos_{fault}",
        protocol="tfc",
        scalars={
            "baseline_bps": report.baseline,
            "dip_depth": report.dip_depth,
            "reconverge_ns": -1.0 if reconverge_ns is None else float(reconverge_ns),
            "violations": float(len(result.violations)),
            "post_fault_timeouts": float(report.post_fault_timeouts),
            "invariant_checks": float(result.invariant_checks),
        },
        series={"goodput_bps": list(result.goodput_series)},
    )
