"""Chaos scenarios — TFC recovery under every fault primitive.

The robustness claim behind the paper's recovery machinery (delimiter
re-election, window re-acquisition, token re-learning) is testable: under
any single fault, a TFC dumbbell should reconverge to at least 90% of its
pre-fault aggregate goodput without ever breaking a control-loop
invariant.  This driver runs that experiment for one fault or the whole
catalogue, with the :class:`~repro.faults.InvariantMonitor` attached
throughout, and reports time-to-reconverge, goodput dip depth, and
post-fault timeouts per fault.

Every run is deterministic: topology, workload and fault schedule all
derive from the single scenario seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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
from ..obs import drain_pending as _drain_telemetry
from ..obs import install as _install_telemetry
from ..sim.units import microseconds, milliseconds
from ..transport.registry import open_flow
from .common import build_topology, format_table

# The complete fault catalogue exercised by run_all / the acceptance test.
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
    telemetry_paths: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Recovered to threshold with zero invariant violations."""
        return self.report.recovered and not self.violations


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
    telemetry_dir: Optional[str] = None,
) -> ChaosResult:
    """Run one fault scenario on a TFC dumbbell and measure recovery.

    ``n_flows`` long-lived flows warm up for ``warmup_ns``, the fault
    fires, and the run continues for ``tail_ns`` past the fault window.
    Aggregate goodput across all receivers is the recovery signal.

    ``telemetry_dir`` records full telemetry (metrics + slot timelines +
    flight recorder, with invariant counters, the goodput timeline and
    the recovery report folded into the registry) and exports it there
    labelled ``chaos_{fault}_{seed}``; ``$REPRO_TELEMETRY`` attaches the
    same machinery through the network's resolved config.
    """
    topo = build_topology(
        dumbbell,
        "tfc",
        buffer_bytes=buffer_bytes,
        n_senders=n_flows,
        seed=seed,
    )
    net = topo.network
    if telemetry_dir is not None and net.telemetry is None:
        _install_telemetry(net, "full", dump_dir=telemetry_dir)
    session = net.telemetry
    registry = session.registry if session is not None else None
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
    telemetry_paths: List[str] = []
    if session is not None:
        sampler.register(registry, "chaos.goodput_bps")
        report.register(registry)
        session.detach()
        _drain_telemetry()  # this run's session is exported right here
        export_dir = telemetry_dir or net.config.telemetry_dir
        if export_dir:
            telemetry_paths = session.export(
                export_dir, f"chaos_{fault}_{seed}"
            )
    return ChaosResult(
        fault=fault,
        seed=seed,
        report=report,
        violations=list(monitor.violations),
        records=list(injector.records),
        goodput_series=sampler.series,
        invariant_checks=monitor.checks_run,
        telemetry_paths=telemetry_paths,
    )


def run_all(seed: int = 1, **kwargs) -> List[ChaosResult]:
    """Run the full fault catalogue (one isolated run per fault)."""
    return [run_chaos(fault, seed=seed, **kwargs) for fault in FAULT_KINDS]


def main(argv=None) -> None:
    """CLI entry: run every fault and print the recovery table."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.chaos",
        description="Run the chaos fault catalogue on a TFC dumbbell.",
    )
    parser.add_argument("--seed", type=int, default=1, help="scenario seed")
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="export full telemetry (metrics/slots/flight) per fault into DIR",
    )
    args = parser.parse_args(argv)

    results = run_all(seed=args.seed, telemetry_dir=args.telemetry)
    rows = []
    for result in results:
        report = result.report
        ttr = report.time_to_reconverge_ns
        rows.append(
            [
                result.fault,
                f"{report.baseline / 1e9:.3f}",
                f"{report.dip_depth * 100:.0f}%",
                "never" if ttr is None else f"{ttr / 1e6:.2f}",
                str(report.post_fault_timeouts),
                str(len(result.violations)),
            ]
        )
    print(
        format_table(
            [
                "fault",
                "baseline Gbps",
                "dip",
                "reconverge ms",
                "timeouts",
                "violations",
            ],
            rows,
        )
    )
    clean = sum(1 for r in results if r.clean)
    print(f"\n{clean}/{len(results)} faults recovered cleanly")


if __name__ == "__main__":
    main()
