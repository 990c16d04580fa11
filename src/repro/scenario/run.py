"""Turn a validated :class:`~repro.scenario.schema.Scenario` into a run.

:func:`run_scenario` is the one bridge from declarative scenario to
simulator objects: it builds the topology wired for the scenario's
fabric protocol, instantiates every tenant's workload through a
:class:`~repro.workloads.mixer.MultiTenantMixer` (construction order =
tenant list order, part of the deterministic schedule), schedules the
declarative fault list onto a :class:`~repro.faults.engine.
FaultInjector`, attaches an :class:`~repro.faults.invariants.
InvariantMonitor` on TFC fabrics, runs for the scenario's duration plus
drain, and folds per-tenant goodput/FCT/Jain into an ordinary
:class:`~repro.experiments.common.ExperimentResult`.

Determinism contract: everything derives from ``(scenario, seed)`` —
workload RNG streams are seeded from stable string labels that include
the scenario name, tenant name and seed, and fault randomness comes from
the network's root-seed children — so the same call is bit-identical
across processes, ``--jobs`` fan-out and telemetry on/off.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Optional

from ..experiments.common import ExperimentResult, build_topology
from ..faults.engine import FaultInjector
from ..faults.invariants import InvariantMonitor
from ..metrics.fct import FctCollector
from ..net import topology as topo_builders
from ..net.network import Network
from ..net.port import Port
from ..net.topology import Topology
from ..obs.session import install as install_telemetry
from ..sim.units import MILLISECOND
from ..transport.registry import get_protocol
from ..workloads.collective import AllReduceWorkload
from ..workloads.empirical import BenchmarkWorkload
from ..workloads.incast import IncastCoordinator
from ..workloads.mixer import MultiTenantMixer
from ..workloads.onoff import OnOffSource
from ..workloads.bulk import staggered_flows
from ..workloads.storage import ReplicationWorkload
from .schema import Scenario, ScenarioError, TenantSpec

_BUILDERS: Dict[str, Callable[..., Topology]] = {
    "dumbbell": topo_builders.dumbbell,
    "testbed": topo_builders.testbed,
    "multi_bottleneck": topo_builders.multi_bottleneck,
    "leaf_spine": topo_builders.leaf_spine,
    "fat_tree": topo_builders.fat_tree,
}


def _us_to_ns(us: float) -> int:
    return int(us * 1_000)


def _port_between(network: Network, a: str, b: str, path: str) -> Port:
    """The port on node ``a`` transmitting towards node ``b``."""
    node = next((n for n in network.nodes if n.name == a), None)
    if node is None:
        names = ", ".join(sorted(n.name for n in network.nodes))
        raise ScenarioError(path, f"no node named {a!r} in topology; have: {names}")
    for port in node.ports:
        if port.peer_node.name == b:
            return port
    peers = ", ".join(sorted(p.peer_node.name for p in node.ports))
    raise ScenarioError(
        path, f"node {a!r} has no link to {b!r}; its peers: {peers}"
    )


def _build_tenant_workload(
    tenant: TenantSpec,
    topo: Topology,
    duration_ns: int,
    seed: int,
    scenario_name: str,
    transport: Optional[str],
) -> Callable[[str, FctCollector], object]:
    """A mixer build-callback for one tenant spec (closure over the topo)."""
    hosts = [topo.hosts[i] for i in tenant.hosts.resolve(len(topo.hosts))]
    protocol = transport or tenant.transport
    kind = tenant.workload.kind
    params = tenant.workload.params
    stream = f"{scenario_name}:{tenant.name}:{seed}"

    def build(name: str, collector: FctCollector) -> object:
        if kind == "empirical":
            return BenchmarkWorkload(
                hosts,
                protocol,
                duration_ns,
                query_rate_per_s=params["query_rate_per_s"],
                query_fanin=params["query_fanin"],
                short_rate_per_s=params["short_rate_per_s"],
                background_rate_per_s=params["background_rate_per_s"],
                seed_name=stream,
                collector=collector,
                tenant=name,
            )
        if kind == "incast":
            # First selected host is the client; the rest are servers.
            return IncastCoordinator(
                hosts[0],
                hosts[1:],
                protocol,
                block_bytes=params["block_bytes"],
                rounds=params["rounds"],
                request_delay_ns=_us_to_ns(params["request_delay_us"]),
                tenant=name,
            )
        if kind == "onoff":
            # Every host but the last bursts towards the last one.
            sim = hosts[0].sim
            senders = staggered_flows(
                hosts[:-1],
                hosts[-1],
                protocol,
                interval_ns=0,
                size_bytes=0,
                tenant=name,
            )
            sources = []
            for sender in senders:
                sender.fin_on_empty = False
                sources.append(
                    OnOffSource(
                        sim,
                        sender,
                        on_ns=_us_to_ns(params["on_us"]),
                        off_ns=_us_to_ns(params["off_us"]),
                        burst_bytes=params["burst_bytes"],
                        cycles=params["cycles"],
                    )
                )
            return sources
        if kind == "bulk":
            return staggered_flows(
                hosts[:-1],
                hosts[-1],
                protocol,
                interval_ns=_us_to_ns(params["stagger_us"]),
                size_bytes=params["size_bytes"],
                tenant=name,
            )
        if kind == "ml_allreduce":
            return AllReduceWorkload(
                hosts,
                protocol,
                chunk_bytes=params["chunk_bytes"],
                iterations=params["iterations"],
                mode=params["mode"],
                compute_gap_ns=_us_to_ns(params["compute_gap_us"]),
                tenant=name,
                collector=collector,
            )
        if kind == "storage":
            return ReplicationWorkload(
                hosts,
                protocol,
                duration_ns,
                replicas=params["replicas"],
                mode=params["mode"],
                write_rate_per_s=params["write_rate_per_s"],
                value_bytes=params["value_bytes"],
                tenant=name,
                collector=collector,
                seed_name=stream,
            )
        raise ScenarioError(
            f"tenants[{tenant.name}].workload.kind", f"unhandled kind {kind!r}"
        )

    return build


def _schedule_faults(scenario: Scenario, topo: Topology) -> Optional[FaultInjector]:
    if not scenario.faults:
        return None
    injector = FaultInjector(topo.network)
    for i, fault in enumerate(scenario.faults):
        path = f".faults[{i}]"
        at_ns = int(fault.at_ms * MILLISECOND)
        duration_ns = (
            None if fault.duration_ms is None
            else int(fault.duration_ms * MILLISECOND)
        )
        if fault.kind == "pause_host":
            host = topo.network.host_by_name(fault.host)
            injector.pause_host(host, at_ns, duration_ns)
            continue
        assert fault.link is not None  # enforced by the schema
        port = _port_between(topo.network, fault.link[0], fault.link[1], path)
        if fault.kind == "link_down":
            injector.link_down(
                port, at_ns, duration_ns=duration_ns, reroute=fault.reroute
            )
        elif fault.kind == "link_flap":
            injector.link_flap(
                port, at_ns, down_ns=duration_ns, reroute=fault.reroute
            )
        elif fault.kind == "degrade_link":
            injector.degrade_link(
                port, fault.factor, at_ns, duration_ns=duration_ns
            )
        elif fault.kind == "burst_loss":
            injector.burst_loss(port, at_ns, duration_ns=duration_ns)
        else:  # ack_loss
            injector.ack_loss(
                port, at_ns, duration_ns=duration_ns,
                probability=fault.probability,
            )
    return injector


def run_scenario(
    scenario: Scenario,
    seed: Optional[int] = None,
    quick: bool = False,
    duration_ms: Optional[float] = None,
    transport: Optional[str] = None,
) -> ExperimentResult:
    """Run one scenario and report per-tenant goodput/FCT/fairness.

    ``seed``/``duration_ms`` override the scenario's own values (sweep
    hooks); ``transport`` swaps *every* tenant's transport and the fabric
    — the knob the fairness head-to-heads turn.  ``quick`` selects the
    scenario's smoke-test duration.
    """
    effective_seed = scenario.seed if seed is None else seed
    if duration_ms is not None:
        duration_ns = int(duration_ms * MILLISECOND)
    else:
        duration_ns = scenario.effective_duration_ns(quick)
    fabric = transport or scenario.fabric_protocol()

    context = scenario.config.env() if scenario.config is not None else nullcontext()
    with context:
        builder_params = dict(scenario.topology.params)
        buffer_bytes = builder_params.pop("buffer_bytes")
        topo = build_topology(
            _BUILDERS[scenario.topology.kind],
            fabric,
            buffer_bytes,
            seed=effective_seed,
            routing=scenario.routing,
            **builder_params,
        )
        network = topo.network

        # An explicit telemetry: mode wins over (but never duplicates) the
        # session the network's resolved config may already have attached.
        if scenario.telemetry and scenario.telemetry != "off":
            if getattr(network, "telemetry", None) is None:
                install_telemetry(network, scenario.telemetry)
        session = getattr(network, "telemetry", None)

        monitor = None
        if get_protocol(fabric).monitor_invariants:
            monitor = InvariantMonitor(
                network,
                raise_on_violation=False,
                registry=None if session is None else session.registry,
            )

        mixer = MultiTenantMixer(
            network,
            [
                (
                    tenant.name,
                    _build_tenant_workload(
                        tenant, topo, duration_ns, effective_seed,
                        scenario.name, transport,
                    ),
                )
                for tenant in scenario.tenants
            ],
        )
        injector = _schedule_faults(scenario, topo)

        network.run_for(duration_ns + int(scenario.drain_ms * MILLISECOND))

    # ------------------------------------------------------------------
    # Accounting: per-tenant goodput/FCT plus fabric-level counters.
    # ------------------------------------------------------------------
    result = ExperimentResult(name=scenario.name, protocol=fabric)
    scalars = result.scalars
    scalars["seed"] = float(effective_seed)
    scalars["duration_ms"] = duration_ns / MILLISECOND
    scalars["n_tenants"] = float(len(scenario.tenants))
    scalars["jain_tenants"] = mixer.jain_index(duration_ns)
    scalars["flows_completed"] = float(mixer.collector.completed())
    total_drops = 0
    for node in network.nodes:
        for port in node.ports:
            total_drops += port.queue.drops
    scalars["total_drops"] = float(total_drops)
    if monitor is not None:
        scalars["invariant_violations"] = float(len(monitor.violations))
    if injector is not None:
        scalars["faults_injected"] = float(len(injector.records))

    for report in mixer.reports(duration_ns):
        prefix = report.tenant
        scalars[f"goodput_mbps:{prefix}"] = report.goodput_bps / 1e6
        scalars[f"flows:{prefix}"] = float(report.flows)
        scalars[f"flows_completed:{prefix}"] = float(report.completed_flows)
        if report.fct_p99_us is not None:
            scalars[f"fct_p99_us:{prefix}"] = report.fct_p99_us

    # Telemetry rides along without perturbing the result: gauges are
    # derived from the same accounting the scalars report.
    if session is not None:
        registry = session.registry
        registry.gauge("scenario.jain_tenants").set(scalars["jain_tenants"])
        for report in mixer.reports(duration_ns):
            prefix = f"tenant.{report.tenant}"
            registry.gauge(f"{prefix}.goodput_bps").set(report.goodput_bps)
            if report.fct_p99_us is not None:
                registry.gauge(f"{prefix}.fct_p99_us").set(report.fct_p99_us)
        session.snapshot()

    return result
