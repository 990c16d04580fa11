"""Telemetry sessions: one handle owning a network's observability.

A :class:`Telemetry` session bundles the metric registry, the per-agent
slot recorder and the flight recorder for one network, selected by a
*mode*:

* ``off``      — nothing attached (the default; near-zero cost).
* ``counters`` — registry only; the snapshot pass copies tracer
  counters, port/queue state and transport gauges into it.
* ``slots``    — counters plus the per-slot ``(T, E, rho, rtt_m, rtt_b,
  W, queue_bytes)`` recorder on every TFC agent.
* ``full``     — slots plus the flight-recorder ring buffer.

Sessions attach through one door, :func:`install`, which ``Network``
calls when its resolved ``config.telemetry`` is not ``off`` (set by
``SimConfig(telemetry=...)``, ``$REPRO_TELEMETRY`` or ``runner
--telemetry``), so every network is covered without touching each
driver; bespoke harnesses may call :func:`install` directly.

Every install lands the session in a small bounded *pending* queue; the
experiment runner drains it after each cell and, when a telemetry
directory is configured, exports the session's files labelled by cell.
The queue is bounded so stray installs (tests that never drain) cannot
pin an unbounded set of finished networks.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from .export import write_metrics_jsonl, write_slots_csv
from .flight import FlightRecorder
from .registry import MetricRegistry
from .slots import SlotTimelineRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..net.network import Network

#: Every accepted value for SimConfig.telemetry / $REPRO_TELEMETRY.
TELEMETRY_MODES = ("off", "counters", "slots", "full")

#: Recently installed, not-yet-exported sessions (bounded on purpose).
_PENDING: Deque["Telemetry"] = deque(maxlen=8)


class Telemetry:
    """One network's telemetry: registry + recorders + export."""

    def __init__(
        self,
        network: "Network",
        mode: str = "full",
        flight_capacity: int = 2048,
        dump_dir: Optional[str] = None,
    ):
        if mode not in TELEMETRY_MODES or mode == "off":
            raise ValueError(
                f"telemetry mode must be one of "
                f"{', '.join(TELEMETRY_MODES[1:])}; got {mode!r}"
            )
        self.network = network
        self.mode = mode
        self.registry = MetricRegistry()
        self.slots: Optional[SlotTimelineRecorder] = None
        self.flight: Optional[FlightRecorder] = None
        if mode in ("slots", "full"):
            self.slots = SlotTimelineRecorder(network)
        if mode == "full":
            self.flight = FlightRecorder(network, flight_capacity, dump_dir=dump_dir)

    # ------------------------------------------------------------------
    # Snapshot: pull every legacy surface into the registry
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricRegistry:
        """Copy current simulator/tracer/port/transport state into the
        registry (idempotent; call again for a fresher snapshot)."""
        registry = self.registry
        network = self.network
        sim = network.sim

        registry.gauge("sim.now_ns").set(sim.now)
        registry.gauge("sim.events_processed").set(sim.events_processed)
        registry.gauge("sim.pending_events").set(sim.pending_events)
        registry.gauge("net.route_rebuilds").set(network.route_rebuilds)

        # Tracer counters migrate 1:1 (topic name == metric name).
        for topic in sorted(network.tracer.counters):
            registry.counter(topic).set_total(network.tracer.counters[topic])

        # Per-port datapath gauges (the state the golden tests pin).
        total_drops = 0
        for node in network.nodes:
            for port in node.ports:
                queue = port.queue
                prefix = f"port.{node.name}.{port.index}"
                registry.gauge(f"{prefix}.tx_bytes").set(port.tx_bytes)
                registry.gauge(f"{prefix}.tx_packets").set(port.tx_packets)
                registry.gauge(f"{prefix}.queue_bytes").set(queue.byte_length)
                registry.gauge(f"{prefix}.queue_drops").set(queue.drops)
                registry.gauge(f"{prefix}.queue_max_bytes").set(
                    queue.max_bytes_seen
                )
                total_drops += queue.drops
        registry.gauge("net.total_drops").set(total_drops)

        # Transport endpoint gauges (one-off counters like the receiver's
        # reordering count fold into aggregate metrics here).  Sender-side
        # stats, from live senders and each host's finished-flow ledger,
        # additionally aggregate by the flow's tenant tag so multi-tenant
        # runs export per-tenant accounting rows.
        reordered = 0
        bytes_received = 0
        timeouts = 0
        tenant_rows: dict = {}
        for host in network.hosts:
            flows = list(host.finished_flows)
            for endpoint in host._connections.values():
                if hasattr(endpoint, "reordered_segments"):
                    reordered += endpoint.reordered_segments
                if hasattr(endpoint, "bytes_received"):
                    bytes_received += endpoint.bytes_received
                if getattr(endpoint, "stats", None) is not None:
                    flows.append(endpoint)
            for flow in flows:
                stats = flow.stats
                timeouts += stats.timeouts
                tenant = getattr(flow, "tenant", None)
                if tenant is None:
                    continue
                row = tenant_rows.setdefault(
                    tenant,
                    {"flows": 0, "completed": 0, "bytes_acked": 0,
                     "timeouts": 0},
                )
                row["flows"] += 1
                row["completed"] += stats.complete_ns is not None
                row["bytes_acked"] += stats.bytes_acked
                row["timeouts"] += stats.timeouts
        registry.counter("transport.reordered_segments").set_total(reordered)
        registry.counter("transport.bytes_received").set_total(bytes_received)
        registry.counter("transport.timeouts").set_total(timeouts)
        for tenant in sorted(tenant_rows):
            row = tenant_rows[tenant]
            prefix = f"tenant.{tenant}"
            registry.gauge(f"{prefix}.flows").set(row["flows"])
            registry.gauge(f"{prefix}.flows_completed").set(row["completed"])
            registry.gauge(f"{prefix}.bytes_acked").set(row["bytes_acked"])
            registry.gauge(f"{prefix}.timeouts").set(row["timeouts"])
        return registry

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, directory: str, label: str) -> List[str]:
        """Snapshot then write ``<label>.metrics.jsonl`` (always),
        ``<label>.slots.csv`` (slots/full) and ``<label>.flight.jsonl``
        (full) into ``directory``; returns the written paths."""
        import os

        os.makedirs(directory, exist_ok=True)
        self.snapshot()
        paths = [
            write_metrics_jsonl(
                self.registry, os.path.join(directory, f"{label}.metrics.jsonl")
            )
        ]
        if self.slots is not None:
            paths.append(
                write_slots_csv(
                    self.slots, os.path.join(directory, f"{label}.slots.csv")
                )
            )
        if self.flight is not None:
            paths.append(
                self.flight.write(
                    os.path.join(directory, f"{label}.flight.jsonl")
                )
            )
        return paths

    def detach(self) -> None:
        """Unsubscribe every recorder (recorded data is kept)."""
        if self.slots is not None:
            self.slots.detach()
        if self.flight is not None:
            self.flight.detach()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Telemetry mode={self.mode} metrics={len(self.registry)}>"


# ----------------------------------------------------------------------
# Install surfaces
# ----------------------------------------------------------------------
def install(
    network: "Network",
    mode: str = "full",
    dump_dir: Optional[str] = None,
) -> Telemetry:
    """Attach a telemetry session to ``network`` and queue it for export.

    The session is also stored as ``network.telemetry`` so drivers
    holding the network can reach it directly.
    """
    session = Telemetry(network, mode, dump_dir=dump_dir)
    network.telemetry = session
    _PENDING.append(session)
    return session


def drain_pending() -> List[Telemetry]:
    """Return and clear the pending-session queue (runner export hook)."""
    sessions = list(_PENDING)
    _PENDING.clear()
    return sessions
