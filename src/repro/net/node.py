"""Nodes: the shared base for switches and hosts.

A :class:`Node` owns its outgoing :class:`~repro.net.port.Port` objects and
receives packets from incoming links.  Routing is static: the
:class:`~repro.net.network.Network` populates ``forwarding_table``
(destination node id -> the BFS-elected local port index) and
``multipath_table`` (destination node id -> every equal-cost port index,
elected port first) from shortest paths after wiring everything up.  Which port a packet actually takes is decided by
the network's :class:`~repro.routing.RoutingPolicy`; the default
``single`` policy leaves ``Switch.routing`` detached so the datapath is
the plain forwarding-table lookup.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.trace import Tracer
from .packet import Packet
from .port import Port


class Node:
    """A network element with ports and a forwarding table.

    Only :class:`~repro.net.network.Network` writes the route tables; it
    assigns fresh ones on every (re)build.  ``multipath_table`` values are
    immutable tuples that may be shared across nodes and destinations.  A
    single-cable node (every host) gets two read-only
    :class:`~repro.net.network.StubTable` views sharing one destination
    store with the other stubs on its attachment, not dicts.
    """

    def __init__(self, sim: Simulator, node_id: int, name: str, tracer: Tracer):
        self.sim = sim
        self.node_id = node_id
        self.name = name
        self.tracer = tracer
        self.ports: List[Port] = []
        self.forwarding_table: Mapping[int, int] = {}
        self.multipath_table: Mapping[int, Tuple[int, ...]] = {}
        self.rx_packets = 0
        self.rx_bytes = 0

    # ------------------------------------------------------------------
    # Wiring (used by topology builders)
    # ------------------------------------------------------------------
    def add_port(self, port: Port) -> int:
        """Attach an outgoing port; returns its local index."""
        assert port.index == len(self.ports), "port indices must be dense"
        self.ports.append(port)
        return port.index

    def port_towards(self, dst_node_id: int) -> Port:
        """The (BFS-elected) outgoing port used to reach ``dst_node_id``."""
        return self.ports[self.forwarding_table[dst_node_id]]

    def ports_towards(self, dst_node_id: int) -> List[Port]:
        """Every equal-cost outgoing port towards ``dst_node_id``."""
        return [
            self.ports[index] for index in self.multipath_table[dst_node_id]
        ]

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port_index: int) -> None:
        """Handle a fully received frame (store-and-forward boundary)."""
        self.rx_packets += 1
        self.rx_bytes += packet.frame_size
        self.handle_packet(packet, in_port_index)

    def handle_packet(self, packet: Packet, in_port_index: int) -> None:
        """Protocol behaviour; subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ports={len(self.ports)}>"


class Switch(Node):
    """Output-queued store-and-forward switch.

    Per-port protocol agents (e.g. the TFC switch agent) hook two points:

    * ``agent.on_transit(packet)`` — every packet about to be queued on the
      agent's port (the *data direction* for that agent); may rewrite header
      fields (window stamping) and updates the token/E/rho counters.
    * ``agent.on_reverse_arrival(packet)`` — every packet arriving *from*
      the agent's link (the reverse direction, where RMA ACKs travel).
      Returns True when the agent consumed the packet (delay function) and
      will re-inject it later via :meth:`inject`.

    ``routing`` is the multi-path hook: the network's routing policy
    attaches itself here (see :meth:`repro.routing.RoutingPolicy.install`)
    and :meth:`forward` delegates the equal-cost pick to it.  The default
    ``single`` policy leaves it ``None``, keeping the original fixed
    next-hop lookup as the fast path.
    """

    routing = None  # RoutingPolicy instance, or None for fixed next hop

    def handle_packet(self, packet: Packet, in_port_index: int) -> None:
        ports = self.ports
        if 0 <= in_port_index < len(ports):
            agent = ports[in_port_index].agent
            if agent is not None and agent.on_reverse_arrival(packet):
                return  # held by the delay arbiter; re-injected later
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        """Route ``packet`` out a port towards its destination."""
        routing = self.routing
        if routing is None:
            out_index = self.forwarding_table.get(packet.dst)
            if out_index is None:
                raise KeyError(
                    f"{self.name}: no route to node {packet.dst} for {packet!r}"
                )
        else:
            try:
                out_index = routing.select(self, packet)
            except KeyError:
                raise KeyError(
                    f"{self.name}: no route to node {packet.dst} for {packet!r}"
                ) from None
        out_port = self.ports[out_index]
        if out_port.agent is not None:
            out_port.agent.on_transit(packet)
        out_port.send(packet)

    def inject(self, packet: Packet) -> None:
        """Re-inject a packet previously held by a port agent."""
        self.forward(packet)


class Endpoint(Node):
    """Anything that terminates flows (hosts). Subclassed in host.py."""

    def handle_packet(self, packet: Packet, in_port_index: int) -> None:
        raise NotImplementedError


def attach_port(
    sim: Simulator,
    node: Node,
    link,
    queue,
    tracer: Optional[Tracer] = None,
) -> Port:
    """Create a port on ``node`` transmitting into ``link``."""
    port = Port(sim, node, len(node.ports), link, queue, tracer)
    node.add_port(port)
    return port
