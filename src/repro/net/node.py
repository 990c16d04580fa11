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
from .port import EVERY_PACKET, RMA_ACKS, Port


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
        """Handle a fully received frame (store-and-forward boundary).

        Subclasses override it whole, counting the frame into
        ``rx_packets`` / ``rx_bytes`` first: one call per hop.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ports={len(self.ports)}>"


class Switch(Node):
    """Output-queued store-and-forward switch.

    Each port carries up to three roles (see :class:`~repro.net.port.Port`),
    called in one fixed order:

    * **reverse arrival** (a packet arriving *from* the port's link, where
      RMA ACKs and pause frames travel): ``fabric.on_reverse_arrival``,
      then ``agent.on_reverse_arrival``.  Either returns True when it
      consumed the packet — a pause frame, which the first role to see
      it hands to the fabric that sent it (``frame.backpressure``), or an
      ACK the delay arbiter holds and will release later through
      :meth:`forward`.
    * **transit** (a packet about to be queued on the port):
      ``agent.on_transit(packet)``, which may rewrite header fields
      (window stamping) and updates the token/E/rho counters.  An agent
      may only ever *lower* ``packet.window`` (min-reduction along the
      path); ``tests/core/test_transit_oracle.py`` holds it to that.
    * **reset** (switch reboot, :mod:`repro.faults.engine`): ``fabric``,
      then ``agent``.

    An agent's class fixes the packets its hooks see: ``transit_hook``
    (TFC, FairQ: all; BFC: none) and ``reverse_hook`` (BFC:
    ``EVERY_PACKET``; TFC: ``RMA_ACKS``, all its arbiter parks; FairQ:
    None).  A fabric's reverse hook sees every packet.

    ``routing`` is the multi-path hook: the network's routing policy
    attaches itself here (see :meth:`repro.routing.RoutingPolicy.install`)
    and :meth:`forward` delegates the equal-cost pick to it.  The default
    ``single`` policy leaves it ``None``, keeping the original fixed
    next-hop lookup as the fast path.
    """

    routing = None  # RoutingPolicy instance, or None for fixed next hop

    def receive(self, packet: Packet, in_port_index: int) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.frame_size
        ports = self.ports
        port = ports[in_port_index]  # every cabled link ends on a real port
        fabric = port.fabric
        if fabric is not None and fabric.on_reverse_arrival(packet):
            return  # pause frame, consumed
        agent = port.agent
        if agent is not None:
            hook = agent.reverse_hook
            if (
                hook is EVERY_PACKET
                or (hook is RMA_ACKS and packet.rma and packet.is_ack)
            ) and agent.on_reverse_arrival(packet):
                return  # consumed, or held by the delay arbiter
        # forward() inlined for the fixed next hop (multi-path, no route: forward)
        if self.routing is not None:
            return self.forward(packet)
        try:
            out_port = ports[self.forwarding_table[packet.dst]]
        except KeyError:
            return self.forward(packet)  # raises, naming the switch
        agent = out_port.agent
        if agent is not None and agent.transit_hook:
            agent.on_transit(packet)
        out_port.send(packet)

    def forward(self, packet: Packet) -> None:
        """Route ``packet`` out a port towards its destination."""
        routing = self.routing
        try:
            if routing is None:
                out_index = self.forwarding_table[packet.dst]
            else:
                out_index = routing.select(self, packet)
        except KeyError:
            raise KeyError(
                f"{self.name}: no route to node {packet.dst} for {packet!r}"
            ) from None
        out_port = self.ports[out_index]
        agent = out_port.agent
        if agent is not None and agent.transit_hook:
            agent.on_transit(packet)
        out_port.send(packet)


class Endpoint(Node):
    """Anything that terminates flows (hosts). Subclassed in host.py."""


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
