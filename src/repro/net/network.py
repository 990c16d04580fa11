"""Network container: nodes, cables, and static shortest-path routing.

:class:`Network` is the object experiments hold: it owns the simulator,
tracer, and RNG, provides builders for hosts/switches/cables, and computes
forwarding tables once the topology is wired.  Cables are full duplex — one
call creates both unidirectional links with their own ports and queues, so
the two directions never share a queue (as on real hardware).

Routing is equal-cost multi-path aware: :meth:`Network.build_routes` fills
both the classic single next hop (``forwarding_table``) and the full
equal-cost set (``multipath_table``) at every node, then installs the
network's :class:`~repro.routing.RoutingPolicy` (``single`` / ``ecmp`` /
``flowlet`` / ``spray``) which picks among the candidates per packet.
:meth:`Network.rebuild_routes` recomputes both tables around links that
are administratively down — the fault engine's reroute hook.

Both entry points share one computation.  The per-destination BFS runs
over the *core* graph only; single-cable nodes (every host, and a spine
serving one leaf) are folded back in afterwards.  A host reuses its
attachment switch's destinations through its one port, and every route
towards a host reuses the route towards its switch.  This is exact, not
an approximation: such a node is a leaf of every BFS tree, so removing it
changes no other node's discovery order, elected port or equal-cost set.
On the 379-node leaf–spine that is 19 BFS runs instead of 379.

Only :class:`Network` writes route tables.  A single-cable node's two
tables are read-only :class:`StubTable` views over one destination store
shared by every such node on the same attachment, so a host's route
state is O(1) instead of one dict entry per destination.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..config import SimConfig
from ..obs import install as install_telemetry
from ..routing import RoutingPolicy, resolve_routing
from ..sim.engine import Simulator
from ..sim.rng import SeedSequence
from ..sim.trace import Tracer
from .host import Host
from .node import Node, Switch
from .port import Link, Port
from .queues import DropTailQueue

QueueFactory = Callable[[int], DropTailQueue]


def _default_queue_factory(capacity_bytes: int) -> QueueFactory:
    def make(rate_bps: int) -> DropTailQueue:  # noqa: ARG001 - uniform signature
        return DropTailQueue(capacity_bytes)

    return make


class StubTable(Mapping):
    """A single-cable node's read-only route table.

    Every key of ``destinations`` except the node's own id maps to
    ``value``: the node's one port (``forwarding_table``) or one shared
    ``(port,)`` tuple (``multipath_table``).  ``destinations`` is shared,
    unmodified, by every stub on the same attachment.
    """

    __slots__ = ("destinations", "own_id", "value")

    def __init__(self, destinations: Dict[int, None], own_id: int, value) -> None:
        self.destinations = destinations
        self.own_id = own_id
        self.value = value

    def __getitem__(self, dst_id: int):
        if dst_id == self.own_id or dst_id not in self.destinations:
            raise KeyError(dst_id)
        return self.value

    def __iter__(self):
        own_id = self.own_id
        return (dst_id for dst_id in self.destinations if dst_id != own_id)

    def __len__(self) -> int:
        return len(self.destinations) - (self.own_id in self.destinations)


class Network:
    """Topology plus the simulation services every component needs."""

    def __init__(
        self,
        seed: Optional[int] = None,
        default_buffer_bytes: int = 256_000,
        host_buffer_bytes: int = 4_000_000,
        host_processing_delay_ns: int = 2_000,
        host_processing_jitter_ns: int = 4_000,
        routing: Optional[Union[str, RoutingPolicy]] = None,
        config: Optional[SimConfig] = None,
    ):
        """The one place a run's configuration is resolved: explicit
        argument > ``config`` field > ``$REPRO_*`` > default.  Every layer
        reads the complete result from ``self.config``, never the
        environment.  A ``RoutingPolicy`` instance is used as given."""
        named = not isinstance(routing, RoutingPolicy)
        self.config = config = (config or SimConfig()).resolved(
            seed=seed, routing=routing if named else None
        )
        self.sim = Simulator()
        self.tracer = Tracer()
        self.seeds = SeedSequence(config.seed)
        self.routing = resolve_routing(config.routing if named else routing)
        self.route_rebuilds = 0
        # Telemetry session handle (repro.obs.Telemetry) or None; installed
        # below when the resolved config asks for one.
        self.telemetry = None
        # Backpressure fabric handles or None: enable_pfc installs a
        # repro.net.pfc.LosslessFabric here, enable_bfc a BfcFabric.
        self.lossless = None
        self.bfc = None
        self.default_buffer_bytes = default_buffer_bytes
        self.host_buffer_bytes = host_buffer_bytes
        self.host_processing_delay_ns = host_processing_delay_ns
        self.host_processing_jitter_ns = host_processing_jitter_ns
        self.nodes: List[Node] = []
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self._adjacency: Dict[int, List[Tuple[int, int]]] = {}
        if config.telemetry != "off":
            install_telemetry(self, config.telemetry, dump_dir=config.telemetry_dir)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        """Create a host (its NIC port appears when it is cabled)."""
        host = Host(
            self.sim,
            len(self.nodes),
            name,
            self.tracer,
            self.seeds,
            processing_delay_ns=self.host_processing_delay_ns,
            processing_jitter_ns=self.host_processing_jitter_ns,
        )
        self.nodes.append(host)
        self.hosts.append(host)
        self._adjacency[host.node_id] = []
        return host

    def add_switch(self, name: str) -> Switch:
        """Create a switch."""
        switch = Switch(self.sim, len(self.nodes), name, self.tracer)
        self.nodes.append(switch)
        self.switches.append(switch)
        self._adjacency[switch.node_id] = []
        return switch

    def cable(
        self,
        a: Node,
        b: Node,
        rate_bps: int,
        delay_ns: int,
        queue_factory: Optional[QueueFactory] = None,
    ) -> Tuple[Port, Port]:
        """Connect ``a`` and ``b`` full duplex; returns (port on a, port on b)."""
        make_queue = queue_factory or _default_queue_factory(
            self.default_buffer_bytes
        )

        def queue_for(node: Node) -> DropTailQueue:
            # Host NICs get deep software queues (the OS, not a switch ASIC)
            # so switch-buffer experiments aren't polluted by sender drops.
            if isinstance(node, Host):
                return DropTailQueue(self.host_buffer_bytes)
            return make_queue(rate_bps)

        port_a_index = len(a.ports)
        port_b_index = len(b.ports)
        link_ab = Link(self.sim, rate_bps, delay_ns, b, port_b_index)
        link_ba = Link(self.sim, rate_bps, delay_ns, a, port_a_index)
        port_a = Port(self.sim, a, port_a_index, link_ab, queue_for(a), self.tracer)
        port_b = Port(self.sim, b, port_b_index, link_ba, queue_for(b), self.tracer)
        a.add_port(port_a)
        b.add_port(port_b)
        self._adjacency[a.node_id].append((b.node_id, port_a_index))
        self._adjacency[b.node_id].append((a.node_id, port_b_index))
        return port_a, port_b

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Populate every node's forwarding tables with BFS shortest paths.

        ``forwarding_table`` gets one elected next hop per destination
        (ties broken by neighbour insertion order, deterministic because
        topology builders wire cables in a fixed order — bit-identical to
        the pre-multipath behaviour).  ``multipath_table`` gets the full
        equal-cost set, elected port first and the rest in ascending port
        order.  The BFS runs over the core graph only and single-cable
        nodes are folded back in afterwards (:meth:`_compute_routes`
        states why the tables come out identical to an all-pairs BFS).
        Finally the routing policy is installed on the switches.
        """
        self._compute_routes()
        self.routing.install(self)

    def rebuild_routes(self) -> None:
        """Recompute every route honouring links that are currently down.

        The fault engine's reroute hook: after a ``link_down`` (or its
        restore), both tables are rebuilt from scratch around the dead
        links — through the same core BFS and stub fold as
        :meth:`build_routes` — and the routing policy drops any per-flow
        path picks that may now point at them.  Destinations left
        unreachable simply lose their entries — forwarding to them
        raises, like a real blackhole, until a later rebuild restores
        connectivity.
        """
        self._compute_routes()
        self.route_rebuilds += 1
        self.routing.on_routes_rebuilt(self)

    def _compute_routes(self) -> None:
        """Give every node fresh tables: BFS the core, then fold the stubs.

        A *stub* is a node with exactly one cable whose peer (its
        *attachment*) has more than one: every host in every builder, and
        a spine serving a single leaf.  Both ends of a host–host pair
        stay core.  The per-destination BFS and equal-cost pass run over
        the core graph only (stubs removed from the adjacency), towards
        core destinations only.  The stubs are then folded back in:

        * as destinations — stub ``h`` on attachment ``s`` is reachable
          iff ``s -> h`` is live.  Then ``s`` routes to it through that
          port, and every node with a route to ``s`` reuses its entry for
          ``s``: the same int and the same tuple object.
        * as sources — if ``h -> s`` is live, ``h`` reaches ``s`` and
          every destination ``s`` reaches through its one port.  Its two
          tables are :class:`StubTable` views over one destination store
          per attachment; otherwise they stay empty dicts.

        Why this is exact: a stub is a leaf of every BFS tree.  It can
        only be discovered from its attachment, and when popped it finds
        its one neighbour already visited, so it discovers nothing.
        Removing it therefore leaves the FIFO order among the other nodes
        unchanged, and with it every elected port.  It never joins a core
        node's equal-cost set either, being one hop *farther* than its
        attachment.  A BFS rooted at ``h`` is the BFS rooted at ``s``
        with every distance shifted by one, so elected ports and
        equal-cost sets towards ``h`` are those towards ``s``.
        """
        nodes = self.nodes
        adjacency = self._adjacency
        for node in nodes:
            node.forwarding_table = {}
            node.multipath_table = {}
        # Classify: attachment id -> [(stub id, stub's port, attachment's
        # port towards the stub)].
        stubs_at: Dict[int, List[Tuple[int, int, int]]] = {}
        for node_id, cables in adjacency.items():
            if len(cables) != 1:
                continue
            attach_id, stub_port = cables[0]
            attach_cables = adjacency[attach_id]
            if len(attach_cables) > 1:
                attach_port = next(
                    port for peer_id, port in attach_cables if peer_id == node_id
                )
                stubs_at.setdefault(attach_id, []).append(
                    (node_id, stub_port, attach_port)
                )
        stubs = {stub_id for group in stubs_at.values() for stub_id, _, _ in group}
        core = {
            node_id: [cable for cable in cables if cable[0] not in stubs]
            for node_id, cables in adjacency.items()
            if node_id not in stubs
        }
        # Destinations each attachment routes to, and the nodes routing to
        # each attachment: the two directions the fold extends.
        reach: Dict[int, List[int]] = {attach_id: [] for attach_id in stubs_at}
        reached_by: Dict[int, List[int]] = {}

        for dst_id in core:
            # BFS outward from the destination; the first hop discovered at
            # each node is its elected next hop towards dst.  Edges whose
            # forward direction (node -> neighbour-closer-to-dst) is
            # administratively down are unusable; a node none of whose
            # candidate links are up is treated as unreachable along that
            # branch.
            dist = {dst_id: 0}
            frontier = deque([dst_id])
            while frontier:
                current = frontier.popleft()
                next_dist = dist[current] + 1
                for neighbor_id, _ in core[current]:
                    if neighbor_id in dist:
                        continue
                    # neighbor reaches dst via the port pointing back at current.
                    neighbor = nodes[neighbor_id]
                    for peer_id, port_index in core[neighbor_id]:
                        if peer_id == current and neighbor.ports[port_index].link.up:
                            neighbor.forwarding_table[dst_id] = port_index
                            break
                    else:
                        continue  # no live link back towards current
                    dist[neighbor_id] = next_dist
                    frontier.append(neighbor_id)
            # Second pass: the full equal-cost set per node — every live
            # port towards a neighbour one hop closer to dst.  The
            # BFS-elected port leads (so single-path behaviour is literally
            # candidates[0]); the remaining candidates follow in ascending
            # port order.
            for node_id, node_dist in dist.items():
                if node_id == dst_id:
                    continue
                node = nodes[node_id]
                target = node_dist - 1
                elected = node.forwarding_table[dst_id]
                equal_cost = sorted(
                    port_index
                    for neighbor_id, port_index in core[node_id]
                    if dist.get(neighbor_id) == target
                    and node.ports[port_index].link.up
                    and port_index != elected
                )
                node.multipath_table[dst_id] = (elected, *equal_cost)
                if node_id in reach:
                    reach[node_id].append(dst_id)
            if dst_id in stubs_at:
                reached_by[dst_id] = [node_id for node_id in dist if node_id != dst_id]

        # Fold destinations: a live s -> h gives s a one-port route, and
        # everything routing to s routes to h the same way.
        for attach_id, group in stubs_at.items():
            attach = nodes[attach_id]
            live = []
            for stub_id, _, attach_port in group:
                if attach.ports[attach_port].link.up:
                    attach.forwarding_table[stub_id] = attach_port
                    attach.multipath_table[stub_id] = (attach_port,)
                    live.append(stub_id)
            if not live:
                continue
            reach[attach_id].extend(live)
            for node_id in reached_by[attach_id]:
                node = nodes[node_id]
                node.forwarding_table.update(
                    dict.fromkeys(live, node.forwarding_table[attach_id])
                )
                node.multipath_table.update(
                    dict.fromkeys(live, node.multipath_table[attach_id])
                )
                if node_id in reach:
                    reach[node_id].extend(live)

        # Fold sources: a live h -> s sends everything s reaches, and s
        # itself, out of h's one port.
        for attach_id, group in stubs_at.items():
            destinations = dict.fromkeys([attach_id, *reach[attach_id]])
            for stub_id, stub_port, _ in group:
                stub = nodes[stub_id]
                if stub.ports[stub_port].link.up:
                    stub.forwarding_table = StubTable(destinations, stub_id, stub_port)
                    stub.multipath_table = StubTable(
                        destinations, stub_id, (stub_port,)
                    )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run_for(self, duration_ns: int) -> int:
        """Advance the simulation by ``duration_ns``."""
        return self.sim.run_for(duration_ns)

    def run_until(self, time_ns: int) -> int:
        """Advance the simulation to absolute time ``time_ns``."""
        return self.sim.run(until_ns=time_ns)

    def host_by_name(self, name: str) -> Host:
        """Look up a host by its builder-assigned name."""
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(f"no host named {name}")

    def node_by_name(self, name: str) -> Node:
        """Look up any node (host or switch) by its builder-assigned name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name}")

    def total_drops(self) -> int:
        """Sum of drop-tail losses across every port in the network."""
        return sum(
            port.queue.drops for node in self.nodes for port in node.ports
        )
