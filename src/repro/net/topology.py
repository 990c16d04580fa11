"""Topology builders for every scenario in the paper's evaluation.

* :func:`dumbbell` — N senders, one receiver behind a single bottleneck;
  the workhorse for micro-benchmarks and incast.
* :func:`testbed` — the paper's Fig. 4 testbed: root NF0 with three leaf
  switches NF1..NF3, each serving three hosts H1..H9, all 1 Gbps.
* :func:`multi_bottleneck` — the paper's Fig. 5 work-conserving scenario:
  hosts 1,2 and 3,4 on switches S1, S2 joined by one inter-switch link.
* :func:`leaf_spine` — the Fig. 16 simulation topology: one spine, 18
  leaves x 20 servers, 1 Gbps downlinks, 10 Gbps uplinks, 20 us links.
  ``spines=N`` adds more spines, giving every leaf N equal-cost uplinks
  (the smallest honest multi-path fabric).
* :func:`fat_tree` — a k-ary fat tree (Al-Fares wiring): k pods of k/2
  edge and k/2 aggregation switches, (k/2)^2 cores, k^3/4 hosts, full
  bisection bandwidth and (k/2)^2 equal-cost paths between pods — the
  setting for the ECMP-collision and path-asymmetry experiments.

Builders return a :class:`Topology` handle exposing the hosts, switches and
the designated bottleneck port(s) so experiments can attach samplers.
Every builder accepts ``routing=`` (a policy name or instance, forwarded
to :class:`~repro.net.network.Network`); the default follows
``$REPRO_ROUTING`` and falls back to single-path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.units import GBPS, microseconds
from .host import Host
from .network import Network, QueueFactory
from .node import Switch
from .port import Port


@dataclass
class Topology:
    """A built network plus named landmarks experiments care about."""

    network: Network
    hosts: List[Host]
    switches: List[Switch]
    bottleneck_ports: Dict[str, Port] = field(default_factory=dict)

    @property
    def sim(self):
        """The underlying simulator (shortcut)."""
        return self.network.sim

    def host(self, index: int) -> Host:
        """Host by zero-based index."""
        return self.hosts[index]

    def bottleneck(self, name: str = "main") -> Port:
        """A named bottleneck port (for queue sampling / TFC agents)."""
        return self.bottleneck_ports[name]


def dumbbell(
    n_senders: int,
    rate_bps: int = GBPS,
    link_delay_ns: int = microseconds(20),
    buffer_bytes: int = 256_000,
    seed: int = 0,
    queue_factory: Optional[QueueFactory] = None,
    n_receivers: int = 1,
    routing=None,
) -> Topology:
    """``n_senders`` hosts -> switch -> ``n_receivers`` hosts.

    The bottleneck is the switch port feeding the first receiver.  All links
    share one rate, so with a single receiver the fan-in is ``n_senders:1``.
    """
    if n_senders < 1:
        raise ValueError("need at least one sender")
    net = Network(seed=seed, default_buffer_bytes=buffer_bytes, routing=routing)
    switch = net.add_switch("SW")
    senders = [net.add_host(f"S{i}") for i in range(n_senders)]
    receivers = [net.add_host(f"R{i}") for i in range(n_receivers)]
    for sender in senders:
        net.cable(sender, switch, rate_bps, link_delay_ns, queue_factory)
    bottlenecks: Dict[str, Port] = {}
    for i, receiver in enumerate(receivers):
        sw_port, _ = net.cable(receiver, switch, rate_bps, link_delay_ns, queue_factory)
        # cable() returns (port on first node, port on second node); we want
        # the switch-side port towards the receiver.
        del sw_port
        bottlenecks["main" if i == 0 else f"rx{i}"] = switch.ports[-1]
    net.build_routes()
    return Topology(
        network=net,
        hosts=senders + receivers,
        switches=[switch],
        bottleneck_ports=bottlenecks,
    )


def testbed(
    rate_bps: int = GBPS,
    link_delay_ns: int = microseconds(5),
    buffer_bytes: int = 256_000,
    seed: int = 0,
    queue_factory: Optional[QueueFactory] = None,
    hosts_per_leaf: int = 3,
    n_leaves: int = 3,
    routing=None,
) -> Topology:
    """The paper's Fig. 4 testbed: NF0 root, NF1-NF3 leaves, H1-H9 hosts.

    Hosts are indexed H1..H9 in paper order: H1-H3 under NF1, H4-H6 under
    NF2, H7-H9 under NF3.  Bottleneck ports are registered per host as
    ``to_H<k>`` (the leaf port feeding that host) — the paper samples the
    "port connecting to host H3 / H6" in several experiments.
    """
    net = Network(seed=seed, default_buffer_bytes=buffer_bytes, routing=routing)
    root = net.add_switch("NF0")
    leaves = [net.add_switch(f"NF{i + 1}") for i in range(n_leaves)]
    hosts: List[Host] = []
    bottlenecks: Dict[str, Port] = {}
    for leaf in leaves:
        net.cable(leaf, root, rate_bps, link_delay_ns, queue_factory)
    host_number = 1
    for leaf in leaves:
        for _ in range(hosts_per_leaf):
            host = net.add_host(f"H{host_number}")
            hosts.append(host)
            leaf_port, _ = net.cable(leaf, host, rate_bps, link_delay_ns, queue_factory)
            bottlenecks[f"to_H{host_number}"] = leaf_port
            host_number += 1
    net.build_routes()
    return Topology(
        network=net,
        hosts=hosts,
        switches=[root] + leaves,
        bottleneck_ports=bottlenecks,
    )


def multi_bottleneck(
    rate_bps: int = GBPS,
    link_delay_ns: int = microseconds(5),
    buffer_bytes: int = 256_000,
    seed: int = 0,
    queue_factory: Optional[QueueFactory] = None,
    routing=None,
) -> Topology:
    """The paper's Fig. 5 scenario: two switches, two bottlenecks.

    Host 1 hangs off S1; hosts 2, 3 and 4 hang off S2.  Host 1 sends n1
    flows to host 4 and n2 flows to host 3 (all crossing the S1 uplink);
    host 2 sends n3 flows to host 3 (only crossing S2's downlink).  S2
    hands the n2 flows a bigger window than S1 lets them use, so without
    token adjustment the S2 -> host 3 link would stay underutilised.
    Bottlenecks registered: ``s1_up`` (S1 -> S2 inter-switch port) and
    ``s2_to_h3`` (S2 -> host 3 port).
    """
    net = Network(seed=seed, default_buffer_bytes=buffer_bytes, routing=routing)
    s1 = net.add_switch("S1")
    s2 = net.add_switch("S2")
    h1 = net.add_host("1")
    h2 = net.add_host("2")
    h3 = net.add_host("3")
    h4 = net.add_host("4")
    s1_up, _ = net.cable(s1, s2, rate_bps, link_delay_ns, queue_factory)
    net.cable(h1, s1, rate_bps, link_delay_ns, queue_factory)
    net.cable(h2, s2, rate_bps, link_delay_ns, queue_factory)
    s2_to_h3, _ = net.cable(s2, h3, rate_bps, link_delay_ns, queue_factory)
    net.cable(s2, h4, rate_bps, link_delay_ns, queue_factory)
    net.build_routes()
    return Topology(
        network=net,
        hosts=[h1, h2, h3, h4],
        switches=[s1, s2],
        bottleneck_ports={"s1_up": s1_up, "s2_to_h3": s2_to_h3},
    )


def leaf_spine(
    n_leaves: int = 18,
    hosts_per_leaf: int = 20,
    down_rate_bps: int = GBPS,
    up_rate_bps: int = 10 * GBPS,
    link_delay_ns: int = microseconds(20),
    buffer_bytes: int = 512_000,
    seed: int = 0,
    queue_factory: Optional[QueueFactory] = None,
    spines: int = 1,
    routing=None,
) -> Topology:
    """The Fig. 16 simulation topology (one spine, 18x20 servers).

    With 20 us links and store-and-forward, the 4-hop inter-rack RTT is
    ~160 us and the 2-hop intra-rack RTT ~80 us, matching the paper.
    Bottleneck ports registered as ``to_H<k>`` for each leaf downlink.

    ``spines=N`` builds the multi-spine variant: every leaf gets one
    uplink per spine, so inter-rack traffic sees N equal-cost two-hop
    paths — the smallest topology where the routing policies diverge.
    The single-spine default wires exactly the original topology.
    """
    if spines < 1:
        raise ValueError("need at least one spine")
    net = Network(seed=seed, default_buffer_bytes=buffer_bytes, routing=routing)
    spine_switches = [
        net.add_switch("SPINE" if spines == 1 else f"SPINE{i}")
        for i in range(spines)
    ]
    leaves = [net.add_switch(f"L{i}") for i in range(n_leaves)]
    for leaf in leaves:
        for spine in spine_switches:
            net.cable(leaf, spine, up_rate_bps, link_delay_ns, queue_factory)
    hosts: List[Host] = []
    bottlenecks: Dict[str, Port] = {}
    host_number = 1
    for leaf in leaves:
        for _ in range(hosts_per_leaf):
            host = net.add_host(f"H{host_number}")
            hosts.append(host)
            leaf_port, _ = net.cable(
                leaf, host, down_rate_bps, link_delay_ns, queue_factory
            )
            bottlenecks[f"to_H{host_number}"] = leaf_port
            host_number += 1
    net.build_routes()
    return Topology(
        network=net,
        hosts=hosts,
        switches=spine_switches + leaves,
        bottleneck_ports=bottlenecks,
    )


def fat_tree(
    k: int = 4,
    rate_bps: int = GBPS,
    link_delay_ns: int = microseconds(5),
    buffer_bytes: int = 256_000,
    seed: int = 0,
    queue_factory: Optional[QueueFactory] = None,
    routing=None,
) -> Topology:
    """A k-ary fat tree (Al-Fares et al.), the multi-path workhorse.

    Structure for even ``k``:

    * ``(k/2)^2`` core switches in ``k/2`` groups of ``k/2`` (named
      ``C<group>_<i>``);
    * ``k`` pods, each with ``k/2`` aggregation switches ``A<pod>_<j>``
      and ``k/2`` edge switches ``E<pod>_<j>``; aggregation switch ``j``
      uplinks to every core in group ``j``, and every edge switch
      connects to every aggregation switch in its pod;
    * ``k/2`` hosts per edge switch — ``k^3/4`` hosts total, named
      ``H1..`` in pod order.

    Every link runs at one rate, so the fabric has full bisection
    bandwidth and ``(k/2)^2`` equal-cost paths between hosts in
    different pods (``k/2`` between different edges of one pod).  Edge
    ports feeding hosts are registered as ``to_H<n>`` bottlenecks.

    ``topology.switches`` lists cores, then aggregations, then edges,
    each in construction order; the structured names (``C*``, ``A*``,
    ``E*``) let experiments slice them back apart by prefix.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat tree arity must be even and >= 2, got {k}")
    half = k // 2
    net = Network(seed=seed, default_buffer_bytes=buffer_bytes, routing=routing)
    core_groups = [
        [net.add_switch(f"C{group}_{i}") for i in range(half)]
        for group in range(half)
    ]
    agg_pods: List[List[Switch]] = []
    edge_pods: List[List[Switch]] = []
    for pod in range(k):
        agg_pods.append(
            [net.add_switch(f"A{pod}_{j}") for j in range(half)]
        )
        edge_pods.append(
            [net.add_switch(f"E{pod}_{j}") for j in range(half)]
        )
    for pod in range(k):
        for group, agg in enumerate(agg_pods[pod]):
            for core in core_groups[group]:
                net.cable(agg, core, rate_bps, link_delay_ns, queue_factory)
    for pod in range(k):
        for edge in edge_pods[pod]:
            for agg in agg_pods[pod]:
                net.cable(edge, agg, rate_bps, link_delay_ns, queue_factory)
    hosts: List[Host] = []
    bottlenecks: Dict[str, Port] = {}
    host_number = 1
    for pod in range(k):
        for edge in edge_pods[pod]:
            for _ in range(half):
                host = net.add_host(f"H{host_number}")
                hosts.append(host)
                edge_port, _ = net.cable(
                    edge, host, rate_bps, link_delay_ns, queue_factory
                )
                bottlenecks[f"to_H{host_number}"] = edge_port
                host_number += 1
    net.build_routes()
    switches = (
        [core for group in core_groups for core in group]
        + [agg for pod_aggs in agg_pods for agg in pod_aggs]
        + [edge for pod_edges in edge_pods for edge in pod_edges]
    )
    return Topology(
        network=net,
        hosts=hosts,
        switches=switches,
        bottleneck_ports=bottlenecks,
    )
