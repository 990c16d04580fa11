"""Tests for topology builders and shortest-path routing."""

import pytest

from repro.net.packet import Packet, MSS
from repro.net.topology import dumbbell, fat_tree, leaf_spine, multi_bottleneck
from repro.net.topology import testbed as build_testbed
from repro.sim.units import GBPS, microseconds


def all_pairs_reachable(topo):
    """Every host can route a packet to every other host."""
    hosts = topo.hosts
    for src in hosts:
        for dst in hosts:
            if src is dst:
                continue
            # Walk the forwarding tables hop by hop.
            node = src
            hops = 0
            while node is not dst:
                port = node.port_towards(dst.node_id)
                node = port.peer_node
                hops += 1
                assert hops < 10, f"routing loop {src.name}->{dst.name}"
    return True


def test_dumbbell_structure():
    topo = dumbbell(n_senders=4)
    assert len(topo.hosts) == 5
    assert len(topo.switches) == 1
    assert all_pairs_reachable(topo)
    # The registered bottleneck is the switch port facing the receiver.
    receiver = topo.hosts[-1]
    assert topo.bottleneck("main").peer_node is receiver


def test_dumbbell_multiple_receivers():
    topo = dumbbell(n_senders=2, n_receivers=2)
    assert len(topo.hosts) == 4
    assert topo.bottleneck("rx1").peer_node is topo.hosts[-1]


def test_dumbbell_needs_senders():
    with pytest.raises(ValueError):
        dumbbell(n_senders=0)


def test_testbed_matches_paper_figure4():
    topo = build_testbed()
    assert [h.name for h in topo.hosts] == [f"H{i}" for i in range(1, 10)]
    assert [s.name for s in topo.switches] == ["NF0", "NF1", "NF2", "NF3"]
    assert all_pairs_reachable(topo)
    # H1..H3 under NF1, H4..H6 under NF2 (paper layout).
    assert topo.bottleneck("to_H3").node.name == "NF1"
    assert topo.bottleneck("to_H6").node.name == "NF2"


def test_testbed_intra_vs_cross_rack_hops():
    topo = build_testbed()
    h4, h6, h1 = topo.host(3), topo.host(5), topo.host(0)

    def count_hops(src, dst):
        node, hops = src, 0
        while node is not dst:
            node = node.port_towards(dst.node_id).peer_node
            hops += 1
        return hops

    assert count_hops(h4, h6) == 2  # intra-rack: host->leaf->host
    assert count_hops(h1, h6) == 4  # cross-rack via the root


def test_multi_bottleneck_paths():
    topo = multi_bottleneck()
    h1, h2, h3, h4 = topo.hosts
    s1, s2 = topo.switches
    # Host 1 reaches host 3 via S1 then S2.
    assert h1.port_towards(h3.node_id).peer_node is s1
    assert s1.port_towards(h3.node_id).peer_node is s2
    # Host 2 hangs off S2: it must NOT cross the S1 uplink.
    assert h2.port_towards(h3.node_id).peer_node is s2
    assert topo.bottleneck("s1_up").node is s1
    assert topo.bottleneck("s2_to_h3").peer_node is h3
    assert all_pairs_reachable(topo)


def test_leaf_spine_shape():
    topo = leaf_spine(n_leaves=3, hosts_per_leaf=4)
    assert len(topo.hosts) == 12
    assert len(topo.switches) == 4  # spine + 3 leaves
    assert all_pairs_reachable(topo)


def test_leaf_spine_paper_rtt():
    """20 us links + store-and-forward give ~160 us inter-rack RTT."""
    topo = leaf_spine(n_leaves=2, hosts_per_leaf=1)
    net = topo.network
    src, dst = topo.hosts
    arrival = []

    class Sink:
        def on_packet(self, pkt):
            arrival.append(net.sim.now)

    dst.register_connection((src.node_id, dst.node_id, 1, 2), Sink())
    src.send(Packet(src.node_id, dst.node_id, 1, 2, payload=MSS))
    net.sim.run()
    one_way = arrival[0]
    # 4 links x 20 us propagation plus serialisations and host processing:
    # the paper quotes 160 us round trip for 4 hops.
    assert 80_000 <= one_way <= 120_000


def test_leaf_spine_uplink_is_faster():
    topo = leaf_spine(n_leaves=2, hosts_per_leaf=2)
    spine = topo.switches[0]
    leaf = topo.switches[1]
    # Leaf's port towards the spine runs at the uplink rate.
    up_port = leaf.port_towards(spine.node_id)
    assert up_port.rate_bps == 10 * GBPS
    host_port = topo.bottleneck("to_H1")
    assert host_port.rate_bps == GBPS


def unique_cables(topo):
    """One (low, high) node-id pair per cable; fails on duplicate wiring."""
    pairs = []
    for node in topo.network.nodes:
        for port in node.ports:
            a, b = node.node_id, port.peer_node.node_id
            if a < b:
                pairs.append((a, b))
    assert len(pairs) == len(set(pairs)), "same node pair cabled twice"
    return pairs


@pytest.mark.parametrize("k", [4, 6])
def test_fat_tree_structure(k):
    """Al-Fares counts: k^3/4 hosts, 5k^2/4 switches, 3k^3/4 cables."""
    topo = fat_tree(k=k)
    half = k // 2
    assert len(topo.hosts) == k**3 // 4
    cores = [s for s in topo.switches if s.name.startswith("C")]
    aggs = [s for s in topo.switches if s.name.startswith("A")]
    edges = [s for s in topo.switches if s.name.startswith("E")]
    assert len(cores) == half * half
    assert len(aggs) == k * half
    assert len(edges) == k * half
    assert len(topo.switches) == 5 * k * k // 4
    assert len(unique_cables(topo)) == 3 * k**3 // 4
    assert all_pairs_reachable(topo)


@pytest.mark.parametrize("k", [4, 8])
def test_fat_tree_wiring_follows_its_names(k):
    """Aggregation switch ``A<p>_<j>`` uplinks to every core ``C<j>_*``
    and to every edge of pod ``p``; edge ``E<p>_<j>`` serves the next
    ``k/2`` hosts in pod order; every cable runs at the default 1 Gb/s
    with a 5 us delay."""
    topo = fat_tree(k=k)
    half = k // 2
    neighbours = {
        node.name: {port.peer_node.name for port in node.ports}
        for node in topo.network.nodes
    }
    hosts = iter(host.name for host in topo.hosts)
    for pod in range(k):
        edges = {f"E{pod}_{j}" for j in range(half)}
        aggs = {f"A{pod}_{j}" for j in range(half)}
        for j in range(half):
            cores = {f"C{j}_{i}" for i in range(half)}
            assert neighbours[f"A{pod}_{j}"] == cores | edges
            served = {next(hosts) for _ in range(half)}
            assert neighbours[f"E{pod}_{j}"] == aggs | served
    assert topo.hosts[0].name == "H1"
    for node in topo.network.nodes:
        for port in node.ports:
            assert port.link.rate_bps == GBPS
            assert port.link.delay_ns == microseconds(5)


def test_fat_tree_carries_no_partition_metadata():
    """Pod and core name lists existed only for single-simulation
    sharding, which is gone."""
    topo = fat_tree(k=4)
    assert not hasattr(topo, "pod_members")
    assert not hasattr(topo, "core_members")


def test_fat_tree_equal_cost_sets():
    topo = fat_tree(k=4)
    by_name = {s.name: s for s in topo.switches}
    edge0, agg0 = by_name["E0_0"], by_name["A0_0"]
    local, remote = topo.hosts[0], topo.hosts[-1]
    # Towards a remote pod: k/2 agg choices at the edge, then k/2 core
    # choices at the agg — (k/2)^2 = 4 core paths in total.
    assert len(edge0.multipath_table[remote.node_id]) == 2
    assert len(agg0.multipath_table[remote.node_id]) == 2
    # The elected BFS next hop always leads the candidate tuple.
    assert (
        edge0.multipath_table[remote.node_id][0]
        == edge0.forwarding_table[remote.node_id]
    )
    # A host on this edge switch has exactly one way down.
    assert len(edge0.multipath_table[local.node_id]) == 1
    # ports_towards mirrors the table as Port objects, same order.
    ports = edge0.ports_towards(remote.node_id)
    assert [p.index for p in ports] == list(
        edge0.multipath_table[remote.node_id]
    )
    assert {p.peer_node.name for p in ports} == {"A0_0", "A0_1"}


def test_fat_tree_validates_k():
    for bad in (0, 3, -2):
        with pytest.raises(ValueError):
            fat_tree(k=bad)


def test_leaf_spine_multi_spine_equal_cost():
    topo = leaf_spine(n_leaves=2, hosts_per_leaf=2, spines=3)
    assert len(topo.switches) == 5  # 3 spines + 2 leaves
    leaf0 = topo.switches[3]
    local, remote = topo.hosts[0], topo.hosts[2]
    candidates = leaf0.multipath_table[remote.node_id]
    assert len(candidates) == 3
    assert {leaf0.ports[i].peer_node.name for i in candidates} == {
        "SPINE0",
        "SPINE1",
        "SPINE2",
    }
    assert candidates[0] == leaf0.forwarding_table[remote.node_id]
    # Hosts on this leaf are single-homed.
    assert len(leaf0.multipath_table[local.node_id]) == 1
    assert all_pairs_reachable(topo)


def test_leaf_spine_validates_spines():
    with pytest.raises(ValueError):
        leaf_spine(spines=0)


def test_custom_buffer_applies_to_switch_ports():
    topo = dumbbell(n_senders=2, buffer_bytes=64_000)
    assert topo.bottleneck("main").queue.capacity_bytes == 64_000


def test_host_nic_queue_is_deep():
    topo = dumbbell(n_senders=1)
    nic = topo.hosts[0].ports[0]
    assert nic.queue.capacity_bytes >= 1_000_000
