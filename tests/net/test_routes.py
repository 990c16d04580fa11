"""Route tables: the folded computation against two references.

``Network`` runs its BFS over the core graph and folds single-cable
nodes back in afterwards.  Its tables must equal, key for key and value
for value:

* a frozen copy of the all-pairs computation it replaced — one BFS per
  destination over every node — on every topology builder and on random
  multigraphs;
* an independent Floyd–Warshall distance oracle sharing no code with
  ``repro.net.network``: a destination is routed iff it is reachable over
  live directed links, and the equal-cost set at ``u`` is every live port
  whose peer is one hop closer.

A single-cable node's tables are read-only views over a destination store
shared per attachment; they must reject writes, and rebuilding routes
must keep well under a megabyte alive where per-host dicts kept ~14 MB.
"""

import tracemalloc
from collections import deque

import pytest
from hypothesis import Phase, find, given, settings, strategies as st
from hypothesis.errors import NoSuchExample

from repro.faults import FaultInjector
from repro.faults.engine import reverse_port
from repro.net.network import Network
from repro.net.topology import dumbbell, fat_tree, leaf_spine, multi_bottleneck
from repro.net.topology import testbed as build_testbed
from repro.sim.units import GBPS, microseconds

INF = float("inf")


def _reference_tables(net):
    """The pre-fold route computation, frozen (one BFS per destination
    over every node), returning ``(forwarding, multipath)`` keyed by node
    id instead of writing into the nodes."""
    nodes = net.nodes
    adjacency = {
        node.node_id: [(port.link.dst_node.node_id, port.index) for port in node.ports]
        for node in nodes
    }
    forwarding = {node.node_id: {} for node in nodes}
    multipath = {node.node_id: {} for node in nodes}
    for dst_id in adjacency:
        dist = {dst_id: 0}
        frontier = deque([dst_id])
        while frontier:
            current = frontier.popleft()
            next_dist = dist[current] + 1
            for neighbor_id, _ in adjacency[current]:
                if neighbor_id in dist:
                    continue
                neighbor = nodes[neighbor_id]
                for peer_id, port_index in adjacency[neighbor_id]:
                    if peer_id == current and neighbor.ports[port_index].link.up:
                        forwarding[neighbor_id][dst_id] = port_index
                        break
                else:
                    continue
                dist[neighbor_id] = next_dist
                frontier.append(neighbor_id)
        for node_id, node_dist in dist.items():
            if node_id == dst_id:
                continue
            node = nodes[node_id]
            target = node_dist - 1
            elected = forwarding[node_id][dst_id]
            equal_cost = sorted(
                port_index
                for neighbor_id, port_index in adjacency[node_id]
                if dist.get(neighbor_id) == target
                and node.ports[port_index].link.up
                and port_index != elected
            )
            multipath[node_id][dst_id] = (elected, *equal_cost)
    return forwarding, multipath


def _tables(net):
    return (
        {node.node_id: dict(node.forwarding_table) for node in net.nodes},
        {node.node_id: dict(node.multipath_table) for node in net.nodes},
    )


def _distances(net):
    """All-pairs hop counts over live directed links (Floyd–Warshall)."""
    n = len(net.nodes)
    dist = [[0 if u == v else INF for v in range(n)] for u in range(n)]
    for node in net.nodes:
        for port in node.ports:
            if port.link.up:
                dist[node.node_id][port.link.dst_node.node_id] = 1
    for k in range(n):
        for u in range(n):
            for v in range(n):
                if dist[u][k] + dist[k][v] < dist[u][v]:
                    dist[u][v] = dist[u][k] + dist[k][v]
    return dist


def _assert_matches_oracle(net):
    dist = _distances(net)
    for node in net.nodes:
        u = node.node_id
        routed = {d for d in range(len(net.nodes)) if d != u and dist[u][d] < INF}
        assert set(node.forwarding_table) == routed
        assert set(node.multipath_table) == routed
        for d in routed:
            candidates = node.multipath_table[d]
            assert candidates[0] == node.forwarding_table[d]
            assert list(candidates[1:]) == sorted(set(candidates[1:]))
            assert set(candidates) == {
                port.index
                for port in node.ports
                if port.link.up and dist[port.link.dst_node.node_id][d] == dist[u][d] - 1
            }


# ----------------------------------------------------------------------
# Every builder
# ----------------------------------------------------------------------
BUILDERS = {
    "dumbbell-400": lambda: dumbbell(400),
    "dumbbell-8x3": lambda: dumbbell(8, n_receivers=3),
    "testbed": build_testbed,
    "multi-bottleneck": multi_bottleneck,
    "leaf-spine": leaf_spine,
    "leaf-spine-4": lambda: leaf_spine(spines=4),
    "fat-tree-4": lambda: fat_tree(4),
    "fat-tree-8": lambda: fat_tree(8),
}


def test_builder_tables_equal_the_all_pairs_bfs():
    for name, build in sorted(BUILDERS.items()):
        net = build().network
        assert _tables(net) == _reference_tables(net), name


def test_spine_with_one_leaf_is_folded_exactly():
    """A spine serving a single leaf is itself a single-cable node."""
    net = leaf_spine(n_leaves=1, hosts_per_leaf=3, spines=2).network
    assert _tables(net) == _reference_tables(net)
    _assert_matches_oracle(net)


def test_host_entries_share_one_tuple():
    topo = build_testbed()
    host = topo.hosts[0]
    entries = list(host.multipath_table.values())
    assert len(entries) == len(topo.network.nodes) - 1
    assert all(entry is entries[0] for entry in entries)
    assert entries[0] == (0,)


# ----------------------------------------------------------------------
# Stub tables are shared read-only views
# ----------------------------------------------------------------------
def test_stub_tables_reject_writes():
    host = dumbbell(4).hosts[0]
    for table in (host.forwarding_table, host.multipath_table):
        with pytest.raises(TypeError):
            table[0] = 0
        with pytest.raises(TypeError):
            del table[0]
        for method in ("update", "clear", "pop", "setdefault"):
            with pytest.raises(AttributeError):
                getattr(table, method)
        with pytest.raises(AttributeError):
            table.extra = None  # slotted: no per-view __dict__


def test_stub_tables_cover_every_other_node():
    for name, build in sorted(BUILDERS.items()):
        topo = build()
        expected = len(topo.network.nodes) - 1
        for host in topo.hosts:
            assert len(host.forwarding_table) == expected, (name, host.name)
            assert len(host.multipath_table) == expected, (name, host.name)
            assert host.node_id not in host.forwarding_table


def test_hosts_on_one_attachment_share_one_key_store():
    topo = leaf_spine(n_leaves=2, hosts_per_leaf=3, spines=2)
    by_attachment = {}
    for host in topo.hosts:
        attachment = host.ports[0].peer_node.node_id
        by_attachment.setdefault(attachment, []).append(host)
    assert len(by_attachment) == 2
    for hosts in by_attachment.values():
        store = hosts[0].forwarding_table.destinations
        for host in hosts:
            assert host.forwarding_table.destinations is store
            assert host.multipath_table.destinations is store
    first, second = by_attachment.values()
    assert first[0].forwarding_table.destinations is not (
        second[0].forwarding_table.destinations
    )


def test_cut_host_uplink_empties_its_tables_until_restored():
    topo = dumbbell(4)
    net = topo.network
    host = topo.hosts[0]
    before = _tables(net)
    uplink = host.ports[0]
    downlink = reverse_port(uplink)
    uplink.link.up = downlink.link.up = False
    net.rebuild_routes()
    assert dict(host.forwarding_table) == {} and dict(host.multipath_table) == {}
    assert all(host.node_id not in node.forwarding_table for node in net.nodes)
    assert _tables(net) == _reference_tables(net)

    uplink.link.up = downlink.link.up = True
    net.rebuild_routes()
    assert _tables(net) == _reference_tables(net) == before
    _assert_matches_oracle(net)


@pytest.mark.parametrize(
    "build, bound_bytes",
    [
        pytest.param(lambda: dumbbell(400), 1 << 20, id="dumbbell-400"),
        pytest.param(leaf_spine, 2 << 20, id="leaf-spine"),
    ],
)
def test_rebuilt_routes_keep_little_memory_alive(build, bound_bytes):
    """Per-host dicts would keep ~14 MB alive on either fabric."""
    net = build().network
    tracemalloc.start()
    try:
        net.rebuild_routes()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < bound_bytes


# ----------------------------------------------------------------------
# Reroute goes through the same computation
# ----------------------------------------------------------------------
def test_reroute_tables_equal_the_reference_on_the_cut_graph(monkeypatch):
    topo = leaf_spine(n_leaves=4, hosts_per_leaf=3, spines=2)
    net = topo.network
    before = _tables(net)
    rebuilt = []
    monkeypatch.setattr(net.routing, "on_routes_rebuilt", rebuilt.append)
    uplink = topo.switches[2].ports[0]  # L0 -> SPINE0
    FaultInjector(net).link_down(uplink, at_ns=1_000, duration_ns=4_000, reroute=True)

    net.run_until(2_000)
    assert not uplink.link.up
    assert net.route_rebuilds == 1 and rebuilt == [net]
    assert _tables(net) == _reference_tables(net)
    assert _tables(net) != before
    _assert_matches_oracle(net)

    net.run_until(6_000)
    assert uplink.link.up
    assert net.route_rebuilds == 2 and rebuilt == [net, net]
    assert _tables(net) == before


# ----------------------------------------------------------------------
# Random multigraphs
# ----------------------------------------------------------------------
LINK_STATE = st.sampled_from([True, True, True, False])


@st.composite
def multigraphs(draw):
    """``(kinds, cables)``: node kinds and ``(a, b, a->b up, b->a up)``.

    A random switch core (possibly with degree-0 and degree-1 switches and
    parallel cables), then hosts with zero to three homes each, any of
    which may be another host.
    """
    n_switches = draw(st.integers(1, 5))
    n_hosts = draw(st.integers(0, 6))
    n = n_switches + n_hosts
    pairs = []
    if n_switches > 1:
        pairs += draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_switches - 1), st.integers(0, n_switches - 1)
                ).filter(lambda ab: ab[0] != ab[1]),
                max_size=8,
            )
        )
    for host in range(n_switches, n):
        homes = draw(
            st.lists(
                st.integers(0, n - 1).filter(lambda peer, host=host: peer != host),
                max_size=3,
            )
        )
        pairs += [(host, peer) for peer in homes]
    cables = [(a, b, draw(LINK_STATE), draw(LINK_STATE)) for a, b in pairs]
    return ["switch"] * n_switches + ["host"] * n_hosts, cables


def _build(kinds, cables):
    net = Network(seed=0)
    nodes = [
        net.add_switch(f"S{i}") if kind == "switch" else net.add_host(f"H{i}")
        for i, kind in enumerate(kinds)
    ]
    ports = [net.cable(nodes[a], nodes[b], GBPS, microseconds(1)) for a, b, _, _ in cables]
    return net, ports


def _degrees(kinds, cables):
    degree = [0] * len(kinds)
    for a, b, _, _ in cables:
        degree[a] += 1
        degree[b] += 1
    return degree


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_random_multigraph_tables_equal_both_references(graph):
    kinds, cables = graph
    net, ports = _build(kinds, cables)
    net.build_routes()
    assert _tables(net) == _reference_tables(net)
    _assert_matches_oracle(net)
    # Kill the drawn directions and reroute.
    for (port_a, port_b), (_, _, up_ab, up_ba) in zip(ports, cables):
        port_a.link.up = up_ab
        port_b.link.up = up_ba
    net.rebuild_routes()
    assert _tables(net) == _reference_tables(net)
    _assert_matches_oracle(net)


def _is_stub(node, kinds, cables, degree):
    if degree[node] != 1:
        return False
    (peer,) = [b if a == node else a for a, b, _, _ in cables if node in (a, b)]
    return degree[peer] > 1


SHAPES = {
    "switch core": lambda kinds, cables, degree: any(
        kinds[a] == kinds[b] == "switch" for a, b, _, _ in cables
    ),
    "single-homed host": lambda kinds, cables, degree: any(
        kinds[n] == "host" and _is_stub(n, kinds, cables, degree) for n in range(len(kinds))
    ),
    "multi-homed host": lambda kinds, cables, degree: any(
        kinds[n] == "host" and degree[n] > 1 for n in range(len(kinds))
    ),
    "host-host cable": lambda kinds, cables, degree: any(
        kinds[a] == kinds[b] == "host" for a, b, _, _ in cables
    ),
    "parallel cables": lambda kinds, cables, degree: len(
        {frozenset((a, b)) for a, b, _, _ in cables}
    )
    < len(cables),
    "degree-0 node": lambda kinds, cables, degree: 0 in degree,
    "degree-1 switch": lambda kinds, cables, degree: any(
        kinds[n] == "switch" and degree[n] == 1 for n in range(len(kinds))
    ),
    "dead a->b": lambda kinds, cables, degree: any(not up for _, _, up, _ in cables),
    "dead b->a": lambda kinds, cables, degree: any(not up for _, _, _, up in cables),
    # h -> s live, s -> h dead: h routes out, nothing routes to h.
    "stub with only its inbound link dead": lambda kinds, cables, degree: any(
        _is_stub(h, kinds, cables, degree) and out_up and not in_up
        for a, b, up_ab, up_ba in cables
        for h, out_up, in_up in ((a, up_ab, up_ba), (b, up_ba, up_ab))
    ),
}


def test_multigraph_strategy_draws_every_shape():
    for shape, check in sorted(SHAPES.items()):
        try:
            find(
                multigraphs(),
                lambda graph, check=check: check(*graph, _degrees(*graph)),
                settings=settings(max_examples=2_000, database=None, phases=[Phase.generate]),
            )
        except NoSuchExample:
            pytest.fail(f"the strategy never draws a graph with: {shape}")
