"""ECMP collisions on a fat tree — goodput fairness and queue asymmetry.

The scenario every multi-path fabric paper opens with: long cross-pod
flows on a k=4 fat tree, where hash-based ECMP inevitably lands several
flows on the same core uplink (8 flows into 4 paths) while other uplinks
idle.  The interesting question for this repository is what happens *at
the collision point*: per-link token accounting (TFC) should keep the
shared uplink's queue near zero and split it fairly among the colliding
flows, while end-to-end schemes (DCTCP, TCP) show collision-induced
queue build-up and goodput asymmetry.

Measured per run:

* per-flow goodput and the Jain fairness index across flows;
* uplink load spread — max/mean bytes carried by the fabric's upward
  ports (edge-to-agg and agg-to-core; 1.0 = perfect spread,
  ``n_uplinks`` = total collapse onto one uplink);
* the deepest queue ever seen on any switch port in the fabric, and
  total drops — the congestion signature of a collision (with two
  senders per edge switch the hot spot is usually an edge-to-agg
  uplink, not the core).

``routing`` sweeps the policies: ``single`` is the degenerate
all-on-one-path baseline, ``ecmp`` the collision case under study,
``flowlet``/``spray`` the progressively finer-grained balancers.
"""

from __future__ import annotations

from ..metrics.stats import jain_fairness
from ..net.topology import Topology, fat_tree
from ..sim.units import seconds
from ..transport.registry import open_flow
from .common import ExperimentResult, build_topology


def _uplink_ports(topo: Topology):
    """Upward fabric ports: edge-to-agg and agg-to-core (the candidate
    collision points for cross-pod traffic)."""
    upward = {"E": "A", "A": "C"}
    ports = []
    for switch in topo.switches:
        above = upward.get(switch.name[0])
        if above is None:
            continue
        for port in switch.ports:
            if port.peer_node.name.startswith(above):
                ports.append(port)
    return ports


def run_collision_cell(
    protocol: str = "tfc",
    routing: str = "ecmp",
    k: int = 4,
    n_flows: int = 8,
    duration_s: float = 0.1,
    buffer_bytes: int = 256_000,
    seed: int = 0,
) -> ExperimentResult:
    """``n_flows`` long cross-pod flows on a k-ary fat tree.

    Senders are the first ``n_flows`` hosts (pods 0 upward), receivers
    the hosts half the fabric away, so every flow crosses the core and
    competes for the ``(k/2)^2`` equal-cost paths.  ``n_flows`` above
    the path count guarantees collisions under any per-flow policy.
    """
    topo = build_topology(
        fat_tree,
        protocol,
        buffer_bytes=buffer_bytes,
        k=k,
        seed=seed,
        routing=routing,
    )
    n_hosts = len(topo.hosts)
    if n_flows > n_hosts // 2:
        raise ValueError(
            f"at most {n_hosts // 2} cross-fabric flows on a k={k} fat tree"
        )
    senders = [
        open_flow(
            topo.hosts[i], topo.hosts[n_hosts // 2 + i], protocol
        )
        for i in range(n_flows)
    ]
    topo.network.run_for(seconds(duration_s))
    goodputs = [
        s.receiver.bytes_received * 8.0 / duration_s for s in senders
    ]
    uplink_bytes = [port.tx_bytes for port in _uplink_ports(topo)]
    uplink_mean = sum(uplink_bytes) / len(uplink_bytes) if uplink_bytes else 0.0
    max_fabric_queue_bytes = max(
        port.queue.max_bytes_seen
        for switch in topo.switches
        for port in switch.ports
    )
    return ExperimentResult(
        name=f"ecmp:{routing}:{protocol}:seed{seed}",
        protocol=protocol,
        scalars={
            "agg_goodput_gbps": sum(goodputs) / 1e9,
            "min_flow_gbps": min(goodputs) / 1e9,
            "max_flow_gbps": max(goodputs) / 1e9,
            "jain_fairness": jain_fairness(goodputs),
            # Max/mean load across uplinks (1.0 = perfectly spread).
            "uplink_spread": (
                max(uplink_bytes) / uplink_mean if uplink_mean > 0 else 0.0
            ),
            "max_fabric_queue_bytes": float(max_fabric_queue_bytes),
            "drops": float(topo.network.total_drops()),
        },
        series={
            "flow_goodputs_bps": goodputs,
            "uplink_bytes": uplink_bytes,
        },
    )
