"""Pod-to-pod ring traffic on a fat tree: build, run and fingerprint.

Every pod opens ``flows_per_pod`` long-lived flows to the same host
slots of its neighbour pod, so every flow climbs edge -> aggregation ->
core and back down.  Start times are jittered from one
``derive_cell_seed`` stream per (pod, flow) identity; the ``"shard"``
label keeps them equal to the runs the pinned constants were captured
from.

The fingerprint holds each flow's transport counters and each node's
rx/drop counters, keyed by name.
"""

import hashlib
import json
import random
from typing import Dict, Tuple

from repro.experiments.common import build_topology, derive_cell_seed
from repro.net.topology import fat_tree
from repro.sim.units import GBPS, microseconds
from repro.transport.registry import open_flow


def build_pod_traffic(
    k: int = 4,
    protocol: str = "tfc",
    flows_per_pod: int = 2,
    seed: int = 0,
    start_spread_ns: int = 200_000,
):
    """A ``fat_tree(k)`` with the ring flows scheduled; returns
    ``(topology, [(label, sender), ...])``."""
    topology = build_topology(
        fat_tree,
        protocol,
        buffer_bytes=256_000,
        k=k,
        rate_bps=GBPS,
        link_delay_ns=microseconds(5),
        seed=seed,
    )
    hosts_per_pod = (k // 2) ** 2
    flows = []
    for pod in range(k):
        for i in range(flows_per_pod):
            slot = i % hosts_per_pod
            src = topology.hosts[pod * hosts_per_pod + slot]
            dst = topology.hosts[((pod + 1) % k) * hosts_per_pod + slot]
            rng = random.Random(
                derive_cell_seed(seed, "shard", "pod", pod, "flow", i)
            )
            sender = open_flow(
                src, dst, protocol, start_ns=rng.randrange(start_spread_ns)
            )
            flows.append((f"{src.name}->{dst.name}", sender))
    return topology, flows


def fingerprint(topology, flows) -> Dict[str, tuple]:
    """Flow endpoint counters and per-node rx/drop counters."""
    out: Dict[str, tuple] = {}
    for label, sender in flows:
        stats = sender.stats
        out[f"{label}:tx"] = (
            stats.bytes_acked,
            stats.packets_sent,
            stats.retransmissions,
            stats.timeouts,
        )
        receiver = sender.receiver
        out[f"{label}:rx"] = (
            receiver.bytes_received,
            receiver.rcv_nxt,
            receiver.reordered_segments,
        )
    for node in topology.network.nodes:
        out[f"{node.name}:node"] = (
            node.rx_packets,
            node.rx_bytes,
            sum(port.queue.drops for port in node.ports),
        )
    return out


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def run_pod_traffic(end_ns: int, **kwargs) -> Tuple[int, int, str]:
    """``(events, final clock, fingerprint digest)`` of one run."""
    topology, flows = build_pod_traffic(**kwargs)
    topology.sim.run(until_ns=end_ns)
    sim = topology.sim
    return sim.events_processed, sim.now, digest(fingerprint(topology, flows))
