"""Same seed -> identical flow schedule, for every workload generator.

Each generator is run twice on freshly built topologies with the same
seed and the resulting *flow fingerprint* (every sender's byte/timeout
accounting plus the FCT records) must match exactly (the repo's
bit-identity contract extends to the generators' RNG streams).  Each
schedule is also pinned: events, final clock and a digest of the
fingerprint plus the tracer counters, captured once.  If a change here
is intentional, recapture the constants and say so in the commit.
"""

import hashlib
import json

import pytest

from repro.experiments.common import build_topology
from repro.metrics.fct import FctCollector
from repro.net.topology import testbed as build_testbed
from repro.sim.units import MILLISECOND, microseconds
from repro.transport.base import Sender
from repro.workloads.collective import AllReduceWorkload
from repro.workloads.empirical import BenchmarkWorkload
from repro.workloads.incast import IncastCoordinator
from repro.workloads.mixer import MultiTenantMixer
from repro.workloads.onoff import OnOffSource
from repro.workloads.storage import ReplicationWorkload
from repro.transport.registry import open_flow

DURATION = 2 * MILLISECOND
RUN_FOR = 3 * MILLISECOND


def fingerprint(network, collector=None):
    """Every sender's accounting plus the FCT record list, as one value.

    Live senders are keyed by their demux key; a finished flow's record
    sits in its host's ledger, and its demux key is ``flow_key`` reversed
    (so the rows, and the pinned digests, are the same either way).
    """
    rows = []
    for host in network.hosts:
        flows = [
            (key, endpoint)
            for key, endpoint in host._connections.items()
            if isinstance(endpoint, Sender)
        ]
        for record in host.finished_flows:
            src, dst, sport, dport = record.flow_key
            flows.append(((dst, src, dport, sport), record))
        for key, flow in sorted(flows, key=lambda item: item[0]):
            stats = flow.stats
            rows.append(
                (
                    host.name,
                    key,
                    flow.tenant,
                    stats.bytes_sent,
                    stats.bytes_acked,
                    stats.timeouts,
                    stats.retransmissions,
                    stats.complete_ns,
                )
            )
    records = tuple(
        (r.category, r.tenant, r.size_bytes, r.fct_ns, r.timeouts)
        for r in (collector.records if collector is not None else ())
    )
    return (tuple(sorted(rows)), records)


def _pin(network, collector):
    """Events, clock and a digest of the fingerprint plus the tracer
    counters: what a pinned constant compares."""
    blob = json.dumps(
        [fingerprint(network, collector),
         sorted(network.tracer.counters.items())],
        sort_keys=True,
    )
    return (
        network.sim.events_processed,
        network.sim.now,
        hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
    )


def _run(build_workload):
    """Build a testbed and run ``build_workload`` on it."""
    collector = FctCollector()
    topo = build_topology(build_testbed, "tfc", 256_000, seed=3)
    build_workload(topo, collector)
    topo.network.run_for(RUN_FOR)
    return topo.network, collector


def _drive(build_workload):
    return fingerprint(*_run(build_workload))


def _empirical(topo, collector):
    BenchmarkWorkload(
        topo.hosts, "tfc", DURATION,
        query_rate_per_s=3000.0, query_fanin=4,
        short_rate_per_s=800.0, background_rate_per_s=400.0,
        seed_name="det", collector=collector, tenant="t",
    )


def _incast(topo, collector):
    IncastCoordinator(
        topo.hosts[0], topo.hosts[1:6], "tfc",
        block_bytes=24_000, rounds=4,
        request_delay_ns=microseconds(40), tenant="t",
    )


def _onoff(topo, collector):
    for host in topo.hosts[:4]:
        sender = open_flow(host, topo.hosts[-1], "tfc", size_bytes=0, tenant="t")
        sender.fin_on_empty = False
        OnOffSource(
            host.sim, sender,
            on_ns=microseconds(200), off_ns=microseconds(200),
            burst_bytes=32_000, cycles=4,
        )


def _allreduce_ring(topo, collector):
    AllReduceWorkload(
        topo.hosts[:6], "tfc", chunk_bytes=16_000, iterations=2,
        mode="ring", tenant="t", collector=collector,
    )


def _allreduce_tree(topo, collector):
    AllReduceWorkload(
        topo.hosts[:7], "tfc", chunk_bytes=16_000, iterations=2,
        mode="tree", compute_gap_ns=microseconds(30),
        tenant="t", collector=collector,
    )


def _storage_fanout(topo, collector):
    ReplicationWorkload(
        topo.hosts, "tfc", DURATION, replicas=2, mode="fanout",
        write_rate_per_s=3000.0, value_bytes=32_000,
        tenant="t", collector=collector, seed_name="det",
    )


def _storage_chain(topo, collector):
    ReplicationWorkload(
        topo.hosts, "tfc", DURATION, replicas=2, mode="chain",
        write_rate_per_s=2000.0, value_bytes=24_000,
        tenant="t", collector=collector, seed_name="det",
    )


def _mixer(topo, collector):
    MultiTenantMixer(
        topo.network,
        [
            (
                "search",
                lambda name, coll: BenchmarkWorkload(
                    topo.hosts[:5], "tfc", DURATION,
                    query_rate_per_s=2000.0, query_fanin=3,
                    seed_name=f"mix:{name}", collector=coll, tenant=name,
                ),
            ),
            (
                "training",
                lambda name, coll: AllReduceWorkload(
                    topo.hosts[5:9], "tfc", chunk_bytes=16_000,
                    iterations=2, tenant=name, collector=coll,
                ),
            ),
        ],
        collector=collector,
    )


GENERATORS = {
    "empirical": _empirical,
    "incast": _incast,
    "onoff": _onoff,
    "allreduce_ring": _allreduce_ring,
    "allreduce_tree": _allreduce_tree,
    "storage_fanout": _storage_fanout,
    "storage_chain": _storage_chain,
    "mixer": _mixer,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_schedule(name):
    build = GENERATORS[name]
    assert _drive(build) == _drive(build)


#: generator -> (events, final clock, digest of fingerprint + counters)
GENERATOR_PINS = {
    "allreduce_ring": (7124, 3_000_000, "aa5343924d6bb235"),
    "allreduce_tree": (3529, 3_000_000, "a7c4fc2feb9bd8f0"),
    "empirical": (3595, 3_000_000, "55d3ba3f5f88b042"),
    "incast": (3462, 3_000_000, "ed0e4a4fe0ae6f02"),
    "mixer": (5557, 3_000_000, "e733a28f4b61c6e8"),
    "onoff": (4339, 3_000_000, "89cbf2feb09d3fd0"),
    "storage_chain": (2004, 3_000_000, "97a006076d0771e9"),
    "storage_fanout": (3204, 3_000_000, "233315b5281f9983"),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_schedule_is_pinned(name):
    assert _pin(*_run(GENERATORS[name])) == GENERATOR_PINS[name]


# ----------------------------------------------------------------------
# Transport-parametrized fingerprints: every registered baseline drives
# the empirical workload to the same bit-identical contract as tfc.
# ----------------------------------------------------------------------
NEW_TRANSPORTS = ("bfc", "tbtcp", "tracks", "fairq")


def _run_protocol(protocol):
    """The empirical workload on a testbed running ``protocol``."""
    collector = FctCollector()
    topo = build_topology(build_testbed, protocol, 256_000, seed=3)
    BenchmarkWorkload(
        topo.hosts, protocol, DURATION,
        query_rate_per_s=3000.0, query_fanin=4,
        short_rate_per_s=800.0, background_rate_per_s=400.0,
        seed_name="det", collector=collector, tenant="t",
    )
    topo.network.run_for(RUN_FOR)
    return topo.network, collector


def _drive_protocol(protocol):
    return fingerprint(*_run_protocol(protocol))


@pytest.mark.parametrize("protocol", NEW_TRANSPORTS)
def test_transports_same_seed_same_schedule(protocol):
    assert _drive_protocol(protocol) == _drive_protocol(protocol)


#: transport -> (events, final clock, digest of fingerprint + counters)
TRANSPORT_PINS = {
    "bfc": (4182, 3_000_000, "6964846e0dba102c"),
    "tbtcp": (4087, 3_000_000, "28bb457daa81f824"),
    "tracks": (4180, 3_000_000, "e735d1df9ac5ce91"),
    "fairq": (3883, 3_000_000, "aa5ffd8d7f2fa979"),
}


@pytest.mark.parametrize("protocol", NEW_TRANSPORTS)
def test_transport_schedule_is_pinned(protocol):
    assert _pin(*_run_protocol(protocol)) == TRANSPORT_PINS[protocol]
