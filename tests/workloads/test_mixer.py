"""Multi-tenant mixer: tenant tagging, per-tenant accounting, fairness."""

import pytest

from repro.experiments.common import build_topology
from repro.net.topology import testbed as build_testbed
from repro.sim.units import MILLISECOND
from repro.transport.base import FINISHED_SINK, FinishedFlow
from repro.transport.registry import open_flow
from repro.workloads.bulk import concurrent_flows
from repro.workloads.empirical import BenchmarkWorkload
from repro.workloads.mixer import (
    MultiTenantMixer,
    per_tenant_stats,
    tenant_goodputs_bps,
    tenant_jain_index,
    tenant_senders,
)

DURATION = 2 * MILLISECOND


def make_topo():
    return build_topology(build_testbed, "tfc", 256_000, seed=4)


def test_open_flow_stamps_tenant_on_both_endpoints():
    topo = make_topo()
    sender = open_flow(
        topo.hosts[0], topo.hosts[1], "tfc", size_bytes=10_000, tenant="red"
    )
    assert sender.tenant == "red"
    receivers = [
        ep for ep in topo.hosts[1]._connections.values()
        if getattr(ep, "tenant", None) == "red" and ep is not sender
    ]
    assert receivers
    untagged = open_flow(topo.hosts[2], topo.hosts[1], "tfc", size_bytes=10_000)
    assert untagged.tenant is None


def test_tenant_senders_groups_by_tag():
    topo = make_topo()
    concurrent_flows(topo.hosts[:2], topo.hosts[8], "tfc",
                     size_bytes=20_000, tenant="red")
    concurrent_flows(topo.hosts[2:5], topo.hosts[8], "tfc",
                     size_bytes=20_000, tenant="blue")
    topo.network.run_for(DURATION)
    groups = tenant_senders(topo.network)
    assert sorted(groups) == ["blue", "red"]
    assert len(groups["red"]) == 2
    assert len(groups["blue"]) == 3
    stats = per_tenant_stats(topo.network)
    assert stats["red"].flows == 2
    assert stats["red"].completed_flows == 2
    assert stats["red"].bytes_acked == 40_000
    goodputs = tenant_goodputs_bps(topo.network, DURATION)
    assert goodputs["blue"] > goodputs["red"]
    assert 0.0 < tenant_jain_index(topo.network, DURATION) <= 1.0


def test_finished_endpoints_stay_in_the_flow_registry():
    # A finished sender is released into its host's finished-flow ledger:
    # tenant_senders() (and the per-tenant accounting built on it) reads
    # the record, whose stats are the sender's own.  The sender's demux
    # key stays bound to the inert sink; the receiver stays registered.
    topo = make_topo()
    src, dst = topo.hosts[0], topo.hosts[8]
    sender = open_flow(src, dst, "tfc", size_bytes=20_000, tenant="red")
    topo.network.run_for(DURATION)
    assert sender.stats.complete_ns is not None
    (record,) = tenant_senders(topo.network)["red"]
    assert isinstance(record, FinishedFlow)
    assert record.stats is sender.stats
    assert record.flow_bytes == sender.flow_bytes == 20_000
    assert record.tenant == sender.tenant == "red"
    assert record.flow_key == sender.flow_key
    s, d, sport, dport = sender.flow_key
    assert src._connections[(d, s, dport, sport)] is FINISHED_SINK
    receiver = dst._connections[sender.flow_key]
    assert receiver is sender.receiver
    assert receiver.tenant == "red"


def test_single_tenant_jain_is_one():
    topo = make_topo()
    concurrent_flows(topo.hosts[:2], topo.hosts[8], "tfc",
                     size_bytes=20_000, tenant="only")
    topo.network.run_for(DURATION)
    assert tenant_jain_index(topo.network, DURATION) == 1.0


def test_mixer_builds_in_order_and_reports_all_tenants():
    topo = make_topo()
    built = []

    def make_builder(hosts):
        def build(name, collector):
            built.append(name)
            return BenchmarkWorkload(
                hosts, "tfc", DURATION, query_rate_per_s=2000.0,
                query_fanin=3, seed_name=f"mix:{name}",
                collector=collector, tenant=name,
            )
        return build

    mixer = MultiTenantMixer(
        topo.network,
        [("search", make_builder(topo.hosts[:5])),
         ("batch", make_builder(topo.hosts[4:9]))],
    )
    assert built == ["search", "batch"]
    topo.network.run_for(4 * MILLISECOND)
    reports = mixer.reports(DURATION)
    assert [r.tenant for r in reports] == ["search", "batch"]
    assert all(r.flows > 0 for r in reports)
    assert all(r.goodput_bps > 0 for r in reports)
    assert all(r.fct_p99_us is not None for r in reports)
    assert 0.0 < mixer.jain_index(DURATION) <= 1.0
    # The shared collector slices by tenant tag.
    assert mixer.collector.completed(tenant="search") > 0
    assert mixer.collector.completed() == sum(
        mixer.collector.completed(tenant=name) for name in ("search", "batch")
    )


def test_mixer_rejects_duplicate_tenants():
    topo = make_topo()
    with pytest.raises(ValueError, match="duplicate tenant names"):
        MultiTenantMixer(
            topo.network,
            [("a", lambda n, c: None), ("a", lambda n, c: None)],
        )


def test_zero_flow_tenant_still_reported():
    topo = make_topo()
    mixer = MultiTenantMixer(topo.network, [("idle", lambda n, c: None)])
    topo.network.run_for(MILLISECOND)
    reports = mixer.reports(MILLISECOND)
    assert reports[0].tenant == "idle"
    assert reports[0].flows == 0
    assert reports[0].goodput_bps == 0.0
