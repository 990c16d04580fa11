"""Tests for the three-class benchmark workload generator."""

import pytest

from repro.metrics.fct import FctCollector
from repro.net.topology import testbed as build_testbed
from repro.sim.units import seconds
from repro.transport.registry import get_protocol
from repro.workloads.empirical import BenchmarkWorkload


def make_topo():
    topo = build_testbed(queue_factory=get_protocol("tfc").port_queue_factory(256_000))
    get_protocol("tfc").install(topo.network)
    return topo


def test_generates_all_three_classes():
    topo = make_topo()
    collector = FctCollector()
    workload = BenchmarkWorkload(
        topo.hosts, "tfc", duration_ns=seconds(0.5),
        query_rate_per_s=100, query_fanin=4,
        short_rate_per_s=20, background_rate_per_s=20,
        collector=collector,
    )
    topo.network.run_for(seconds(1.5))
    assert workload.queries_launched > 10
    assert collector.completed("query") >= 4 * 10
    assert collector.completed("short") > 0
    assert collector.completed("background") > 0


def test_query_fanin_respected():
    topo = make_topo()
    collector = FctCollector()
    workload = BenchmarkWorkload(
        topo.hosts, "tfc", duration_ns=seconds(0.3),
        query_rate_per_s=50, query_fanin=5,
        short_rate_per_s=0, background_rate_per_s=0,
        collector=collector,
    )
    topo.network.run_for(seconds(1))
    assert collector.completed("query") == workload.queries_launched * 5
    # Every query response is the paper's 2 KB.
    assert all(r.size_bytes == 2_000 for r in collector.records)


def test_deterministic_with_same_seed_name():
    counts = []
    for _ in range(2):
        topo = make_topo()
        workload = BenchmarkWorkload(
            topo.hosts, "tfc", duration_ns=seconds(0.2),
            query_rate_per_s=100, query_fanin=3,
            seed_name="det-test",
        )
        topo.network.run_for(seconds(0.25))
        counts.append((workload.queries_launched, workload.flows_launched))
    assert counts[0] == counts[1]


def test_different_seed_names_give_different_schedules():
    sizes = []
    for name in ("s1", "s2"):
        topo = make_topo()
        collector = FctCollector()
        BenchmarkWorkload(
            topo.hosts, "tfc", duration_ns=seconds(0.3),
            query_rate_per_s=0, query_fanin=3,
            short_rate_per_s=0, background_rate_per_s=100,
            seed_name=name, collector=collector,
        )
        topo.network.run_for(seconds(0.4))
        sizes.append(sorted(r.size_bytes for r in collector.records))
    assert sizes[0] != sizes[1]  # different seeds, different flow sizes


def test_validates_arguments():
    topo = make_topo()
    with pytest.raises(ValueError):
        BenchmarkWorkload(topo.hosts[:2], "tfc", duration_ns=seconds(0.1))
    with pytest.raises(ValueError):
        BenchmarkWorkload(
            topo.hosts, "tfc", duration_ns=seconds(0.1),
            query_fanin=len(topo.hosts),
        )
