"""Golden determinism: the kernel fast path must not change *any* result.

These values were captured at the pre-fast-path seed commit (e2ee257) and
must stay bit-identical forever: every optimisation to the event kernel,
ports, queues, or tracer has to preserve event counts, schedule ordering
and RNG draw sequences exactly.  If a change here is intentional (a new
feature that genuinely alters the simulation), recapture the constants and
say so in the commit — never loosen the assertions.

Two scenarios cover the two regimes:

* a 4-flow TFC dumbbell (steady-state congestion control machinery), and
* one Fig. 13 testbed benchmark cell (stochastic workload generation,
  handshakes, FCT accounting, timer churn).

Bulky structures (per-port state, FCT records) are pinned via sha256 of
their canonical-JSON form; scalars are pinned directly so a mismatch
shows a readable diff for the most informative fields.
"""

import hashlib
import json

import pytest

from repro.experiments.common import build_topology
from repro.metrics.fct import FctCollector
from repro.net.topology import dumbbell, fat_tree
from repro.net.topology import testbed as build_testbed
from repro.sim.units import seconds
from repro.transport.registry import open_flow
from repro.workloads.empirical import BenchmarkWorkload


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _port_state(network):
    rows = []
    for node in network.nodes:
        for port in node.ports:
            queue = port.queue
            rows.append(
                [
                    node.name,
                    port.index,
                    port.tx_packets,
                    port.tx_bytes,
                    queue.byte_length,
                    queue.packet_length,
                    queue.drops,
                    queue.enqueues,
                    queue.max_bytes_seen,
                ]
            )
    return rows


def test_golden_dumbbell_tfc():
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=4, seed=1
    )
    senders = [open_flow(topo.host(i), topo.host(4), "tfc") for i in range(4)]
    topo.network.run_for(seconds(0.1))
    net = topo.network

    assert net.sim.events_processed == 79280
    assert net.sim.now == 100_000_000
    assert dict(sorted(net.tracer.counters.items())) == {
        "tfc.delimiter_elected": 1,
        "tfc.window_update": 731,
    }
    assert [s.stats.bytes_acked for s in senders] == [
        2_889_340,
        2_887_880,
        2_892_260,
        2_887_880,
    ]
    assert [n.rx_bytes for n in net.nodes] == [
        12_537_926,
        126_784,
        126_720,
        126_912,
        126_720,
        12_023_072,
    ]
    assert _digest(_port_state(net)) == "4b5cbc0840abe309"


def test_golden_fig13_benchmark_cell():
    topo = build_topology(build_testbed, "tfc", buffer_bytes=256_000, seed=0)
    collector = FctCollector()
    workload = BenchmarkWorkload(
        topo.hosts,
        "tfc",
        duration_ns=seconds(0.25),
        query_rate_per_s=200.0,
        query_fanin=6,
        short_rate_per_s=30.0,
        background_rate_per_s=30.0,
        min_rto_ns=200_000_000,
        seed_name="benchmark:testbed:0",
        collector=collector,
    )
    topo.network.run_for(seconds(0.5))
    net = topo.network

    assert net.sim.events_processed == 57510
    assert net.sim.now == 500_000_000
    assert workload.flows_launched == 373
    assert collector.completed() == 373
    assert net.total_drops() == 0
    assert dict(sorted(net.tracer.counters.items())) == {
        "tfc.ack_delayed": 37,
        "tfc.delimiter_elected": 338,
        "tfc.window_update": 1014,
        "transport.flow_complete": 373,
    }
    records = sorted(
        (r.category, r.size_bytes, r.fct_ns, r.timeouts)
        for r in collector.records
    )
    assert _digest([list(r) for r in records]) == "143d85e14736aa91"
    assert _digest(_port_state(net)) == "3255488c8e6eca49"


@pytest.mark.parametrize("mode", ["counters", "slots", "full"])
def test_golden_dumbbell_telemetry_bit_identical(monkeypatch, mode):
    """Attaching telemetry (any mode) changes *nothing*: the recorders
    are purely trace-subscription-driven — no scheduled events, no RNG
    draws, no emissions of their own — so every golden constant holds
    with telemetry on, and the slot recorder sees exactly one row per
    ``tfc.window_update`` emission."""
    from repro.obs import drain_pending

    monkeypatch.setenv("REPRO_TELEMETRY", mode)
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=4, seed=1
    )
    session = topo.network.telemetry
    assert session is not None and session.mode == mode
    senders = [open_flow(topo.host(i), topo.host(4), "tfc") for i in range(4)]
    topo.network.run_for(seconds(0.1))
    net = topo.network

    assert net.sim.events_processed == 79280
    assert net.sim.now == 100_000_000
    assert dict(sorted(net.tracer.counters.items())) == {
        "tfc.delimiter_elected": 1,
        "tfc.window_update": 731,
    }
    assert [s.stats.bytes_acked for s in senders] == [
        2_889_340,
        2_887_880,
        2_892_260,
        2_887_880,
    ]
    assert _digest(_port_state(net)) == "4b5cbc0840abe309"
    if mode in ("slots", "full"):
        assert session.slots.total_rows == 731
    if mode == "full":
        assert any(
            r["topic"] == "tfc.delimiter_elected"
            for r in session.flight.snapshot()
        )
    drain_pending()


def test_golden_fig13_with_full_telemetry(monkeypatch):
    """The stochastic-workload golden cell is bit-identical with the full
    telemetry stack attached."""
    from repro.obs import drain_pending

    monkeypatch.setenv("REPRO_TELEMETRY", "full")
    topo = build_topology(build_testbed, "tfc", buffer_bytes=256_000, seed=0)
    session = topo.network.telemetry
    assert session is not None
    collector = FctCollector()
    workload = BenchmarkWorkload(
        topo.hosts,
        "tfc",
        duration_ns=seconds(0.25),
        query_rate_per_s=200.0,
        query_fanin=6,
        short_rate_per_s=30.0,
        background_rate_per_s=30.0,
        min_rto_ns=200_000_000,
        seed_name="benchmark:testbed:0",
        collector=collector,
    )
    topo.network.run_for(seconds(0.5))
    net = topo.network

    assert net.sim.events_processed == 57510
    assert workload.flows_launched == 373
    assert collector.completed() == 373
    assert dict(sorted(net.tracer.counters.items())) == {
        "tfc.ack_delayed": 37,
        "tfc.delimiter_elected": 338,
        "tfc.window_update": 1014,
        "transport.flow_complete": 373,
    }
    records = sorted(
        (r.category, r.size_bytes, r.fct_ns, r.timeouts)
        for r in collector.records
    )
    assert _digest([list(r) for r in records]) == "143d85e14736aa91"
    assert _digest(_port_state(net)) == "3255488c8e6eca49"
    assert session.slots.total_rows == 1014
    drain_pending()


@pytest.mark.parametrize("mode", ["counters", "full"])
@pytest.mark.parametrize("lossless", ["off", "pfc"])
def test_golden_dumbbell_lossless_bit_identical(monkeypatch, lossless, mode):
    """``REPRO_LOSSLESS=pfc`` changes *nothing* on a TFC dumbbell: the
    fabric's buffer-scaled XOFF default sits far above what TFC's token
    admission ever queues, so no pause frame is emitted, no extra events
    are scheduled, and every golden constant holds — with or without the
    telemetry stack watching the fabric."""
    from repro.obs import drain_pending

    monkeypatch.setenv("REPRO_LOSSLESS", lossless)
    monkeypatch.setenv("REPRO_TELEMETRY", mode)
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=4, seed=1
    )
    net = topo.network
    if lossless == "pfc":
        assert net.lossless is not None
    else:
        assert net.lossless is None
    senders = [open_flow(topo.host(i), topo.host(4), "tfc") for i in range(4)]
    net.run_for(seconds(0.1))

    assert net.sim.events_processed == 79280
    assert net.sim.now == 100_000_000
    assert dict(sorted(net.tracer.counters.items())) == {
        "tfc.delimiter_elected": 1,
        "tfc.window_update": 731,
    }
    assert [s.stats.bytes_acked for s in senders] == [
        2_889_340,
        2_887_880,
        2_892_260,
        2_887_880,
    ]
    assert _digest(_port_state(net)) == "4b5cbc0840abe309"
    if lossless == "pfc":
        assert net.lossless.pause_frames == 0
        assert net.lossless.resume_frames == 0
        assert net.lossless.headroom_overflows == 0
    drain_pending()


def test_golden_dumbbell_ignores_stale_kernel_env(monkeypatch):
    """``REPRO_SCHEDULER`` once chose an event-queue backend,
    ``REPRO_BATCH`` once toggled hot-loop batching, ``REPRO_COMPILED``
    once routed ``run()`` through a compiled core and ``REPRO_SHARDS``
    once split a fat tree across processes; nothing reads any of them
    any more, so values left in a shell or CI config change no golden
    constant."""
    monkeypatch.setenv("REPRO_SCHEDULER", "calendar")
    monkeypatch.setenv("REPRO_BATCH", "off")
    monkeypatch.setenv("REPRO_COMPILED", "on")
    monkeypatch.setenv("REPRO_SHARDS", "2")
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=4, seed=1
    )
    senders = [open_flow(topo.host(i), topo.host(4), "tfc") for i in range(4)]
    topo.network.run_for(seconds(0.1))
    net = topo.network

    assert net.sim.events_processed == 79280
    assert net.sim.now == 100_000_000
    assert dict(sorted(net.tracer.counters.items())) == {
        "tfc.delimiter_elected": 1,
        "tfc.window_update": 731,
    }
    assert [s.stats.bytes_acked for s in senders] == [
        2_889_340,
        2_887_880,
        2_892_260,
        2_887_880,
    ]
    assert _digest(_port_state(net)) == "4b5cbc0840abe309"


@pytest.mark.parametrize("policy", ["single", "ecmp", "flowlet", "spray"])
def test_golden_dumbbell_every_routing_policy(monkeypatch, policy):
    """The golden dumbbell constants hold bit-identically under every
    routing policy (selected via ``REPRO_ROUTING``, as the CI shard
    does): with a single equal-cost candidate everywhere, each policy
    must degenerate to the elected next hop."""
    monkeypatch.setenv("REPRO_ROUTING", policy)
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=4, seed=1
    )
    net = topo.network
    assert net.routing.name == policy
    # The default policy stays detached from the datapath entirely.
    if policy == "single":
        assert all(switch.routing is None for switch in topo.switches)
    senders = [open_flow(topo.host(i), topo.host(4), "tfc") for i in range(4)]
    net.run_for(seconds(0.1))

    assert net.sim.events_processed == 79280
    assert net.sim.now == 100_000_000
    assert [s.stats.bytes_acked for s in senders] == [
        2_889_340,
        2_887_880,
        2_892_260,
        2_887_880,
    ]
    assert _digest(_port_state(net)) == "4b5cbc0840abe309"


@pytest.mark.parametrize("policy", ["ecmp", "flowlet", "spray"])
def test_fat_tree_policies_self_identical(policy):
    """Two same-seed runs of a genuinely multi-path fabric make the same
    path choices: every policy draws only on the network seed (the
    determinism contract ``--jobs`` relies on)."""

    def run():
        topo = build_topology(
            fat_tree,
            "tfc",
            buffer_bytes=256_000,
            k=4,
            seed=3,
            routing=policy,
        )
        senders = [
            open_flow(topo.hosts[i], topo.hosts[8 + i], "tfc")
            for i in range(4)
        ]
        topo.network.run_for(seconds(0.03))
        return (
            topo.network.sim.events_processed,
            [s.stats.bytes_acked for s in senders],
            _digest(_port_state(topo.network)),
        )

    assert run() == run()
