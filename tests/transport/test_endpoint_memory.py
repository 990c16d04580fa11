"""Per-flow endpoint memory: slotted endpoints, shared handlers, timer names.

Every flow a run opens stays registered on its hosts after it finishes
(``Host._connections`` is the flow registry ``tenant_senders()`` reads),
so what one finished flow keeps alive is multiplied by the flow count of
a paper-scale figure (7,196 flows on the 360-host leaf-spine).  These
tests pin the compact layout: no endpoint carries an instance
``__dict__``, a completed two-KB flow keeps a bounded number of bytes,
and the FCT collector hands every flow of a category the same callback.
"""

import gc
import tracemalloc

import pytest

from repro.experiments.common import build_topology
from repro.metrics.fct import FctCollector
from repro.net.topology import dumbbell
from repro.sim.units import microseconds, milliseconds
from repro.transport.registry import open_flow, registered_protocols

PROTOCOLS = registered_protocols()

#: Bytes one completed two-KB flow may keep alive.  Slotted endpoints keep
#: ~1.8-2.0 KB on CPython 3.11; dict-backed ones keep ~3.5-3.7 KB.  The
#: headroom covers other CPython versions' object layouts.
MAX_BYTES_PER_FLOW = 3_000

FLOWS = 1_000
FLOW_BYTES = 2_000
SPACING_NS = microseconds(20)


def _topo(protocol):
    return build_topology(dumbbell, protocol, buffer_bytes=256_000, n_senders=8)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_endpoints_have_no_instance_dict(protocol):
    topo = _topo(protocol)
    sender = open_flow(topo.hosts[0], topo.hosts[-1], protocol, size_bytes=FLOW_BYTES)
    for endpoint in (sender, sender.receiver, sender.stats):
        assert not hasattr(endpoint, "__dict__"), type(endpoint).__name__


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_completed_flow_keeps_bounded_memory(protocol):
    topo = _topo(protocol)
    net, dst, srcs = topo.network, topo.hosts[-1], topo.hosts[:-1]
    senders = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(FLOWS):
            senders.append(
                open_flow(
                    srcs[i % len(srcs)], dst, protocol,
                    size_bytes=FLOW_BYTES, start_ns=i * SPACING_NS,
                )
            )
        net.run_for(FLOWS * SPACING_NS + milliseconds(50))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    completed = sum(s.stats.complete_ns is not None for s in senders)
    assert completed == FLOWS
    assert kept / completed < MAX_BYTES_PER_FLOW, f"{kept / completed:.0f} B per flow"


def test_completion_handler_is_shared_per_category_and_tenant():
    collector = FctCollector()
    query = collector.completion_handler("query")
    assert collector.completion_handler("query") is query
    assert collector.completion_handler("query", "red") is collector.completion_handler(
        "query", "red"
    )
    others = {
        id(query),
        id(collector.completion_handler("background")),
        id(collector.completion_handler("query", "red")),
        id(collector.completion_handler("query", "blue")),
    }
    assert len(others) == 4
    assert FctCollector().completion_handler("query") is not query


def test_shared_completion_handler_writes_each_flows_record():
    topo = _topo("tfc")
    collector = FctCollector()
    flows = [
        open_flow(
            topo.hosts[i], topo.hosts[-1], "tfc", size_bytes=size,
            on_complete=collector.completion_handler(category, tenant),
            tenant=tag,
        )
        for i, (size, category, tenant, tag) in enumerate(
            [
                (3_000, "query", None, None),
                (5_000, "query", None, "blue"),
                (7_000, "background", "red", "blue"),
                (9_000, "query", None, None),
            ]
        )
    ]
    collector.expect(len(flows))
    topo.network.run_for(milliseconds(10))
    assert collector.pending == 0
    records = sorted(
        (r.size_bytes, r.category, r.tenant, r.fct_ns, r.timeouts)
        for r in collector.records
    )
    assert records == [
        (3_000, "query", None, flows[0].stats.fct_ns, 0),
        (5_000, "query", "blue", flows[1].stats.fct_ns, 0),
        (7_000, "background", "red", flows[2].stats.fct_ns, 0),
        (9_000, "query", None, flows[3].stats.fct_ns, 0),
    ]


@pytest.mark.parametrize("protocol", ["tfc", "tcp", "tracks"])
def test_timer_repr_names_the_flow(protocol):
    topo = _topo(protocol)
    sender = open_flow(topo.hosts[0], topo.hosts[-1], protocol, size_bytes=FLOW_BYTES)
    timers = [sender._rto_timer]
    if protocol == "tfc":
        timers.append(sender._probe_timer)
    if protocol == "tracks":
        timers.append(sender.receiver._tail_timer)
    for timer in timers:
        text = repr(timer)
        assert timer.name in text
        assert str(sender.flow_key) in text
    assert sender._rto_timer.name == "rto"
