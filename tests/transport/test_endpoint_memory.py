"""Per-flow endpoint memory: released senders, slotted endpoints, shared
handlers, timer names.

What one finished flow keeps alive is multiplied by the flow count of a
paper-scale figure (7,196 flows on the 360-host leaf-spine).  A sender
that completes is released: its host keeps a slotted ``FinishedFlow``
record in its finished-flow ledger (``Host.finished_flows``, which
``tenant_senders()`` walks next to the live senders), re-binds the
sender's demux key to one inert sink, and the sender's timer cycles are
broken so reference counting frees it.  Receivers stay registered (they
still ACK late duplicates).  These tests pin the compact layout: no
endpoint carries an instance ``__dict__``, a completed two-KB flow keeps
a bounded number of bytes whether or not the caller holds its sender,
late packets to a released sender stay silent, and the FCT collector
hands every flow of a category the same callback.
"""

import gc
import tracemalloc

import pytest

from repro.experiments.common import build_topology
from repro.metrics.fct import FctCollector
from repro.net.topology import dumbbell
from repro.sim.units import microseconds, milliseconds
from repro.transport import base
from repro.transport.base import FINISHED_SINK, FinishedFlow, FlowState
from repro.transport.registry import open_flow, registered_protocols
from repro.transport.tracks import TracksReceiver

PROTOCOLS = registered_protocols()

#: Bytes one completed two-KB flow may keep alive while the caller holds
#: its sender.  Slotted endpoints keep ~1.6-1.8 KB on CPython 3.11;
#: dict-backed ones keep ~3.5-3.7 KB.  The headroom covers other CPython
#: versions' object layouts.
MAX_BYTES_PER_FLOW = 3_000

#: Bytes one completed two-KB flow may keep alive when nobody holds its
#: sender, counting cyclic garbage as kept.  A released sender leaves a
#: ``FinishedFlow`` record, its ``FlowStats``, its receiver and two demux
#: keys: 1,151-1,373 B on CPython 3.11 (1,207-1,429 B while every
#: receiver held its own empty out-of-order list).  The bound keeps the
#: same ~19 % headroom over the largest.  Keeping the sender registered,
#: or releasing it but leaving its timer cycles (freed only by the cyclic
#: GC), costs ~0.7 KB more per flow.
MAX_RELEASED_BYTES_PER_FLOW = 1_640

FLOWS = 1_000
FLOW_BYTES = 2_000
SPACING_NS = microseconds(20)


def _topo(protocol):
    return build_topology(dumbbell, protocol, buffer_bytes=256_000, n_senders=8)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_endpoints_have_no_instance_dict(protocol):
    topo = _topo(protocol)
    sender = open_flow(topo.hosts[0], topo.hosts[-1], protocol, size_bytes=FLOW_BYTES)
    for endpoint in (sender, sender.receiver, sender.stats, sender.rto):
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


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_released_flow_keeps_bounded_memory(protocol):
    # Flows opened the way generators open them: nobody keeps the sender.
    # The cyclic GC stays off and is never run, so a sender that only a
    # reference cycle keeps alive counts as kept.
    topo = _topo(protocol)
    net, dst, srcs = topo.network, topo.hosts[-1], topo.hosts[:-1]
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(FLOWS):
            open_flow(
                srcs[i % len(srcs)], dst, protocol,
                size_bytes=FLOW_BYTES, start_ns=i * SPACING_NS,
            )
        net.run_for(FLOWS * SPACING_NS + milliseconds(50))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    records = [r for host in srcs for r in host.finished_flows]
    completed = sum(r.stats.complete_ns is not None for r in records)
    assert completed == FLOWS
    assert kept / completed < MAX_RELEASED_BYTES_PER_FLOW, (
        f"{kept / completed:.0f} B per flow"
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_finished_record_matches_its_sender(protocol):
    topo = _topo(protocol)
    src, dst = topo.hosts[0], topo.hosts[-1]
    sender = open_flow(src, dst, protocol, size_bytes=FLOW_BYTES, tenant="red")
    assert src.finished_flows == []
    topo.network.run_for(milliseconds(10))
    assert sender.state is FlowState.DONE
    (record,) = src.finished_flows
    assert isinstance(record, FinishedFlow)
    assert not hasattr(record, "__dict__")
    assert record.stats is sender.stats
    assert record.flow_key == sender.flow_key
    assert record.flow_bytes == sender.flow_bytes == FLOW_BYTES
    assert record.tenant == sender.tenant == "red"
    s, d, sport, dport = sender.flow_key
    assert src._connections[(d, s, dport, sport)] is FINISHED_SINK
    assert dst._connections[sender.flow_key] is sender.receiver


def test_late_packets_to_released_senders_stay_silent(monkeypatch):
    # On a congested T-RACKs dumbbell a receiver's tail timer can fire
    # after its sender finished but before the FIN arrives: that dupack
    # train reaches a released sender.  It (and every other late ACK)
    # must land on the inert sink, not surface as an orphan packet.
    sunk = []
    monkeypatch.setattr(
        base._FinishedSink, "on_packet", lambda self, packet: sunk.append(packet)
    )
    senders = {}
    late_probes = []
    on_tail_timer = TracksReceiver._on_tail_timer

    def watched_tail_timer(receiver):
        sender = senders[receiver.flow_key]
        if sender.state is FlowState.DONE and not receiver.fin_seen:
            late_probes.append(receiver.flow_key)
        on_tail_timer(receiver)

    monkeypatch.setattr(TracksReceiver, "_on_tail_timer", watched_tail_timer)
    topo = build_topology(dumbbell, "tracks", buffer_bytes=32_000, n_senders=8)
    dst = topo.hosts[-1]
    for i in range(200):
        sender = open_flow(
            topo.hosts[i % 8], dst, "tracks", size_bytes=5_000,
            start_ns=i * microseconds(5),
        )
        senders[sender.flow_key] = sender
    topo.network.run_for(milliseconds(30))
    assert late_probes, "no tail-timer dupacks reached a finished sender"
    assert topo.network.tracer.count("host.orphan_packet") == 0
    assert sunk


@pytest.mark.parametrize("teardown", ["close", "abort"])
def test_teardown_after_completion_is_harmless(teardown):
    topo = _topo("tfc")
    dst = topo.hosts[-1]
    done = open_flow(topo.hosts[0], dst, "tfc", size_bytes=FLOW_BYTES)
    topo.network.run_for(milliseconds(5))
    assert done.state is FlowState.DONE
    other = open_flow(topo.hosts[1], dst, "tfc", size_bytes=50 * FLOW_BYTES)
    topo.network.run_for(microseconds(200))
    assert other.state is FlowState.ESTABLISHED
    getattr(done, teardown)()
    getattr(done, teardown)()
    assert done.state is FlowState.DONE
    assert done.stats.complete_ns is not None
    topo.network.run_for(milliseconds(10))
    assert other.state is FlowState.DONE
    assert other.stats.bytes_acked == 50 * FLOW_BYTES
    assert [r.stats for r in topo.hosts[0].finished_flows] == [done.stats]


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
