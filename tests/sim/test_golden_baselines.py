"""Golden determinism for the related-work baseline transports.

Same contract as :mod:`tests.sim.test_golden_determinism`, extended to
the four baselines DESIGN.md §6k adds (bfc, tbtcp, tracks, fairq): the
constants below were captured once and must stay bit-identical.  If a
change here is intentional, recapture the constants and say so in the
commit — never loosen the assertions.

The scenario is a contended 4-sender dumbbell with four equal 400 KB
flows started together, long enough for every flow to finish.  Each
transport leaves its own signature in the constants:

* **bfc** — zero drops, matched pause/resume counts (per-flow
  backpressure absorbs the burst without loss);
* **tbtcp** — a handful of drops against its tiny shared buffer,
  recovered by fast retransmit;
* **tracks** — the most drops (plain NewReno against a deep buffer)
  with the receiver's tail timer keeping RTOs to a minimum;
* **fairq** — zero drops, selective marks keep the queue short of the
  ECN threshold.

The same scenario also pins the paper's own transport and the two classic
baselines it is measured against (``REFERENCE``): **tfc** (zero drops, one
delimiter election), **tcp** (drop-tail losses recovered mostly by fast
retransmit) and **dctcp** (zero drops, ECN keeps the queue short).  Every
constant must also hold on the compiled-core group drain.
"""

import hashlib
import json

import pytest

from repro.experiments.common import build_topology
from repro.net.topology import dumbbell
from repro.sim.units import seconds
from repro.transport.registry import open_flow

#: protocol -> (events_processed, complete_ns per flow, total drops,
#:              tracer counters, port-state digest)
GOLDEN = {
    "bfc": (
        11312,
        [13_463_339, 13_508_093, 13_486_423, 13_499_030],
        0,
        {
            "bfc.pause": 136,
            "bfc.resume": 136,
            "transport.flow_complete": 4,
        },
        "442b6065a3f5ca5a",
    ),
    "tbtcp": (
        11105,
        [13_500_980, 13_041_066, 20_868_165, 11_852_358],
        32,
        {
            "net.packet_drop": 32,
            "transport.fast_retransmit": 10,
            "transport.flow_complete": 4,
            "transport.rto": 1,
        },
        "71bc3433b519678b",
    ),
    "tracks": (
        12047,
        [17_637_947, 10_842_582, 13_429_407, 14_669_633],
        187,
        {
            "net.packet_drop": 187,
            "transport.fast_retransmit": 7,
            "transport.flow_complete": 4,
            "transport.rto": 1,
        },
        "76946fc7956ae7b6",
    ),
    "fairq": (
        11040,
        [13_012_681, 12_806_412, 13_254_480, 13_601_566],
        0,
        {"transport.flow_complete": 4},
        "a3030085d89716da",
    ),
}

#: The paper's transport and its classic baselines, same layout as GOLDEN.
REFERENCE = {
    "tfc": (
        11080,
        [13_863_762, 13_932_373, 13_877_062, 13_891_199],
        0,
        {
            "tfc.delimiter_elected": 1,
            "tfc.window_update": 99,
            "transport.flow_complete": 4,
        },
        "990623089cdd7de1",
    ),
    "tcp": (
        11935,
        [17_639_642, 10_842_582, 13_429_407, 14_669_633],
        187,
        {
            "net.packet_drop": 187,
            "transport.fast_retransmit": 7,
            "transport.flow_complete": 4,
            "transport.rto": 1,
        },
        "a2b54622f6ffa2ed",
    ),
    "dctcp": (
        11040,
        [13_363_215, 13_098_243, 13_061_089, 13_528_256],
        0,
        {"transport.flow_complete": 4},
        "9a05569426f0f909",
    ),
}

PINNED = {**GOLDEN, **REFERENCE}


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


def _run_and_check(protocol):
    events, complete_ns, drops, counters, digest = PINNED[protocol]
    topo = build_topology(
        dumbbell, protocol, buffer_bytes=256_000, n_senders=4, seed=1
    )
    senders = [
        open_flow(topo.host(i), topo.host(4), protocol, size_bytes=400_000)
        for i in range(4)
    ]
    topo.network.run_for(seconds(0.05))
    net = topo.network

    assert net.sim.events_processed == events
    assert net.sim.now == 50_000_000
    assert [s.stats.bytes_acked for s in senders] == [400_000] * 4
    assert [s.stats.complete_ns for s in senders] == complete_ns
    assert net.total_drops() == drops
    assert dict(sorted(net.tracer.counters.items())) == counters
    assert _digest(_port_state(net)) == digest
    return net


@pytest.mark.parametrize("protocol", sorted(PINNED))
def test_golden_baseline_dumbbell(protocol):
    _run_and_check(protocol)


@pytest.mark.parametrize("protocol", sorted(PINNED))
def test_golden_baseline_compiled_core_bit_identical(monkeypatch, protocol):
    """``REPRO_COMPILED=on`` pops each same-time group in one core call;
    every transport's constants hold on that path too."""
    monkeypatch.setenv("REPRO_COMPILED", "on")
    net = _run_and_check(protocol)
    assert net.sim._core is not None


def test_golden_bfc_composes_with_pfc_fabric(monkeypatch):
    """``REPRO_LOSSLESS=pfc`` layers a PFC fabric over the BFC one: BFC's
    per-flow pauses keep every queue far below the PFC XOFF default, so
    no PFC pause frame is ever emitted and the golden constants hold
    bit-identically through the wrapped port agents."""
    monkeypatch.setenv("REPRO_LOSSLESS", "pfc")
    net = _run_and_check("bfc")
    assert net.lossless is not None
    assert net.lossless.pause_frames == 0
    assert net.bfc.pause_frames == 136
