"""Pinned whole-run constants for kernel-stressing scenarios.

Each scenario attacks the one ``run()`` loop where it is easiest to get
wrong, and pins what it observed: events executed, the final clock, the
tracer counters, and digests of the delivery log and the end state.

* **engine level** — randomized schedule/cancel storms with heavy
  same-nanosecond collisions, where callbacks cancel same-time siblings
  that have not run yet;
* **network level** — a PFC XOFF with frames queued behind the one on
  the wire, a loss model eating frames, ``link_down(reroute=True)``
  cutting a cable mid-frame, a rate change mid-frame, and a long TFC run.

The constants were captured at the commit that removed the second
``run()`` path, on the loop that remains.  Same contract as the golden
suite: if a change here is intentional, recapture the constants and say
so in the commit — never loosen the assertions.
"""

import hashlib
import json
import random

import pytest

from repro.experiments.common import build_topology
from repro.faults import FaultInjector
from repro.net.pfc import PfcParams
from repro.net.queues import BernoulliLoss
from repro.net.topology import dumbbell, fat_tree
from repro.sim.engine import Simulator
from repro.sim.units import milliseconds, seconds
from repro.transport.registry import open_flow
from tests.arrivals import frames_received, spy_arrivals


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


# ----------------------------------------------------------------------
# Engine level: random cancel-inside-an-instant storms
# ----------------------------------------------------------------------
#: seed -> (firings, events run, final clock, pending, peek, log digest)
STORMS = {
    0: (126, 126, 5000, 0, None, "87a1474982b6b0b8"),
    1: (115, 115, 5000, 0, None, "cd276d4c859974a6"),
    2: (127, 127, 5000, 0, None, "f9eed119fae41ce5"),
    3: (118, 118, 5000, 0, None, "c7baefce8964fec2"),
    4: (122, 122, 5000, 0, None, "83e68d18949a5634"),
    5: (119, 119, 5000, 0, None, "1c867c98c2fb4746"),
    6: (99, 99, 5000, 0, None, "7bba5531ceab37f8"),
    7: (107, 107, 5000, 0, None, "634df83d0bd24551"),
}


def _storm(seed: int):
    """A randomized event storm with same-time pile-ups and cancellations.

    Callbacks log ``(now, ident, pending_events)``, randomly cancel other
    *pending* events — including ones sharing their own timestamp — and
    randomly schedule more work at coarse times so collisions stay
    frequent.  Cancels pick from the live handles keyed by ident: a fired
    handle is recycled into a later event, so a retained one must never
    be cancelled.
    """
    sim = Simulator()
    rng = random.Random(seed)
    log = []
    live = {}
    idents = iter(range(1 << 30))

    def fire(ident: int) -> None:
        del live[ident]
        log.append((sim.now, ident, sim.pending_events))
        if live and rng.random() < 0.35:
            live.pop(rng.choice(sorted(live))).cancel()
        for _ in range(rng.randrange(3)):
            ident2 = next(idents)
            # Coarse 10 ns grid => many events share a timestamp.
            delay = rng.randrange(0, 8) * 10
            live[ident2] = sim.schedule(delay, fire, ident2)

    for _ in range(40):
        ident = next(idents)
        live[ident] = sim.schedule(rng.randrange(1, 5) * 10, fire, ident)
    processed = sim.run(until_ns=5_000)
    return (
        len(log),
        processed,
        sim.now,
        sim.pending_events,
        sim.peek_time(),
        _digest(log),
    )


@pytest.mark.parametrize("seed", sorted(STORMS))
def test_cancel_storm_is_pinned(seed):
    assert _storm(seed) == STORMS[seed]


# ----------------------------------------------------------------------
# Network level: one observation per scenario
# ----------------------------------------------------------------------
#: scenario -> (events, final clock, tracer counters, delivery-log
#:              digest, end-state digest)
NETWORK = {
    "link_down_reroute": (
        55606,
        15_000_000,
        {
            "fault.cleared": 1,
            "fault.injected": 1,
            "net.packet_drop": 182,
            "transport.fast_retransmit": 3,
        },
        "0111e55db397985f",
        "04054299391b73b5",
    ),
    "loss_model": (
        16456,
        20_000_000,
        {
            "fault.cleared": 1,
            "fault.injected": 1,
            "net.packet_drop": 186,
            "transport.fast_retransmit": 4,
            "transport.rto": 1,
        },
        "df119ef852f6bd01",
        "89db71afdff8a22b",
    ),
    "pfc_xoff": (
        16656,
        20_000_000,
        {"pfc.pause": 63, "pfc.resume": 60},
        "eaa81c41a47a0ad3",
        "e787c8e34cfaff81",
    ),
    "rate_change": (
        16716,
        20_000_000,
        {
            "fault.cleared": 4,
            "fault.injected": 4,
            "net.packet_drop": 58,
            "transport.fast_retransmit": 4,
        },
        "cea54ae6dbca6257",
        "7bc466dfed0f7545",
    ),
    "tfc_long_run": (
        39664,
        50_000_000,
        {"tfc.delimiter_elected": 1, "tfc.window_update": 364},
        "a528d79d213785a7",
        "5d10681a7921cd80",
    ),
}


@pytest.fixture
def delivery_log(monkeypatch):
    """Log every frame arrival ``(time, node, in-port, size)``."""
    log = []

    def record(node, packet, port_index):
        log.append((node.sim.now, node.node_id, port_index, packet.size))

    spy_arrivals(monkeypatch, record)
    return log


def _end_state(net):
    ports = [
        [
            node.name,
            port.index,
            port.tx_packets,
            port.tx_bytes,
            port.link.faulted_frames,
            port.queue.byte_length,
            port.queue.drops,
            port.queue.enqueues,
            port.queue.max_bytes_seen,
        ]
        for node in net.nodes
        for port in node.ports
    ]
    return [ports, [node.rx_bytes for node in net.nodes]]


def _observe(net, log):
    return (
        net.sim.events_processed,
        net.sim.now,
        dict(sorted(net.tracer.counters.items())),
        _digest(log),
        _digest(_end_state(net)),
    )


def _pfc_xoff():
    """Tight PFC watermarks pause host NICs with frames queued behind
    the one on the wire."""
    topo = build_topology(
        dumbbell,
        "tcp",
        buffer_bytes=256_000,
        n_senders=4,
        seed=1,
        pfc_params=PfcParams(
            xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000
        ),
    )
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "tcp", awnd_bytes=200_000)
    topo.network.run_for(milliseconds(20))
    assert topo.network.lossless.pause_frames > 0  # XOFF actually hit
    return topo.network


def _loss_model():
    """A Bernoulli loss model armed mid-run eats arrivals (one RNG draw
    per enqueue)."""
    topo = build_topology(
        dumbbell, "tcp", buffer_bytes=256_000, n_senders=4, seed=2
    )
    injector = FaultInjector(topo.network)
    stream = injector.seeds.stream("fuzz-loss")
    injector.inject_loss(
        topo.host(0).ports[0],
        BernoulliLoss(0.05, stream),
        at_ns=milliseconds(2),
        duration_ns=milliseconds(10),
    )
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "tcp", awnd_bytes=200_000)
    topo.network.run_for(milliseconds(20))
    assert topo.host(0).ports[0].queue.faulted_drops > 0  # the fault bit
    return topo.network


def _link_down_reroute():
    """``link_down(reroute=True)`` on a multi-path fabric cuts a cable
    with frames on the wire and rebuilds every route, twice."""
    topo = build_topology(
        fat_tree, "tcp", buffer_bytes=256_000, k=4, seed=3, routing="ecmp"
    )
    injector = FaultInjector(topo.network)
    injector.link_down(
        topo.switches[0].ports[2],  # an aggregation uplink, both ways
        at_ns=milliseconds(1),
        duration_ns=milliseconds(5),
        reroute=True,
    )
    for i in range(4):
        open_flow(topo.hosts[i], topo.hosts[8 + i], "tcp", awnd_bytes=200_000)
    topo.network.run_for(milliseconds(15))
    assert topo.network.route_rebuilds >= 2
    return topo.network


def _rate_change():
    """``degrade_link`` rewrites the effective rate mid-run on every
    sender's link, then restores it."""
    topo = build_topology(
        dumbbell, "tcp", buffer_bytes=256_000, n_senders=4, seed=4
    )
    injector = FaultInjector(topo.network)
    for host in topo.hosts[:4]:
        injector.degrade_link(
            host.ports[0],
            0.25,
            at_ns=milliseconds(3),
            duration_ns=milliseconds(6),
        )
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "tcp", awnd_bytes=200_000)
    topo.network.run_for(milliseconds(20))
    return topo.network


def _tfc_long_run():
    """The paper's own transport, long enough for thousands of slots."""
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=4, seed=1
    )
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "tfc")
    topo.network.run_for(seconds(0.05))
    return topo.network


SCENARIOS = {
    "pfc_xoff": _pfc_xoff,
    "loss_model": _loss_model,
    "link_down_reroute": _link_down_reroute,
    "rate_change": _rate_change,
    "tfc_long_run": _tfc_long_run,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_network_scenario_is_pinned(name, delivery_log, monkeypatch):
    # The constants describe the default fabric: an exported
    # REPRO_LOSSLESS=pfc legitimately changes TCP's drop-driven runs.
    monkeypatch.delenv("REPRO_LOSSLESS", raising=False)
    net = SCENARIOS[name]()
    assert len(delivery_log) == frames_received(net)
    assert _observe(net, delivery_log) == NETWORK[name]
