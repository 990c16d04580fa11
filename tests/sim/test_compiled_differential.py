"""Differential fuzz: the compiled-core group drain vs. the inlined loop.

``REPRO_COMPILED=on`` makes :meth:`Simulator.run` pop each same-time
group in one :mod:`repro.sim.core` call and dispatch it from a list (the
interpreted module when the extension is not built).  DESIGN.md promises
the same dispatches, at the same times, in the same order, with the same
public state as the inlined per-event loop.  The golden suite pins a
handful of blessed scenarios; these tests attack the claim instead:

* **engine level** — randomized schedule/cancel storms with heavy
  same-nanosecond collisions, where callbacks cancel events that are
  already popped into the group being dispatched;
* **network level** — the interactions a popped group must survive: a
  PFC XOFF, a loss model eating frames, ``link_down(reroute=True)``
  cutting a port mid-frame, and a rate change mid-frame.

Every scenario runs on both paths and must produce an identical
dispatch/delivery log and identical end state.
"""

import random

import pytest

from repro.config import SimConfig
from repro.experiments.common import build_topology
from repro.faults import FaultInjector
from repro.net.node import Node
from repro.net.pfc import PfcParams
from repro.net.queues import BernoulliLoss
from repro.net.topology import dumbbell, fat_tree
from repro.sim.engine import Simulator
from repro.sim.units import milliseconds, seconds
from repro.transport.registry import open_flow

#: ``REPRO_COMPILED`` values of the two ``run()`` paths.
PATHS = ("on", "off")


# ----------------------------------------------------------------------
# Engine level: random cancel-inside-the-group storms
# ----------------------------------------------------------------------
def _storm(compiled: str, seed: int):
    """A randomized event storm with same-time pile-ups and cancellations.

    Callbacks log ``(now, ident)``, randomly cancel other *pending*
    events — including ones sharing their own timestamp, i.e. members of
    the group currently being dispatched — and randomly schedule more
    work at coarse times so collisions stay frequent.  Cancels pick from
    the live handles keyed by ident: a fired handle is recycled into a
    later event, so a retained one must never be cancelled.
    """
    sim = Simulator(config=SimConfig(compiled=compiled))
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
    return log, processed, sim.now, sim.pending_events, sim.peek_time()


@pytest.mark.parametrize("seed", range(8))
def test_cancel_inside_a_group_storm_is_order_identical(seed):
    grouped = _storm("on", seed)
    serial = _storm("off", seed)
    assert grouped == serial
    assert len(grouped[0]) > 50  # the storm actually stormed


def test_group_drain_respects_the_run_horizon():
    """A group must not leak past ``until_ns``: events at a timestamp
    beyond the horizon stay queued, exactly as on the per-event loop."""

    def run(compiled: str):
        sim = Simulator(config=SimConfig(compiled=compiled))
        log = []
        for ident in range(10):
            sim.schedule(100, log.append, ident)
        sim.run(until_ns=50)
        mid = list(log)
        sim.run(until_ns=200)
        return mid, log, sim.now

    assert run("on") == run("off")


# ----------------------------------------------------------------------
# Network level: a popped group under mid-flight interference
# ----------------------------------------------------------------------
def _install_delivery_log(monkeypatch):
    """Patch Node.receive (once) to log arrivals into a swappable list."""
    original = Node.receive
    sink = []

    def logged(self, packet, port_index):
        sink.append((self.sim._now, self.node_id, port_index, packet.size))
        return original(self, packet, port_index)

    monkeypatch.setattr(Node, "receive", logged)

    def fresh_log():
        nonlocal sink
        sink = []
        return sink

    return fresh_log


def _state(net):
    rows = []
    for node in net.nodes:
        for port in node.ports:
            queue = port.queue
            rows.append(
                (
                    node.name,
                    port.index,
                    port.tx_packets,
                    port.tx_bytes,
                    port.link.faulted_frames,
                    queue.byte_length,
                    queue.drops,
                    queue.enqueues,
                    queue.max_bytes_seen,
                )
            )
    return rows


def _differential(monkeypatch, scenario):
    """Run ``scenario`` on both ``run()`` paths, return both observations."""
    results = []
    fresh_log = _install_delivery_log(monkeypatch)
    for compiled in PATHS:
        monkeypatch.setenv("REPRO_COMPILED", compiled)
        log = fresh_log()
        net = scenario()
        assert (net.sim._core is not None) == (compiled == "on")
        results.append(
            (
                log,
                net.sim.events_processed,
                net.sim.now,
                dict(sorted(net.tracer.counters.items())),
                _state(net),
                [n.rx_bytes for n in net.nodes],
            )
        )
    return results


def test_pfc_xoff_is_bit_identical(monkeypatch):
    """Tight PFC watermarks pause host NICs with frames queued behind
    the one on the wire."""

    def scenario():
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

    grouped, serial = _differential(monkeypatch, scenario)
    assert grouped == serial


def test_loss_model_drops_are_bit_identical(monkeypatch):
    """A Bernoulli loss model armed mid-run eats arrivals; the RNG draw
    order (one draw per enqueue) must be unchanged."""

    def scenario():
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
        port = topo.host(0).ports[0]
        assert port.queue.faulted_drops > 0  # the fault actually bit
        return topo.network

    grouped, serial = _differential(monkeypatch, scenario)
    assert grouped == serial


def test_link_down_reroute_is_bit_identical(monkeypatch):
    """``link_down(reroute=True)`` on a multi-path fabric cuts a cable
    with frames on the wire and rebuilds every route."""

    def scenario():
        topo = build_topology(
            fat_tree, "tcp", buffer_bytes=256_000, k=4, seed=3, routing="ecmp"
        )
        injector = FaultInjector(topo.network)
        # Cut an aggregation uplink both ways, restore later.
        uplink = topo.switches[0].ports[2]
        injector.link_down(
            uplink,
            at_ns=milliseconds(1),
            duration_ns=milliseconds(5),
            reroute=True,
        )
        for i in range(4):
            open_flow(
                topo.hosts[i], topo.hosts[8 + i], "tcp", awnd_bytes=200_000
            )
        topo.network.run_for(milliseconds(15))
        assert topo.network.route_rebuilds >= 2
        return topo.network

    grouped, serial = _differential(monkeypatch, scenario)
    assert grouped == serial


def test_rate_change_is_bit_identical(monkeypatch):
    """``degrade_link`` rewrites the effective rate mid-run on every
    sender's link, then restores it."""

    def scenario():
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

    grouped, serial = _differential(monkeypatch, scenario)
    assert grouped == serial


def test_tfc_long_run_is_bit_identical(monkeypatch):
    """The paper's own transport, long enough for thousands of slots."""

    def scenario():
        topo = build_topology(
            dumbbell, "tfc", buffer_bytes=256_000, n_senders=4, seed=1
        )
        for i in range(4):
            open_flow(topo.host(i), topo.host(4), "tfc")
        topo.network.run_for(seconds(0.05))
        return topo.network

    grouped, serial = _differential(monkeypatch, scenario)
    assert grouped == serial
