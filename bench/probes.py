"""Layer probes: direct timed loops over each layer's public functions.

Each probe returns one host-clock cost per operation and is reported as
the median of five samples of about 0.2 s each, on the reference-host
clock (``hostspeed.py``) like ``wall_s``.  They are per-layer metrics
only: a probe that moves without an end-to-end metric moving is not a
gain (README.md, "Predicted interactions").
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
from time import perf_counter
from typing import Callable, Dict

from hostspeed import SpeedMeter
from repro.core.delay import DelayArbiter
from repro.experiments.common import build_topology
from repro.metrics.fct import FctCollector, FctRecord
from repro.net.network import Network
from repro.net.packet import MSS, Packet
from repro.net.topology import dumbbell, leaf_spine, testbed
from repro.obs import drain_pending, install
from repro.scenario.loader import load_scenario_file
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MILLISECOND, microseconds, seconds
from repro.transport.registry import open_flow
from repro.workloads.empirical import BenchmarkWorkload
from workloads import SCENARIO_PATH

SAMPLES = 5


def _noop(*_args) -> None:
    pass


def _dispatch_ns(pending: int, events: int) -> float:
    """ns per ``schedule`` + dispatch with ``pending`` events held queued.

    The classic hold model: every event re-schedules itself, so the
    population stays at ``pending``.  One delay in 16 is a timer-like
    1-200 ms, the rest are packet-like 1-20 us, so — as in a real run —
    most of what is *queued* is far away while most of what *fires* is
    near.  ``run`` is called for 10 ms at a time, as the workloads call it,
    so the default ``adaptive`` backend is on the calendar queue at both
    populations (README.md, finding 2).
    """
    sim = Simulator()
    rng = random.Random(1)
    delays = itertools.cycle(
        [
            rng.randrange(1_000_000, 200_000_000)
            if rng.random() < 1 / 16
            else rng.randrange(1_000, 20_000)
            for _ in range(4093)
        ]
    )
    schedule = sim.schedule

    def hop() -> None:
        schedule(next(delays), hop)

    def run_events(count: int) -> None:
        target = sim.events_processed + count
        while sim.events_processed < target:
            sim.run(until_ns=sim.now + 10 * MILLISECOND)

    for _ in range(pending):
        schedule(next(delays), hop)
    run_events(events // 10)  # warm-up
    before = sim.events_processed
    started = perf_counter()
    run_events(events)
    elapsed = perf_counter() - started
    return elapsed * 1e9 / (sim.events_processed - before)


def _rearm_ns(n: int) -> float:
    """ns per ``Event.cancel`` + re-``schedule`` (the RTO-timer pattern)."""
    sim = Simulator()
    event = sim.schedule(10 * MILLISECOND, _noop)
    started = perf_counter()
    for _ in range(n):
        event.cancel()
        event = sim.schedule(10 * MILLISECOND, _noop)
    sim.run()
    return (perf_counter() - started) * 1e9 / n


class _Sink:
    def on_packet(self, packet: Packet) -> None:
        pass


def _hop_ns(n: int) -> float:
    """ns per packet-hop: MTU frames host -> 2 switches -> host, DropTail."""
    net = Network(seed=0)
    src, dst = net.add_host("A"), net.add_host("B")
    s1, s2 = net.add_switch("S1"), net.add_switch("S2")
    for a, b in ((src, s1), (s1, s2), (s2, dst)):
        net.cable(a, b, 10 * GBPS, microseconds(1))
    net.build_routes()
    dst.register_connection((src.node_id, dst.node_id, 1, 2), _Sink())
    burst = 500  # fits the NIC queue; the network drains between bursts
    started = perf_counter()
    for _ in range(n // burst):
        for _ in range(burst):
            src.send(Packet(src.node_id, dst.node_id, 1, 2, payload=MSS))
        net.sim.run()
    elapsed = perf_counter() - started
    assert dst.rx_packets == n // burst * burst
    return elapsed * 1e9 / (dst.rx_packets * 3)


def _build_routes_ms() -> float:
    """ms to build the 18 x 20 leaf-spine (nodes, cables, BFS routes)."""
    started = perf_counter()
    leaf_spine()
    return (perf_counter() - started) * 1e3


def _on_transit_ns(rounds: int) -> float:
    """ns per ``TfcPortAgent.on_transit``, one RM per 16 data packets.

    Two flows share the port; the clock advances once per 32 packets so
    the delimiter's RM closes a real slot (token adjustment included).
    """
    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=2)
    agent = topo.bottleneck("main").agent
    sim = topo.network.sim
    dst = topo.hosts[-1].node_id
    batch = []
    for host in topo.hosts[:2]:
        for i in range(16):
            packet = Packet(host.node_id, dst, 1, 2, seq=i * MSS, payload=MSS)
            packet.rm = i == 0
            batch.append(packet)
    on_transit = agent.on_transit
    started = perf_counter()
    for _ in range(rounds):
        sim.run(until_ns=sim.now + 100_000)
        for packet in batch:
            on_transit(packet)
    return (perf_counter() - started) * 1e9 / (rounds * len(batch))


def _delay_offer_ns(rounds: int) -> float:
    """ns per ``DelayArbiter.offer`` of a sub-MSS window, release included.

    400 RMA ACKs arrive back to back (one incast slot), are parked, and
    are released at the line rate by the arbiter's own events.
    """
    sim = Simulator()
    arbiter = DelayArbiter(sim, 10 * GBPS, release=_noop)
    acks = []
    for i in range(400):
        ack = Packet(1, 2, 1, 2 + i, is_ack=True, rma=True)
        acks.append(ack)
    started = perf_counter()
    for _ in range(rounds):
        for ack in acks:
            ack.window = MSS / 4.0
            arbiter.offer(ack)
        sim.run()
    return (perf_counter() - started) * 1e9 / (rounds * len(acks))


def _short_flow_us(n: int) -> float:
    """us per 2 KB TFC flow, ``open_flow`` to completion (SYN..FIN)."""
    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=1)
    src, dst = topo.hosts
    done = []
    started = perf_counter()
    for _ in range(n):
        open_flow(src, dst, "tfc", size_bytes=2_000, on_complete=done.append)
        topo.network.run_for(MILLISECOND)
    elapsed = perf_counter() - started
    assert len(done) == n
    return elapsed * 1e6 / n


def _arrival_us() -> float:
    """us per arrival scheduled while constructing a ``BenchmarkWorkload``."""
    topo = testbed()
    gc.collect()
    started = perf_counter()
    BenchmarkWorkload(
        topo.hosts,
        "tfc",
        duration_ns=seconds(4.0),
        query_rate_per_s=2_000.0,
        query_fanin=4,
        short_rate_per_s=500.0,
        background_rate_per_s=300.0,
        seed_name="bench:probe:arrivals",
    )
    elapsed = perf_counter() - started
    return elapsed * 1e6 / topo.sim.pending_events


def _summary_ms(collector: FctCollector) -> float:
    """ms per ``FctCollector.tail_summary_us`` over 100 k records."""
    started = perf_counter()
    collector.tail_summary_us("query")
    return (perf_counter() - started) * 1e3


def _scenario_load_ms(n: int) -> float:
    """ms per ``load_scenario_file`` of the benchmark's own scenario."""
    started = perf_counter()
    for _ in range(n):
        load_scenario_file(SCENARIO_PATH)
    return (perf_counter() - started) * 1e3 / n


def _dumbbell_run_s(telemetry: str, flow_bytes: int) -> float:
    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=8)
    if telemetry != "off":
        install(topo.network, telemetry)
    for source in topo.hosts[:8]:
        open_flow(source, topo.hosts[-1], "tfc", size_bytes=flow_bytes)
    gc.collect()
    started = perf_counter()
    topo.network.run_for(seconds(1.0))
    elapsed = perf_counter() - started
    drain_pending()
    return elapsed


def _obs_full_overhead_x(flow_bytes: int) -> float:
    """Telemetry ``full`` / off wall ratio on an 8-flow TFC dumbbell."""
    off = _dumbbell_run_s("off", flow_bytes)
    return _dumbbell_run_s("full", flow_bytes) / off


def run_probes(scale: float = 1.0) -> Dict[str, float]:
    """Every probe, median of five; ``scale`` shrinks the loop counts."""

    def n(full: int) -> int:
        return max(int(full * scale), 1)

    records = FctCollector()
    rng = random.Random(2)
    records.records = [
        FctRecord("query", 2_000, rng.randrange(100_000, 20_000_000), 0)
        for _ in range(n(100_000))
    ]
    probes: Dict[str, Callable[[], float]] = {
        "probe.sim.dispatch_ns.p64": lambda: _dispatch_ns(64, n(150_000)),
        "probe.sim.dispatch_ns.p16k": lambda: _dispatch_ns(16_384, n(15_000)),
        "probe.sim.rearm_ns": lambda: _rearm_ns(n(150_000)),
        "probe.net.hop_ns": lambda: _hop_ns(max(n(15_000), 500)),
        "probe.net.build_routes_ms": _build_routes_ms,
        "probe.core.on_transit_ns": lambda: _on_transit_ns(n(4_000)),
        "probe.core.delay_offer_ns": lambda: _delay_offer_ns(n(80)),
        "probe.transport.short_flow_us": lambda: _short_flow_us(n(1_000)),
        "probe.workloads.arrival_us": _arrival_us,
        "probe.metrics.summary_ms": lambda: _summary_ms(records),
        "probe.scenario.load_ms": lambda: _scenario_load_ms(n(40)),
        "probe.obs.full_overhead_x": lambda: _obs_full_overhead_x(n(1_000_000)),
    }
    results = {}
    for name, probe in probes.items():
        samples = []
        for _ in range(SAMPLES):
            gc.collect()
            meter = SpeedMeter()
            started = perf_counter()
            value = probe()
            meter.add(perf_counter() - started)
            meter.flush()
            # A ratio of two host times needs no clock correction.
            speed = 1.0 if name.endswith("_x") else meter.reference_s / meter.raw_s
            samples.append(value * speed)
        results[name] = statistics.median(samples)
    return results
