"""The four benchmark workloads (see README.md for why each is here).

Every workload is a closed, single-process simulation driven through the
library's public calls only.  A workload object lives for one run:

* ``setup()`` — everything before the first simulated nanosecond
  (scenario load, ``build_topology``, workload construction);
* ``run()`` — the simulation itself, advanced in 10 ms simulated chunks
  so the harness can sample ``sim.pending_events`` from outside and time
  each chunk against the host-speed meter (``hostspeed.py``);
* ``collect()`` — simulated-clock results and exact counts, read from
  public attributes, plus the workload's sanity checks.

The amount of offered work is frozen in :data:`PARAMS`.  ``--seed`` feeds
the *topology* seed (every host's processing-jitter stream, so every
packet timing moves); the arrival streams are frozen, because re-drawing
a Poisson(20) query count per seed swings ``wall_s`` by +-20 % — twice
its bound — and says nothing about the code under test.
``leafspine360-tfc`` freezes the topology seed too and lets ``--seed``
move only the query response size: see :class:`Leafspine360Tfc`.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Type

import repro.scenario.run as scenario_run
from hostspeed import SpeedMeter
from repro.experiments.common import BASELINE_PROTOCOLS, build_topology
from repro.metrics.fct import FctCollector
from repro.metrics.stats import jain_fairness, percentile
from repro.net.network import Network
from repro.net.pfc import protocol_agent
from repro.net.topology import dumbbell, leaf_spine
from repro.obs import drain_pending
from repro.scenario.loader import load_scenario_file
from repro.sim.trace import (
    BFC_PAUSE,
    FAST_RETRANSMIT,
    FLOW_COMPLETE,
    PFC_PAUSE,
    RETRANSMIT_TIMEOUT,
    TFC_DELIMITER_ELECTED,
    TFC_WINDOW_UPDATE,
)
from repro.sim.units import GBPS, MILLISECOND, seconds, to_microseconds
from repro.transport.registry import open_flow, registered_protocols
from repro.workloads.distributions import QUERY_RESPONSE_BYTES
from repro.workloads.empirical import BenchmarkWorkload
from repro.workloads.incast import IncastCoordinator
from repro.workloads.mixer import tenant_senders

SCENARIO_PATH = Path(__file__).resolve().parent / "scenarios" / "mix-fattree.yaml"

#: Simulated length of one ``run_for`` call.  Not free to choose: the
#: default ``adaptive`` scheduler migrates to the calendar queue after
#: 2048 ``schedule`` calls inside *one* ``run`` (its live-event count is
#: only settled when ``run`` returns), so 1 ms steps keep an 8-flow
#: dumbbell on the heap while any realistic call length does not.  10 ms
#: puts every workload where one long ``run_for`` would put it.
CHUNK_NS = 10 * MILLISECOND

#: Frozen workload parameters (recorded in every run manifest).  Fan-in,
#: host counts and topologies are the paper's; windows, rounds and flow
#: bytes were shortened until each run phase took about ``run_seconds``
#: (BENCHMARK.json) of host time at the commit that defined the benchmark,
#: which is what the driver's total-time cap leaves room for.  A run at
#: another ``scale`` than 1.0 multiplies exactly those shortened
#: quantities and compares with nothing.
PARAMS: Dict[str, Dict[str, object]] = {
    "incast400-tfc": {
        "n_senders": 400,
        "rate_bps": 10 * GBPS,
        "buffer_bytes": 512_000,
        "block_bytes": 128_000,
        "rounds": 3,
        "min_rto_ms": 10,
        "horizon_s": 5.0,
    },
    "leafspine360-tfc": {
        "buffer_bytes": 512_000,
        "window_s": 0.35,
        "drain_s": 0.3,
        "query_rate_per_s": 60.0,
        "query_fanin": 359,
        "short_rate_per_s": 20.0,
        "background_rate_per_s": 20.0,
        "min_rto_ms": 200,
        "topology_seed": 0,
        "query_response_bytes": 2_000,
        # Index 11 draws 20/8/8 query/short/background arrivals in 0.35 s
        # (nominal 21/7/7) and its first query lands in the first
        # millisecond, so even the smoke scale contains a full fan-in.
        "stream": "bench:leafspine360:11",
    },
    # Window, drain and all-reduce iterations live in the scenario file.
    "mix-fattree": {"scenario": "bench/scenarios/mix-fattree.yaml"},
    "baselines8-dumbbell": {
        "protocols": list(BASELINE_PROTOCOLS),
        "n_senders": 8,
        "flow_bytes": 6_000_000,
        "rate_bps": GBPS,
        "buffer_bytes": 256_000,
        "min_rto_ms": 10,
        "horizon_s": 5.0,
    },
}


class Workload:
    """One run of one workload; subclasses fill in the three phases."""

    name = ""
    #: TFC fabrics must finish without a single drop or RTO.
    tfc_clean = True

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.params = PARAMS[self.name]
        #: Every network the run touched, in build order.
        self.networks: List[Network] = []
        self.pending_max = 0
        #: Clock of the run phase; ``child.py`` installs it right before
        #: ``run()``.  Only time spent inside ``advance`` is on it.
        self.meter: SpeedMeter
        #: Run-phase seconds per transport cell; ``baselines8-dumbbell``
        #: fills them in, on the other workloads they stay 0.
        self.cell_run_s: Dict[str, float] = dict.fromkeys(BASELINE_PROTOCOLS, 0.0)

    # -- the three phases ------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def results(self, checks: List[str]) -> Dict[str, float]:
        """Workload-specific simulated results; append failed checks."""
        raise NotImplementedError

    def collect(self) -> Dict[str, object]:
        """Simulated results + exact counts + failed sanity checks."""
        checks: List[str] = []
        # Only the scenario workload runs an invariant monitor.
        sim = {"invariant_violations": 0, **self.results(checks), **self._counts()}
        if self.tfc_clean:
            if sim["drops"]:
                checks.append(f"{sim['drops']} drops on a TFC fabric")
            if sim["timeouts"]:
                checks.append(f"{sim['timeouts']} RTOs on a TFC fabric")
        if not 0 < sim["flows_completed"] <= sim["flows_launched"]:
            checks.append(
                f"{sim['flows_completed']} of {sim['flows_launched']} flows completed"
            )
        return {"sim": sim, "sanity_failures": checks}

    # -- helpers ---------------------------------------------------------
    def scaled(self, key: str) -> float:
        return self.params[key] * self.scale

    def advance(self, network: Network, duration_ns: int) -> None:
        """``run_for`` in timed chunks, sampling the pending-event population."""
        sim = network.sim
        end_ns = sim.now + duration_ns
        while sim.now < end_ns:
            started = perf_counter()
            Network.run_for(network, min(CHUNK_NS, end_ns - sim.now))
            self.meter.add(perf_counter() - started)
            if sim.pending_events > self.pending_max:
                self.pending_max = sim.pending_events

    def _counts(self) -> Dict[str, float]:
        nets = self.networks

        def traced(topic: str) -> int:
            return sum(net.tracer.count(topic) for net in nets)

        arbiters = [
            getattr(protocol_agent(port.agent), "delay_arbiter", None)
            for net in nets
            for switch in net.switches
            for port in switch.ports
        ]
        return {
            "sim_time_s": sum(net.sim.now for net in nets) / 1e9,
            "events": sum(net.sim.events_processed for net in nets),
            "pending_max": self.pending_max,
            "on_calendar": sum(
                net.sim.active_backend == "calendar" for net in nets
            ),
            "tx_packets": sum(
                port.tx_packets
                for net in nets for node in net.nodes for port in node.ports
            ),
            "drops": sum(net.total_drops() for net in nets),
            "pause_frames": traced(PFC_PAUSE) + traced(BFC_PAUSE),
            "slots": traced(TFC_WINDOW_UPDATE),
            "delimiter_elections": traced(TFC_DELIMITER_ELECTED),
            "delayed_acks": sum(a.delayed_acks for a in arbiters if a is not None),
            "timeouts": traced(RETRANSMIT_TIMEOUT),
            "fast_retransmits": traced(FAST_RETRANSMIT),
            "transport_flow_completions": traced(FLOW_COMPLETE),
        }


def _fct_summary(fcts_us: List[float]) -> Dict[str, float]:
    return {
        "fct_p50_us": percentile(fcts_us, 50),
        "fct_p99_us": percentile(fcts_us, 99),
        "fct_samples": len(fcts_us),
    }


class Incast400Tfc(Workload):
    name = "incast400-tfc"

    def setup(self) -> None:
        p = self.params
        topo = build_topology(
            dumbbell,
            "tfc",
            buffer_bytes=p["buffer_bytes"],
            n_senders=p["n_senders"],
            rate_bps=p["rate_bps"],
            seed=self.seed,
        )
        self.networks = [topo.network]
        self.block_bytes = max(int(self.scaled("block_bytes")), 1)
        self.coordinator = IncastCoordinator(
            topo.hosts[-1],
            topo.hosts[: p["n_senders"]],
            "tfc",
            block_bytes=self.block_bytes,
            rounds=p["rounds"],
            min_rto_ns=p["min_rto_ms"] * MILLISECOND,
        )
        self._acked = [0] * p["n_senders"]
        self._interval_jain: List[float] = []

    def run(self) -> None:
        network = self.networks[0]
        horizon = seconds(self.params["horizon_s"])
        while not self.coordinator.finished and network.sim.now < horizon:
            self.advance(network, CHUNK_NS)
            self._sample_shares()

    def _sample_shares(self) -> None:
        # Fairness among the 400 senders, from outside: Jain index over
        # the bytes each got acknowledged in the last simulated 10 ms.
        acked = [s.stats.bytes_acked for s in self.coordinator.senders]
        deltas = [now - before for now, before in zip(acked, self._acked)]
        self._acked = acked
        if any(deltas):
            self._interval_jain.append(jain_fairness(deltas))

    def results(self, checks: List[str]) -> Dict[str, float]:
        co = self.coordinator
        p = self.params
        expected = p["rounds"] * self.block_bytes
        completed = sum(
            s.stats.complete_ns is not None and s.stats.bytes_acked == expected
            for s in co.senders
        )
        if co.rounds_completed != p["rounds"]:
            checks.append(f"{co.rounds_completed} of {p['rounds']} rounds completed")
        if self.scale >= 1.0 and co.goodput_bps < 0.85 * p["rate_bps"]:
            checks.append(f"goodput {co.goodput_bps / 1e9:.2f} Gb/s < 0.85 x line rate")
        rounds_us = [to_microseconds(ns) for ns in co.round_durations_ns] or [0.0]
        jains = self._interval_jain or [0.0]
        return {
            "goodput_gbps": co.goodput_bps / 1e9,
            **_fct_summary(rounds_us),
            "jain": sum(jains) / len(jains),
            "flows_launched": len(co.senders),
            "flows_completed": completed,
        }


class Leafspine360Tfc(Workload):
    """Fig. 16.  The one workload whose packet timings ``--seed`` leaves alone.

    Each 359-way fan-in opens with hundreds of events at one instant; the
    default scheduler's calendar queue re-derives its bucket width from
    the 64 earliest events right then, and whether one stray packet event
    sits among them decides between a sane width and a 1 ns one (30-50 us
    per event until the next rebuild).  Any timing perturbation — a new
    jitter seed, one more ns of link delay — re-flips those ~20 coins and
    moves ``wall_s`` by +-15 %, well past its bound, at identical event
    counts.  So the jitter streams are frozen and ``--seed`` picks the
    query response size from 2000-2007 B: the same two packets per
    response and the same timings, but other byte counts and goodput.
    """

    name = "leafspine360-tfc"

    def setup(self) -> None:
        p = self.params
        topo = build_topology(
            leaf_spine, "tfc", buffer_bytes=p["buffer_bytes"], seed=p["topology_seed"]
        )
        self.networks = [topo.network]
        self.window_ns = seconds(self.scaled("window_s"))
        self.collector = FctCollector()
        self.workload = BenchmarkWorkload(
            topo.hosts,
            "tfc",
            duration_ns=self.window_ns,
            query_rate_per_s=p["query_rate_per_s"],
            query_fanin=p["query_fanin"],
            query_response_bytes=p["query_response_bytes"] + self.seed % 8,
            short_rate_per_s=p["short_rate_per_s"],
            background_rate_per_s=p["background_rate_per_s"],
            min_rto_ns=p["min_rto_ms"] * MILLISECOND,
            seed_name=p["stream"],
            collector=self.collector,
        )

    def run(self) -> None:
        drain_ns = seconds(self.params["drain_s"])
        self.advance(self.networks[0], self.window_ns + drain_ns)

    def results(self, checks: List[str]) -> Dict[str, float]:
        collector = self.collector
        launched = self.workload.flows_launched
        if collector.completed() != launched:
            checks.append(f"{collector.completed()} of {launched} flows completed")
        query_us = collector.fcts_us("query") or [0.0]
        payload = sum(record.size_bytes for record in collector.records)
        return {
            "goodput_gbps": payload * 8 / self.networks[0].sim.now,
            **_fct_summary(query_us),
            # Evenness of query completion times: one RTO-stalled
            # straggler in a fan-in pulls this down sharply.
            "jain": jain_fairness(query_us),
            "flows_launched": launched,
            "flows_completed": collector.completed(),
        }


class _SetupDone(Exception):
    """Raised in place of ``run_for`` to stop ``run_scenario`` after set-up."""


class MixFattree(Workload):
    name = "mix-fattree"

    def setup(self) -> None:
        self.scenario = load_scenario_file(SCENARIO_PATH)
        if self.scale != 1.0:
            self.scenario = self._scaled(self.scenario)
        self._run_scenario(stop_before_run=True)

    def _scaled(self, scenario):
        def tenant(spec):
            params = spec.workload.params
            if "iterations" not in params:
                return spec
            iterations = max(round(params["iterations"] * self.scale), 1)
            workload = replace(spec.workload, params={**params, "iterations": iterations})
            return replace(spec, workload=workload)

        # The drain is not work but the time the last elephant needs.
        return replace(
            scenario,
            duration_ms=scenario.duration_ms * self.scale,
            tenants=tuple(tenant(spec) for spec in scenario.tenants),
        )

    def run(self) -> None:
        self.result = self._run_scenario(stop_before_run=False)

    def _run_scenario(self, stop_before_run: bool):
        # run_scenario builds and runs in one call and returns scalars
        # only.  Wrapping its build_topology from here gives the harness
        # the Network (for counts), puts --seed on the topology, and lets
        # set-up be timed without running.
        original = scenario_run.build_topology

        def build(*args, **kwargs):
            kwargs["seed"] = self.seed
            topo = original(*args, **kwargs)
            network = topo.network
            self.networks = [network]
            if stop_before_run:
                network.run_for = _raise_setup_done
            else:
                network.run_for = lambda duration_ns: self.advance(network, duration_ns)
            return topo

        scenario_run.build_topology = build
        try:
            return scenario_run.run_scenario(self.scenario)
        except _SetupDone:
            return None
        finally:
            scenario_run.build_topology = original
            drain_pending()  # the telemetry queue would pin finished networks

    def results(self, checks: List[str]) -> Dict[str, float]:
        scalars = self.result.scalars
        tenants = [t.name for t in self.scenario.tenants]
        # Headline class: the search tenant's 2 KB query responses.  The
        # tenant's whole mix has a p99 set by a handful of elephants that
        # swings 13 % between seeds.
        headline = [
            to_microseconds(s.stats.fct_ns)
            for s in tenant_senders(self.networks[0])["search"]
            if s.flow_bytes == QUERY_RESPONSE_BYTES and s.stats.fct_ns is not None
        ]
        return {
            "goodput_gbps": sum(scalars[f"goodput_mbps:{t}"] for t in tenants) / 1e3,
            **_fct_summary(headline or [0.0]),
            "jain": scalars["jain_tenants"],
            "flows_launched": int(sum(scalars[f"flows:{t}"] for t in tenants)),
            "flows_completed": int(
                sum(scalars[f"flows_completed:{t}"] for t in tenants)
            ),
            # Reported, not gated: HEAD already records token_clamps
            # violations in this mix (README.md, "Findings").
            "invariant_violations": int(scalars["invariant_violations"]),
        }


def _raise_setup_done(duration_ns: int) -> None:
    raise _SetupDone


class Baselines8Dumbbell(Workload):
    name = "baselines8-dumbbell"
    tfc_clean = False

    def setup(self) -> None:
        p = self.params
        if sorted(p["protocols"]) != sorted(registered_protocols()):
            raise RuntimeError(
                f"registered transports {registered_protocols()} differ from "
                f"the frozen cell list {p['protocols']}"
            )
        self.flow_bytes = max(int(self.scaled("flow_bytes")), 1)
        self.collector = FctCollector()
        self.senders: Dict[str, list] = {}
        self.networks = []
        for protocol in p["protocols"]:
            topo = build_topology(
                dumbbell,
                protocol,
                buffer_bytes=p["buffer_bytes"],
                n_senders=p["n_senders"],
                rate_bps=p["rate_bps"],
                seed=self.seed,
            )
            self.networks.append(topo.network)
            self.senders[protocol] = [
                open_flow(
                    source,
                    topo.hosts[-1],
                    protocol,
                    size_bytes=self.flow_bytes,
                    min_rto_ns=p["min_rto_ms"] * MILLISECOND,
                    on_complete=self.collector.completion_handler(protocol),
                )
                for source in topo.hosts[: p["n_senders"]]
            ]

    def run(self) -> None:
        p = self.params
        horizon = seconds(p["horizon_s"])
        for protocol, network in zip(p["protocols"], self.networks):
            before = self.meter.reference_s
            while (
                self.collector.completed(protocol) < p["n_senders"]
                and network.sim.now < horizon
            ):
                self.advance(network, CHUNK_NS)
            self.meter.flush()
            self.cell_run_s[protocol] = self.meter.reference_s - before

    def results(self, checks: List[str]) -> Dict[str, float]:
        p = self.params
        launched = len(p["protocols"]) * p["n_senders"]
        cell_jain, cell_time_ns, completed = [], 0, 0
        for protocol, network in zip(p["protocols"], self.networks):
            senders = self.senders[protocol]
            done = [s for s in senders if s.stats.bytes_acked == self.flow_bytes
                    and s.stats.complete_ns is not None]
            completed += len(done)
            if len(done) < len(senders):
                checks.append(f"{protocol}: {len(done)} of {len(senders)} flows completed")
                cell_time_ns += network.sim.now
                cell_jain.append(0.0)
                continue
            cell_time_ns += max(s.stats.complete_ns for s in done)
            # Per-flow average rate over the flow's own lifetime.
            cell_jain.append(
                jain_fairness([self.flow_bytes / s.stats.fct_ns for s in done])
            )
        payload = completed * self.flow_bytes
        return {
            "goodput_gbps": payload * 8 / cell_time_ns,
            **_fct_summary(self.collector.fcts_us() or [0.0]),
            "jain": sum(cell_jain) / len(cell_jain),
            "flows_launched": launched,
            "flows_completed": completed,
        }


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (Incast400Tfc, Leafspine360Tfc, MixFattree, Baselines8Dumbbell)
}
