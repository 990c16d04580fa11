"""PFC pathology scenarios — TFC vs PFC head-to-head under chaos.

The paper's case against lossless fabrics built on pause frames is that
hop-by-hop XOFF/XON backpressure fails in three characteristic ways:
pause storms (pauses cascading upstream from one congested port), victim
head-of-line blocking (an uncongested flow starved behind a paused
class), and cyclic buffer dependencies (rings of paused ports waiting on
each other — the deadlock precondition).  TFC's claim is that per-port
token control absorbs the same workloads with *zero* pause events.

This driver makes that head-to-head a pinned experiment.  Each scenario
builds one topology + workload + fault schedule and runs it twice — once
with plain NewReno over the PFC lossless fabric (``fabric="pfc"``, the
RoCE-style baseline) and once with TFC over the *same armed fabric*
(``fabric="tfc"``: the pause machinery is live with identical tight
thresholds, so "zero pause frames" is measured, not assumed).  The
:class:`~repro.faults.PathologySuite` and
:class:`~repro.faults.InvariantMonitor` are attached throughout.
The runner's ``pfc`` figure runs every scenario under both fabrics::

    python -m repro.experiments.runner --figures pfc

Scenarios
=========

``pause_storm``
    Six-way long-lived incast onto one testbed host.  Under PFC the
    congested leaf ingress XOFFs its feeder, the pause cascades through
    the root to every source leaf and NIC, and the storm detector trips
    on sustained pause duty.

``hol``
    The same incast plus one victim flow that shares only the paused
    trunk — its own destination link is idle.  Under PFC the victim's
    throughput collapses to zero behind pauses aimed at the incast;
    under TFC it keeps its fair share.

``cbd``
    Fat-tree ``k=4``: four *bidirectional* ``link_down`` cuts reroute
    cross-pod traffic onto 7-hop bounce paths (up-down-up — the routing
    shape deadlock papers blame), and six flows form two interlocked
    congestion chains whose pause cascades meet head-on.  Both
    directions of the shared trunk links end up paused with zero
    transmit progress — a cyclic buffer dependency the CBD detector
    reports.  The cuts are bidirectional on purpose: a directed cut
    would sever the reverse pause channel of a live data direction and
    turn the scenario into silent packet loss instead of backpressure.

Every run is deterministic: topology, workload, fault schedule and
detector sweeps all derive from the scenario seed and fire on the
simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..faults import FaultInjector, InvariantMonitor, Pathology, PathologySuite, Violation
from ..metrics.samplers import RateSampler, Series
from ..net.pfc import PfcParams
from ..net.topology import fat_tree, testbed
from ..sim.units import GBPS, microseconds, milliseconds
from ..transport.registry import open_flow
from .common import ExperimentResult, build_topology

SCENARIOS = ("pause_storm", "hol", "cbd")
FABRICS = ("pfc", "tfc")

#: Tight thresholds the scenarios pin: XOFF at 32 KB of ingress backlog,
#: resume at 8 KB, 32 KB of headroom.  Headroom is ~20x the 1 Gbps /
#: 5 us in-flight bound (2 BDP + 1 MTU ~ 2.8 KB), so the fabric stays
#: lossless; XOFF is low enough that a single saturated egress trips
#: pausing within one slow-start burst.
TIGHT_PFC = PfcParams(
    xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000
)


@dataclass
class PathologyResult:
    """Outcome of one (scenario, fabric) pathology run."""

    scenario: str
    fabric: str
    seed: int
    scalars: Dict[str, float] = field(default_factory=dict)
    pathologies: List[Pathology] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    goodput_series: Series = field(default_factory=list)

    def __getitem__(self, key: str) -> float:
        return self.scalars[key]

    @property
    def clean(self) -> bool:
        """Zero pauses, zero detections, zero violations, reconverged.

        This is the TFC acceptance bar; a PFC run that exhibits its
        pathology is *expected* to be dirty.  ``goodput_ratio`` compares
        the final-quarter aggregate rate against the run's own best
        sustained rate — "reconverges to >= 90% goodput" means the
        workload ends the run at >= 90% of the best it ever sustained,
        i.e. chaos did not leave it degraded or collapsed.
        """
        return (
            self.scalars["pause_frames"] == 0
            and self.scalars["detections"] == 0
            and self.scalars["violations"] == 0
            and self.scalars["goodput_ratio"] >= 0.9
        )


def _steady_and_peak(series: Series, duration_ns: int) -> tuple:
    """(steady, peak) aggregate rates from a sampled bps series.

    ``steady`` is the mean over the final quarter of the run; ``peak`` is
    the best 5 ms rolling-window mean anywhere in it.  Their ratio is the
    reconvergence measure: a run that ends as fast as it ever ran scores
    ~1.0 regardless of what the workload's absolute capacity is.
    """
    if not series:
        return 0.0, 0.0
    tail_from = duration_ns * 3 // 4
    tail = [v for t, v in series if t >= tail_from]
    steady = sum(tail) / len(tail) if tail else 0.0
    if len(series) > 1:
        interval_ns = series[1][0] - series[0][0]
        window = max(1, milliseconds(5) // max(1, interval_ns))
    else:
        window = 1
    values = [v for _, v in series]
    peak = 0.0
    for i in range(len(values)):
        chunk = values[i : i + window]
        if len(chunk) == window:
            peak = max(peak, sum(chunk) / window)
    if peak == 0.0:
        peak = max(values, default=0.0)
    return steady, peak


def _cbd_cuts(topo) -> List:
    """The four bidirectional cuts that create the bounce-path geometry.

    * ``A1_0 -- E1_0``: pod-1 traffic for E1_0 must bounce down E1_1 and
      back up through A1_1.
    * ``A1_1 -- C1_0/C1_1``: severs pod 1 from the group-1 core plane,
      so all cross-pod traffic rides group 0 (through the bounce).
    * ``A0_0 -- E0_1``: pod-0 traffic for E0_1 descending at A0_0 must
      bounce through E0_0 and A0_1.
    """
    by_name = {s.name: s for s in topo.switches}

    def port_to(a: str, b: str):
        for port in by_name[a].ports:
            if port.peer_node.name == b:
                return port
        raise KeyError(f"no {a} -> {b} port")

    return [
        port_to("A1_0", "E1_0"),
        port_to("A1_1", "C1_0"),
        port_to("A1_1", "C1_1"),
        port_to("A0_0", "E0_1"),
    ]


#: cbd workload: two interlocked congestion chains.  f1/f3 trunk pod 0
#: -> pod 1 (f3 bouncing through E0_0 so it shares f1's trunk), f2/f4
#: trunk pod 1 -> pod 0 likewise, and two local fillers that congest
#: each chain's bounce egress (E1_1->A1_1 and E0_0->A0_1) so the pause
#: cascades run the full length of both trunks and meet on the shared
#: links' two directions.
CBD_FLOW_PAIRS = (
    ("H1", "H5"),
    ("H3", "H6"),
    ("H7", "H4"),
    ("H6", "H2"),
    ("H8", "H5"),
    ("H2", "H3"),
)


def run_pathology(
    scenario: str,
    fabric: str,
    seed: int = 1,
    duration_ns: int = milliseconds(60),
    awnd_bytes: int = 200_000,
    buffer_bytes: int = 256_000,
    sample_interval_ns: int = microseconds(500),
    pfc_params: Optional[PfcParams] = None,
) -> PathologyResult:
    """Run one pathology scenario under one fabric and measure it.

    ``fabric="pfc"`` is NewReno over the lossless fabric; ``"tfc"`` is
    TFC with the same fabric armed (identical thresholds), so its pause
    counters are live evidence, not a disabled code path.  ``goodput_bps``
    is the aggregate rate over the final quarter of the run;
    ``goodput_ratio`` divides it by the best 5 ms rate the run ever
    sustained (the reconvergence measure — did chaos leave the workload
    degraded?); ``utilization`` divides it by the scenario's nominal
    max-min aggregate, which a token/pause-controlled transport
    necessarily undershoots by its wire and control overhead.
    """
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {SCENARIOS}"
        )
    if fabric not in FABRICS:
        raise ValueError(f"unknown fabric {fabric!r}; choose from {FABRICS}")
    params = pfc_params or TIGHT_PFC

    if scenario == "cbd":
        topo = build_topology(
            fat_tree,
            fabric,
            buffer_bytes=buffer_bytes,
            seed=seed,
            k=4,
            pfc_params=params,
        )
    else:
        topo = build_topology(
            testbed,
            fabric,
            buffer_bytes=buffer_bytes,
            seed=seed,
            pfc_params=params,
        )
    net = topo.network
    fab = net.lossless
    registry = net.telemetry.registry if net.telemetry is not None else None

    hosts = {h.name: h for h in topo.hosts}
    injector = FaultInjector(net)
    victim = None
    senders = []
    if scenario == "cbd":
        for port in _cbd_cuts(topo):
            injector.link_down(
                port, milliseconds(1), both_directions=True, reroute=True
            )
        for src, dst in CBD_FLOW_PAIRS:
            senders.append(
                open_flow(
                    hosts[src],
                    hosts[dst],
                    fabric,
                    awnd_bytes=awnd_bytes,
                    start_ns=milliseconds(2),
                )
            )
        # Max-min ideal: f1/f3/f5 split the A1_1->E1_0 trunk three ways,
        # f2/f4/f6 get half shares on their pairwise-shared links.
        nominal_bps = 2.5 * GBPS
    else:
        # Six-way incast H1..H6 -> H7: every source leaf funnels through
        # the NF0 -> NF3 trunk into the single bottleneck NF3 -> H7.
        for i in range(6):
            senders.append(
                open_flow(
                    topo.host(i), hosts["H7"], fabric, awnd_bytes=awnd_bytes
                )
            )
        if scenario == "hol":
            # Victim H5 -> H8: shares only the NF0 -> NF3 trunk with the
            # incast; its own last hop NF3 -> H8 is idle.
            victim = open_flow(
                hosts["H5"], hosts["H8"], fabric, awnd_bytes=awnd_bytes
            )
            senders.append(victim)
        nominal_bps = float(GBPS)

    victims = None
    if victim is not None:
        receiver = victim.receiver
        victims = {"H5->H8": lambda: receiver.bytes_received}
    suite = PathologySuite(
        net,
        fab,
        victims=victims,
        registry=registry,
        cbd_check_interval_ns=microseconds(150),
    )
    monitor = InvariantMonitor(net, raise_on_violation=False, registry=registry)
    sampler = RateSampler(
        net.sim,
        lambda: sum(s.receiver.bytes_received for s in senders),
        sample_interval_ns,
        label="aggregate",
    )
    if registry is not None:
        fab.register(registry)

    # Victim steady-state window: final quarter of the run (slow start,
    # the cuts and the first cascades all land well before it).
    measure_from = duration_ns * 3 // 4
    at_mark = {"victim": 0}

    def mark() -> None:
        if victim is not None:
            at_mark["victim"] = victim.receiver.bytes_received

    net.sim.post(measure_from - net.sim.now, mark)
    net.sim.run(until_ns=duration_ns)
    sampler.stop()
    suite.stop()
    monitor.detach()

    window_s = (duration_ns - measure_from) / 1e9
    goodput_bps, peak_bps = _steady_and_peak(sampler.series, duration_ns)
    detections = suite.detections()
    pathologies = [
        p for detector in suite.detectors for p in detector.detections
    ]
    pathologies.sort(key=lambda p: p.time_ns)
    scalars: Dict[str, float] = {
        "pause_frames": float(fab.pause_frames),
        "resume_frames": float(fab.resume_frames),
        "headroom_overflows": float(fab.headroom_overflows),
        "max_ingress_bytes": float(fab.max_ingress_bytes()),
        "drops": float(net.total_drops()),
        "goodput_bps": goodput_bps,
        "peak_goodput_bps": peak_bps,
        "goodput_ratio": goodput_bps / peak_bps if peak_bps else 0.0,
        "utilization": goodput_bps / nominal_bps,
        "detections": float(sum(detections.values())),
        "det_pause_storm": float(detections["pause_storm"]),
        "det_hol_blocking": float(detections["hol_blocking"]),
        "det_cbd_deadlock": float(detections["cbd_deadlock"]),
        "violations": float(len(monitor.violations)),
    }
    if victim is not None:
        scalars["victim_bps"] = (
            (victim.receiver.bytes_received - at_mark["victim"]) * 8 / window_s
        )

    if registry is not None:
        sampler.register(registry, "pathology.goodput_bps")
    return PathologyResult(
        scenario=scenario,
        fabric=fabric,
        seed=seed,
        scalars=scalars,
        pathologies=pathologies,
        violations=list(monitor.violations),
        goodput_series=sampler.series,
    )


def run_pathology_cell(
    scenario: str,
    fabric: str,
    seed: int = 1,
    duration_ms: int = 60,
    **kwargs,
) -> ExperimentResult:
    """Runner entry point: one (scenario, fabric) cell, plain scalars."""
    result = run_pathology(
        scenario,
        fabric,
        seed=seed,
        duration_ns=milliseconds(duration_ms),
        **kwargs,
    )
    return ExperimentResult(
        name=f"pfc_{scenario}",
        protocol=fabric,
        scalars=dict(result.scalars),
        series={"goodput_bps": list(result.goodput_series)},
    )

