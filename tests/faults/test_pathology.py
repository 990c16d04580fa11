"""Pathology detectors: unit behaviour plus the TFC-vs-PFC acceptance.

The unit tests drive each detector with synthetic signals (trace
emissions, scripted victim counters, hand-paused ports) on an otherwise
idle network, pinning the exact arm/fire/once-only semantics.  The
slow-marked acceptance tests then run the real chaos scenarios from
:mod:`repro.experiments.pfc_pathology` and pin the head-to-head claim:
PFC exhibits every pathology, TFC exhibits none.
"""

import pytest

from repro.experiments.common import build_topology
from repro.faults.pathology import (
    CbdDeadlockDetector,
    HolBlockingDetector,
    PathologySuite,
    PauseStormDetector,
)
from repro.net.pfc import PfcParams, enable_pfc
from repro.net.topology import dumbbell
from repro.sim.trace import PATHOLOGY_DETECTED, PFC_PAUSE, PFC_RESUME
from repro.sim.units import microseconds, milliseconds
from tests.frames import apply_frame


def _idle_fabric(n_senders=3):
    """A quiet lossless dumbbell whose ports the tests pause by hand."""
    topo = build_topology(
        dumbbell,
        "pfc",
        buffer_bytes=256_000,
        n_senders=n_senders,
        seed=1,
        pfc_params=PfcParams(
            xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000
        ),
    )
    return topo, topo.network, topo.network.lossless


# ----------------------------------------------------------------------
# Pause-storm detector
# ----------------------------------------------------------------------
def test_storm_duty_threshold_validated():
    _, net, fab = _idle_fabric()
    with pytest.raises(ValueError, match="duty threshold"):
        PauseStormDetector(net, fab, duty_threshold=0.0)
    with pytest.raises(ValueError, match="duty threshold"):
        PauseStormDetector(net, fab, duty_threshold=1.5)


def test_storm_fires_on_sustained_pause_and_reports_once():
    """A port paused for a whole window trips the detector exactly once;
    an open-ended (never resumed) interval counts as paused to now."""
    topo, net, fab = _idle_fabric()
    detector = PauseStormDetector(
        net, fab, window_ns=milliseconds(5), duty_threshold=0.5
    )
    port = topo.switches[0].ports[0]
    net.tracer.emit(PFC_PAUSE, port=port)  # XOFF, never XON'd
    net.run_for(milliseconds(20))
    assert detector.detected
    assert len(detector.detections) == 1  # once per port, not per sweep
    assert detector.detections[0].kind == "pause_storm"
    assert port.node.name in detector.detections[0].location
    assert detector.duty_cycle(port) == pytest.approx(1.0)


def test_storm_ignores_low_duty_cycle():
    """Brief pause blips below the duty threshold never fire."""
    topo, net, fab = _idle_fabric()
    detector = PauseStormDetector(
        net, fab, window_ns=milliseconds(5), duty_threshold=0.5
    )
    port = topo.switches[0].ports[0]

    def blip():  # 100 µs paused out of every 1 ms => 10% duty
        net.tracer.emit(PFC_PAUSE, port=port)
        net.sim.schedule(microseconds(100), unblip)

    def unblip():
        net.tracer.emit(PFC_RESUME, port=port)
        net.sim.schedule(microseconds(900), blip)

    net.sim.schedule(0, blip)
    net.run_for(milliseconds(20))
    assert not detector.detected
    assert detector.duty_cycle(port) < 0.2


def test_storm_stop_detaches_subscriptions():
    topo, net, fab = _idle_fabric()
    detector = PauseStormDetector(net, fab)
    detector.stop()
    net.tracer.emit(PFC_PAUSE, port=topo.switches[0].ports[0])
    net.run_for(milliseconds(10))
    assert not detector.detected
    assert detector.checks_run == 0


# ----------------------------------------------------------------------
# HoL-blocking detector
# ----------------------------------------------------------------------
def test_hol_requires_a_victim():
    _, net, fab = _idle_fabric()
    with pytest.raises(ValueError, match="victim"):
        HolBlockingDetector(net, fab, {})


def test_hol_fires_only_when_collapse_coincides_with_pause():
    """A scripted victim: healthy deltas, then a collapse.  Without any
    paused port the collapse is ordinary congestion (no detection);
    with a pause active it is HoL blocking (one detection)."""
    topo, net, fab = _idle_fabric()
    delivered = {"total": 0}
    phase = {"healthy": True}

    def feed():  # 30 KB/ms while healthy, nothing while collapsed
        if phase["healthy"]:
            delivered["total"] += 30_000
        net.sim.schedule(milliseconds(1), feed)

    net.sim.schedule(0, feed)
    detector = HolBlockingDetector(
        net, fab, {"victim": lambda: delivered["total"]}
    )
    net.run_for(milliseconds(10))
    phase["healthy"] = False
    net.run_for(milliseconds(10))  # collapse, but nothing paused
    assert not detector.detected

    port = topo.switches[0].ports[0]
    apply_frame(port, "xoff", 0)  # now the fabric is paused somewhere
    net.run_for(milliseconds(10))
    assert detector.detected
    assert len(detector.detections) == 1
    assert detector.detections[0].location == "victim"


def test_hol_slow_start_victim_cannot_false_positive():
    """A victim that never reached min_peak_bytes per interval cannot
    trip the detector, paused fabric or not."""
    topo, net, fab = _idle_fabric()
    detector = HolBlockingDetector(
        net, fab, {"trickle": lambda: 0}, min_peak_bytes=20_000
    )
    apply_frame(topo.switches[0].ports[0], "xoff", 0)
    net.run_for(milliseconds(10))
    assert not detector.detected


# ----------------------------------------------------------------------
# CBD deadlock detector
# ----------------------------------------------------------------------
def _two_switch_fabric():
    """Two switches cabled together: the minimal CBD-capable geometry."""
    from repro.net.network import Network
    from repro.sim.units import GBPS

    net = Network(default_buffer_bytes=256_000)
    a = net.add_switch("A")
    b = net.add_switch("B")
    net.cable(a, b, rate_bps=GBPS, delay_ns=1000)
    net.build_routes()
    fab = enable_pfc(net)
    return net, fab, a, b


def test_cbd_no_cycle_on_single_switch():
    """Same-node paused ports cannot form a wait-for cycle (the edge
    needs the link's *destination* to own the next paused port); the
    detector stays quiet however many ports are paused."""
    topo, net, fab = _idle_fabric()
    detector = CbdDeadlockDetector(
        net, fab, check_interval_ns=microseconds(150), persistence=2
    )
    for port in topo.switches[0].ports[:2]:
        apply_frame(port, "xoff", 0)
    net.run_for(milliseconds(5))
    assert not detector.detected


def test_cbd_two_switch_cycle_detects_once_and_requires_persistence():
    """Both inter-switch transmitters paused with no transmit progress
    is the canonical 2-port CBD signature: it must persist
    ``persistence`` sweeps before reporting, then report once."""
    net, fab, a, b = _two_switch_fabric()
    detector = CbdDeadlockDetector(
        net, fab, check_interval_ns=microseconds(150), persistence=2
    )
    apply_frame(a.ports[0], "xoff", 0)
    apply_frame(b.ports[0], "xoff", 0)
    net.run_for(milliseconds(2))
    assert detector.detected
    assert len(detector.detections) == 1  # reported once despite sweeps
    first = detector.detections[0]
    assert first.kind == "cbd_deadlock"
    assert first.context["cycle_ports"] == 2
    # Timing: not before the persistence'th sweep.
    assert first.time_ns >= 2 * microseconds(150)


def test_cbd_transient_cycle_resolves_without_detection():
    """A cycle that breaks before ``persistence`` sweeps never fires."""
    net, fab, a, b = _two_switch_fabric()
    detector = CbdDeadlockDetector(
        net, fab, check_interval_ns=microseconds(150), persistence=2
    )
    apply_frame(a.ports[0], "xoff", 0)
    apply_frame(b.ports[0], "xoff", 0)
    # Break the cycle before the second sweep can confirm it.
    net.sim.schedule(
        microseconds(200), lambda: apply_frame(a.ports[0], "xon", 0)
    )
    net.run_for(milliseconds(2))
    assert not detector.detected


# ----------------------------------------------------------------------
# Suite plumbing
# ----------------------------------------------------------------------
def test_suite_counts_and_emits_trace_topic():
    """PathologySuite arms all detectors, aggregates counts by kind, and
    every detection emits ``fault.pathology`` (the FlightRecorder dump
    trigger)."""
    topo, net, fab = _idle_fabric()
    emitted = []
    net.tracer.subscribe(
        PATHOLOGY_DETECTED, lambda **kw: emitted.append(kw.get("kind"))
    )
    suite = PathologySuite(
        net,
        fab,
        victims={"v": lambda: 0},
        cbd_check_interval_ns=microseconds(150),
    )
    assert len(suite.detectors) == 3
    assert suite.cbd_deadlock.check_interval_ns == microseconds(150)
    net.tracer.emit(PFC_PAUSE, port=topo.switches[0].ports[0])
    net.run_for(milliseconds(20))
    counts = suite.detections()
    assert counts["pause_storm"] == 1
    assert counts["hol_blocking"] == 0
    assert counts["cbd_deadlock"] == 0
    assert emitted == ["pause_storm"]
    suite.stop()


def test_suite_without_victims_omits_hol():
    _, net, fab = _idle_fabric()
    suite = PathologySuite(net, fab)
    assert suite.hol_blocking is None
    assert len(suite.detectors) == 2
    assert suite.detections() == {
        "pause_storm": 0,
        "hol_blocking": 0,
        "cbd_deadlock": 0,
    }


# ----------------------------------------------------------------------
# Acceptance: the TFC-vs-PFC head-to-head (slow, matches EXPERIMENTS.md)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("scenario", ["pause_storm", "hol", "cbd"])
def test_head_to_head_pfc_pathological_tfc_clean(scenario):
    """On the pinned chaos scenarios PFC exhibits the pathology; TFC
    runs the identical workload with zero pause frames, zero detections,
    zero invariant violations, and reconverges to >= 90% of its own peak
    goodput."""
    from repro.experiments.pfc_pathology import run_head_to_head

    results = run_head_to_head(scenario, duration_ns=milliseconds(60))
    pfc, tfc = results["pfc"], results["tfc"]

    # PFC side: lossless (no drops) but pathological.
    assert pfc["drops"] == 0
    assert pfc["pause_frames"] > 0
    detector_key = {
        "pause_storm": "det_pause_storm",
        "hol": "det_hol_blocking",
        "cbd": "det_cbd_deadlock",
    }[scenario]
    assert pfc[detector_key] > 0

    # TFC side: same workload, provably clean.
    assert tfc.clean
    assert tfc["pause_frames"] == 0
    assert tfc["detections"] == 0
    assert tfc["violations"] == 0
    assert tfc["goodput_ratio"] >= 0.9
    assert tfc["drops"] == 0


@pytest.mark.slow
def test_head_to_head_is_deterministic():
    """Two same-seed storm head-to-heads agree scalar for scalar."""
    from repro.experiments.pfc_pathology import run_pathology

    a = run_pathology("pause_storm", "pfc", duration_ns=milliseconds(30))
    b = run_pathology("pause_storm", "pfc", duration_ns=milliseconds(30))
    assert a.scalars == b.scalars
    assert a.goodput_series == b.goodput_series
    assert [p.time_ns for p in a.pathologies] == [
        p.time_ns for p in b.pathologies
    ]
