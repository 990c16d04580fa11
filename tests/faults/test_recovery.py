"""Recovery metrics and the chaos acceptance criterion.

The acceptance bar for the fault work: under every fault primitive, TFC
reconverges to at least 90% of its pre-fault aggregate goodput with zero
invariant-monitor violations.  The full catalogue runs in the slow suite;
a two-fault subset stays in tier-1 as a regression canary.
"""

import pytest

from repro.experiments.chaos import FAULT_KINDS, run_chaos
from repro.experiments.common import build_topology
from repro.faults import FaultInjector, measure_recovery
from repro.net.topology import leaf_spine
from repro.sim.units import milliseconds, seconds
from repro.transport.registry import open_flow

MS = milliseconds(1)


# ----------------------------------------------------------------------
# measure_recovery on synthetic series
# ----------------------------------------------------------------------
def series(values, step_ns=MS):
    return [(i * step_ns, v) for i, v in enumerate(values)]


def test_measure_recovery_happy_path():
    # 5 baseline samples at 10, dip to 2, back above 9 from sample 8 on.
    data = series([10, 10, 10, 10, 10, 2, 4, 7, 9.5, 9.6, 10, 10, 10, 10])
    report = measure_recovery(
        data, fault_start_ns=5 * MS, threshold=0.9, hold_samples=3
    )
    assert report.baseline == pytest.approx(10.0)
    assert report.dip_depth == pytest.approx(0.8)
    assert report.reconverge_ns == 8 * MS
    assert report.time_to_reconverge_ns == 3 * MS
    assert report.recovered
    assert "reconverged in 3.00 ms" in report.summary()


def test_measure_recovery_never_reconverges():
    data = series([10, 10, 10, 10, 2, 3, 2, 3, 2, 3])
    report = measure_recovery(data, fault_start_ns=4 * MS, hold_samples=2)
    assert report.reconverge_ns is None
    assert report.time_to_reconverge_ns is None
    assert not report.recovered
    assert "never reconverged" in report.summary()


def test_measure_recovery_hold_must_be_consecutive():
    # Reaches the target once, dips again, then holds.
    data = series([10, 10, 10, 1, 9.5, 1, 9.5, 9.5, 9.5, 9.5])
    report = measure_recovery(data, fault_start_ns=3 * MS, hold_samples=3)
    assert report.reconverge_ns == 6 * MS  # the start of the real hold


def test_measure_recovery_settle_skips_fault_window():
    # Goodput never actually dips, but recovery may only be declared
    # after the fault window (the cure) has passed.
    data = series([10] * 12)
    report = measure_recovery(
        data, fault_start_ns=4 * MS, settle_ns=3 * MS, hold_samples=2
    )
    assert report.reconverge_ns == 7 * MS
    assert report.dip_depth == 0.0


def test_measure_recovery_validates():
    data = series([10, 10, 10, 10])
    with pytest.raises(ValueError):
        measure_recovery(data, fault_start_ns=2 * MS, threshold=0.0)
    with pytest.raises(ValueError):
        measure_recovery(data, fault_start_ns=0)  # no pre-fault samples
    with pytest.raises(ValueError):
        measure_recovery(series([0, 0, 0]), fault_start_ns=2 * MS)


# ----------------------------------------------------------------------
# Chaos acceptance
# ----------------------------------------------------------------------
def assert_clean_recovery(result):
    report = result.report
    assert not result.violations, result.violations[0].report()
    assert report.recovered, (
        f"{result.fault}: never reconverged to "
        f"{report.threshold:.0%} of baseline ({report.summary()})"
    )
    assert result.invariant_checks > 0


@pytest.mark.parametrize("fault", ["switch_reset", "delimiter_kill"])
def test_chaos_fast_subset_recovers_cleanly(fault):
    """Tier-1 canary: the two state-wiping faults recover >= 90%."""
    assert_clean_recovery(run_chaos(fault))


@pytest.mark.slow
@pytest.mark.parametrize("fault", FAULT_KINDS)
def test_chaos_full_catalogue_recovers_cleanly(fault):
    """Acceptance: every fault primitive reconverges to >= 90% of the
    pre-fault goodput with zero invariant violations."""
    assert_clean_recovery(run_chaos(fault))


def test_recovery_report_registers_metrics():
    from repro.obs import MetricRegistry

    registry = MetricRegistry()
    data = series([10, 10, 10, 10, 10, 2, 4, 7, 9.5, 9.6, 10, 10, 10])
    report = measure_recovery(
        data, fault_start_ns=5 * MS, hold_samples=3, post_fault_timeouts=2
    )
    report.register(registry)
    assert registry.get("recovery.baseline_bps").value == pytest.approx(10.0)
    assert registry.get("recovery.dip_depth").value == pytest.approx(0.8)
    assert registry.get("recovery.reconverge_ns").value == report.reconverge_ns
    assert registry.get("recovery.post_fault_timeouts").value == 2
    # never-reconverged runs stay numeric
    bad = measure_recovery(
        series([10, 10, 10, 10, 1, 1, 1, 1]), fault_start_ns=4 * MS
    )
    bad.register(registry, prefix="bad")
    assert registry.get("bad.reconverge_ns").value == -1.0


# ----------------------------------------------------------------------
# link_down rerouting on a multi-path fabric
# ----------------------------------------------------------------------
def _spine_cut_run(reroute, routing):
    """Two TFC flows crossing a 2-spine fabric; one uplink dies at 30 ms.

    Returns (bytes received by fault onset, bytes received in the 60 ms
    after it, number of route rebuilds).
    """
    topo = build_topology(
        leaf_spine,
        "tfc",
        buffer_bytes=512_000,
        n_leaves=2,
        hosts_per_leaf=2,
        spines=2,
        seed=7,
        routing=routing,
    )
    net = topo.network
    senders = [
        open_flow(topo.hosts[i], topo.hosts[2 + i], "tfc") for i in range(2)
    ]
    leaf0, spine0 = topo.switches[2], topo.switches[0]
    injector = FaultInjector(net)
    injector.link_down(
        leaf0.port_towards(spine0.node_id), milliseconds(30), reroute=reroute
    )
    pre_fault = {}

    def snapshot():
        pre_fault["bytes"] = sum(s.receiver.bytes_received for s in senders)

    net.sim.schedule_at(milliseconds(30), snapshot)
    net.run_for(seconds(0.09))
    total = sum(s.receiver.bytes_received for s in senders)
    return pre_fault["bytes"], total - pre_fault["bytes"], net.route_rebuilds


@pytest.mark.parametrize("routing", ["single", "ecmp"])
def test_link_down_reroute_restores_goodput(routing):
    """With reroute=True a dead spine uplink diverts traffic onto the
    surviving equal-cost uplink; goodput after the fault stays at least
    half the pre-fault rate (TFC re-learns tokens on the new path)."""
    pre_bytes, post_bytes, rebuilds = _spine_cut_run(True, routing)
    assert rebuilds == 1
    # 30 ms of pre-fault traffic vs 60 ms post-fault: full recovery would
    # deliver ~2x the pre-fault bytes; demand >= 1x (>= half rate).
    assert post_bytes >= pre_bytes


@pytest.mark.parametrize("routing", ["single", "ecmp"])
def test_link_down_without_reroute_blackholes(routing):
    """The regression this hook fixes: without rerouting the stale route
    keeps pointing into the cut and the flows strand (only the in-flight
    tail arrives)."""
    pre_bytes, post_bytes, rebuilds = _spine_cut_run(False, routing)
    assert rebuilds == 0
    assert post_bytes < pre_bytes * 0.05
