"""Smoke tests for every per-figure experiment driver, at miniature scale.

These assert the *shape* each paper figure reports, not absolute numbers:
they are the fast versions of the full benchmarks in ``benchmarks/``.
"""

import pytest

from repro.experiments import run_incast_cell, run_rho_cell
from repro.experiments.ecmp_collision import run_collision_cell
from repro.experiments.fig06_rttb import run_fig06_cell
from repro.experiments.fig07_ne import run_fig07_cell
from repro.experiments.fig08_queue import run_staggered_cell
from repro.experiments.fig11_work_conserving import run_fig11_cell
from repro.experiments.fig13_benchmark import run_benchmark_cell


@pytest.fixture(scope="module")
def staggered():
    """Shared Figs. 8-10 runs (one per protocol, reused by three tests)."""
    return {
        proto: run_staggered_cell(proto, interval_s=0.08, tail_s=0.15)
        for proto in ("tfc", "dctcp", "tcp")
    }


def test_fig06_rttb_below_reference():
    result = run_fig06_cell(duration_s=1.0, sample_interval_s=0.2)
    assert len(result.series["rttb_samples_us"]) >= 4
    assert len(result.series["reference_samples_us"]) > 100
    # rtt_b excludes host processing jitter: strictly below the reference.
    assert 0 < result["gap_us"] < 60


@pytest.mark.parametrize("duration_s", (0.2, 0.0))
def test_fig06_rejects_a_run_shorter_than_one_sample(duration_s):
    """A run that ends before the first rtt_b sample is refused up front,
    naming both values, instead of failing on an empty sample later."""
    with pytest.raises(ValueError) as exc:
        run_fig06_cell(duration_s=duration_s, sample_interval_s=0.25)
    assert "sample_interval_s=0.25" in str(exc.value)
    assert f"duration_s={duration_s}" in str(exc.value)


def test_fig07_effective_flow_tracking():
    samples = run_fig07_cell(
        n1_max=4, n2=3, step_s=0.03, settle_s=0.15
    ).series["samples"]
    assert len(samples) > 20
    # Baseline before the ramp: exactly the steady flows.
    baseline = [m for t, m, _ in samples if t < 0.15]
    assert baseline and abs(baseline[0] - 3) <= 1
    # The count rises during the ramp and falls back as flows go silent.
    peak = max(m for _, m, _ in samples)
    tail = [m for _, m, _ in samples][-3:]
    assert peak >= 4
    assert max(tail) <= peak


def test_fig08_queue_ordering(staggered):
    """TFC << DCTCP << TCP on queue occupancy."""

    def queue_mean_after_50ms(result):
        values = [v for t, v in result.series["queue_series"] if t >= int(0.05e9)]
        return sum(values) / len(values) if values else 0.0

    tfc = queue_mean_after_50ms(staggered["tfc"])
    dctcp = queue_mean_after_50ms(staggered["dctcp"])
    tcp = queue_mean_after_50ms(staggered["tcp"])
    assert tfc < dctcp < tcp
    assert staggered["tfc"]["queue_max_bytes"] < 40_000
    assert staggered["tcp"]["queue_max_bytes"] > 200_000


def test_fig09_fairness_and_goodput(staggered):
    for proto in ("tfc", "dctcp"):
        assert staggered[proto]["fairness"] > 0.95
    assert staggered["tfc"]["aggregate_goodput_bps"] > 0.8e9
    assert staggered["tfc"]["drops"] == 0


def test_fig10_convergence_ordering(staggered):
    # -1 = the flow never held its fair share.
    tfc = staggered["tfc"]["convergence_ns:flow2"]
    tcp = staggered["tcp"]["convergence_ns:flow2"]
    assert tfc >= 0
    assert tcp < 0 or tfc <= tcp


def test_fig11_work_conserving():
    result = run_fig11_cell(duration_s=0.4)
    assert result["s1_goodput_bps"] > 0.85e9
    assert result["s2_goodput_bps"] > 0.85e9
    assert result["s2_queue_mean_bytes"] < 10_000
    assert result["drops"] == 0


def test_fig12_incast_point_tfc_vs_tcp():
    tfc = run_incast_cell("tfc", 30, rounds=2)
    tcp = run_incast_cell("tcp", 30, rounds=2)
    assert tfc["drops"] == 0
    assert tfc["max_timeouts_per_block"] == 0
    assert tcp["drops"] > 0
    assert tfc["queue_max_bytes"] < tcp["queue_max_bytes"]


def test_fig13_benchmark_fct_ordering():
    results = {
        proto: run_benchmark_cell(
            proto, scale="testbed", duration_s=0.6, drain_s=0.4,
            query_rate_per_s=400, query_fanin=8,
        )
        for proto in ("tfc", "tcp")
    }
    tfc, tcp = results["tfc"], results["tcp"]
    assert tfc["completion_fraction"] == 1.0
    # At light load TCP's mean can edge out TFC (TFC pays the acquisition
    # round); the paper's decisive gap is in the congested tail.
    assert tfc["query_fct_us:p99"] < tcp["query_fct_us:p99"]
    assert tfc["query_fct_us:p99.99"] < tcp["query_fct_us:p99.99"]
    assert tfc["drops"] == 0


def test_fig14_rho_point():
    low = run_rho_cell(0.90, duration_s=0.3)
    high = run_rho_cell(1.00, duration_s=0.3)
    assert low["drops"] == high["drops"] == 0
    assert high["goodput_bps"] >= low["goodput_bps"]
    assert high["queue_mean_bytes"] >= low["queue_mean_bytes"]


def test_fig15_large_scale_point():
    point = run_incast_cell(
        "tfc", 60, block_bytes=64_000, rounds=2,
        rate_bps=10_000_000_000, buffer_bytes=512_000,
    )
    assert point["rounds_completed"] == 2
    assert point["drops"] == 0
    assert point["max_timeouts_per_block"] == 0


def test_ecmp_collision_tfc_fair_where_tcp_is_not():
    """The multi-path acceptance shape: per-link tokens keep the shared
    core uplink near-empty and split it fairly; end-to-end TCP shows
    collision-induced queue build-up and goodput asymmetry."""
    results = {
        proto: run_collision_cell(proto, routing="ecmp", duration_s=0.05)
        for proto in ("tfc", "tcp")
    }
    tfc, tcp = results["tfc"], results["tcp"]
    assert tfc["jain_fairness"] > 0.95
    assert tcp["jain_fairness"] < 0.8
    assert tfc["max_fabric_queue_bytes"] < 40_000
    assert tfc["max_fabric_queue_bytes"] < tcp["max_fabric_queue_bytes"]
    assert tfc["drops"] == 0


def test_multipath_benchmark_smoke():
    """Fig. 13's workload survives a fat tree under per-flow ECMP."""
    result = run_benchmark_cell(
        "tfc", scale="fattree", routing="ecmp", duration_s=0.15, drain_s=0.3,
        query_rate_per_s=100, short_rate_per_s=20, background_rate_per_s=20,
    )
    assert result["completion_fraction"] > 0.9
    assert result["drops"] == 0
    assert result["query_fct_us:mean"] > 0


def test_fig16_large_benchmark_smoke():
    result = run_benchmark_cell(
        "tfc", scale="large", duration_s=0.1, drain_s=0.3,
        query_rate_per_s=60, query_fanin=20,
        short_rate_per_s=10, background_rate_per_s=10,
    )
    assert result["completion_fraction"] > 0.9
    assert result["drops"] == 0
    assert result["query_fct_us:mean"] > 0
