"""Figure 10 — convergence rate when a new flow joins.

Paper: zooming on the third flow's start, TFC reaches its fair share in
about one round trip, DCTCP needs tens of milliseconds, and TCP barely
converges within the window.
"""

from conftest import run_once

from repro.experiments.fig08_queue import run_staggered_cell


def run_all():
    # Finer goodput sampling than Fig. 9 so convergence is resolvable.
    return {
        proto: run_staggered_cell(
            proto, interval_s=0.15, tail_s=0.3, goodput_sample_ms=2.0
        )
        for proto in ("tfc", "dctcp", "tcp")
    }


def test_fig10_convergence(benchmark, report):
    results = run_once(benchmark, run_all)

    rows = []
    conv = {}
    for proto, result in results.items():
        # Against the 1 Gbps bottleneck's fair share; -1 = never converged.
        value = result["convergence_ns:flow2"]
        conv[proto] = value
        rows.append(
            [proto.upper(), "no convergence" if value < 0 else f"{value / 1e6:.1f}"]
        )
    report(
        "Fig. 10: time for flow 3 to reach its fair share (ms)",
        ["protocol", "convergence time"],
        rows,
    )

    assert conv["tfc"] >= 0
    # TFC converges within a couple of sampling intervals (~1 round in
    # reality; 2 ms sampling floor here).
    assert conv["tfc"] <= 6e6
    if conv["dctcp"] >= 0:
        assert conv["tfc"] <= conv["dctcp"]
    if conv["tcp"] >= 0:
        assert conv["tfc"] <= conv["tcp"]
