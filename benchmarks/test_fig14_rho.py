"""Figure 14 — sensitivity to the expected utilisation rho0.

Paper: goodput tracks rho0 (880 -> 940 Mbps across 0.90 -> 1.00) and the
queue stays small until rho0 approaches 1.0, where RTT variance lets a
standing queue build (~6 KB at rho0 = 1.0).
"""

from conftest import run_once

from repro.experiments.runner import CellSpec, run_cells

RHOS = (0.90, 0.92, 0.94, 0.96, 0.98, 1.00)


def test_fig14_rho_sweep(benchmark, report):
    specs = [
        CellSpec("fig14", {"rho0": rho0, "duration_s": 1.0, "seed": 0})
        for rho0 in RHOS
    ]
    points = run_once(benchmark, run_cells, specs)

    report(
        "Fig. 14: goodput and queue vs rho0 (5 flows -> H6)",
        ["rho0", "goodput (Mbps)", "queue mean (B)", "queue max (B)"],
        [
            [
                f"{p['rho0']:.2f}",
                f"{p['goodput_bps'] / 1e6:.0f}",
                f"{p['queue_mean_bytes']:.0f}",
                f"{p['queue_max_bytes']:.0f}",
            ]
            for p in points
        ],
    )

    # Goodput non-decreasing in rho0 (allow small sampling noise).
    goodputs = [p["goodput_bps"] for p in points]
    assert goodputs[-1] >= goodputs[0]
    assert all(b >= a - 0.03e9 for a, b in zip(goodputs, goodputs[1:]))
    # The queue grows as rho0 -> 1.0 and is largest at 1.0.
    assert points[-1]["queue_mean_bytes"] >= points[0]["queue_mean_bytes"]
    # No losses anywhere in the sweep.
    assert all(p["drops"] == 0 for p in points)
