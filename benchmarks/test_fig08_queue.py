"""Figure 8 — queue length over time under TFC / DCTCP / TCP.

Paper: with four staggered long flows into one 1 Gbps port (256 KB
buffer), TFC holds near-zero queue (max ~9 KB), DCTCP oscillates around
its ~30 KB marking threshold, and TCP pins the queue at the full buffer.
"""

from conftest import run_once

from repro.experiments.fig08_queue import run_staggered_cell


def run_all():
    return {
        proto: run_staggered_cell(proto, interval_s=0.2, tail_s=0.4)
        for proto in ("tfc", "dctcp", "tcp")
    }


def queue_mean_after(result, after_ns):
    """Mean bottleneck queue over the samples taken at or after ``after_ns``."""
    values = [v for t, v in result.series["queue_series"] if t >= after_ns]
    return sum(values) / len(values) if values else 0.0


def test_fig08_queue_length(benchmark, report):
    results = run_once(benchmark, run_all)

    steady_after = int(0.2e9)
    rows = [
        [
            proto.upper(),
            f"{queue_mean_after(r, steady_after) / 1000:.1f}",
            f"{r['queue_max_bytes'] / 1000:.1f}",
            int(r["drops"]),
        ]
        for proto, r in results.items()
    ]
    report(
        "Fig. 8: bottleneck queue (4 staggered flows, 1 Gbps, 256 KB buffer)",
        ["protocol", "mean queue (KB)", "max queue (KB)", "drops"],
        rows,
    )

    tfc, dctcp, tcp = results["tfc"], results["dctcp"], results["tcp"]
    assert queue_mean_after(tfc, steady_after) < queue_mean_after(dctcp, steady_after)
    assert queue_mean_after(dctcp, steady_after) < queue_mean_after(tcp, steady_after)
    assert tfc["queue_max_bytes"] < 40_000       # near zero-queueing
    assert tcp["queue_max_bytes"] > 200_000      # buffer-filling
    assert tfc["drops"] == 0 and tcp["drops"] > 0
