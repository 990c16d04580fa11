"""Figure 11 — work conservation with two bottlenecks.

Paper: n1=8 flows host1->host4, n2=2 flows host1->host3, n3=2 flows
host2->host3.  S2 hands n2 more window than S1 permits; the token
adjustment lets the n3 flows absorb the slack, so both bottlenecks stay
near full rate with the S2 queue around one packet (~2 KB).
"""

from conftest import run_once

from repro.experiments.fig11_work_conserving import run_fig11_cell


def test_fig11_work_conserving(benchmark, report):
    result = run_once(benchmark, run_fig11_cell, duration_s=1.0)

    report(
        "Fig. 11: two-bottleneck goodput and queue (TFC)",
        ["link", "goodput (Mbps)", "queue mean (B)"],
        [
            ["S1 uplink", f"{result['s1_goodput_bps'] / 1e6:.0f}", "-"],
            [
                "S2 -> host3",
                f"{result['s2_goodput_bps'] / 1e6:.0f}",
                f"{result['s2_queue_mean_bytes']:.0f}",
            ],
        ],
    )

    # Both bottlenecks at high goodput: no work-conserving problem.
    assert result["s1_goodput_bps"] > 0.85e9
    assert result["s2_goodput_bps"] > 0.85e9
    # Queue hovers around a packet or two, as in the paper ("about 2 KB").
    assert result["s2_queue_mean_bytes"] < 6_000
    assert result["drops"] == 0
