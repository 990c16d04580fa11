"""Ablation — the switch delay function and the window-acquisition phase.

The paper attributes TFC's incast survival to two mechanisms (section
4.6): the acquisition probe (new flows wait for a real allocation) and
the sub-MSS ACK delay function at switches.  This ablation removes the
sender-side idle re-acquisition (an analogous resume-time protection) and
shows the difference under a synchronised incast.
"""

from conftest import run_once

from repro.core.sender import TfcSender
from repro.experiments import run_incast_cell


def run_with_and_without_reacquisition():
    results = {}
    results["with re-acquisition"] = run_incast_cell(
        "tfc", 50, block_bytes=256_000, rounds=3,
        rate_bps=10_000_000_000, buffer_bytes=512_000,
    )
    saved = (TfcSender.idle_reacquire_ns, TfcSender.resume_burst_limit)
    try:
        TfcSender.idle_reacquire_ns = 1 << 60   # never re-acquire
        TfcSender.resume_burst_limit = 1 << 60  # never clamp
        results["without re-acquisition"] = run_incast_cell(
            "tfc", 50, block_bytes=256_000, rounds=3,
            rate_bps=10_000_000_000, buffer_bytes=512_000,
        )
    finally:
        TfcSender.idle_reacquire_ns, TfcSender.resume_burst_limit = saved
    return results


def test_ablation_window_reacquisition(benchmark, report):
    results = run_once(benchmark, run_with_and_without_reacquisition)

    report(
        "Ablation: resume-time window re-acquisition (50-way incast, 10G)",
        ["variant", "goodput (Gbps)", "drops", "max queue (KB)", "TO/block"],
        [
            [
                name,
                f"{r['goodput_bps'] / 1e9:.2f}",
                f"{r['drops']:.0f}",
                f"{r['queue_max_bytes'] / 1000:.0f}",
                f"{r['max_timeouts_per_block']:.2f}",
            ]
            for name, r in results.items()
        ],
    )

    protected = results["with re-acquisition"]
    unprotected = results["without re-acquisition"]
    assert protected["drops"] == 0
    assert protected["max_timeouts_per_block"] == 0
    # Without it, resumed rounds burst held windows into the buffer.
    assert unprotected["queue_max_bytes"] >= protected["queue_max_bytes"]
