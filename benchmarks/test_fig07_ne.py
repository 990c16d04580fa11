"""Figure 7 — accuracy of the effective-flow count with inactive flows.

Paper: with n2 = 5 steady flows and n1 cross-rack flows ramping 1 -> 10
then going silent, the measured E tracks ``n1 / rtt_ratio + n2`` and
silent flows leave the count immediately.
"""

from conftest import run_once

from repro.experiments.fig07_ne import run_fig07_cell


def test_fig07_effective_flows(benchmark, report):
    result = run_once(benchmark, run_fig07_cell)
    samples = result.series["samples"]

    rows = [
        [f"{t:.3f}", f"{measured:.1f}", f"{expected:.1f}"]
        for t, measured, expected in samples[:: max(len(samples) // 20, 1)]
    ]
    report(
        "Fig. 7: measured vs expected effective flows",
        ["time (s)", "measured E", "expected E"],
        rows,
    )
    print(f"rtt ratio (cross/intra): {result['rtt_ratio']:.2f}")
    print(f"mean |error|: {result['mean_error']:.2f} flows")

    # Shape: the baseline matches n2 exactly; the count rises with the
    # ramp and returns when the flows go silent (they are excluded even
    # though their connections stay open).
    baseline = samples[0][1]
    assert abs(baseline - 5) <= 1
    peak = max(m for _, m, _ in samples)
    final = samples[-1][1]
    assert peak > baseline + 2
    assert final <= baseline + 2
