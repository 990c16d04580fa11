"""Figure 9 — goodput and small-timescale fairness of four staggered flows.

Paper: all three protocols fill the bottleneck, but TFC shares it fairly
even at a 20 ms timescale, while TCP's per-flow goodput is unstable.
"""

from conftest import run_once

from repro.experiments.fig08_queue import run_staggered_cell
from repro.metrics.stats import jain_fairness
from repro.sim.units import seconds

N_FLOWS = 4
INTERVAL_S = 0.2


def run_all():
    return {
        proto: run_staggered_cell(
            proto, n_flows=N_FLOWS, interval_s=INTERVAL_S, tail_s=0.4
        )
        for proto in ("tfc", "dctcp", "tcp")
    }


def small_timescale_fairness(result):
    """Mean Jain index over individual 20 ms samples once all flows run."""
    interval_ns = seconds(INTERVAL_S)
    start = (N_FLOWS - 1) * interval_ns + interval_ns // 2
    goodput = [result.series[f"goodput_series:flow{i}"] for i in range(N_FLOWS)]
    times = [t for t, _ in goodput[0] if t >= start]
    indices = []
    for t in times:
        rates = []
        for series in goodput:
            value = dict(series).get(t)
            if value is not None:
                rates.append(value)
        if rates and sum(rates) > 0:
            indices.append(jain_fairness(rates))
    return sum(indices) / len(indices) if indices else 0.0


def test_fig09_goodput_fairness(benchmark, report):
    results = run_once(benchmark, run_all)

    rows = [
        [
            proto.upper(),
            f"{r['aggregate_goodput_bps'] / 1e6:.0f}",
            f"{r['fairness']:.4f}",
            f"{small_timescale_fairness(r):.4f}",
        ]
        for proto, r in results.items()
    ]
    report(
        "Fig. 9: aggregate goodput and fairness (4 staggered flows)",
        ["protocol", "goodput (Mbps)", "fairness (avg)", "fairness (20ms)"],
        rows,
    )

    for proto, r in results.items():
        assert r["aggregate_goodput_bps"] > 0.75e9, proto  # link well used
    # TFC is fair even at the 20 ms timescale; TCP is visibly less so.
    assert small_timescale_fairness(results["tfc"]) > 0.97
    assert small_timescale_fairness(results["tfc"]) >= small_timescale_fairness(
        results["tcp"]
    )
