"""Figure 16 — benchmark FCT on the 360-server leaf-spine.

Paper: on the 18-leaf x 20-server topology, every query triggers a large
synchronous fan-in; TFC's query FCT is ~30x below DCTCP's on average and
its tail stays flat (the switch delay function absorbs the burst), while
TCP and DCTCP suffer heavy tail latency from timeouts.  Background flows
above 1 KB finish slightly slower under TFC because query flows keep
their bandwidth.

Scaled defaults: a 0.3 s generation window and fan-in 300 (the paper fans
in from all 359 servers over 2 s) so the three runs stay within minutes.
The fan-in must exceed ~256 for the scenario to bite at all: below that,
one query's responses (fan-in x 2 KB) fit in the 512 KB port buffer and
no protocol drops anything.
"""

from conftest import run_once

from repro.experiments.runner import CellSpec, run_cells

PROTOCOLS = ("tfc", "dctcp", "tcp")


def test_fig16_large_benchmark(benchmark, report):
    specs = [
        CellSpec(
            "fig16",
            {
                "protocol": proto,
                "scale": "large",
                "duration_s": 0.3,
                "drain_s": 1.5,
                "query_rate_per_s": 60,
                "query_fanin": 300,
                "short_rate_per_s": 20,
                "background_rate_per_s": 20,
                "seed": 0,
            },
        )
        for proto in PROTOCOLS
    ]
    results = dict(zip(PROTOCOLS, run_once(benchmark, run_cells, specs)))

    rows = []
    for proto, result in results.items():
        rows.append(
            [proto.upper()]
            + [
                f"{result[f'query_fct_us:{key}'] / 1000:.2f}"
                for key in ("mean", "p99", "p99.9", "p99.99")
            ]
            + [f"{result['completion_fraction']:.3f}"]
        )
    report(
        "Fig. 16a: query flow FCT (ms) on the 360-server leaf-spine",
        ["protocol", "mean", "99th", "99.9th", "99.99th", "completed"],
        rows,
    )

    tfc, dctcp, tcp = (results[proto] for proto in PROTOCOLS)
    # Ordering: TFC mean and tail below both baselines; large factor at
    # the tail (the paper reports ~30x on the mean at full fan-in).
    assert tfc["query_fct_us:mean"] < dctcp["query_fct_us:mean"]
    assert tfc["query_fct_us:mean"] < tcp["query_fct_us:mean"]
    # The tail gap is dramatic: the baselines pay 200 ms RTO stalls.
    assert tfc["query_fct_us:p99.9"] < dctcp["query_fct_us:p99.9"] / 5
    assert tfc["query_fct_us:p99.9"] < tcp["query_fct_us:p99.9"] / 5
    assert tfc["drops"] == 0
    assert tfc["completion_fraction"] == 1.0
