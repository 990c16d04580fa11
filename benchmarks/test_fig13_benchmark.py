"""Figure 13 — flow completion times under the benchmark workload (testbed).

Paper: query-flow mean and tail FCT are far lower under TFC than DCTCP
and TCP (whose 99.99th percentile includes retransmission timeouts);
background mice finish faster under TFC, while the largest flows pay a
small price because query flows keep their bandwidth.
"""

from conftest import run_once

from repro.experiments.runner import CellSpec, run_cells
from repro.metrics.fct import SIZE_BUCKETS

PROTOCOLS = ("tfc", "dctcp", "tcp")


def test_fig13_benchmark_fct(benchmark, report):
    specs = [
        CellSpec(
            "fig13",
            {
                "protocol": proto,
                "duration_s": 1.5,
                "drain_s": 1.5,
                "query_rate_per_s": 400,
                "query_fanin": 8,
                "short_rate_per_s": 30,
                "background_rate_per_s": 30,
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
                f"{result[f'query_fct_us:{key}']:.0f}"
                for key in ("mean", "p95", "p99", "p99.9", "p99.99")
            ]
        )
    report(
        "Fig. 13a: query flow FCT (us)",
        ["protocol", "mean", "95th", "99th", "99.9th", "99.99th"],
        rows,
    )

    bucket_rows = []
    names = [name for name, _, _ in SIZE_BUCKETS]
    for proto, result in results.items():
        bucket_rows.append(
            [proto.upper()]
            + [
                f"{result.scalars.get(f'bg_p999_us:{name}', float('nan')):.0f}"
                for name in names
            ]
        )
    report(
        "Fig. 13b: background flow 99.9th FCT (us) by size",
        ["protocol"] + names,
        bucket_rows,
    )

    tfc, dctcp, tcp = (results[proto] for proto in PROTOCOLS)
    # The paper's ordering: TFC's query tail is far below the baselines'.
    assert tfc["query_fct_us:p99.9"] < dctcp["query_fct_us:p99.9"]
    assert tfc["query_fct_us:p99.9"] < tcp["query_fct_us:p99.9"]
    assert tfc["query_fct_us:p99.99"] < tcp["query_fct_us:p99.99"] / 2
    assert tfc["drops"] == 0
    assert tfc["completion_fraction"] == 1.0
