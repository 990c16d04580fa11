"""Figure 12 — testbed incast: goodput and queue vs number of senders.

Paper (1 Gbps, 256 KB buffer, 256 KB blocks): TFC holds 800-900 Mbps for
any fan-in with near-zero queue; TCP's goodput collapses beyond ~10
senders with the queue pinned at the buffer; DCTCP holds until ~50 and
then degrades.
"""

from conftest import run_once

from repro.experiments.runner import CellSpec, run_cells

PROTOCOLS = ("tfc", "dctcp", "tcp")
SENDERS = (5, 10, 20, 40, 70, 100)


def test_fig12_incast_sweep(benchmark, report):
    specs = [
        CellSpec(
            "fig12", {"protocol": proto, "n_senders": n, "rounds": 3, "seed": 0}
        )
        for proto in PROTOCOLS
        for n in SENDERS
    ]
    cells = iter(run_once(benchmark, run_cells, specs))
    results = {proto: [next(cells) for _ in SENDERS] for proto in PROTOCOLS}

    rows = []
    for n in range(len(SENDERS)):
        row = [SENDERS[n]]
        for proto in PROTOCOLS:
            point = results[proto][n]
            row.append(f"{point['goodput_bps'] / 1e6:.0f}")
            row.append(f"{point['queue_max_bytes'] / 1000:.0f}")
        rows.append(row)
    report(
        "Fig. 12: incast goodput (Mbps) and max queue (KB) vs senders",
        ["senders", "TFC gput", "TFC q", "DCTCP gput", "DCTCP q", "TCP gput", "TCP q"],
        rows,
    )

    tfc = results["tfc"]
    tcp = results["tcp"]
    # TFC: high goodput at every fan-in, no drops, near-zero queue.
    for point in tfc:
        assert point["goodput_bps"] > 0.8e9
        assert point["drops"] == 0
        assert point["queue_max_bytes"] < 64_000
    # TCP: collapses at high fan-in — timeouts and buffer-filling queues.
    big_tcp = tcp[-1]
    assert big_tcp["max_timeouts_per_block"] > 0
    assert big_tcp["queue_max_bytes"] > 200_000
    assert big_tcp["goodput_bps"] < min(p["goodput_bps"] for p in tfc)
