"""Figure 15 — large-scale incast (10 Gbps, 512 KB buffers).

Paper: with block sizes 64/128/256 KB and up to 400 senders, TFC keeps
~90% link utilisation with timeouts "always around zero", while TCP's
throughput decays and flows suffer up to ~0.8 timeouts per block.

Scaled grid: sender counts up to 200 and 2 rounds per point so the
sweep completes in minutes; ``runner --figures fig15`` runs the paper's
full 24-cell grid.
"""

from conftest import run_once

from repro.experiments.runner import CellSpec, run_cells

PROTOCOLS = ("tfc", "tcp")
SENDERS = (50, 100, 200)
BLOCKS = (64_000, 256_000)


def test_fig15_incast_large(benchmark, report):
    specs = [
        CellSpec(
            "fig15",
            {
                "protocol": proto,
                "n_senders": n,
                "block_bytes": block,
                "rounds": 2,
                "rate_bps": 10_000_000_000,
                "buffer_bytes": 512_000,
                "seed": 0,
            },
        )
        for proto in PROTOCOLS
        for block in BLOCKS
        for n in SENDERS
    ]
    cells = iter(run_once(benchmark, run_cells, specs))
    results = {
        proto: {block: [next(cells) for _ in SENDERS] for block in BLOCKS}
        for proto in PROTOCOLS
    }

    rows = []
    for block in BLOCKS:
        for i, n in enumerate(SENDERS):
            row = [f"{block // 1000}KB", n]
            for proto in PROTOCOLS:
                point = results[proto][block][i]
                row.append(f"{point['goodput_bps'] / 1e9:.2f}")
                row.append(f"{point['max_timeouts_per_block']:.2f}")
            rows.append(row)
    report(
        "Fig. 15: large-scale incast, throughput (Gbps) and max timeouts/block",
        ["block", "senders", "TFC gput", "TFC TO/blk", "TCP gput", "TCP TO/blk"],
        rows,
    )

    for block in BLOCKS:
        for point in results["tfc"][block]:
            # TFC: near-zero loss at any fan-in (the headline claim).
            assert point["max_timeouts_per_block"] == 0
            assert point["drops"] == 0
    # TCP suffers timeouts at high fan-in.
    tcp_worst = results["tcp"][BLOCKS[0]][-1]
    assert tcp_worst["max_timeouts_per_block"] > 0
    # TFC beats TCP at the largest fan-in for each block size.
    for block in BLOCKS:
        assert (
            results["tfc"][block][-1]["goodput_bps"]
            > results["tcp"][block][-1]["goodput_bps"]
        )
