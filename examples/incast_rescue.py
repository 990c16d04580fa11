#!/usr/bin/env python3
"""Incast rescue: the paper's motivating scenario, reproduced end to end.

A memcached-style client requests 256 KB blocks from 60 servers at once,
barrier-synchronised round after round (TCP incast is the classic way to
destroy this workload).  The script runs the identical workload under
TCP, DCTCP and TFC and prints the goodput, the timeout count, and the
switch queue — showing TFC's near-zero-loss claim in action.

Run::

    python examples/incast_rescue.py [n_senders]
"""

import sys

from repro.experiments import run_incast_cell
from repro.experiments.common import format_table


def main() -> None:
    n_senders = int(sys.argv[1]) if len(sys.argv) > 1 else 60

    rows = []
    for protocol in ("tcp", "dctcp", "tfc"):
        point = run_incast_cell(
            protocol, n_senders, block_bytes=256_000, rounds=5
        )
        rows.append(
            [
                protocol.upper(),
                f"{point['goodput_bps'] / 1e6:.0f}",
                f"{point['rounds_completed']:.0f}",
                f"{point['total_timeouts']:.0f}",
                f"{point['max_timeouts_per_block']:.2f}",
                f"{point['queue_max_bytes'] / 1000:.0f}",
                f"{point['drops']:.0f}",
            ]
        )

    print(f"Incast: {n_senders} servers, 256 KB blocks, 1 Gbps, 256 KB buffer")
    print(
        format_table(
            ["protocol", "goodput Mbps", "rounds", "timeouts", "max TO/blk",
             "max queue KB", "drops"],
            rows,
        )
    )
    print()
    print("TFC sustains goodput with zero drops because new/resumed flows")
    print("acquire a window before bursting and sub-MSS grants are paced by")
    print("the switch delay function (paper sections 4.6 and 5.2).")


if __name__ == "__main__":
    main()
