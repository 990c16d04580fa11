#!/usr/bin/env python3
"""Chaos recovery: TFC under the full fault catalogue.

Four long-lived TFC flows share a 1 Gbps dumbbell bottleneck.  After a
warm-up, one fault primitive fires — a link flap, failing optics, a loss
burst, one-way ACK loss, a switch-state wipe, the silent death of the
delimiter flow, or a host pause — while the runtime invariant monitor
checks the control-loop envelope (token clamps, E >= 0, queue <= buffer,
window min-reduction) on every slot.  The script prints, per fault, the
pre-fault baseline, the goodput dip, the time to reconverge to 90% of
baseline, and the invariant violation count (expected: zero).

Every run is deterministic: topology, workload and fault schedule all
derive from one seed, so a chaos failure is replayable bit for bit.

Run::

    python examples/chaos_recovery.py [fault]

With no argument the whole catalogue runs (a few seconds per fault).
"""

import sys

from repro.experiments.chaos import FAULT_KINDS, run_chaos


def run_one(fault: str) -> None:
    result = run_chaos(fault)
    print(f"{fault}: {result.report.summary()}")
    print(f"  invariant checks: {result.invariant_checks}, "
          f"violations: {len(result.violations)}")
    for record in result.records:
        window = (
            "one-shot" if record.duration_ns is None
            else f"{record.duration_ns / 1e6:.1f} ms"
        )
        print(f"  fault: {record.kind} on {record.target} ({window})")


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] not in FAULT_KINDS:
        sys.exit(f"unknown fault {sys.argv[1]!r}; pick from {FAULT_KINDS}")
    for fault in sys.argv[1:2] or FAULT_KINDS:
        run_one(fault)
