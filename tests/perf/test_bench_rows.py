"""Kernel suite wiring: workload selection by name."""

import pytest

from repro.perf.bench import run_kernel_suite
from repro.perf.workloads import KERNEL_WORKLOADS


def test_workload_filter_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown kernel workload"):
        run_kernel_suite(repeats=1, workloads=["no_such_workload"])


@pytest.mark.parametrize(
    "name", ("fattree8_tfc_serial", "fattree8_tfc_sharded4")
)
def test_removed_sharded_twin_rows_are_refused(name):
    assert name not in {w.name for w in KERNEL_WORKLOADS}
    with pytest.raises(ValueError, match="unknown kernel workload"):
        run_kernel_suite(repeats=1, workloads=[name])
