"""Experiment drivers — one module per paper figure (see DESIGN.md §4)."""

from .chaos import FAULT_KINDS, ChaosResult, run_chaos
from .common import (
    ALL_PROTOCOLS,
    PROTOCOL_LABELS,
    ExperimentResult,
    build_topology,
    derive_cell_seed,
    format_table,
)
from .ecmp_collision import CollisionResult, run_collision
from .fig06_rttb import RttbResult, run_fig06
from .fig07_ne import NeResult, run_fig07
from .fig08_queue import StaggeredFlowsResult, run_staggered_flows
from .fig11_work_conserving import WorkConservingResult, run_fig11
from .fig12_incast import run_incast_cell
from .fig13_benchmark import BenchmarkResult, run_benchmark
from .fig14_rho import run_rho_cell
from .multipath_benchmark import run_multipath_benchmark

__all__ = [
    "ALL_PROTOCOLS",
    "PROTOCOL_LABELS",
    "build_topology",
    "ExperimentResult",
    "derive_cell_seed",
    "format_table",
    "FAULT_KINDS",
    "ChaosResult",
    "run_chaos",
    "RttbResult",
    "run_fig06",
    "NeResult",
    "run_fig07",
    "StaggeredFlowsResult",
    "run_staggered_flows",
    "WorkConservingResult",
    "run_fig11",
    "run_incast_cell",
    "BenchmarkResult",
    "run_benchmark",
    "run_rho_cell",
    "CollisionResult",
    "run_collision",
    "run_multipath_benchmark",
]
