"""Experiment drivers — one module per paper figure (see DESIGN.md §4).

Each figure module exposes one function, its runner cell, which returns
an :class:`ExperimentResult`; ``repro.experiments.runner`` maps figure
names to them (``FIGURE_CELLS``).
"""

from .chaos import FAULT_KINDS, ChaosResult, run_chaos
from .common import (
    ALL_PROTOCOLS,
    ExperimentResult,
    build_topology,
    derive_cell_seed,
    format_table,
)
from .fig12_incast import run_incast_cell
from .fig14_rho import run_rho_cell

__all__ = [
    "ALL_PROTOCOLS",
    "build_topology",
    "ExperimentResult",
    "derive_cell_seed",
    "format_table",
    "FAULT_KINDS",
    "ChaosResult",
    "run_chaos",
    "run_incast_cell",
    "run_rho_cell",
]
