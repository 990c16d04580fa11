"""Shared plumbing for the per-figure experiment drivers.

Every driver follows the same recipe: build a topology with the queue
discipline its protocol needs, install TFC agents when applicable, attach
samplers, run, and return an :class:`ExperimentResult` that the runner,
the benchmarks and the tests all read.  The pieces shared by all of them
live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..net.pfc import PfcParams
from ..net.topology import Topology
from ..sim.rng import stable_seed
from ..transport.registry import get_protocol


#: The paper's own comparison set — the default sweep of every figure.
ALL_PROTOCOLS = ("tfc", "dctcp", "tcp")

#: The full comparison grid including the related-work baselines
#: (DESIGN.md §6k) — what the ``baselines`` figure and the scenario
#: fairness head-to-heads sweep.
BASELINE_PROTOCOLS = ("tfc", "dctcp", "tcp", "pfc", "bfc", "tbtcp", "tracks", "fairq")


@dataclass
class ExperimentResult:
    """Generic result container: named scalars plus named series."""

    name: str
    protocol: str
    scalars: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, list] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.scalars[key]


def derive_cell_seed(root_seed: int, *labels) -> int:
    """Deterministic child seed for one experiment cell.

    Hashes ``(root_seed, labels)`` the same way :class:`repro.sim.rng.
    SeedSequence` derives streams, so a cell's seed depends only on its
    identity — not on the order cells run in, the worker process it lands
    on, or which other cells exist.  That is what makes ``--jobs N`` output
    bit-identical to a serial run.
    """
    tag = ":".join(str(part) for part in labels)
    return stable_seed(f"{int(root_seed)}:cell:{tag}")


def build_topology(
    builder: Callable[..., Topology],
    protocol: str,
    buffer_bytes: int,
    protocol_params: Optional[object] = None,
    pfc_params: Optional[PfcParams] = None,
    **builder_kwargs,
) -> Topology:
    """Build a topology wired for ``protocol`` (queues + switch agents).

    All protocol behaviour flows through the registry's
    :class:`~repro.transport.registry.Protocol` hooks: the spec's queue
    factory picks the port discipline, its installer attaches switch
    agents.  ``protocol_params`` is the typed per-protocol parameter
    object (an instance of ``spec.params_cls``; None = the defaults).

    ``pfc_params`` forces a lossless fabric with explicit thresholds
    regardless of protocol — the pathology scenarios use it to pin tight
    XOFF/XON watermarks; without it the fabric is installed only for
    lossless protocols or when the network's resolved ``config.lossless``
    asks for one (with buffer-scaled defaults).  On
    the ``pfc`` transport it fills that transport's own slot: the fabric
    installs once, so the installer must arm these thresholds rather
    than its buffer-scaled defaults.
    """
    spec = get_protocol(protocol)
    if protocol_params is None and spec.params_cls is PfcParams:
        protocol_params = pfc_params
    params = spec.resolve_params(protocol_params)
    topo = builder(
        buffer_bytes=buffer_bytes,
        queue_factory=spec.port_queue_factory(buffer_bytes, params),
        **builder_kwargs,
    )
    spec.install(topo.network, params, pfc_params=pfc_params)
    return topo


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Minimal fixed-width ASCII table used by the bench reports."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def render(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)
