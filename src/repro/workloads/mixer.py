"""Multi-tenant traffic mixing and per-tenant accounting.

A production fabric never carries one workload: the interesting regime
is search queries, training collectives and storage replication sharing
links, each belonging to a different *tenant* whose goodput/FCT the
operator accounts separately.  Two pieces make that composable here:

* :class:`MultiTenantMixer` — interleaves existing generators under
  per-tenant identities.  Each tenant supplies a build callback that
  constructs its generator (with a tenant-tagged
  :class:`~repro.metrics.fct.FctCollector` handed to it); the mixer owns
  the shared collector and the per-tenant reporting.
* :func:`per_tenant_stats` — walks a network's live senders plus each
  host's finished-flow ledger and aggregates sender statistics by the
  ``tenant`` tag that :func:`~repro.transport.registry.open_flow` stamps
  on every flow.
  This is generator-agnostic: any flow opened with ``tenant=`` is
  accounted, whether or not it ever completes (long-lived background
  flows count their acked bytes too).

Goodput here is *tenant goodput*: acked application bytes over the
measurement window.  Jain's index over tenant goodputs is the fairness
number the multi-tenant scenarios report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from ..metrics.fct import FctCollector
from ..metrics.stats import jain_fairness, percentile
from ..transport.base import FinishedFlow, Sender

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..net.network import Network


@dataclass
class TenantStats:
    """Aggregated sender-side statistics for one tenant."""

    flows: int = 0
    completed_flows: int = 0
    bytes_acked: int = 0
    bytes_sent: int = 0
    timeouts: int = 0
    retransmissions: int = 0

    def goodput_bps(self, duration_ns: int) -> float:
        """Acked bytes over the window, as bits per second."""
        if duration_ns <= 0:
            return 0.0
        return self.bytes_acked * 8 * 1e9 / duration_ns


def tenant_senders(
    network: "Network",
) -> Dict[str, List[Union[Sender, FinishedFlow]]]:
    """Flows grouped by tenant tag (untagged flows are skipped).

    Each host's live senders come from its connection table and its
    completed ones from its finished-flow ledger (``Host.finished_flows``):
    a sender that reaches ``DONE`` is released and replaced there by a
    :class:`~repro.transport.base.FinishedFlow` record.  Both kinds carry
    ``flow_key``, ``flow_bytes``, ``tenant`` and ``stats``, which is all
    the accounting reads, so this sees every tenant-tagged flow the run
    opened.
    """
    groups: Dict[str, List[Union[Sender, FinishedFlow]]] = {}
    for host in network.hosts:
        live = [e for e in host._connections.values() if isinstance(e, Sender)]
        for flow in live + host.finished_flows:
            tenant = flow.tenant
            if tenant is None:
                continue
            groups.setdefault(tenant, []).append(flow)
    return groups


def per_tenant_stats(network: "Network") -> Dict[str, TenantStats]:
    """Per-tenant sender statistics for every tagged flow in ``network``."""
    stats: Dict[str, TenantStats] = {}
    for tenant, flows in sorted(tenant_senders(network).items()):
        acc = stats.setdefault(tenant, TenantStats())
        for flow in flows:
            acc.flows += 1
            if flow.stats.complete_ns is not None:
                acc.completed_flows += 1
            acc.bytes_acked += flow.stats.bytes_acked
            acc.bytes_sent += flow.stats.bytes_sent
            acc.timeouts += flow.stats.timeouts
            acc.retransmissions += flow.stats.retransmissions
    return stats


def tenant_goodputs_bps(
    network: "Network", duration_ns: int
) -> Dict[str, float]:
    """Tenant name -> goodput over the window (sorted by tenant name)."""
    return {
        tenant: acc.goodput_bps(duration_ns)
        for tenant, acc in per_tenant_stats(network).items()
    }


def tenant_jain_index(network: "Network", duration_ns: int) -> float:
    """Jain's fairness index over per-tenant goodputs (1.0 when <2 tenants)."""
    goodputs = list(tenant_goodputs_bps(network, duration_ns).values())
    if len(goodputs) < 2:
        return 1.0
    return jain_fairness(goodputs)


#: A tenant's traffic: its name plus a callback building the generator.
#: The callback receives ``(tenant_name, collector)`` and must construct
#: (and schedule) the tenant's workload, tagging every flow it opens with
#: ``tenant=tenant_name`` and recording completions into ``collector``.
TenantBuilder = Callable[[str, FctCollector], object]


@dataclass
class MixReport:
    """One tenant's line in the mixer's summary."""

    tenant: str
    goodput_bps: float
    flows: int
    completed_flows: int
    fct_p99_us: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)


class MultiTenantMixer:
    """Builds per-tenant workloads over one network and accounts them.

    Tenants are constructed in list order (construction order is part of
    the deterministic event schedule).  All tenants share one
    :class:`FctCollector`; per-tenant slices come from the tenant tag
    that rides each record.
    """

    def __init__(
        self,
        network: "Network",
        tenants: Sequence[Tuple[str, TenantBuilder]],
        collector: Optional[FctCollector] = None,
    ):
        names = [name for name, _ in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.network = network
        self.collector = collector if collector is not None else FctCollector()
        self.tenant_names = names
        self.generators: Dict[str, object] = {}
        for name, build in tenants:
            self.generators[name] = build(name, self.collector)

    # ------------------------------------------------------------------
    def goodputs_bps(self, duration_ns: int) -> Dict[str, float]:
        """Per-tenant goodput over the run window."""
        measured = tenant_goodputs_bps(self.network, duration_ns)
        # Tenants that opened no flows still get a row (goodput 0).
        return {name: measured.get(name, 0.0) for name in self.tenant_names}

    def jain_index(self, duration_ns: int) -> float:
        """Fairness over the mixer's tenants (zero-flow tenants included)."""
        goodputs = list(self.goodputs_bps(duration_ns).values())
        if len(goodputs) < 2:
            return 1.0
        return jain_fairness(goodputs)

    def reports(self, duration_ns: int) -> List[MixReport]:
        """One summary row per tenant, in tenant list order."""
        stats = per_tenant_stats(self.network)
        rows = []
        for name in self.tenant_names:
            acc = stats.get(name, TenantStats())
            fcts = self.collector.fcts_us(tenant=name)
            rows.append(
                MixReport(
                    tenant=name,
                    goodput_bps=acc.goodput_bps(duration_ns),
                    flows=acc.flows,
                    completed_flows=acc.completed_flows,
                    fct_p99_us=None if not fcts else percentile(fcts, 99),
                )
            )
        return rows
