"""Flow-completion-time collection.

The benchmark experiments (Figs. 13 and 16) report FCT two ways: the tail
distribution of *query* flows, and the 99.9th percentile of *background*
flows bucketed by flow size.  :class:`FctCollector` receives completed
senders (via the ``on_complete`` callback of :func:`repro.transport.
open_flow`) tagged with a category, and produces both reports.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.units import to_microseconds
from ..transport.base import Sender
from .stats import jain_fairness, percentile, summarize_tail

# The paper's Fig. 13b / 16b size buckets.
SIZE_BUCKETS: Sequence[Tuple[str, int, int]] = (
    ("<1KB", 0, 1_000),
    ("1-10KB", 1_000, 10_000),
    ("10KB-100KB", 10_000, 100_000),
    ("100KB-1MB", 100_000, 1_000_000),
    ("1-10MB", 1_000_000, 10_000_000),
    (">10MB", 10_000_000, 1 << 62),
)


def bucket_for_size(size_bytes: int) -> str:
    """Name of the paper's size bucket containing ``size_bytes``."""
    for name, lo, hi in SIZE_BUCKETS:
        if lo <= size_bytes < hi:
            return name
    return SIZE_BUCKETS[-1][0]


class FctRecord:
    """One completed flow."""

    __slots__ = ("category", "size_bytes", "fct_ns", "timeouts", "tenant")

    def __init__(
        self,
        category: str,
        size_bytes: int,
        fct_ns: int,
        timeouts: int,
        tenant: Optional[str] = None,
    ):
        self.category = category
        self.size_bytes = size_bytes
        self.fct_ns = fct_ns
        self.timeouts = timeouts
        self.tenant = tenant


class FctCollector:
    """Accumulates completed flows and renders the paper's FCT rows."""

    def __init__(self) -> None:
        self.records: List[FctRecord] = []
        self.pending = 0
        self._handlers: Dict[Tuple[str, Optional[str]], Callable[[Sender], None]] = {}

    # ------------------------------------------------------------------
    def expect(self, count: int = 1) -> None:
        """Declare flows that should complete (for completion accounting)."""
        self.pending += count

    def completion_handler(self, category: str, tenant: Optional[str] = None):
        """An ``on_complete`` callback recording flows under ``category``.

        The record's tenant is ``tenant`` when given, else the sender's
        own tag (stamped by ``open_flow(tenant=...)``) — so generators
        that thread tenant identity through their flows need no extra
        plumbing here.  One handler is built per ``(category, tenant)``
        and shared by every flow that asks for it.
        """
        cached = self._handlers.get((category, tenant))
        if cached is not None:
            return cached

        def handler(sender: Sender) -> None:
            fct = sender.stats.fct_ns
            assert fct is not None, "on_complete fired without completion time"
            self.records.append(
                FctRecord(
                    category,
                    sender.flow_bytes,
                    fct,
                    sender.stats.timeouts,
                    tenant if tenant is not None else sender.tenant,
                )
            )
            self.pending -= 1

        self._handlers[(category, tenant)] = handler
        return handler

    # ------------------------------------------------------------------
    def _selected(
        self, category: Optional[str], tenant: Optional[str]
    ) -> List[FctRecord]:
        return [
            record
            for record in self.records
            if (category is None or record.category == category)
            and (tenant is None or record.tenant == tenant)
        ]

    def fcts_us(
        self, category: Optional[str] = None, tenant: Optional[str] = None
    ) -> List[float]:
        """FCTs in microseconds, filtered by category and/or tenant."""
        return [
            to_microseconds(record.fct_ns)
            for record in self._selected(category, tenant)
        ]

    def tenants(self) -> List[str]:
        """Tenant names seen on completed flows, sorted."""
        return sorted({r.tenant for r in self.records if r.tenant is not None})

    def tenant_bytes(self, tenant: str) -> int:
        """Completed application bytes attributed to ``tenant``."""
        return sum(r.size_bytes for r in self._selected(None, tenant))

    def tenant_goodputs_bps(self, duration_ns: int) -> Dict[str, float]:
        """Completed-bytes goodput per tenant over a window.

        Counts only *completed* flows; for a window-accurate number that
        includes long-lived flows, use
        :func:`repro.workloads.mixer.tenant_goodputs_bps` (sender-side
        acked bytes) instead.
        """
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        return {
            tenant: self.tenant_bytes(tenant) * 8 * 1e9 / duration_ns
            for tenant in self.tenants()
        }

    def tenant_jain_index(self, duration_ns: int) -> float:
        """Jain's fairness index over per-tenant completed goodput."""
        goodputs = list(self.tenant_goodputs_bps(duration_ns).values())
        if len(goodputs) < 2:
            return 1.0
        return jain_fairness(goodputs)

    def tenant_tail_us(self, tenant: str) -> Dict[str, float]:
        """Mean/95/99/99.9/99.99th FCT (us) for one tenant's flows."""
        values = self.fcts_us(tenant=tenant)
        if not values:
            raise ValueError(f"no completed flows for tenant {tenant!r}")
        return summarize_tail(values)

    def tail_summary_us(self, category: str) -> Dict[str, float]:
        """Mean/95/99/99.9/99.99th FCT (us) for one category (Fig. 13a)."""
        values = self.fcts_us(category)
        if not values:
            raise ValueError(f"no completed flows in category {category!r}")
        return summarize_tail(values)

    def bucketed_p999_us(self, category: str) -> Dict[str, float]:
        """99.9th percentile FCT (us) per size bucket (Fig. 13b)."""
        buckets: Dict[str, List[float]] = defaultdict(list)
        for record in self.records:
            if record.category == category:
                buckets[bucket_for_size(record.size_bytes)].append(
                    to_microseconds(record.fct_ns)
                )
        return {
            name: percentile(values, 99.9)
            for name, values in buckets.items()
            if values
        }

    def total_timeouts(
        self, category: Optional[str] = None, tenant: Optional[str] = None
    ) -> int:
        """Sum of RTO events across completed flows."""
        return sum(r.timeouts for r in self._selected(category, tenant))

    def completed(
        self, category: Optional[str] = None, tenant: Optional[str] = None
    ) -> int:
        """Number of completed flows (optionally per category/tenant)."""
        return len(self._selected(category, tenant))
