"""The paper's benchmark workload (sections 6.1.2 "Benchmark" and 6.2.2).

Three traffic classes drive a topology for a configured duration:

* **Query traffic** — partition/aggregate requests: an aggregator host is
  picked per query and ``fanin`` other hosts each send it a 2 KB response
  simultaneously (the paper's large-scale run uses *all* other servers,
  359 of them).  Queries arrive as a Poisson process.
* **Short messages** — 50 KB - 1 MB coordination flows between random
  host pairs (Poisson).
* **Background flows** — sizes drawn from the DCTCP web-search CDF
  (heavy-tailed, up to tens of MB) between random host pairs (Poisson).

Completed flows are recorded in an :class:`~repro.metrics.fct.FctCollector`
under the categories ``"query"``, ``"short"`` and ``"background"`` — the
exact split the paper's Figs. 13 and 16 report.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..metrics.fct import FctCollector
from ..net.host import Host
from ..sim.rng import stable_seed
from ..sim.units import MILLISECOND
from ..transport.registry import open_flow
from .distributions import (
    QUERY_RESPONSE_BYTES,
    SHORT_MESSAGE_SIZES,
    WEB_SEARCH_FLOW_SIZES,
    PiecewiseCdf,
    poisson_arrival_times_ns,
)


class BenchmarkWorkload:
    """Generates and launches the three-class benchmark traffic."""

    def __init__(
        self,
        hosts: Sequence[Host],
        protocol: str,
        duration_ns: int,
        query_rate_per_s: float = 100.0,
        query_fanin: int = 8,
        query_response_bytes: int = QUERY_RESPONSE_BYTES,
        short_rate_per_s: float = 20.0,
        background_rate_per_s: float = 20.0,
        size_cdf: PiecewiseCdf = WEB_SEARCH_FLOW_SIZES,
        short_cdf: PiecewiseCdf = SHORT_MESSAGE_SIZES,
        min_rto_ns: int = 10 * MILLISECOND,
        seed_name: str = "benchmark",
        collector: Optional[FctCollector] = None,
        tenant: Optional[str] = None,
    ):
        if len(hosts) < 3:
            raise ValueError("benchmark needs at least three hosts")
        if query_fanin >= len(hosts):
            raise ValueError("query_fanin must leave room for the aggregator")
        self.hosts = list(hosts)
        self.protocol = protocol
        self.duration_ns = duration_ns
        self.query_fanin = query_fanin
        self.query_response_bytes = query_response_bytes
        self.min_rto_ns = min_rto_ns
        self.tenant = tenant
        self.collector = collector if collector is not None else FctCollector()
        self.sim = hosts[0].sim
        self._rng = random.Random(stable_seed(seed_name))
        self.queries_launched = 0
        self.flows_launched = 0

        self._schedule_queries(query_rate_per_s)
        self._schedule_pair_flows(
            short_rate_per_s, short_cdf, "short", f"{seed_name}:short"
        )
        self._schedule_pair_flows(
            background_rate_per_s, size_cdf, "background", f"{seed_name}:bg"
        )

    # ------------------------------------------------------------------
    def _schedule_queries(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            return
        for t in poisson_arrival_times_ns(
            self._rng, rate_per_s, self.duration_ns, start_ns=self.sim.now
        ):
            self.sim.post(t - self.sim.now, self._launch_query)

    def _launch_query(self) -> None:
        aggregator = self._rng.choice(self.hosts)
        responders = self._rng.sample(
            [h for h in self.hosts if h is not aggregator], self.query_fanin
        )
        self.queries_launched += 1
        for responder in responders:
            self._launch_flow(
                responder, aggregator, self.query_response_bytes, "query"
            )

    def _schedule_pair_flows(
        self, rate_per_s: float, cdf: PiecewiseCdf, category: str, stream: str
    ) -> None:
        if rate_per_s <= 0:
            return
        rng = random.Random(stable_seed(stream))
        for t in poisson_arrival_times_ns(
            rng, rate_per_s, self.duration_ns, start_ns=self.sim.now
        ):
            size = max(int(cdf.sample(rng)), 1)
            self.sim.post(t - self.sim.now, self._launch_pair_flow, size, category)

    def _launch_pair_flow(self, size: int, category: str) -> None:
        src, dst = self._rng.sample(self.hosts, 2)
        self._launch_flow(src, dst, size, category)

    def _launch_flow(
        self, src: Host, dst: Host, size: int, category: str
    ) -> None:
        self.collector.expect()
        self.flows_launched += 1
        open_flow(
            src,
            dst,
            self.protocol,
            size_bytes=size,
            on_complete=self.collector.completion_handler(category),
            min_rto_ns=self.min_rto_ns,
            tenant=self.tenant,
        )
