"""Figs. 13 and 16 — flow completion times under the benchmark workload.

Fig. 13 runs the three-class workload (2 KB query responses with fan-in,
short messages, heavy-tailed background flows) on the Fig. 4 testbed;
Fig. 16 runs the same generator on the 18-leaf / 360-server leaf-spine.
The reported rows are:

* query flows — mean and 95/99/99.9/99.99th-percentile FCT, per protocol
  (the paper's headline: TFC's mean is ~30x below DCTCP's, and its tail is
  flat because the delay function absorbs the response burst);
* background flows — 99.9th-percentile FCT per size bucket (TFC wins for
  mice, large flows pay a modest price because queries stop timing out and
  keep their bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..metrics.fct import FctCollector
from ..net.topology import leaf_spine, testbed
from ..sim.units import MILLISECOND, seconds
from ..workloads.empirical import BenchmarkWorkload
from .common import ExperimentResult, build_topology


@dataclass
class BenchmarkResult:
    """FCT summaries for one protocol under the benchmark workload."""

    protocol: str
    collector: FctCollector
    flows_launched: int
    drops: int

    def query_summary_us(self) -> Dict[str, float]:
        return self.collector.tail_summary_us("query")

    def background_p999_us(self) -> Dict[str, float]:
        return self.collector.bucketed_p999_us("background")

    def completion_fraction(self) -> float:
        launched = self.flows_launched
        return self.collector.completed() / launched if launched else 0.0


def run_benchmark(
    protocol: str,
    scale: str = "testbed",
    duration_s: float = 2.0,
    drain_s: float = 1.0,
    query_rate_per_s: float = 200.0,
    query_fanin: Optional[int] = None,
    short_rate_per_s: float = 30.0,
    background_rate_per_s: float = 30.0,
    min_rto_ns: int = 200 * MILLISECOND,
    seed: int = 0,
) -> BenchmarkResult:
    """Run the benchmark workload at testbed or large scale.

    ``scale="testbed"`` is the 9-host Fig. 4 network with a modest query
    fan-in; ``scale="large"`` is the leaf-spine of Fig. 16 where every
    query fans in from many servers (the paper uses all 359).  After the
    generation window, the run continues for ``drain_s`` so in-flight
    flows can finish.

    ``min_rto_ns`` defaults to the Linux 200 ms minimum RTO the paper's
    stacks used — it is what turns baseline incast drops into the
    order-of-magnitude FCT gaps of Figs. 13a and 16a.
    """
    if scale == "testbed":
        topo = build_topology(testbed, protocol, buffer_bytes=256_000, seed=seed)
        fanin = query_fanin if query_fanin is not None else 6
    elif scale == "large":
        topo = build_topology(
            leaf_spine, protocol, buffer_bytes=512_000, seed=seed
        )
        fanin = query_fanin if query_fanin is not None else 40
    else:
        raise ValueError(f"scale must be 'testbed' or 'large', got {scale!r}")

    collector = FctCollector()
    workload = BenchmarkWorkload(
        topo.hosts,
        protocol,
        duration_ns=seconds(duration_s),
        query_rate_per_s=query_rate_per_s,
        query_fanin=fanin,
        short_rate_per_s=short_rate_per_s,
        background_rate_per_s=background_rate_per_s,
        min_rto_ns=min_rto_ns,
        seed_name=f"benchmark:{scale}:{seed}",
        collector=collector,
    )
    topo.network.run_for(seconds(duration_s + drain_s))
    return BenchmarkResult(
        protocol=protocol,
        collector=collector,
        flows_launched=workload.flows_launched,
        drops=topo.network.total_drops(),
    )


def run_benchmark_cell(
    protocol: str, scale: str = "testbed", seed: int = 0, **kwargs
) -> ExperimentResult:
    """Runner entry point: :func:`run_benchmark` with every keyword
    forwarded, flattened into plain scalars/series so the result crosses
    a process boundary without dragging simulation objects along.
    """
    res = run_benchmark(protocol, scale=scale, seed=seed, **kwargs)
    scalars = {
        "flows_launched": float(res.flows_launched),
        "completed": float(res.collector.completed()),
        "completion_fraction": res.completion_fraction(),
        "drops": float(res.drops),
        "total_timeouts": float(res.collector.total_timeouts()),
    }
    if res.collector.completed("query"):
        for key, value in res.query_summary_us().items():
            scalars[f"query_fct_us:{key}"] = value
    for bucket, value in res.background_p999_us().items():
        scalars[f"bg_p999_us:{bucket}"] = value
    records = sorted(
        (r.category, r.size_bytes, r.fct_ns, r.timeouts)
        for r in res.collector.records
    )
    return ExperimentResult(
        name=f"fig13:{scale}:{protocol}:seed{seed}",
        protocol=protocol,
        scalars=scalars,
        series={"fct_records": records},
    )
