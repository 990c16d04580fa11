"""The Fig. 13 empirical workload on a multi-path fat tree.

The paper's benchmark mix (query fan-in, short messages, heavy-tailed
background flows) was evaluated on single-path topologies; this module
replays it on a k-ary fat tree per routing policy, which is the setting
the paper's §6.3 argues for but the original testbed could not build.
The questions it answers:

* does TFC's FCT advantage over DCTCP survive ECMP hash collisions and
  the resulting path asymmetry?
* what does per-packet spraying (maximal reordering) cost each
  protocol?  TFC's RM round accounting and the receivers' out-of-order
  reassembly both get exercised for real here.

Scalars mirror :mod:`repro.experiments.fig13_benchmark` (query FCT
tails, background p99.9 per size bucket, completion fraction) so the
two are directly comparable, plus the fabric-level drop count.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.fct import FctCollector
from ..net.topology import fat_tree
from ..sim.units import MILLISECOND, seconds
from ..workloads.empirical import BenchmarkWorkload
from .common import ExperimentResult, build_topology
from .fig13_benchmark import BenchmarkResult


def run_multipath_benchmark(
    protocol: str,
    routing: str = "ecmp",
    k: int = 4,
    duration_s: float = 2.0,
    drain_s: float = 1.0,
    query_rate_per_s: float = 200.0,
    query_fanin: Optional[int] = None,
    short_rate_per_s: float = 30.0,
    background_rate_per_s: float = 30.0,
    min_rto_ns: int = 200 * MILLISECOND,
    seed: int = 0,
) -> BenchmarkResult:
    """Run the benchmark workload on a fat tree under ``routing``.

    Defaults match the testbed-scale Fig. 13 run (same rates, same
    200 ms min-RTO) so differences against the single-path numbers are
    attributable to the fabric and the policy, not the workload.
    """
    topo = build_topology(
        fat_tree,
        protocol,
        buffer_bytes=256_000,
        k=k,
        seed=seed,
        routing=routing,
    )
    fanin = query_fanin if query_fanin is not None else min(
        6, len(topo.hosts) - 1
    )
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
        seed_name=f"benchmark:fattree{k}:{routing}:{seed}",
        collector=collector,
    )
    topo.network.run_for(seconds(duration_s + drain_s))
    return BenchmarkResult(
        protocol=protocol,
        collector=collector,
        flows_launched=workload.flows_launched,
        drops=topo.network.total_drops(),
    )


def run_multipath_cell(
    protocol: str,
    routing: str = "ecmp",
    k: int = 4,
    duration_s: float = 2.0,
    drain_s: float = 1.0,
    min_rto_ns: int = 200 * MILLISECOND,
    seed: int = 0,
) -> ExperimentResult:
    """Picklable cell adapter for the parallel runner."""
    res = run_multipath_benchmark(
        protocol,
        routing=routing,
        k=k,
        duration_s=duration_s,
        drain_s=drain_s,
        min_rto_ns=min_rto_ns,
        seed=seed,
    )
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
        name=f"mpath:fattree{k}:{routing}:{protocol}:seed{seed}",
        protocol=protocol,
        scalars=scalars,
        series={"fct_records": records},
    )
