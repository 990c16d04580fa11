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

The ``mpath`` figure replays the same mix on a k-ary fat tree per routing
policy (``scale="fattree"``), the multi-path setting the paper's §6.3
argues for but its testbed could not build: does TFC's FCT advantage
survive ECMP hash collisions, and what does per-packet spraying (maximal
reordering) cost each protocol?
"""

from __future__ import annotations

from typing import Optional

from ..metrics.fct import FctCollector
from ..net.topology import fat_tree, leaf_spine, testbed
from ..sim.units import MILLISECOND, seconds
from ..workloads.empirical import BenchmarkWorkload
from .common import ExperimentResult, build_topology


def run_benchmark_cell(
    protocol: str,
    scale: str = "testbed",
    routing: Optional[str] = None,
    k: int = 4,
    duration_s: float = 2.0,
    drain_s: float = 1.0,
    query_rate_per_s: float = 200.0,
    query_fanin: Optional[int] = None,
    short_rate_per_s: float = 30.0,
    background_rate_per_s: float = 30.0,
    min_rto_ns: int = 200 * MILLISECOND,
    seed: int = 0,
) -> ExperimentResult:
    """Run the benchmark workload at testbed, large or fat-tree scale.

    ``scale="testbed"`` is the 9-host Fig. 4 network with a modest query
    fan-in; ``scale="large"`` is the leaf-spine of Fig. 16 where every
    query fans in from many servers (the paper uses all 359);
    ``scale="fattree"`` is a ``k``-ary fat tree under the testbed run's
    workload, so differences against the single-path numbers are the
    fabric's and the policy's.  ``routing`` (None = the network's
    default) picks the routing policy.  After the generation window, the
    run continues for ``drain_s`` so in-flight flows can finish.

    ``min_rto_ns`` defaults to the Linux 200 ms minimum RTO the paper's
    stacks used — it is what turns baseline incast drops into the
    order-of-magnitude FCT gaps of Figs. 13a and 16a.

    The result carries plain scalars and the sorted FCT records, so it
    crosses a process boundary without dragging simulation objects along.
    """
    if scale == "testbed":
        builder, buffer_bytes, extra = testbed, 256_000, {}
    elif scale == "large":
        builder, buffer_bytes, extra = leaf_spine, 512_000, {}
    elif scale == "fattree":
        builder, buffer_bytes, extra = fat_tree, 256_000, {"k": k}
    else:
        raise ValueError(
            f"scale must be 'testbed', 'large' or 'fattree', got {scale!r}"
        )
    topo = build_topology(
        builder, protocol, buffer_bytes=buffer_bytes, seed=seed, routing=routing,
        **extra,
    )
    if query_fanin is None:
        query_fanin = 40 if scale == "large" else min(6, len(topo.hosts) - 1)
    figure, label = "fig13", scale
    if scale == "fattree":
        figure, label = "mpath", f"fattree{k}:{routing}"

    collector = FctCollector()
    workload = BenchmarkWorkload(
        topo.hosts,
        protocol,
        duration_ns=seconds(duration_s),
        query_rate_per_s=query_rate_per_s,
        query_fanin=query_fanin,
        short_rate_per_s=short_rate_per_s,
        background_rate_per_s=background_rate_per_s,
        min_rto_ns=min_rto_ns,
        seed_name=f"benchmark:{label}:{seed}",
        collector=collector,
    )
    topo.network.run_for(seconds(duration_s + drain_s))

    launched = workload.flows_launched
    completed = collector.completed()
    scalars = {
        "flows_launched": float(launched),
        "completed": float(completed),
        "completion_fraction": completed / launched if launched else 0.0,
        "drops": float(topo.network.total_drops()),
        "total_timeouts": float(collector.total_timeouts()),
    }
    if collector.completed("query"):
        for key, value in collector.tail_summary_us("query").items():
            scalars[f"query_fct_us:{key}"] = value
    for bucket, value in collector.bucketed_p999_us("background").items():
        scalars[f"bg_p999_us:{bucket}"] = value
    records = sorted(
        (r.category, r.size_bytes, r.fct_ns, r.timeouts)
        for r in collector.records
    )
    return ExperimentResult(
        name=f"{figure}:{label}:{protocol}:seed{seed}",
        protocol=protocol,
        scalars=scalars,
        series={"fct_records": records},
    )

