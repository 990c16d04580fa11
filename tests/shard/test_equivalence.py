"""Sharded execution is bit-identical to the serial reference.

The contract: partitioning a fat tree across shards with the
conservative-lookahead coordinator changes *nothing* about the
simulation's results — every transport counter, receiver state digest
and per-node drop count matches the single-Simulator run exactly.  No
tolerance, no statistics: dict equality.  (Cross-shard arrivals are
injected strictly inside the destination's future — arrival >= horizon
+ 1 by the lookahead bound — and ties are broken by a deterministic
(arrival, src_shard, capture_seq) sort, so there is no tie-order
wiggle room to paper over.)
"""

import pytest

from repro.sim.shard import (
    ShardError,
    ShardSpec,
    plan_fat_tree,
    run_serial_reference,
    run_sharded,
)
from repro.sim.shard.workload import build_pod_traffic, collect_pod_traffic

END_NS = 1_000_000  # 1 ms simulated


def make_spec(pod_shards=2, k=4, protocol="tfc", seed=0, end_ns=END_NS,
              lookahead_ns=None):
    return ShardSpec(
        plan=plan_fat_tree(
            k=k, pod_shards=pod_shards, lookahead_ns=lookahead_ns
        ),
        build=build_pod_traffic,
        collect=collect_pod_traffic,
        end_ns=end_ns,
        root_seed=seed,
        build_kwargs={"k": k, "protocol": protocol},
    )


# ----------------------------------------------------------------------
# The pinned equivalence cross-check
# ----------------------------------------------------------------------
def test_sharded_bit_identical_to_serial():
    spec = make_spec(pod_shards=2)
    serial = run_serial_reference(spec)
    sharded = run_sharded(spec, mode="inline")
    assert sharded.merged() == serial.metrics
    # The run genuinely crossed shard boundaries and epoch barriers.
    assert sharded.shards == 3
    assert sharded.epochs > 1
    assert sharded.messages > 0


@pytest.mark.parametrize("protocol", ("tcp", "dctcp"))
def test_sharded_bit_identical_other_transports(protocol):
    spec = make_spec(pod_shards=2, protocol=protocol)
    serial = run_serial_reference(spec)
    sharded = run_sharded(spec, mode="inline")
    assert sharded.merged() == serial.metrics


@pytest.mark.parametrize("pod_shards", (1, 4))
def test_results_invariant_across_shard_counts(pod_shards):
    """Any shard count produces the same merged dict (seed invariance)."""
    reference = run_sharded(make_spec(pod_shards=2), mode="inline")
    other = run_sharded(make_spec(pod_shards=pod_shards), mode="inline")
    assert other.merged() == reference.merged()
    assert other.shards == pod_shards + 1


def test_process_mode_matches_inline():
    """Real worker processes produce the identical merged dict."""
    spec = make_spec(pod_shards=2)
    inline = run_sharded(spec, mode="inline")
    try:
        process = run_sharded(spec, mode="process")
    except (OSError, ImportError, PermissionError) as exc:
        pytest.skip(f"multiprocessing unavailable here: {exc!r}")
    assert process.mode == "process"
    assert inline.mode == "inline"
    assert process.merged() == inline.merged()
    # Coordination is deterministic, not just the physics.
    assert process.epochs == inline.epochs
    assert process.messages == inline.messages


def test_auto_mode_runs_and_matches_serial():
    spec = make_spec(pod_shards=2)
    result = run_sharded(spec)  # mode="auto"
    assert result.mode in ("process", "inline")
    assert result.merged() == run_serial_reference(spec).metrics


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        run_sharded(make_spec(), mode="threads")


def test_lookahead_exceeding_link_delay_rejected():
    """A lookahead above the real boundary delay would break causality —
    attach refuses to arm it rather than silently desynchronising."""
    spec = make_spec(lookahead_ns=10_000_000)
    with pytest.raises(ShardError, match="lookahead"):
        run_sharded(spec, mode="inline")


def test_merged_metrics_partition_cleanly():
    """Per-shard metric dicts are disjoint and union to the serial set."""
    spec = make_spec(pod_shards=2)
    serial = run_serial_reference(spec)
    sharded = run_sharded(spec, mode="inline")
    seen = set()
    for payload in sharded.per_shard:
        keys = set(payload)
        assert seen.isdisjoint(keys)
        seen |= keys
    assert seen == set(serial.metrics)
