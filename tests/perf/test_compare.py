"""Perf harness: snapshot schema, comparison logic, and the tiny pinned
workloads themselves (at smoke scale, so CI never waits on a benchmark)."""

from repro.perf.bench import build_payload, machine_info, run_kernel_suite
from repro.perf.compare import (
    compare_results,
    snapshot_schedulers,
    snapshot_variants,
)
from repro.perf.workloads import (
    KERNEL_WORKLOADS,
    TimerChurnWorkload,
    run_churn_workload,
    run_kernel_workload,
)


def _kernel_rows(**rates):
    return [{"name": name, "events_per_sec": rate} for name, rate in rates.items()]


def test_compare_passes_within_threshold():
    committed = _kernel_rows(a=100_000.0)
    fresh = _kernel_rows(a=90_000.0)  # -10%, inside the 15% budget
    report, regressions = compare_results("kernel", committed, fresh, 0.15)
    assert regressions == []
    assert any("a@adaptive:" in line for line in report)


def test_compare_fails_beyond_threshold():
    committed = _kernel_rows(a=100_000.0, b=100_000.0)
    fresh = _kernel_rows(a=80_000.0, b=99_000.0)  # a is -20%
    _, regressions = compare_results("kernel", committed, fresh, 0.15)
    assert len(regressions) == 1
    assert "a@adaptive regressed" in regressions[0]


def test_compare_experiments_uses_inverse_wall_clock():
    committed = [{"name": "cell", "wall_s": 1.0}]
    fresh = [{"name": "cell", "wall_s": 1.3}]  # 30% slower -> regression
    _, regressions = compare_results("experiments", committed, fresh, 0.15)
    assert regressions
    fresh_ok = [{"name": "cell", "wall_s": 1.1}]  # ~9% slower -> fine
    _, regressions = compare_results("experiments", committed, fresh_ok, 0.15)
    assert regressions == []


def test_compare_tolerates_renamed_workloads():
    """Added/removed workloads are reported, never a red build."""
    committed = _kernel_rows(old=100_000.0)
    fresh = _kernel_rows(new=100_000.0)
    report, regressions = compare_results("kernel", committed, fresh, 0.15)
    assert regressions == []
    assert any("missing" in line for line in report)
    assert any("new workload" in line for line in report)


def test_snapshot_payload_schema():
    payload = build_payload(
        "kernel",
        _kernel_rows(a=1.0),
        repeats=1,
        baseline={"label": "x", "results": {"a": 1.0}},
    )
    assert payload["schema"] == 1
    assert payload["kind"] == "kernel"
    assert payload["machine"]["cpu_count"] == machine_info()["cpu_count"]
    assert isinstance(payload["git_sha"], str)
    assert payload["baseline"]["results"] == {"a": 1.0}


def test_compare_skips_zero_throughput_baseline():
    """A zero committed number can't produce a ratio: warn and skip."""
    committed = _kernel_rows(a=0.0, b=100_000.0)
    fresh = _kernel_rows(a=50_000.0, b=100_000.0)
    report, regressions = compare_results("kernel", committed, fresh, 0.15)
    assert regressions == []
    assert any("zero" in line for line in report)


def test_compare_matches_legacy_bare_names_to_adaptive_rows():
    """Pre-backend snapshots (bare names) gate against the adaptive rows
    of a fresh backend-dimension run."""
    committed = _kernel_rows(dumbbell=100_000.0)
    fresh = [
        {"name": "dumbbell@adaptive", "events_per_sec": 70_000.0},
        {"name": "dumbbell@wheel", "events_per_sec": 200_000.0},
    ]
    report, regressions = compare_results("kernel", committed, fresh, 0.15)
    assert len(regressions) == 1
    assert "dumbbell@adaptive" in regressions[0]
    assert any("dumbbell@wheel: new workload" in line for line in report)


def test_snapshot_schedulers_extraction():
    rows = [
        {"name": "a@heap", "scheduler": "heap"},
        {"name": "a@wheel", "scheduler": "wheel"},
        {"name": "b@heap", "scheduler": "heap"},
        {"name": "legacy_bare"},
    ]
    assert snapshot_schedulers(rows) == ["heap", "wheel", "adaptive"]


def test_snapshot_schedulers_skips_variant_rows():
    rows = [
        {"name": "a@heap", "scheduler": "heap"},
        {"name": "a@heap+unbatched", "scheduler": "heap", "variant": "unbatched"},
        {"name": "a@heap+compiled"},  # variant key absent: name parse
    ]
    assert snapshot_schedulers(rows) == ["heap"]


def test_snapshot_variants_extraction():
    rows = [
        {"name": "a@heap", "scheduler": "heap"},
        {"name": "a@heap+unbatched", "variant": "unbatched"},
        {"name": "b@heap+unbatched", "variant": "unbatched"},
        {"name": "a@heap+compiled"},  # variant key absent: name parse
    ]
    assert snapshot_variants(rows) == ["unbatched", "compiled"]
    # Pre-variant snapshots yield no variants, so the gate measures none.
    assert snapshot_variants([{"name": "a@heap"}, {"name": "legacy"}]) == []


def test_variant_cells_pair_with_their_lead_plain_cell(monkeypatch):
    """A variant cell runs immediately after its workload's lead-backend
    plain cell — the pair readers compare must not straddle machine
    drift accumulated over the rest of the matrix."""
    from repro.perf import bench

    calls = []

    def fake(workload, duration_scale=1.0, scheduler=None, variant=None):
        calls.append((workload.name, scheduler, variant))
        return {"name": workload.name, "events_per_sec": 1.0}

    monkeypatch.setattr(bench, "run_kernel_workload", fake)
    run_kernel_suite(
        repeats=1, schedulers=("adaptive", "heap"), variants=("unbatched",)
    )
    for workload in KERNEL_WORKLOADS:
        name = workload.name
        mine = [c for c in calls if c[0] == name]
        if getattr(workload, "lead_only", False):
            # Sharded-fabric twins: lead backend only, no variant rows.
            assert mine == [(name, "adaptive", None)]
        else:
            assert mine == [
                (name, "adaptive", None),
                (name, "adaptive", "unbatched"),
                (name, "heap", None),
            ]


def test_kernel_workloads_run_at_smoke_scale():
    """The pinned workloads execute end-to-end (1% duration: ~fractions of
    a second) and report sane positive throughput."""
    results = run_kernel_suite(
        repeats=1, duration_scale=0.01, schedulers=("adaptive",)
    )
    assert [r["name"] for r in results] == [
        f"{w.name}@adaptive" for w in KERNEL_WORKLOADS
    ]
    for row in results:
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        assert row["scheduler"] == "adaptive"
        assert row["workload"] in {w.name for w in KERNEL_WORKLOADS}


def test_unpinned_rows_record_the_backend_that_ran(monkeypatch):
    """``scheduler=None`` rows carry the name the simulator resolved, not
    a hard-coded default: the shipped ``heap``, or whatever
    ``REPRO_SCHEDULER`` names."""
    tiny = TimerChurnWorkload("churn_probe", 8, 0.0005)
    dumbbell = KERNEL_WORKLOADS[0]
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    assert run_churn_workload(tiny)["scheduler"] == "heap"
    assert run_kernel_workload(dumbbell, 0.005)["scheduler"] == "heap"
    monkeypatch.setenv("REPRO_SCHEDULER", "wheel")
    assert run_churn_workload(tiny)["scheduler"] == "wheel"
    assert run_kernel_workload(dumbbell, 0.005)["scheduler"] == "wheel"
    assert run_kernel_workload(dumbbell, 0.005, "adaptive")["scheduler"] == (
        "adaptive"
    )


def test_churn_workload_is_backend_invariant():
    """The timer-churn trace is bit-identical across backends: same event
    count and final clock on every scheduler."""
    tiny = TimerChurnWorkload("churn_probe", 64, 0.001)
    reference = None
    for scheduler in ("heap", "calendar", "wheel", "adaptive"):
        row = run_churn_workload(tiny, scheduler=scheduler)
        probe = (row["events"],)
        if reference is None:
            reference = probe
        assert probe == reference, scheduler
