"""Perf harness: snapshot schema, comparison logic, and the tiny pinned
workloads themselves (at smoke scale, so CI never waits on a benchmark)."""

import json
from pathlib import Path

from repro.perf import bench, compare
from repro.perf.bench import build_payload, machine_info, run_kernel_suite
from repro.perf.compare import compare_results
from repro.perf.workloads import KERNEL_WORKLOADS

REPO_ROOT = Path(__file__).resolve().parents[2]


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
        {"name": "dumbbell@heap", "events_per_sec": 200_000.0},
    ]
    report, regressions = compare_results("kernel", committed, fresh, 0.15)
    assert len(regressions) == 1
    assert "dumbbell@adaptive" in regressions[0]
    assert any("dumbbell@heap: new workload" in line for line in report)


def test_compare_reports_committed_unbatched_rows_as_missing(
    monkeypatch, capsys
):
    """The committed kernel snapshot still carries ``+unbatched`` rows.
    The suite measures one row per workload, so those rows are reported
    as missing instead."""
    snapshot = REPO_ROOT / "BENCH_kernel.json"
    unbatched = [
        row["name"]
        for row in json.loads(snapshot.read_text())["results"]
        if row["name"].endswith("+unbatched")
    ]
    assert unbatched

    def fake(workload, duration_scale=1.0):
        return {"name": f"{workload.name}@heap", "events_per_sec": 1e12}

    monkeypatch.setattr(bench, "run_kernel_workload", fake)
    assert compare.main([str(snapshot), "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    for name in unbatched:
        assert f"{name}: missing from fresh run (skipped)" in out


def test_compare_reports_committed_sharded_rows_as_missing(
    monkeypatch, capsys
):
    """The committed kernel snapshot still carries the serial/sharded
    ``fattree8`` twin rows; their workloads are gone from the suite, so
    those rows are reported as missing instead."""
    snapshot = REPO_ROOT / "BENCH_kernel.json"
    twins = [
        row["name"]
        for row in json.loads(snapshot.read_text())["results"]
        if row["name"].startswith("fattree8_tfc_")
    ]
    assert len(twins) == 2

    def fake(workload, duration_scale=1.0):
        return {"name": f"{workload.name}@heap", "events_per_sec": 1e12}

    monkeypatch.setattr(bench, "run_kernel_workload", fake)
    assert compare.main([str(snapshot), "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    for name in twins:
        assert f"{name}: missing from fresh run (skipped)" in out


def test_kernel_workloads_run_at_smoke_scale():
    """The pinned workloads execute end-to-end (1% duration: ~fractions of
    a second) and report sane positive throughput."""
    results = run_kernel_suite(repeats=1, duration_scale=0.01)
    assert [r["name"] for r in results] == [
        f"{w.name}@heap" for w in KERNEL_WORKLOADS
    ]
    for row in results:
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        assert row["workload"] in {w.name for w in KERNEL_WORKLOADS}
