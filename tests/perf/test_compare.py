"""Perf harness: snapshot schema, comparison logic, and the tiny pinned
workloads themselves (at smoke scale, so CI never waits on a benchmark)."""

import json
from pathlib import Path

import pytest

from repro.perf import bench, compare, workloads
from repro.perf.bench import build_payload, machine_info, run_kernel_suite
from repro.perf.compare import compare_results, snapshot_variants
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


def test_snapshot_variants_extraction():
    rows = [
        {"name": "a@heap", "scheduler": "heap"},
        {"name": "a@heap+unbatched", "variant": "unbatched"},
        {"name": "b@heap+unbatched", "variant": "unbatched"},
        {"name": "a@heap+compiled"},  # variant key absent: name parse
    ]
    # ``unbatched`` is no longer measurable: its rows stay in committed
    # snapshots but are not requested from the fresh run.
    assert snapshot_variants(rows) == ["compiled"]
    # Pre-variant snapshots yield no variants, so the gate measures none.
    assert snapshot_variants([{"name": "a@heap"}, {"name": "legacy"}]) == []


def test_variant_cells_pair_with_their_lead_plain_cell(monkeypatch):
    """A variant cell runs immediately after its workload's plain cell —
    the pair readers compare must not straddle machine drift
    accumulated over the rest of the suite."""
    from repro.perf import bench

    calls = []

    def fake(workload, duration_scale=1.0, variant=None):
        calls.append((workload.name, variant))
        return {"name": workload.name, "events_per_sec": 1.0}

    monkeypatch.setattr(bench, "run_kernel_workload", fake)
    run_kernel_suite(repeats=1, variants=("compiled",))
    expected = []
    for workload in KERNEL_WORKLOADS:
        expected.append((workload.name, None))
        if not getattr(workload, "lead_only", False):
            # Sharded-fabric twins measure no variant rows.
            expected.append((workload.name, "compiled"))
    assert calls == expected


def test_compare_reports_committed_unbatched_rows_as_missing(
    monkeypatch, capsys
):
    """The committed kernel snapshot still carries ``+unbatched`` rows.
    Comparing against it must not ask the suite for that variant (which
    would raise); those rows are reported as missing instead."""
    snapshot = REPO_ROOT / "BENCH_kernel.json"
    unbatched = [
        row["name"]
        for row in json.loads(snapshot.read_text())["results"]
        if row["name"].endswith("+unbatched")
    ]
    assert unbatched

    def fake(workload, duration_scale=1.0, variant=None):
        workloads._variant_env(variant)  # the real variant check
        suffix = f"+{variant}" if variant else ""
        return {"name": f"{workload.name}@heap{suffix}",
                "events_per_sec": 1e12}

    monkeypatch.setattr(bench, "run_kernel_workload", fake)
    assert compare.main([str(snapshot), "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    for name in unbatched:
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


def test_variant_env_covers_exactly_the_measurable_variants():
    assert workloads.VARIANT_NAMES == ("", "compiled")
    assert workloads._variant_env("") == {}
    assert workloads._variant_env(None) == {}
    assert workloads._variant_env("compiled") == {"compiled": "on"}
    with pytest.raises(ValueError, match=r"\('compiled',\)"):
        workloads._variant_env("unbatched")  # a removed variant


def test_default_variants_add_the_compiled_core_only_when_built():
    from repro.sim.engine import load_core

    built = load_core(True).COMPILED
    assert bench.default_variants() == (("compiled",) if built else ())


def test_bench_variants_option(monkeypatch, capsys):
    """``--variants`` takes ``auto``, ``none`` or a comma list and hands
    the kernel suite exactly that list."""
    seen = []

    def fake(repeats, duration_scale, variants, workloads=None):
        seen.append(list(variants))
        return [{"name": "w@heap", "events_per_sec": 1.0}]

    monkeypatch.setattr(bench, "run_kernel_suite", fake)
    monkeypatch.setattr(bench, "default_variants", lambda: ("compiled",))
    for option in ("auto", "none", "compiled", "compiled,,"):
        assert bench.main(["--variants", option, "--repeats", "1"]) == 0
    assert seen == [["compiled"], [], ["compiled"], ["compiled"]]
    capsys.readouterr()
