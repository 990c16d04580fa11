"""Parallel experiment runner: determinism across worker counts, crash
surfacing, seed derivation, and the serial fallback path."""

import pickle

import pytest

from repro.experiments.common import derive_cell_seed
from repro.experiments.runner import (
    FIGURE_CELLS,
    CellSpec,
    RunnerError,
    default_plan,
    run_cells,
)

# Two small, distinct fig14 cells: cheap enough for a pool round-trip on a
# single-CPU machine, rich enough that a determinism break would show.
QUICK_SPECS = [
    CellSpec("fig14", {"rho0": 0.94, "n_flows": 2, "duration_s": 0.05}),
    CellSpec("fig14", {"rho0": 1.00, "n_flows": 2, "duration_s": 0.05}),
]


def test_serial_matches_parallel():
    """jobs=1 and jobs=4 must return bit-identical ExperimentResults."""
    serial = run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    parallel = run_cells(QUICK_SPECS, jobs=4, root_seed=7)
    assert serial == parallel
    # Results survive pickling unchanged (the pool relies on this).
    assert pickle.loads(pickle.dumps(serial)) == serial


def test_unknown_scheduler_rejected():
    """The kernel has one event queue: the runner's scheduler selection
    is gone from both the keyword and the command line."""
    from repro.experiments.runner import main

    with pytest.raises(TypeError):
        run_cells(QUICK_SPECS[:1], jobs=1, root_seed=7, scheduler="heap")
    with pytest.raises(SystemExit):
        main(["--figures", "fig14", "--scheduler", "heap"])


# Small multi-path cells: one collision run and one fat-tree benchmark
# run, each under a policy that actually exercises the equal-cost picks.
MULTIPATH_SPECS = [
    CellSpec(
        "ecmp",
        {"protocol": "tfc", "routing": "ecmp", "n_flows": 4, "duration_s": 0.02},
    ),
    CellSpec(
        "mpath",
        {"protocol": "tfc", "routing": "spray", "duration_s": 0.05, "drain_s": 0.05},
    ),
]


def test_multipath_cells_serial_matches_parallel():
    """Routing policies keep --jobs N bit-identical to a serial run."""
    serial = run_cells(MULTIPATH_SPECS, jobs=1, root_seed=7)
    parallel = run_cells(MULTIPATH_SPECS, jobs=2, root_seed=7)
    assert serial == parallel
    assert pickle.loads(pickle.dumps(serial)) == serial


def test_routing_env_pins_policy_and_is_restored(monkeypatch):
    """run_cells(routing=...) exports REPRO_ROUTING for the cells' own
    topology builds and restores the environment afterwards."""
    import os

    monkeypatch.delenv("REPRO_ROUTING", raising=False)
    # fig14 cells build their networks internally; pinning the policy
    # through the env must not change single-bottleneck results.
    reference = run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    pinned = run_cells(QUICK_SPECS, jobs=1, root_seed=7, routing="ecmp")
    assert pinned == reference
    assert "REPRO_ROUTING" not in os.environ


def test_unknown_routing_rejected():
    with pytest.raises(ValueError, match="unknown routing"):
        run_cells(QUICK_SPECS[:1], jobs=1, root_seed=7, routing="bogus")


def test_profile_dir_writes_one_stats_file_per_cell(tmp_path):
    """--profile produces loadable pstats files and identical results."""
    import pstats

    profiled = run_cells(
        QUICK_SPECS, jobs=1, root_seed=7, profile_dir=str(tmp_path)
    )
    reference = run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    assert profiled == reference
    files = sorted(tmp_path.glob("cell_*.prof"))
    assert len(files) == len(QUICK_SPECS)
    stats = pstats.Stats(str(files[0]))
    assert stats.total_calls > 0


def test_profile_dir_composes_with_process_pool(tmp_path):
    """--profile with --jobs > 1: each worker dumps its own cell's stats
    (simulation frames, not pool plumbing) and results stay identical."""
    import pstats

    profiled = run_cells(
        QUICK_SPECS, jobs=2, root_seed=7, profile_dir=str(tmp_path)
    )
    reference = run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    assert profiled == reference
    files = sorted(tmp_path.glob("cell_*.prof"))
    assert len(files) == len(QUICK_SPECS)
    for path in files:
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0
        # The profile saw the simulation itself, not just pool plumbing.
        assert any(
            "engine" in str(func) for func in stats.stats  # type: ignore[attr-defined]
        )


def test_results_in_submission_order():
    results = run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    assert [r.scalars["rho0"] for r in results] == [0.94, 1.00]


def test_cell_seed_depends_on_identity_not_order():
    """Cell seeds derive from (root_seed, labels), not execution order."""
    a = CellSpec("fig14", {"rho0": 0.94}).resolved(root_seed=1)
    b = CellSpec("fig14", {"rho0": 1.00}).resolved(root_seed=1)
    assert a.kwargs["seed"] != b.kwargs["seed"]
    # Stable across calls and independent of sibling cells.
    assert a.kwargs["seed"] == CellSpec("fig14", {"rho0": 0.94}).resolved(1).kwargs["seed"]
    # Different root seeds give different cell seeds.
    assert a.kwargs["seed"] != CellSpec("fig14", {"rho0": 0.94}).resolved(2).kwargs["seed"]
    # An explicitly pinned seed is left alone.
    pinned = CellSpec("fig14", {"rho0": 0.94, "seed": 5}).resolved(1)
    assert pinned.kwargs["seed"] == 5


def test_derive_cell_seed_is_stable():
    """The derivation is a pure hash — pin one value so it never drifts."""
    assert derive_cell_seed(0, "fig14", "rho0=0.94") == derive_cell_seed(
        0, "fig14", "rho0=0.94"
    )
    assert derive_cell_seed(0, "a") != derive_cell_seed(0, "b")


def test_unknown_figure_raises_runner_error_serial():
    with pytest.raises(RunnerError, match="unknown figure"):
        run_cells([CellSpec("fig99", {})], jobs=1)


def test_worker_crash_surfaces_with_cell_label():
    """A cell failing inside a pool worker names the cell in the error."""
    specs = [
        CellSpec("fig14", {"rho0": 0.94, "n_flows": 2, "duration_s": 0.05}),
        CellSpec("fig14", {"rho0": 1.00, "no_such_kwarg": True}),
    ]
    with pytest.raises(RunnerError, match="no_such_kwarg"):
        run_cells(specs, jobs=2)


def test_telemetry_dir_exports_per_cell_files(tmp_path, monkeypatch):
    """--telemetry DIR writes one metrics/slots/flight trio per cell and
    leaves the results bit-identical to a telemetry-off run."""
    import os

    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    reference = run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    with_telemetry = run_cells(
        QUICK_SPECS, jobs=1, root_seed=7, telemetry_dir=str(tmp_path)
    )
    assert with_telemetry == reference
    metrics = sorted(tmp_path.glob("*.metrics.jsonl"))
    assert len(metrics) == len(QUICK_SPECS)
    assert len(list(tmp_path.glob("*.slots.csv"))) == len(QUICK_SPECS)
    assert len(list(tmp_path.glob("*.flight.jsonl"))) == len(QUICK_SPECS)
    # the env pins are restored afterwards
    assert "REPRO_TELEMETRY" not in os.environ
    assert "REPRO_TELEMETRY_DIR" not in os.environ


def test_telemetry_mode_without_dir_records_quietly(tmp_path):
    """telemetry="counters" without a directory attaches sessions but
    writes nothing (and must not change results)."""
    reference = run_cells(QUICK_SPECS[:1], jobs=1, root_seed=7)
    recorded = run_cells(
        QUICK_SPECS[:1], jobs=1, root_seed=7, telemetry="counters"
    )
    assert recorded == reference
    assert list(tmp_path.iterdir()) == []


def test_telemetry_parallel_workers_export_too(tmp_path):
    """Pool workers inherit REPRO_TELEMETRY* and export from inside the
    worker process."""
    results = run_cells(
        QUICK_SPECS, jobs=2, root_seed=7, telemetry_dir=str(tmp_path)
    )
    assert results == run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    assert len(list(tmp_path.glob("*.metrics.jsonl"))) == len(QUICK_SPECS)


def test_unknown_telemetry_rejected():
    with pytest.raises(ValueError, match="unknown telemetry"):
        run_cells(QUICK_SPECS[:1], jobs=1, root_seed=7, telemetry="bogus")


def test_run_cells_accepts_simconfig(tmp_path):
    """A prebuilt SimConfig is honoured verbatim (seed included)."""
    from repro.config import SimConfig

    cfg = SimConfig(seed=7, lossless="off", telemetry="full",
                    telemetry_dir=str(tmp_path))
    results = run_cells(QUICK_SPECS, jobs=1, config=cfg)
    assert results == run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    assert len(list(tmp_path.glob("*.metrics.jsonl"))) == len(QUICK_SPECS)


# ----------------------------------------------------------------------
# --cell-timeout: killable per-cell processes (satellite of the lossless
# robustness PR — a hung cell must not hang the batch)
# ----------------------------------------------------------------------
def test_cell_timeout_under_budget_matches_untimed_run():
    """Cells that finish inside the budget are bit-identical to a plain
    run — the process round-trip must not perturb results."""
    reference = run_cells(QUICK_SPECS, jobs=1, root_seed=7)
    guarded = run_cells(QUICK_SPECS, jobs=1, root_seed=7, cell_timeout=120.0)
    assert guarded == reference
    guarded_parallel = run_cells(
        QUICK_SPECS, jobs=2, root_seed=7, cell_timeout=120.0
    )
    assert guarded_parallel == reference


def test_cell_timeout_kills_hung_cell_deterministically():
    """A cell exceeding the budget is terminated and reported as the
    deterministic ``timed_out`` placeholder; its neighbours complete."""
    specs = [
        QUICK_SPECS[0],
        # A 30-simulated-second fig06 run takes minutes of wall-clock —
        # it will never finish inside the budget; the quick fig14 cell
        # finishes in well under a second even on a loaded machine.
        CellSpec("fig06", {"duration_s": 30.0}),
    ]
    results = run_cells(specs, jobs=2, root_seed=7, cell_timeout=4.0)
    reference = run_cells(QUICK_SPECS[:1], jobs=1, root_seed=7)
    assert results[0] == reference[0]
    assert results[1].name == "fig06"
    assert results[1].scalars == {"timed_out": 1.0, "cell_timeout_s": 4.0}
    assert results[1].series == {}


def test_cell_timeout_result_is_pure_function_of_spec():
    """The placeholder depends only on (spec, budget) — two kills of the
    same cell compare equal, which is what keeps timed-out batches
    reproducible."""
    from repro.experiments.runner import timed_out_result

    spec = CellSpec("fig06", {"duration_s": 30.0}).resolved(7)
    assert timed_out_result(spec, 1.5) == timed_out_result(spec, 1.5)
    assert timed_out_result(spec, 1.5) != timed_out_result(spec, 2.0)


def test_cell_timeout_surfaces_worker_errors():
    """A cell that *fails* (rather than hangs) under the timeout path
    still raises RunnerError naming the cell."""
    specs = [CellSpec("fig14", {"rho0": 1.00, "no_such_kwarg": True})]
    with pytest.raises(RunnerError, match="no_such_kwarg"):
        run_cells(specs, jobs=1, cell_timeout=60.0)


def test_cell_timeout_cli_rejects_non_positive():
    from repro.experiments.runner import main

    with pytest.raises(SystemExit):
        main(["--figures", "fig14", "--cell-timeout", "0"])


def test_default_plan_covers_every_figure():
    figures = sorted(FIGURE_CELLS)
    specs = default_plan(figures, quick=True)
    assert {s.figure for s in specs} == set(figures)
    # Every planned cell names a registered entry point.
    for spec in specs:
        assert spec.figure in FIGURE_CELLS


def test_default_plan_rejects_unknown_figure():
    with pytest.raises(RunnerError, match="no default plan"):
        default_plan(["fig99"])
