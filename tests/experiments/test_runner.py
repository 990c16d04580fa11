"""Parallel experiment runner: determinism across worker counts, crash
surfacing, seed derivation, and the serial fallback path."""

import pickle

import pytest

from repro.config import SimConfig
from repro.experiments.chaos import FAULT_KINDS
from repro.experiments.common import derive_cell_seed
from repro.experiments.runner import (
    FIGURE_CELLS,
    CellSpec,
    RunnerError,
    default_plan,
    run_cells,
)
from repro.sim.units import milliseconds

# Two small, distinct fig14 cells: cheap enough for a pool round-trip on a
# single-CPU machine, rich enough that a determinism break would show.
QUICK_SPECS = [
    CellSpec("fig14", {"rho0": 0.94, "n_flows": 2, "duration_s": 0.05}),
    CellSpec("fig14", {"rho0": 1.00, "n_flows": 2, "duration_s": 0.05}),
]


def test_serial_matches_parallel():
    """jobs=1 and jobs=4 must return bit-identical ExperimentResults."""
    serial = run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
    parallel = run_cells(QUICK_SPECS, jobs=4, config=SimConfig(seed=7))
    assert serial == parallel
    # Results survive pickling unchanged (the pool relies on this).
    assert pickle.loads(pickle.dumps(serial)) == serial


def test_unknown_scheduler_rejected():
    """The kernel has one event queue: the runner's scheduler selection
    is gone from both the keyword and the command line."""
    from repro.experiments.runner import main

    with pytest.raises(TypeError):
        run_cells(QUICK_SPECS[:1], jobs=1, config=SimConfig(seed=7), scheduler="heap")
    with pytest.raises(SystemExit):
        main(["--figures", "fig14", "--scheduler", "heap"])


def test_removed_shard_count_is_refused():
    """Single-simulation sharding is gone: ``shards=`` is not a keyword
    and ``--shards`` is a usage error, checked before anything runs."""
    from repro.experiments.runner import main

    with pytest.raises(TypeError, match="shards"):
        run_cells(QUICK_SPECS[:1], jobs=1, config=SimConfig(seed=7), shards=2)
    with pytest.raises(SystemExit) as excinfo:
        main(["--list-figures", "--shards", "2"])
    assert excinfo.value.code == 2


def test_removed_shard_figure_is_refused():
    from repro.experiments.runner import main

    assert "shard" not in FIGURE_CELLS
    with pytest.raises(RunnerError, match="no default plan for 'shard'"):
        default_plan(["shard"])
    with pytest.raises(SystemExit) as excinfo:
        main(["--figures", "shard"])
    assert excinfo.value.code == 2


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
    serial = run_cells(MULTIPATH_SPECS, jobs=1, config=SimConfig(seed=7))
    parallel = run_cells(MULTIPATH_SPECS, jobs=2, config=SimConfig(seed=7))
    assert serial == parallel
    assert pickle.loads(pickle.dumps(serial)) == serial


def test_routing_env_pins_policy_and_is_restored(monkeypatch):
    """run_cells(config=SimConfig(routing=...)) exports REPRO_ROUTING for the cells' own
    topology builds and restores the environment afterwards."""
    import os

    monkeypatch.delenv("REPRO_ROUTING", raising=False)
    # fig14 cells build their networks internally; pinning the policy
    # through the env must not change single-bottleneck results.
    reference = run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
    pinned = run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7, routing="ecmp"))
    assert pinned == reference
    assert "REPRO_ROUTING" not in os.environ


def test_unknown_routing_rejected():
    with pytest.raises(ValueError, match="unknown routing"):
        run_cells(QUICK_SPECS[:1], jobs=1, config=SimConfig(seed=7, routing="bogus"))


def test_profile_dir_writes_one_stats_file_per_cell(tmp_path):
    """--profile produces loadable pstats files and identical results."""
    import pstats

    profiled = run_cells(
        QUICK_SPECS, jobs=1, config=SimConfig(seed=7), profile_dir=str(tmp_path)
    )
    reference = run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
    assert profiled == reference
    files = sorted(tmp_path.glob("cell_*.prof"))
    assert len(files) == len(QUICK_SPECS)
    stats = pstats.Stats(str(files[0]))
    assert stats.total_calls > 0


def test_profile_dir_composes_with_process_pool(tmp_path):
    """--profile with --jobs > 1: each cell process dumps its own cell's
    stats (simulation frames, not process plumbing) and results stay
    identical."""
    import pstats

    profiled = run_cells(
        QUICK_SPECS, jobs=2, config=SimConfig(seed=7), profile_dir=str(tmp_path)
    )
    reference = run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
    assert profiled == reference
    files = sorted(tmp_path.glob("cell_*.prof"))
    assert len(files) == len(QUICK_SPECS)
    for path in files:
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0
        # The profile saw the simulation itself, not just process plumbing.
        assert any(
            "engine" in str(func) for func in stats.stats  # type: ignore[attr-defined]
        )


def test_results_in_submission_order():
    results = run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
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


def test_protocols_of_one_plan_point_share_their_workload():
    """The protocol stays out of a derived cell seed, so the tfc, dctcp
    and tcp cells of a quick fig16 point run one topology and one set of
    arrival streams: they launch the same flows."""
    specs = default_plan(["fig16"], quick=True)
    assert {spec.kwargs["protocol"] for spec in specs} == {"tfc", "dctcp", "tcp"}
    assert len({spec.resolved(0).kwargs["seed"] for spec in specs}) == 1
    results = run_cells(specs, jobs=1, config=SimConfig(seed=0))
    assert len({result.scalars["flows_launched"] for result in results}) == 1


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
    """A telemetry directory writes one metrics/slots/flight trio per cell and
    leaves the results bit-identical to a telemetry-off run."""
    import os

    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    reference = run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
    with_telemetry = run_cells(
        QUICK_SPECS,
        jobs=1,
        config=SimConfig(seed=7, telemetry="full", telemetry_dir=str(tmp_path)),
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
    reference = run_cells(QUICK_SPECS[:1], jobs=1, config=SimConfig(seed=7))
    recorded = run_cells(
        QUICK_SPECS[:1], jobs=1, config=SimConfig(seed=7, telemetry="counters")
    )
    assert recorded == reference
    assert list(tmp_path.iterdir()) == []


def test_telemetry_parallel_workers_export_too(tmp_path):
    """Pool workers inherit REPRO_TELEMETRY* and export from inside the
    worker process."""
    results = run_cells(
        QUICK_SPECS,
        jobs=2,
        config=SimConfig(seed=7, telemetry="full", telemetry_dir=str(tmp_path)),
    )
    assert results == run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
    assert len(list(tmp_path.glob("*.metrics.jsonl"))) == len(QUICK_SPECS)


@pytest.mark.parametrize("jobs", (1, 2))
def test_cells_export_only_their_own_sessions(tmp_path, jobs):
    """A session left pending before the batch belongs to no cell: no
    cell exports it or relabels its own files around it, in-process or
    in a forked cell process."""
    from repro.experiments.runner import _safe_label
    from repro.net.network import Network
    from repro.obs import drain_pending

    drain_pending()
    stale = tmp_path / "stale"
    Network(config=SimConfig(telemetry="counters", telemetry_dir=str(stale)))
    try:
        run_cells(
            QUICK_SPECS,
            jobs=jobs,
            config=SimConfig(
                seed=7, telemetry="counters", telemetry_dir=str(tmp_path / "cells")
            ),
        )
    finally:
        drain_pending()
    assert not stale.exists()
    assert sorted(p.name for p in (tmp_path / "cells").iterdir()) == sorted(
        f"{_safe_label(spec.resolved(7))}.metrics.jsonl" for spec in QUICK_SPECS
    )


def test_unknown_telemetry_rejected():
    with pytest.raises(ValueError, match="unknown telemetry"):
        run_cells(QUICK_SPECS[:1], jobs=1, config=SimConfig(seed=7, telemetry="bogus"))


@pytest.mark.parametrize(
    "keyword", ("root_seed", "routing", "telemetry", "telemetry_dir")
)
def test_run_cells_takes_one_configuration_argument(keyword):
    """``config`` is the one way to configure a batch; the retired
    per-knob keywords are refused before anything runs."""
    with pytest.raises(TypeError, match=keyword):
        run_cells(QUICK_SPECS[:1], jobs=1, **{keyword: None})


def test_run_cells_accepts_simconfig(tmp_path):
    """A prebuilt SimConfig is honoured verbatim (seed included)."""
    cfg = SimConfig(seed=7, lossless="off", telemetry="full",
                    telemetry_dir=str(tmp_path))
    results = run_cells(QUICK_SPECS, jobs=1, config=cfg)
    assert results == run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
    assert len(list(tmp_path.glob("*.metrics.jsonl"))) == len(QUICK_SPECS)


# ----------------------------------------------------------------------
# --cell-timeout: killable per-cell processes (satellite of the lossless
# robustness PR — a hung cell must not hang the batch)
# ----------------------------------------------------------------------
def test_cell_timeout_under_budget_matches_untimed_run():
    """Cells that finish inside the budget are bit-identical to a plain
    run — the process round-trip must not perturb results."""
    reference = run_cells(QUICK_SPECS, jobs=1, config=SimConfig(seed=7))
    guarded = run_cells(
        QUICK_SPECS, jobs=1, config=SimConfig(seed=7), cell_timeout=120.0
    )
    assert guarded == reference
    guarded_parallel = run_cells(
        QUICK_SPECS, jobs=2, config=SimConfig(seed=7), cell_timeout=120.0
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
    results = run_cells(specs, jobs=2, config=SimConfig(seed=7), cell_timeout=4.0)
    reference = run_cells(QUICK_SPECS[:1], jobs=1, config=SimConfig(seed=7))
    assert results[0] == reference[0]
    assert results[1].name == "fig06"
    assert results[1].scalars == {"timed_out": 1.0, "cell_timeout_s": 4.0}
    assert results[1].series == {}


def test_profile_dir_composes_with_cell_timeout(tmp_path):
    """--profile with --cell-timeout: the hung cell is still killed, and
    the cell that finished still dumps its stats file."""
    import pstats

    specs = [QUICK_SPECS[0], CellSpec("fig06", {"duration_s": 30.0})]
    results = run_cells(
        specs,
        jobs=2,
        config=SimConfig(seed=7),
        profile_dir=str(tmp_path),
        cell_timeout=3.0,
    )
    reference = run_cells(QUICK_SPECS[:1], jobs=1, config=SimConfig(seed=7))
    assert results[0] == reference[0]
    assert results[1].scalars == {"timed_out": 1.0, "cell_timeout_s": 3.0}
    files = sorted(tmp_path.glob("cell_*.prof"))
    assert [path.name[:9] for path in files] == ["cell_000_"]
    assert pstats.Stats(str(files[0])).total_calls > 0


def test_cli_exit_status_reports_timed_out_cells(monkeypatch):
    """The CLI exits 1 when any cell timed out, so a deadlocked cell
    fails a CI step instead of passing it; a clean batch exits 0."""
    from repro.experiments import runner

    monkeypatch.setattr(
        runner,
        "default_plan",
        lambda figures, quick=False: [CellSpec("fig06", {"duration_s": 30.0})],
    )
    assert runner.main(["--figures", "fig06", "--cell-timeout", "0.5"]) == 1
    monkeypatch.setattr(
        runner, "default_plan", lambda figures, quick=False: QUICK_SPECS[:1]
    )
    assert runner.main(["--figures", "fig14", "--cell-timeout", "60"]) == 0


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


# ----------------------------------------------------------------------
# chaos: the fault catalogue as runner cells
# ----------------------------------------------------------------------
def _short_chaos(fault):
    return CellSpec(
        "chaos",
        {
            "fault": fault,
            "warmup_ns": milliseconds(10),
            "fault_ns": milliseconds(5),
            "tail_ns": milliseconds(15),
        },
    )


CHAOS_SPECS = [_short_chaos("burst_loss"), _short_chaos("switch_reset")]


def test_chaos_cells_match_across_jobs_and_the_driver():
    """Chaos cells are bit-identical at jobs=1 and jobs=2, and each
    carries exactly run_chaos's report at the cell's derived seed."""
    from repro.experiments.chaos import run_chaos

    serial = run_cells(CHAOS_SPECS, jobs=1, config=SimConfig(seed=7))
    assert run_cells(CHAOS_SPECS, jobs=2, config=SimConfig(seed=7)) == serial
    for spec, cell in zip(CHAOS_SPECS, serial):
        kwargs = spec.resolved(7).kwargs
        direct = run_chaos(**kwargs)
        report = direct.report
        assert cell.name == f"chaos_{kwargs['fault']}"
        assert cell.scalars == {
            "baseline_bps": report.baseline,
            "dip_depth": report.dip_depth,
            "reconverge_ns": float(report.reconverge_ns),
            "violations": float(len(direct.violations)),
            "post_fault_timeouts": float(report.post_fault_timeouts),
            "invariant_checks": float(direct.invariant_checks),
        }
        assert cell.series == {"goodput_bps": direct.goodput_series}


def test_chaos_cell_telemetry_export(tmp_path):
    """A chaos cell under full telemetry exports the labelled file trio,
    with the recovery report, invariant counters and goodput timeline
    folded into the metrics — without changing the cell's outcome."""
    import json

    from repro.experiments.runner import _safe_label

    spec = _short_chaos("switch_reset")
    config = SimConfig(seed=7, telemetry="full", telemetry_dir=str(tmp_path))
    (cell,) = run_cells([spec], jobs=1, config=config)
    assert [cell] == run_cells([spec], jobs=1, config=SimConfig(seed=7))
    label = _safe_label(spec.resolved(7))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"{label}.flight.jsonl",
        f"{label}.metrics.jsonl",
        f"{label}.slots.csv",
    ]
    rows = {
        row["name"]: row
        for row in map(
            json.loads,
            (tmp_path / f"{label}.metrics.jsonl").read_text().splitlines(),
        )
    }
    assert rows["recovery.baseline_bps"]["value"] == cell.scalars["baseline_bps"]
    assert rows["invariant.checks"]["value"] == cell.scalars["invariant_checks"]
    assert rows["chaos.goodput_bps"]["points"] == len(cell.series["goodput_bps"])
    # the fault itself is in the flight ring
    flight = map(
        json.loads,
        (tmp_path / f"{label}.flight.jsonl").read_text().splitlines(),
    )
    assert any(record["topic"] == "fault.injected" for record in flight)


def test_chaos_telemetry_files_do_not_depend_on_process_history(tmp_path):
    """One chaos cell run twice in one process exports byte-identical
    files: no record carries state left over from an earlier run."""
    spec = _short_chaos("burst_loss")
    exported = []
    for run in ("first", "second"):
        directory = tmp_path / run
        config = SimConfig(seed=1, telemetry="full", telemetry_dir=str(directory))
        run_cells([spec], jobs=1, config=config)
        exported.append({p.name: p.read_bytes() for p in directory.iterdir()})
    assert len(exported[0]) == 3
    assert exported[0] == exported[1]


def test_default_plan_covers_every_figure():
    figures = sorted(FIGURE_CELLS)
    specs = default_plan(figures, quick=True)
    assert {s.figure for s in specs} == set(figures)
    assert [s.kwargs["fault"] for s in specs if s.figure == "chaos"] == list(
        FAULT_KINDS
    )
    # Every planned cell names a registered entry point.
    for spec in specs:
        assert spec.figure in FIGURE_CELLS


def test_fig15_and_fig16_full_plans_are_paper_scale():
    """Fig. 15: tfc and tcp x 50-400 senders x 64/128/256 KB blocks at
    10 Gb/s with 512 KB buffers; Fig. 16: the leaf-spine at the paper's
    359-way query fan-in, run_benchmark's defaults otherwise."""
    fig15 = default_plan(["fig15"])
    assert [
        (s.kwargs["protocol"], s.kwargs["block_bytes"], s.kwargs["n_senders"])
        for s in fig15
    ] == [
        (protocol, block, n)
        for protocol in ("tfc", "tcp")
        for block in (64_000, 128_000, 256_000)
        for n in (50, 100, 200, 400)
    ]
    assert {
        (s.kwargs["rounds"], s.kwargs["rate_bps"], s.kwargs["buffer_bytes"])
        for s in fig15
    } == {(3, 10_000_000_000, 512_000)}
    assert [s.kwargs for s in default_plan(["fig16"])] == [
        {"protocol": protocol, "scale": "large", "query_fanin": 359}
        for protocol in ("tfc", "dctcp", "tcp")
    ]
    assert {s.kwargs["query_fanin"] for s in default_plan(["fig16"], quick=True)} == {359}


def test_cells_are_named_after_their_runner_figure():
    """fig15 and fig16 reuse fig12's and fig13's cell functions; each
    result still leads with the figure that ran it, in-process and back
    from a worker process alike."""
    incast = {"protocol": "tfc", "n_senders": 2, "block_bytes": 4_000, "rounds": 1}
    benchmark = {"protocol": "tfc", "duration_s": 0.001, "drain_s": 0.001}
    specs = [CellSpec(figure, incast) for figure in ("fig12", "fig15")] + [
        CellSpec(figure, benchmark) for figure in ("fig13", "fig16")
    ]
    for jobs in (1, 2):
        results = run_cells(specs, jobs=jobs, config=SimConfig(seed=1))
        assert [r.name.rpartition(":seed")[0] for r in results] == [
            "fig12:tfc:n2:blk4000",
            "fig15:tfc:n2:blk4000",
            "fig13:testbed:tfc",
            "fig16:testbed:tfc",
        ]


def test_default_plan_rejects_unknown_figure():
    with pytest.raises(RunnerError, match="no default plan"):
        default_plan(["fig99"])
