"""Parallel experiment runner.

Every paper figure decomposes into independent *cells* — one
``(figure, protocol, seed, load-point)`` simulation that shares nothing
with its neighbours.  This module runs those cells either in-process,
one after another, or each in its own process (simulations are pure
CPU, so threads would serialise on the GIL), at most ``jobs`` at once
and each killable at a wall-clock deadline, and reassembles the results
in submission order.

Determinism is preserved across worker counts: each cell's child seed is
:func:`~repro.experiments.common.derive_cell_seed` of the root seed and
the cell's identity labels, protocol excluded (so every protocol at one
plan point runs the same topology and arrival draws), and ``--jobs 8``
returns bit-identical :class:`~repro.experiments.common.ExperimentResult`
objects to a serial run — only wall-clock changes.  ``jobs <= 1`` without
a cell timeout never touches multiprocessing at all (the serial path tests
rely on), and processes that cannot start (sandboxes without /dev/shm,
missing semaphores) fall back to the same serial path with a warning
instead of dying.

This is the one experiment entry point: every paper figure, the chaos
fault catalogue, the TFC-vs-PFC head-to-head and the declarative
scenarios run through it, and ``--telemetry DIR`` exports every cell's
telemetry session.

CLI::

    python -m repro.experiments.runner --figures fig13 fig14 --jobs 4
    python -m repro.experiments.runner --figures chaos pfc --telemetry DIR
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..config import ROUTING_NAMES, SimConfig
from ..obs import drain_pending as _drain_telemetry
from ..sim.units import GBPS
from .baselines import run_baselines_cell
from .chaos import FAULT_KINDS, run_chaos_cell
from .common import (
    ALL_PROTOCOLS,
    BASELINE_PROTOCOLS,
    ExperimentResult,
    derive_cell_seed,
    format_table,
)
from .ecmp_collision import run_collision_cell
from .fig06_rttb import run_fig06_cell
from .fig07_ne import run_fig07_cell
from .fig08_queue import run_staggered_cell
from .fig11_work_conserving import run_fig11_cell
from .fig12_incast import run_incast_cell
from .fig13_benchmark import run_benchmark_cell
from .fig14_rho import run_rho_cell
from .pfc_pathology import FABRICS as PFC_FABRICS
from .pfc_pathology import SCENARIOS as PFC_SCENARIOS
from .pfc_pathology import run_pathology_cell
from .scenario_cells import run_scenario_cell

CellFn = Callable[..., ExperimentResult]

#: Figure name -> picklable cell entry point.  Every entry point returns an
#: :class:`ExperimentResult` (plain scalars + series), so results pickle
#: cleanly across the process boundary.
FIGURE_CELLS: Dict[str, CellFn] = {
    "fig06": run_fig06_cell,
    "fig07": run_fig07_cell,
    "fig08": run_staggered_cell,
    "fig11": run_fig11_cell,
    "fig12": run_incast_cell,
    "fig13": run_benchmark_cell,
    "fig14": run_rho_cell,
    "fig15": run_incast_cell,
    "fig16": run_benchmark_cell,
    "baselines": run_baselines_cell,
    "ecmp": run_collision_cell,
    "mpath": partial(run_benchmark_cell, scale="fattree", routing="ecmp"),
    "pfc": run_pathology_cell,
    "chaos": run_chaos_cell,
    "scenario": run_scenario_cell,
}

#: Routing policies swept by the multi-path default plans.
MULTIPATH_ROUTINGS = ("single", "ecmp", "flowlet", "spray")


class RunnerError(RuntimeError):
    """A cell failed in a worker; carries the cell label and remote traceback."""


@dataclass(frozen=True)
class CellSpec:
    """One independent unit of work: a figure entry point plus kwargs.

    ``kwargs`` must be picklable (they cross the process boundary).  The
    ``seed`` kwarg, when absent, is derived from ``root_seed`` and the
    cell's identity so results do not depend on scheduling order.  The
    ``protocol`` kwarg is left out of that identity: the cells of one plan
    point are a head-to-head, so they share their topology and arrival
    seeds and differ only in the transport.
    """

    figure: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.kwargs.items())]
        return f"{self.figure}({', '.join(parts)})"

    def resolved(self, root_seed: int) -> "CellSpec":
        """Fill in the cell seed if the caller did not pin one."""
        if "seed" in self.kwargs:
            return self
        labels = [self.figure] + [
            f"{k}={self.kwargs[k]}" for k in sorted(self.kwargs) if k != "protocol"
        ]
        seed = derive_cell_seed(root_seed, *labels)
        return CellSpec(self.figure, {**self.kwargs, "seed": seed})


def _execute_cell(
    spec: CellSpec, index: int = 0, profile_dir: Optional[str] = None
) -> ExperimentResult:
    """Run one cell to completion, in whichever process runs it.

    Exceptions are re-raised as :class:`RunnerError` *here*, inside the
    cell's process, so the parent receives a picklable error that names
    the cell — arbitrary exception types (with simulation objects
    attached) may not survive the return trip.  With ``profile_dir`` the
    cell entry point alone runs under cProfile and the stats file is
    dumped here too, so process plumbing never pollutes the numbers.
    """
    fn = FIGURE_CELLS.get(spec.figure)
    if fn is None:
        raise RunnerError(
            f"unknown figure {spec.figure!r}; "
            f"known: {', '.join(sorted(FIGURE_CELLS))}"
        )
    profiler = None
    if profile_dir is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        result = fn(**spec.kwargs)
    except RunnerError:
        raise
    except BaseException as exc:
        raise RunnerError(
            f"cell {spec.label} failed: {exc!r}\n{traceback.format_exc()}"
        ) from None
    finally:
        if profiler is not None:
            profiler.disable()
    if profiler is not None:
        path = os.path.join(
            profile_dir, f"cell_{index:03d}_{_safe_label(spec)}.prof"
        )
        profiler.dump_stats(path)
        print(f"profile written to {path}", file=sys.stderr)
    _export_cell_telemetry(spec)
    # fig15/fig16 reuse fig12's/fig13's cell: name it after the figure run.
    head, sep, tail = result.name.partition(":")
    if sep and head != spec.figure and FIGURE_CELLS.get(head) is fn:
        result.name = f"{spec.figure}:{tail}"
    return result


def _export_cell_telemetry(spec: CellSpec) -> None:
    """Export any telemetry sessions the cell installed.

    Runs *after* the cell completes (in the cell's own process, when it
    has one), so exporting can never perturb the simulation.  Sessions
    are drained unconditionally — even with no export directory
    configured — so finished networks are not kept pinned between cells.
    """
    sessions = _drain_telemetry()
    base = _safe_label(spec)
    for index, session in enumerate(sessions):
        directory = session.network.config.telemetry_dir
        if not directory:
            continue
        label = base if len(sessions) == 1 else f"{base}_{index}"
        for path in session.export(directory, label):
            print(f"telemetry written to {path}", file=sys.stderr)


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    config: Optional[SimConfig] = None,
    profile_dir: Optional[str] = None,
    cell_timeout: Optional[float] = None,
) -> List[ExperimentResult]:
    """Run every cell and return results in the order specs were given.

    ``jobs <= 1`` without a ``cell_timeout`` runs everything in-process
    (no multiprocessing import side effects — the path tests use).
    Otherwise each cell runs in its own process, at most ``jobs`` in
    flight; processes that cannot even start degrade to the serial path,
    but a cell that *fails* always surfaces as :class:`RunnerError`.

    Selection: one :class:`~repro.config.SimConfig` as ``config`` (its
    ``seed`` is the root seed).  The config is pinned process-wide for
    the batch (exported as the ``REPRO_*`` variables, which cell
    processes and every network a cell builds resolve; a cell that takes
    an explicit ``routing`` kwarg — the multi-path figures — wins over
    the env default).  A ``telemetry_dir`` makes every cell export its
    telemetry sessions' files there; ``profile_dir`` writes one cProfile
    stats file per finished cell, on either path.

    ``cell_timeout`` (seconds of wall-clock, per cell) kills a cell that
    exceeds the budget and reports it as a deterministic ``timed_out``
    result instead of hanging the whole batch.  Where processes are
    unavailable it degrades to serial execution without timeouts.
    """
    config = config or SimConfig()
    resolved = [spec.resolved(config.seed) for spec in specs]
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
    # Sessions left pending before the batch belong to no cell: exporting
    # them would relabel the first cell's files (and every forked cell's).
    _drain_telemetry()
    with config.env():
        if cell_timeout is not None or (jobs > 1 and len(resolved) > 1):
            try:
                return _run_processes(resolved, jobs, cell_timeout, profile_dir)
            except RunnerError:
                raise
            except (OSError, ImportError, PermissionError) as exc:
                print(
                    f"runner: cell processes unavailable ({exc!r}); "
                    "falling back to serial execution"
                    + (" without timeouts" if cell_timeout is not None else ""),
                    file=sys.stderr,
                )
        return [
            _execute_cell(spec, index, profile_dir)
            for index, spec in enumerate(resolved)
        ]


def _safe_label(spec: CellSpec) -> str:
    """Filesystem-safe compact cell label for profile filenames."""
    raw = spec.figure + "_" + "_".join(
        f"{k}-{spec.kwargs[k]}" for k in sorted(spec.kwargs)
    )
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in raw)[:80]


def timed_out_result(spec: CellSpec, timeout_s: float) -> ExperimentResult:
    """The deterministic placeholder a killed cell reports.

    Depends only on the spec and the budget — never on how far the cell
    got before the kill — so a timed-out batch is still reproducible.
    """
    protocol = (
        spec.kwargs.get("protocol")
        or spec.kwargs.get("fabric")
        or spec.kwargs.get("transport")
        or ""
    )
    return ExperimentResult(
        name=spec.figure,
        protocol=str(protocol),
        scalars={"timed_out": 1.0, "cell_timeout_s": float(timeout_s)},
    )


def _cell_worker(
    conn, spec: CellSpec, index: int, profile_dir: Optional[str]
) -> None:
    """Child process entry point: run one cell, send back its result."""
    try:
        result = _execute_cell(spec, index, profile_dir)
        conn.send(("ok", result))
    except RunnerError as exc:
        conn.send(("err", str(exc)))
    except BaseException as exc:  # pragma: no cover - defensive
        conn.send(("err", f"cell {spec.label} failed: {exc!r}"))
    finally:
        conn.close()


def _run_processes(
    specs: List[CellSpec],
    jobs: int,
    timeout_s: Optional[float],
    profile_dir: Optional[str],
) -> List[ExperimentResult]:
    """One killable process per cell, at most ``jobs`` in flight.

    A process pool cannot do this: it has no per-task kill (cancelling a
    running future is a no-op), and terminating a worker poisons the
    whole pool.  Plain processes keep a hung cell's blast radius to
    itself; ``timeout_s=None`` gives every cell an unbounded budget.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait as connection_wait

    results: List[Optional[ExperimentResult]] = [None] * len(specs)
    pending = list(enumerate(specs))
    #: parent pipe end -> (spec index, process, wall-clock deadline)
    running: Dict[Any, Any] = {}

    def reap(conn) -> None:
        index, proc, _ = running.pop(conn)
        try:
            status, payload = conn.recv()
        except EOFError:
            status, payload = (
                "err",
                f"worker process died while running {specs[index].label}",
            )
        conn.close()
        proc.join()
        if status != "ok":
            raise RunnerError(payload)
        results[index] = payload

    try:
        while pending or running:
            while pending and len(running) < max(1, jobs):
                index, spec = pending.pop(0)
                parent_conn, child_conn = mp.Pipe(duplex=False)
                proc = mp.Process(
                    target=_cell_worker,
                    args=(child_conn, spec, index, profile_dir),
                )
                proc.start()
                child_conn.close()
                deadline = (
                    math.inf
                    if timeout_s is None
                    else time.monotonic() + timeout_s
                )
                running[parent_conn] = (index, proc, deadline)
            next_deadline = min(d for (_, _, d) in running.values())
            wait_s = None  # no budget: block until a cell reports back
            if next_deadline != math.inf:
                wait_s = max(0.0, next_deadline - time.monotonic())
            for conn in connection_wait(list(running), timeout=wait_s):
                reap(conn)
            now = time.monotonic()
            expired = [
                conn
                for conn, (_, _, deadline) in running.items()
                if deadline <= now
            ]
            for conn in expired:
                index, proc, _ = running.pop(conn)
                proc.terminate()
                proc.join()
                conn.close()
                print(
                    f"runner: cell {specs[index].label} exceeded "
                    f"{timeout_s:g}s wall-clock; killed",
                    file=sys.stderr,
                )
                results[index] = timed_out_result(specs[index], timeout_s)
    finally:
        for conn, (_, proc, _) in running.items():
            proc.terminate()
            proc.join()
            conn.close()
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Default sweep plans (what the CLI runs per figure)
# ----------------------------------------------------------------------
def scenario_specs(
    names: Sequence[str],
    quick: bool = False,
    seeds: Optional[Sequence[int]] = None,
    transports: Optional[Sequence[str]] = None,
) -> List[CellSpec]:
    """Cells for a scenario sweep: names x seeds x transport overrides.

    Without ``seeds`` each cell's seed derives from the root seed and
    the cell's identity (names/paths travel to the workers verbatim);
    with ``seeds`` the given values are pinned.  ``transports`` swaps
    every tenant's transport per cell — the fairness head-to-head axis.
    """
    specs: List[CellSpec] = []
    for name in names:
        for transport in transports or (None,):
            base: Dict[str, Any] = {"scenario": str(name)}
            if quick:
                base["quick"] = True
            if transport is not None:
                base["transport"] = transport
            if seeds:
                specs.extend(
                    CellSpec("scenario", {**base, "seed": seed})
                    for seed in seeds
                )
            else:
                specs.append(CellSpec("scenario", base))
    return specs


def default_plan(
    figures: Sequence[str],
    quick: bool = False,
) -> List[CellSpec]:
    """The standard cell decomposition for each requested figure.

    ``quick`` shrinks durations/sweeps for smoke runs (CI, tests); the
    full plan matches the figure drivers' paper-scale defaults.
    """
    specs: List[CellSpec] = []
    for figure in figures:
        if figure == "fig06":
            specs.append(
                CellSpec("fig06", {"duration_s": 0.5 if quick else 4.0})
            )
        elif figure == "fig07":
            specs.append(
                CellSpec("fig07", {"n1_max": 4 if quick else 10})
            )
        elif figure == "fig08":
            for protocol in ALL_PROTOCOLS:
                specs.append(
                    CellSpec(
                        "fig08",
                        {
                            "protocol": protocol,
                            "interval_s": 0.05 if quick else 0.25,
                            "tail_s": 0.1 if quick else 0.5,
                        },
                    )
                )
        elif figure == "fig11":
            for protocol in ALL_PROTOCOLS:
                specs.append(
                    CellSpec(
                        "fig11",
                        {
                            "protocol": protocol,
                            "duration_s": 0.2 if quick else 1.0,
                        },
                    )
                )
        elif figure == "fig12":
            counts = (5, 10) if quick else (5, 10, 20, 40, 60, 80, 100)
            for protocol in ALL_PROTOCOLS:
                for n in counts:
                    specs.append(
                        CellSpec(
                            "fig12",
                            {
                                "protocol": protocol,
                                "n_senders": n,
                                "rounds": 2 if quick else 10,
                            },
                        )
                    )
        elif figure == "fig13":
            for protocol in ALL_PROTOCOLS:
                specs.append(
                    CellSpec(
                        "fig13",
                        {
                            "protocol": protocol,
                            "duration_s": 0.3 if quick else 2.0,
                            "drain_s": 0.3 if quick else 1.0,
                        },
                    )
                )
        elif figure == "fig14":
            rhos = (0.94, 1.00) if quick else (0.90, 0.92, 0.94, 0.96, 0.98, 1.00)
            for rho0 in rhos:
                specs.append(
                    CellSpec(
                        "fig14",
                        {"rho0": rho0, "duration_s": 0.2 if quick else 1.0},
                    )
                )
        elif figure == "fig15":
            # 10 Gb/s links and 512 KB buffers; the full grid is the paper's.
            counts = (50,) if quick else (50, 100, 200, 400)
            blocks = (64_000,) if quick else (64_000, 128_000, 256_000)
            for protocol in ("tfc", "tcp"):
                for block in blocks:
                    for n in counts:
                        specs.append(
                            CellSpec(
                                "fig15",
                                {
                                    "protocol": protocol,
                                    "n_senders": n,
                                    "block_bytes": block,
                                    "rounds": 2 if quick else 3,
                                    "rate_bps": 10 * GBPS,
                                    "buffer_bytes": 512_000,
                                },
                            )
                        )
        elif figure == "fig16":
            # The 360-server leaf-spine, every query fanning in from all
            # 359 other servers as in the paper; run_benchmark_cell's defaults
            # otherwise.
            window = {"duration_s": 0.05, "drain_s": 0.2} if quick else {}
            for protocol in ALL_PROTOCOLS:
                specs.append(
                    CellSpec(
                        "fig16",
                        {"protocol": protocol, "scale": "large", "query_fanin": 359, **window},
                    )
                )
        elif figure == "baselines":
            # Related-work head-to-head: every registered baseline under
            # the same contended dumbbell (fairness/FCT/queue table).
            for protocol in BASELINE_PROTOCOLS:
                specs.append(
                    CellSpec(
                        "baselines",
                        {
                            "protocol": protocol,
                            "n_senders": 4 if quick else 8,
                            "flow_bytes": 250_000 if quick else 2_000_000,
                        },
                    )
                )
        elif figure == "ecmp":
            # Collision study: every protocol under every policy, so both
            # the collision case (ecmp) and its cures (flowlet, spray)
            # carry a single-path baseline next to them.
            for protocol in ALL_PROTOCOLS:
                for routing in MULTIPATH_ROUTINGS:
                    specs.append(
                        CellSpec(
                            "ecmp",
                            {
                                "protocol": protocol,
                                "routing": routing,
                                "duration_s": 0.03 if quick else 0.2,
                            },
                        )
                    )
        elif figure == "mpath":
            # TFC vs DCTCP under the Fig. 13 workload across policies.
            for protocol in ("tfc", "dctcp"):
                for routing in MULTIPATH_ROUTINGS:
                    specs.append(
                        CellSpec(
                            "mpath",
                            {
                                "protocol": protocol,
                                "routing": routing,
                                "duration_s": 0.2 if quick else 1.0,
                                "drain_s": 0.2 if quick else 0.5,
                            },
                        )
                    )
        elif figure == "pfc":
            # TFC-vs-PFC pathology head-to-head: every scenario under
            # both fabrics, so each pathology row carries its clean
            # counterpart next to it.
            for scenario in PFC_SCENARIOS:
                for fabric in PFC_FABRICS:
                    specs.append(
                        CellSpec(
                            "pfc",
                            {
                                "scenario": scenario,
                                "fabric": fabric,
                                "duration_ms": 30 if quick else 60,
                            },
                        )
                    )
        elif figure == "chaos":
            # The fault catalogue: one TFC dumbbell run per primitive.
            for fault in FAULT_KINDS:
                specs.append(CellSpec("chaos", {"fault": fault}))
        elif figure == "scenario":
            # The committed smoke trio (an ML collective, a storage
            # fan-out and the multi-tenant mix); scenario_specs() builds
            # arbitrary sweeps for the CLI's --scenario flags.
            from ..scenario import default_scenario_names

            names = default_scenario_names()
            if not names:
                raise RunnerError(
                    "no committed scenarios found; point $REPRO_SCENARIOS "
                    "at a scenario directory or use --scenario PATH"
                )
            specs.extend(scenario_specs(names, quick=quick))
        else:
            raise RunnerError(
                f"no default plan for {figure!r}; "
                f"known: {', '.join(sorted(FIGURE_CELLS))}"
            )
    return specs


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Run paper-figure experiment cells, optionally in parallel.",
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        default=None,
        choices=sorted(FIGURE_CELLS),
        help="figures to run (default: fig13, unless --scenario/"
        "--scenario-glob select a scenario sweep instead)",
    )
    parser.add_argument(
        "--scenario",
        nargs="+",
        metavar="NAME|PATH",
        default=None,
        help="run these declarative scenarios (registered names or "
        "explicit YAML paths); combines with --figures",
    )
    parser.add_argument(
        "--scenario-glob",
        metavar="PATTERN",
        default=None,
        help="run every scenarios/*.yaml whose stem matches PATTERN "
        "(e.g. 'ml-*')",
    )
    parser.add_argument(
        "--scenario-seeds",
        nargs="+",
        type=int,
        metavar="SEED",
        default=None,
        help="pin explicit seeds for the scenario cells (one cell per "
        "scenario x seed; default: derived from --seed)",
    )
    parser.add_argument(
        "--scenario-transports",
        nargs="+",
        metavar="PROTOCOL",
        default=None,
        help="override every tenant's transport, one cell per scenario "
        "x transport (the fairness head-to-head axis); any registered "
        "protocol name is accepted — see repro.transport.registry",
    )
    parser.add_argument(
        "--list-figures",
        action="store_true",
        help="print the known figure names and exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print every resolvable scenario (with description) and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 1 = serial in-process (default: 1). "
        "0 means one per CPU.",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunken durations/sweeps for smoke runs",
    )
    parser.add_argument(
        "--pickle",
        metavar="PATH",
        default=None,
        help="dump the ExperimentResult list to PATH (pickle format)",
    )
    parser.add_argument(
        "--routing",
        default=None,
        choices=ROUTING_NAMES,
        help="pin the routing policy for every cell "
        "(default: single, or $REPRO_ROUTING if set; cells that sweep "
        "routing explicitly override this)",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help="write per-cell cProfile stats into DIR (pstats-compatible "
        "files, one per finished cell, each dumped by the process that "
        "ran the cell)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="record full telemetry for every cell and export the "
        "metrics/slot-timeline/flight files into DIR",
    )
    parser.add_argument(
        "--cell-timeout",
        metavar="SECONDS",
        type=float,
        default=None,
        help="kill any cell exceeding this wall-clock budget and report "
        "it as a deterministic timed_out result instead of hanging the "
        "batch (runs each cell in its own process); the exit status is 1 "
        "when any cell timed out",
    )
    args = parser.parse_args(argv)
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error("--cell-timeout must be positive")

    if args.list_figures:
        for figure in sorted(FIGURE_CELLS):
            print(figure)
        return 0
    if args.list_scenarios:
        from ..scenario import get_scenario, list_scenarios

        names = list_scenarios()
        if not names:
            print("no scenarios found", file=sys.stderr)
            return 1
        for name in names:
            try:
                print(f"{name}: {get_scenario(name).description}")
            except Exception as exc:
                print(f"{name}: INVALID ({exc})")
        return 0

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    scenario_names: List[str] = list(args.scenario or [])
    if args.scenario_glob:
        from ..scenario import glob_scenarios

        scenario_names.extend(
            sc.name for sc in glob_scenarios(args.scenario_glob)
        )
    if (args.scenario_seeds or args.scenario_transports) and not scenario_names:
        parser.error(
            "--scenario-seeds/--scenario-transports need --scenario or "
            "--scenario-glob"
        )
    if args.scenario_transports:
        # Validate against the live registry (not a frozen choices= list)
        # so protocols registered via register_protocol sweep too.
        from ..transport.registry import get_protocol

        for name in args.scenario_transports:
            try:
                get_protocol(name)
            except ValueError as exc:
                parser.error(str(exc))
    figures = args.figures or ([] if scenario_names else ["fig13"])
    specs = default_plan(figures, quick=args.quick)
    specs.extend(
        scenario_specs(
            scenario_names,
            quick=args.quick,
            seeds=args.scenario_seeds,
            transports=args.scenario_transports,
        )
    )
    batch = ", ".join(figures + scenario_names)
    print(
        f"running {len(specs)} cells across {batch} with jobs={jobs}"
        + (f" routing={args.routing}" if args.routing else "")
        + (f" telemetry={args.telemetry}" if args.telemetry else "")
        + (
            f" cell-timeout={args.cell_timeout:g}s"
            if args.cell_timeout
            else ""
        )
    )
    start = time.perf_counter()
    config = SimConfig(
        seed=args.seed,
        routing=args.routing,
        telemetry="full" if args.telemetry is not None else None,
        telemetry_dir=args.telemetry,
    )
    results = run_cells(
        specs,
        jobs=jobs,
        config=config,
        profile_dir=args.profile,
        cell_timeout=args.cell_timeout,
    )
    elapsed = time.perf_counter() - start

    rows = []
    for result in results:
        headline = ", ".join(
            f"{k}={v:.4g}" for k, v in list(result.scalars.items())[:4]
        )
        rows.append([result.name, result.protocol, headline])
    print(format_table(["cell", "protocol", "headline scalars"], rows))
    timed_out = [
        (spec, result)
        for spec, result in zip(specs, results)
        if result.scalars.get("timed_out")
    ]
    print(
        f"{len(results)} cells in {elapsed:.2f}s wall-clock (jobs={jobs})"
        + (f", {len(timed_out)} TIMED OUT" if timed_out else "")
    )
    for spec, result in timed_out:
        print(
            f"  timed out after {result.scalars['cell_timeout_s']:g}s: "
            f"{spec.label}",
            file=sys.stderr,
        )

    if args.pickle:
        with open(args.pickle, "wb") as fh:
            pickle.dump(results, fh)
        print(f"results pickled to {args.pickle}")
    return 1 if timed_out else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
