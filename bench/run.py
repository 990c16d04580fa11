#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name (README.md).

Two ways in:

* ``python bench/run.py [--seed N] [--out FILE]`` — the full ledger: 3
  timed repeats interleaved across the four workloads, one traced run per
  workload, the layer probes; prints every end-to-end, count, traced and
  probe metric with its unit and writes one results JSON with a run
  manifest (``compare.py`` reads two of them).
* ``python bench/run.py --workload W --seed N --seconds S --trace 0|1`` —
  one run for the benchmark driver: the last line of stdout is one JSON
  object with the end-to-end (``--trace 0``) or per-layer (``--trace 1``)
  metrics named in BENCHMARK.json.

Every measurement runs in a child process of its own (``child.py``), one
at a time, with every ``REPRO_*`` variable scrubbed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMED_REPEATS = 3
#: A timed run whose 1 - cpu/wall exceeds this was disturbed; re-run it.
STEAL_LIMIT = 0.05
MAX_RERUNS = 2
CHILD_TIMEOUT_S = 170
SMOKE_SCALE = 1 / 20
# Hash randomisation moves every str-keyed dict between processes;
# pinning it removes one source of run-to-run timing spread.
HASH_SEED = "0"

#: End-to-end metrics that are not on the simulated clock (hostspeed.py).
CLOCKS = {"wall_s": "reference host", "setup_s": "reference host", "peak_rss_mb": "host"}

TRACE_NOTE = (
    "cProfile tottime by owning package; inlined scheduler push/pop paths "
    "in Simulator.schedule/run bill to sim.engine, not sim.sched"
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    """The shipped defaults: no REPRO_* knob, the repo's src on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def scrubbed_vars() -> List[str]:
    return sorted(k for k in os.environ if k.startswith("REPRO_"))


def spawn(mode: str, workload: Optional[str], seed: int, scale: float) -> dict:
    """Run one child to completion and return its JSON record."""
    command = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
               "--seed", str(seed), "--scale", repr(scale)]
    if workload is not None:
        command += ["--workload", workload]
    done = subprocess.run(
        command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{mode} child for {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def steal_frac(record: dict) -> float:
    host = record["host"]
    return max(1.0 - host["cpu_s"] / host["elapsed_s"], 0.0)


def timed_run(workload: str, seed: int, scale: float) -> dict:
    """One timed child; re-run (at most twice) while the host stole time."""
    best = None
    for attempt in range(1 + MAX_RERUNS):
        record = spawn("timed", workload, seed, scale)
        if best is None or steal_frac(record) < steal_frac(best):
            best = record
        if steal_frac(record) <= STEAL_LIMIT:
            break
    best["reruns"] = attempt
    return best


# ----------------------------------------------------------------------
# Records -> named metrics
# ----------------------------------------------------------------------
def end_to_end_values(record: dict) -> Dict[str, float]:
    host, sim = record["host"], record["sim"]
    return {
        "wall_s": host["wall_s"],
        "setup_s": host["setup_s"],
        "peak_rss_mb": host["peak_rss_mb"],
        "goodput_gbps": sim["goodput_gbps"],
        "fct_p50_us": sim["fct_p50_us"],
        "fct_p99_us": sim["fct_p99_us"],
        "flows_completed_frac": sim["flows_completed"] / sim["flows_launched"],
        "jain": sim["jain"],
    }


def per_layer_values(timed: dict, traced: dict, probes: dict) -> Dict[str, float]:
    """Counts from a timed run, the traced fold, and the probes, by name."""
    host, sim = timed["host"], timed["sim"]
    wall = host["wall_s"]
    values = {
        "sim.events": sim["events"],
        "sim.events_per_s": sim["events"] / wall,
        "sim.ns_per_event": wall * 1e9 / sim["events"],
        "sim.sim_s_per_wall_s": sim["sim_time_s"] / wall,
        "sim.pending_max": sim["pending_max"],
        "sim.on_calendar": sim["on_calendar"],
        "net.tx_packets": sim["tx_packets"],
        "net.drops": sim["drops"],
        "net.events_per_tx_packet": sim["events"] / sim["tx_packets"],
        "net.pause_frames": sim["pause_frames"],
        "core.slots": sim["slots"],
        "core.delimiter_elections": sim["delimiter_elections"],
        "core.delayed_acks": sim["delayed_acks"],
        "transport.flows_completed": sim["transport_flow_completions"],
        "transport.timeouts": sim["timeouts"],
        "transport.fast_retransmits": sim["fast_retransmits"],
        "workloads.flows_launched": sim["flows_launched"],
        "metrics.fct_samples": sim["fct_samples"],
        "metrics.collect_s": host["collect_s"],
        "faults.invariant_violations": sim["invariant_violations"],
        "host.cpu_s": host["cpu_s"],
        "host.steal_frac": steal_frac(timed),
        "host.wall_raw_s": host["wall_raw_s"],
        "host.speed_x": host["wall_s"] / host["wall_raw_s"],
        "trace.overhead_x": traced["host"]["wall_raw_s"] / host["wall_raw_s"],
    }
    for protocol, run_s in host["cell_run_s"].items():
        values[f"baselines.{protocol}.run_s"] = run_s
    total_self = sum(layer["self_s"] for layer in traced["layers"].values())
    for layer, folded in traced["layers"].items():
        values[f"{layer}.self_s"] = folded["self_s"]
        values[f"{layer}.calls"] = folded["calls"]
        values[f"{layer}.share"] = folded["self_s"] / total_self
    values.update(probes["probes"])
    return values


def named(metrics: List[dict], values: Dict[str, float]) -> Dict[str, dict]:
    """Exactly the metrics BENCHMARK.json names, each with its unit."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
    }


def operations(record: dict) -> Dict[str, object]:
    """Simulated flows as operations; a failed sanity check fails them all."""
    sim = record["sim"]
    failures = record["sanity_failures"]
    attempted = sim["flows_launched"]
    failed = attempted if failures else attempted - sim["flows_completed"]
    return {"correct": not failures, "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# Driver mode: one workload, one JSON line
# ----------------------------------------------------------------------
def run_one(spec: dict, workload: str, seed: int, scale: float, trace: bool) -> dict:
    timed = timed_run(workload, seed, scale)
    if trace:
        traced = spawn("traced", workload, seed, scale)
        if traced["sim"] != timed["sim"]:
            timed["sanity_failures"].append("traced run is not bit-identical")
        probes = spawn("probes", None, seed, min(scale, 1.0))
        values = per_layer_values(timed, traced, probes)
        metrics = named(spec["per_layer"], values)
    else:
        metrics = named(spec["end_to_end"], end_to_end_values(timed))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in timed["sanity_failures"]:
        print(f"sanity check failed: {failure}")
    if timed["reruns"]:
        print(f"re-ran {timed['reruns']}x: host.steal_frac above {STEAL_LIMIT}")
    return {**operations(timed), "metrics": metrics}


# ----------------------------------------------------------------------
# Full mode: the ledger
# ----------------------------------------------------------------------
def git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(seed: int, scale: float, sample: dict) -> dict:
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "comparable": scale == 1.0,
        "repro_env_scrubbed": scrubbed_vars(),
        "pythonhashseed": HASH_SEED,
        "sim_config": sample["sim_config"],
        "workload_params": sample["all_params"],
    }


def summarise(values: List[float]) -> Dict[str, object]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def run_all(spec: dict, seed: int, scale: float) -> dict:
    names = [w["name"] for w in spec["workloads"]]
    repeats: Dict[str, List[dict]] = {name: [] for name in names}
    for repeat in range(TIMED_REPEATS):
        for name in names:  # interleaved, so drift hits every workload alike
            record = timed_run(name, seed, scale)
            repeats[name].append(record)
            print(f"timed {repeat + 1}/{TIMED_REPEATS} {name}: "
                  f"wall_s {record['host']['wall_s']:.3f}", flush=True)
    traced = {}
    for name in names:
        traced[name] = spawn("traced", name, seed, scale)
        print(f"traced {name}: wall_s {traced[name]['host']['wall_s']:.3f}", flush=True)
    probes = spawn("probes", None, seed, min(scale, 1.0))

    results = {"manifest": manifest(seed, scale, repeats[names[0]][0]), "workloads": {}}
    for name in names:
        runs = repeats[name]
        ops = operations(runs[0])
        exact = all(run["sim"] == runs[0]["sim"] for run in runs[1:] + [traced[name]])
        failures = sorted({f for run in runs for f in run["sanity_failures"]})
        if not exact:
            failures.append("simulated results differ between same-seed runs")
        if failures:
            ops.update(correct=False, failed=ops["attempted"])
        per_run = [end_to_end_values(run) for run in runs]
        end_to_end = {
            m["name"]: {**summarise([v[m["name"]] for v in per_run]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        median_run = sorted(runs, key=lambda run: run["host"]["wall_s"])[len(runs) // 2]
        layer_values = per_layer_values(median_run, traced[name], probes)
        results["workloads"][name] = {
            **ops,
            "sanity_failures": failures,
            "bit_exact_repeats": exact,
            "reruns": [run["reruns"] for run in runs],
            "end_to_end": end_to_end,
            "per_layer": named(spec["per_layer"], layer_values),
            "repeats": [{"host": run["host"], "sim": run["sim"]} for run in runs],
            "traced": {"host": traced[name]["host"], "layers": traced[name]["layers"]},
        }
    results["claim"] = None
    return results


def report(spec: dict, results: dict) -> None:
    """Every metric by name, with unit and clock, for all four workloads."""
    info = results["manifest"]
    scrubbed = ", ".join(info["repro_env_scrubbed"]) or "none were set"
    print(f"\ncommit {info['git_sha']} dirty={info['git_dirty']}  python {info['python']}  "
          f"nproc {info['nproc']}  seed {info['seed']}")
    print(f"shipped defaults: REPRO_* scrubbed from every child ({scrubbed})")
    if not info["comparable"]:
        print(f"SCALE {info['scale']:g}: NOT COMPARABLE with any other run")
    probe_names = [m["name"] for m in spec["per_layer"] if m["name"].startswith("probe.")]
    for name, block in results["workloads"].items():
        print(f"\n== {name}: {block['attempted']} flows, {block['failed']} failed, "
              f"correct={block['correct']}, bit-exact repeats={block['bit_exact_repeats']}, "
              f"re-runs {block['reruns']}")
        for failure in block["sanity_failures"]:
            print(f"   SANITY: {failure}")
        print(f"   {'end-to-end':28s} {'median':>12s} {'min':>12s} {'max':>12s}  unit   clock")
        for metric, row in block["end_to_end"].items():
            clock = CLOCKS.get(metric, "simulated")
            print(f"   {metric:28s} {row['median']:12.6g} {row['min']:12.6g} "
                  f"{row['max']:12.6g}  {row['unit']:6s} {clock}")
        print(f"   per-layer (counts: median-wall timed run; traced: {TRACE_NOTE})")
        for metric, row in block["per_layer"].items():
            idle_cell = metric.startswith("baselines.") and not row["value"]
            if metric not in probe_names and not idle_cell:
                print(f"   {metric:34s} {row['value']:>14.6g} {row['unit']}")
    print("\n== layer probes (reference-host clock, median of 5)")
    first = next(iter(results["workloads"].values()))
    for metric in probe_names:
        row = first["per_layer"][metric]
        print(f"   {metric:34s} {row['value']:>14.6g} {row['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="driver mode: run this workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length the work is scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of every window; numbers compare with nothing")
    parser.add_argument("--out", type=Path, help="full mode: results JSON path")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}/src/repro not found: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    run_seconds = spec["run_seconds"]
    scale = SMOKE_SCALE if args.smoke else (args.seconds or run_seconds) / run_seconds

    if args.workload is not None:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            parser.error(f"unknown workload {args.workload!r}")
        print(json.dumps(run_one(spec, args.workload, args.seed, scale, bool(args.trace))))
        return 0

    results = run_all(spec, args.seed, scale)
    report(spec, results)
    out = args.out or BENCH / "results" / f"seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults written to {out}")
    return 0 if all(b["correct"] for b in results["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
