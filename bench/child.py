"""One measured run, in a process of its own; prints one JSON record.

``run.py`` starts this file once per workload run (never two at a time)
with every ``REPRO_*`` variable scrubbed, so what is measured is the
shipped defaults.  Modes:

* ``timed``  — set-up, the run phase on the host-speed meter
  (``hostspeed.py``), collection, peak RSS, then more set-ups so
  ``setup_s`` is a median of five or more;
* ``traced`` — the same run phase under ``cProfile``, folded by layer,
  on the raw clock;
* ``probes`` — the layer probes of ``probes.py`` (no workload).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
from time import perf_counter, process_time

from hostspeed import SpeedMeter

#: ``setup_s`` is a median of at least five set-ups; a set-up of a few
#: milliseconds is repeated until a quarter second of them is in hand.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_TOTAL_S = 0.25


def timed_setup(workload, normalise: bool) -> float:
    gc.collect()
    meter = SpeedMeter(normalise)
    started = perf_counter()
    workload.setup()
    meter.add(perf_counter() - started)
    meter.flush()
    return meter.reference_s


def measure(name: str, seed: int, scale: float, traced: bool) -> dict:
    from layers import fold
    from repro.config import SimConfig
    from workloads import PARAMS, WORKLOADS

    workload = WORKLOADS[name](seed, scale)
    setup_samples = [timed_setup(workload, not traced)]

    profile = cProfile.Profile() if traced else None
    gc.collect()
    meter = workload.meter = SpeedMeter(normalise=not traced)
    cpu_started = process_time()
    started = perf_counter()
    if profile is not None:
        profile.enable()
    workload.run()
    if profile is not None:
        profile.disable()
    meter.flush()
    # Calibration included on both sides, so steal is 1 - cpu / elapsed.
    elapsed_s = perf_counter() - started
    cpu_s = process_time() - cpu_started

    started = perf_counter()
    record = workload.collect()
    collect_s = perf_counter() - started
    # Linux reports ru_maxrss in KiB; read before the extra set-ups below.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cell_run_s = workload.cell_run_s
    del workload

    while not traced and (
        len(setup_samples) < SETUP_REPEATS
        or (len(setup_samples) < SETUP_MAX_REPEATS and sum(setup_samples) < SETUP_MIN_TOTAL_S)
    ):
        setup_samples.append(timed_setup(WORKLOADS[name](seed, scale), True))

    record["host"] = {
        "wall_s": meter.reference_s,
        "wall_raw_s": meter.raw_s,
        "elapsed_s": elapsed_s,
        "cpu_s": cpu_s,
        "setup_s": statistics.median(setup_samples),
        "setup_samples_s": setup_samples,
        "collect_s": collect_s,
        "peak_rss_mb": peak_rss_mb,
        "cell_run_s": cell_run_s,
    }
    if profile is not None:
        record["layers"] = fold(profile)
    # For the run manifest: what this process actually resolved.
    record["sim_config"] = SimConfig.from_env(seed=seed).to_dict()
    record["all_params"] = PARAMS
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("timed", "traced", "probes"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.mode == "probes":
        from probes import run_probes

        record = {"probes": run_probes(args.scale)}
    else:
        record = measure(args.workload, args.seed, args.scale, args.mode == "traced")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
