"""The benchmark's import surface stays intact.

``bench/`` drives the library through its public names plus a few
kernel handles (``probes._rearm_ns`` cancels the handle ``schedule()``
returns).  CI's benchmark job does not gate merges, so this tier-1 test
imports the harness and runs every probe once, at a tiny count: a
change under ``src/`` that breaks the benchmark fails here first.
"""

import inspect
import pathlib
import random
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import probes
    import workloads

    assert workloads.WORKLOADS and workloads.SCENARIO_PATH.is_file()
    yield probes
    for name in ("probes", "workloads", "hostspeed"):
        sys.modules.pop(name, None)


def test_every_probe_runs_once_at_a_tiny_count(probes):
    from repro.metrics.fct import FctCollector, FctRecord

    records = FctCollector()
    rng = random.Random(2)
    records.records = [
        FctRecord("query", 2_000, rng.randrange(100_000, 20_000_000), 0)
        for _ in range(100)
    ]
    calls = {
        "_noop": lambda: probes._noop(),
        "_dispatch_ns": lambda: probes._dispatch_ns(64, 200),
        "_rearm_ns": lambda: probes._rearm_ns(10),
        "_hop_ns": lambda: probes._hop_ns(500),
        "_build_routes_ms": probes._build_routes_ms,
        "_on_transit_ns": lambda: probes._on_transit_ns(1),
        "_delay_offer_ns": lambda: probes._delay_offer_ns(1),
        "_short_flow_us": lambda: probes._short_flow_us(1),
        "_arrival_us": probes._arrival_us,
        "_summary_ms": lambda: probes._summary_ms(records),
        "_scenario_load_ms": lambda: probes._scenario_load_ms(1),
        "_dumbbell_run_s": lambda: probes._dumbbell_run_s("off", 10_000),
        "_obs_full_overhead_x": lambda: probes._obs_full_overhead_x(10_000),
    }
    defined = {
        name
        for name, value in vars(probes).items()
        if name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == probes.__name__
    }
    assert defined == set(calls)  # a new probe joins this list
    for name, call in calls.items():
        value = call()
        if name != "_noop":
            assert value > 0, name
