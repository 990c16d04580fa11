"""Checks of the benchmark itself: ``python -m pytest bench -q``.

Outside tier-1 (``pyproject.toml`` collects ``tests/`` only).  Everything
here runs at the smoke scale — 1/20 of every window — whose numbers
compare with nothing and are never written to BENCHMARK.json; the point
is that every workload, the tracer fold and every probe execute, and
that the harness speaks the driver's contract.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, layer_of_file  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_fits_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"] and SPEC["command"][-1].startswith("bench/")
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_and_cell_has_its_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls", f"{layer}.share"} <= per_layer
    from workloads import PARAMS

    for protocol in PARAMS["baselines8-dumbbell"]["protocols"]:
        assert f"baselines.{protocol}.run_s" in per_layer


def test_layer_of_file():
    assert layer_of_file("/x/src/repro/sim/sched/calendar.py") == "sim.sched"
    assert layer_of_file("/x/src/repro/sim/engine.py") == "sim.engine"
    assert layer_of_file("/x/src/repro/net/port.py") == "net"
    assert layer_of_file("/x/src/repro/scenario/run.py") == "other"
    assert layer_of_file("/usr/lib/python3/random.py") == "other"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = run.run_one(SPEC, workload, seed=1, scale=run.SMOKE_SCALE, trace=False)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    json.dumps(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_fold_accounts_for_the_traced_wall(workload):
    traced = run.spawn("traced", workload, seed=1, scale=run.SMOKE_SCALE)
    folded = sum(layer["self_s"] for layer in traced["layers"].values())
    assert folded == pytest.approx(traced["host"]["elapsed_s"], rel=0.02)
    assert set(traced["layers"]) == set(LAYERS)
    assert traced["layers"]["sim.engine"]["calls"] > 0


def test_smoke_per_layer_metrics_and_probes():
    result = run.run_one(SPEC, "mix-fattree", seed=1, scale=run.SMOKE_SCALE, trace=True)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, metric in result["metrics"].items():
        if name.startswith("probe.") or name == "trace.overhead_x":
            assert metric["value"] > 0, name


def test_same_seed_is_bit_exact_and_seed_matters():
    first = run.spawn("timed", "leafspine360-tfc", seed=4, scale=run.SMOKE_SCALE)
    again = run.spawn("timed", "leafspine360-tfc", seed=4, scale=run.SMOKE_SCALE)
    other = run.spawn("timed", "leafspine360-tfc", seed=5, scale=run.SMOKE_SCALE)
    assert first["sim"] == again["sim"]
    assert first["sim"] != other["sim"]
    assert first["sim"]["flows_launched"] == other["sim"]["flows_launched"]


def _results(wall_values):
    row = {"median": sorted(wall_values)[1], "min": min(wall_values), "max": max(wall_values)}
    same = {"median": 1.0, "min": 1.0, "max": 1.0}
    block = {
        "attempted": 10, "failed": 0,
        "end_to_end": {m["name"]: dict(same) for m in SPEC["end_to_end"]},
    }
    block["end_to_end"]["wall_s"] = row
    return {
        "manifest": {"git_sha": "x", "git_dirty": False, "seed": 0, "nproc": 2,
                     "comparable": True},
        "workloads": {name: json.loads(json.dumps(block)) for name in WORKLOADS},
    }


def test_compare_verdicts(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    base = _results([10.0, 10.1, 10.2])
    verdicts = {
        "same": _results([10.3, 10.4, 10.5]),
        "worse": _results([10.2 * (1 + bound), 10.3 * (1 + bound), 10.4 * (1 + bound)]),
        "better": _results([9.8 * (1 - bound), 9.9 * (1 - bound), 10.0 * (1 - bound)]),
        "unresolved": _results([10.0 * (1 - bound), 10.0, 10.0 * (1 + bound)]),
    }
    (tmp_path / "a.json").write_text(json.dumps(base))
    for word, other in verdicts.items():
        (tmp_path / "b.json").write_text(json.dumps(other))
        code = compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == (1 if word == "worse" else 0)
        table = capsys.readouterr().out
        wall_rows = [line for line in table.splitlines() if " wall_s " in line]
        assert len(wall_rows) == len(WORKLOADS)
        assert all(line.endswith(word) for line in wall_rows)
    failing = _results([10.0, 10.1, 10.2])
    failing["workloads"][WORKLOADS[0]]["failed"] = 1
    (tmp_path / "b.json").write_text(json.dumps(failing))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
