"""Running scenarios: determinism, per-tenant accounting, faults, runner."""

import hashlib
import json

import pytest

from repro.config import env
from repro.experiments.runner import CellSpec, run_cells, scenario_specs
from repro.obs import drain_pending
from repro.scenario import get_scenario, list_scenarios, run_scenario
from repro.scenario.registry import default_scenario_names

COMMITTED = sorted(list_scenarios())


@pytest.fixture(autouse=True)
def _clean_pending():
    drain_pending()
    yield
    drain_pending()


@pytest.mark.parametrize("name", COMMITTED)
def test_every_committed_scenario_runs_quick(name):
    scenario = get_scenario(name)
    result = run_scenario(scenario, quick=True)
    assert result.name == name
    assert result["n_tenants"] == len(scenario.tenants)
    # Per-tenant accounting rows exist for every tenant.
    for tenant in scenario.tenants:
        assert f"goodput_mbps:{tenant.name}" in result.scalars
        assert f"flows:{tenant.name}" in result.scalars
    # TFC fabrics run the invariant monitor and must come back clean.
    if scenario.fabric_protocol() == "tfc":
        assert result["invariant_violations"] == 0.0


@pytest.mark.parametrize("name", COMMITTED)
def test_scenario_repeat_is_bit_identical(name):
    scenario = get_scenario(name)
    assert run_scenario(scenario, quick=True) == run_scenario(
        scenario, quick=True
    )


#: scenario -> (per-tenant goodput and flow-count scalars, digest of every
#: scalar and series), quick runs captured once.  If a change here is
#: intentional, recapture the constants and say so in the commit.
SCENARIO_PINS = {
    "chaos-linkflap": (
        {
            "flows:benchmark": 22.0,
            "goodput_mbps:benchmark": 1321.8933333333332,
        },
        "5d30561ce907bafa",
    ),
    "incast-burst": (
        {
            "flows:background": 2.0,
            "flows:burst": 6.0,
            "goodput_mbps:background": 537.28,
            "goodput_mbps:burst": 1328.64,
        },
        "2c0cacb255887add",
    ),
    "ml-allreduce": (
        {"flows:training": 96.0, "goodput_mbps:training": 11684.48},
        "087db8d24ce2577c",
    ),
    "ml-tree-allreduce": (
        {"flows:training": 27.0, "goodput_mbps:training": 2816.0},
        "9791b7bacfd15ead",
    ),
    "multi-tenant-mix": (
        {
            "flows:search": 25.0,
            "flows:storage": 2.0,
            "flows:training": 32.0,
            "goodput_mbps:search": 439.612,
            "goodput_mbps:storage": 384.0,
            "goodput_mbps:training": 2688.0,
        },
        "00149f4b7feeb350",
    ),
    "storage-chain": (
        {"flows:storage": 4.0, "goodput_mbps:storage": 768.0},
        "1b4325d35c409132",
    ),
    "storage-fanout": (
        {"flows:storage": 12.0, "goodput_mbps:storage": 2304.0},
        "9e6fcf44e6174d04",
    ),
}


def _scenario_pin(result):
    tenants = {
        key: value
        for key, value in sorted(result.scalars.items())
        if key.startswith(("goodput_mbps:", "flows:"))
    }
    blob = json.dumps([result.scalars, result.series], sort_keys=True)
    return tenants, hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SCENARIO_PINS))
def test_committed_scenario_result_is_pinned(name):
    result = run_scenario(get_scenario(name), quick=True)
    assert _scenario_pin(result) == SCENARIO_PINS[name]


def test_telemetry_on_off_bit_identical():
    # ml-allreduce commits no telemetry: compare its result with the
    # env-selected 'full' session attached vs detached.
    scenario = get_scenario("ml-allreduce")
    plain = run_scenario(scenario, quick=True)
    with env(telemetry="full"):
        observed = run_scenario(scenario, quick=True)
    assert plain == observed


def test_jobs_1_vs_4_bit_identical():
    specs = scenario_specs(
        ["multi-tenant-mix", "incast-burst", "storage-chain"], quick=True
    )
    serial = run_cells(specs, jobs=1, root_seed=5)
    parallel = run_cells(specs, jobs=4, root_seed=5)
    assert serial == parallel


def test_transport_override_sweeps_fabric():
    scenario = get_scenario("multi-tenant-mix")
    results = {
        transport: run_scenario(scenario, quick=True, transport=transport)
        for transport in ("tfc", "tcp")
    }
    assert results["tfc"].protocol == "tfc"
    assert results["tcp"].protocol == "tcp"
    # TCP runs carry no TFC invariant monitor.
    assert "invariant_violations" not in results["tcp"].scalars
    assert results["tfc"] != results["tcp"]


def test_seed_changes_the_outcome_deterministically():
    scenario = get_scenario("multi-tenant-mix")
    a1 = run_scenario(scenario, seed=1, quick=True)
    a2 = run_scenario(scenario, seed=1, quick=True)
    b = run_scenario(scenario, seed=2, quick=True)
    assert a1 == a2
    assert a1 != b


def test_fault_schedule_lands_on_the_network():
    result = run_scenario(get_scenario("chaos-linkflap"), quick=True)
    assert result["faults_injected"] == 2.0


def test_per_tenant_metrics_in_registry_and_jsonl(tmp_path):
    # The flagship scenario declares telemetry: counters; run it through
    # the runner with an export directory and check the JSONL rows.
    specs = scenario_specs(["multi-tenant-mix"], quick=True)
    results = run_cells(
        specs, jobs=1, root_seed=0, telemetry_dir=str(tmp_path)
    )
    assert results[0]["jain_tenants"] > 0.0
    files = list(tmp_path.glob("*.metrics.jsonl"))
    assert len(files) == 1
    names = {json.loads(line)["name"] for line in files[0].read_text().splitlines()}
    for tenant in ("search", "training", "storage"):
        assert f"tenant.{tenant}.goodput_bps" in names
        assert f"tenant.{tenant}.flows" in names
        assert f"tenant.{tenant}.bytes_acked" in names
    assert "scenario.jain_tenants" in names


def test_default_plan_trio_present():
    assert default_scenario_names() == [
        "ml-allreduce", "storage-fanout", "multi-tenant-mix"
    ]


def test_runner_rejects_unknown_scenario():
    from repro.experiments.runner import RunnerError

    with pytest.raises(RunnerError, match="unknown scenario"):
        run_cells([CellSpec("scenario", {"scenario": "nope"})], jobs=1)
