"""Scenario schema validation: precise error paths, closed mappings."""

import pytest

from repro.scenario import ScenarioError, scenario_from_dict


def minimal(**overrides):
    base = {
        "name": "t",
        "duration_ms": 5.0,
        "topology": {"kind": "dumbbell", "n_senders": 4},
        "tenants": [
            {
                "name": "a",
                "transport": "tfc",
                "workload": {"kind": "bulk"},
            }
        ],
    }
    base.update(overrides)
    return base


def test_minimal_scenario_validates():
    scenario = scenario_from_dict(minimal())
    assert scenario.name == "t"
    assert scenario.fabric_protocol() == "tfc"
    assert scenario.topology.host_count() == 5
    assert scenario.tenants[0].workload.params["size_bytes"] == 500_000


def test_unknown_top_level_field_rejected():
    with pytest.raises(ScenarioError, match="unknown field.*durations_ms"):
        scenario_from_dict(minimal(durations_ms=5.0))


def test_unknown_workload_param_has_precise_path():
    doc = minimal()
    doc["tenants"][0]["workload"] = {
        "kind": "ml_allreduce", "params": {"chunk_byte": 100}
    }
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert ".tenants[0].workload.params" in str(exc.value)
    assert "chunk_byte" in str(exc.value)


def test_wrong_type_names_the_field():
    with pytest.raises(ScenarioError, match=r"\.duration_ms"):
        scenario_from_dict(minimal(duration_ms="fast"))


def test_unknown_topology_kind():
    doc = minimal(topology={"kind": "torus"})
    with pytest.raises(ScenarioError, match=r"\.topology\.kind.*torus"):
        scenario_from_dict(doc)


def test_unknown_transport():
    doc = minimal()
    doc["tenants"][0]["transport"] = "quic"
    with pytest.raises(ScenarioError, match=r"\.tenants\[0\]\.transport"):
        scenario_from_dict(doc)


def test_selector_out_of_range_rejected_eagerly():
    doc = minimal()
    doc["tenants"][0]["hosts"] = {"range": [0, 9]}
    with pytest.raises(ScenarioError, match=r"\.tenants\[0\]\.hosts.*5 hosts"):
        scenario_from_dict(doc)


def test_selector_too_small_for_workload():
    doc = minimal()
    doc["tenants"][0]["hosts"] = {"first": 2}
    doc["tenants"][0]["workload"] = {
        "kind": "storage", "params": {"replicas": 2}
    }
    with pytest.raises(ScenarioError, match="at least 3 hosts"):
        scenario_from_dict(doc)


def test_mixed_transports_require_explicit_fabric():
    doc = minimal()
    doc["tenants"].append(
        {
            "name": "b",
            "transport": "tcp",
            "workload": {"kind": "bulk"},
        }
    )
    with pytest.raises(ScenarioError, match=r"\.fabric.*explicit"):
        scenario_from_dict(doc)
    doc["fabric"] = "dctcp"
    assert scenario_from_dict(doc).fabric_protocol() == "dctcp"


def test_duplicate_tenant_names_rejected():
    doc = minimal()
    doc["tenants"].append(dict(doc["tenants"][0]))
    with pytest.raises(ScenarioError, match="duplicate tenant names"):
        scenario_from_dict(doc)


def test_fault_requires_link_and_validates_kind():
    doc = minimal(faults=[{"kind": "link_melt", "at_ms": 1.0}])
    with pytest.raises(ScenarioError, match=r"\.faults\[0\]\.kind"):
        scenario_from_dict(doc)
    doc = minimal(faults=[{"kind": "link_down", "at_ms": 1.0}])
    with pytest.raises(ScenarioError, match=r"\.faults\[0\]\.link"):
        scenario_from_dict(doc)


def test_link_flap_requires_duration():
    doc = minimal(
        faults=[{"kind": "link_flap", "at_ms": 1.0, "link": ["SW", "R0"]}]
    )
    with pytest.raises(ScenarioError, match=r"\.faults\[0\]\.duration_ms"):
        scenario_from_dict(doc)


def test_config_block_round_trips_and_rejects_reserved():
    doc = minimal(config={"lossless": "pfc", "telemetry_dir": "tel"})
    scenario = scenario_from_dict(doc)
    assert scenario.config.lossless == "pfc"
    assert scenario.config.telemetry_dir == "tel"
    assert scenario.config.seed == scenario.seed
    doc = minimal(config={"telemetry": "counters"})
    with pytest.raises(ScenarioError, match=r"\.config\.telemetry"):
        scenario_from_dict(doc)


def test_config_block_naming_the_removed_scheduler_rejected():
    doc = minimal(config={"scheduler": "heap"})
    with pytest.raises(ScenarioError, match="unknown SimConfig field"):
        scenario_from_dict(doc)


def test_config_block_naming_the_removed_batch_knob_rejected():
    doc = minimal(config={"batch": "on"})
    with pytest.raises(ScenarioError, match="unknown SimConfig field"):
        scenario_from_dict(doc)


def test_config_block_naming_the_removed_compiled_knob_rejected():
    doc = minimal(config={"compiled": "on"})
    with pytest.raises(ScenarioError, match="unknown SimConfig field"):
        scenario_from_dict(doc)


def test_config_block_naming_the_removed_shards_knob_rejected():
    doc = minimal(config={"shards": 2})
    with pytest.raises(ScenarioError, match="unknown SimConfig field"):
        scenario_from_dict(doc)


def test_unknown_routing_and_telemetry_rejected():
    with pytest.raises(ScenarioError, match=r"\.routing"):
        scenario_from_dict(minimal(routing="zigzag"))
    with pytest.raises(ScenarioError, match=r"\.telemetry"):
        scenario_from_dict(minimal(telemetry="verbose"))


def test_quick_duration_used_by_effective_duration():
    scenario = scenario_from_dict(minimal(quick_duration_ms=1.0))
    assert scenario.effective_duration_ns(quick=True) == 1_000_000
    assert scenario.effective_duration_ns() == 5_000_000
    # Without quick_duration_ms, quick = duration / 4.
    scenario = scenario_from_dict(minimal())
    assert scenario.effective_duration_ns(quick=True) == 1_250_000
