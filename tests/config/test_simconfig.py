"""SimConfig: validation, env round-trip, and layer acceptance."""

import pytest

from repro.config import SimConfig
from repro.net.network import Network
from repro.obs import drain_pending
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_pending():
    drain_pending()
    yield
    drain_pending()


def test_defaults_defer_everything():
    cfg = SimConfig()
    assert cfg.seed == 0
    assert cfg.routing is None
    assert cfg.transport is None
    assert cfg.telemetry is None
    assert not cfg.telemetry_enabled


def test_validation_matches_legacy_error_messages():
    with pytest.raises(ValueError, match="unknown routing policy"):
        SimConfig(routing="bogus")
    with pytest.raises(ValueError, match="unknown telemetry mode"):
        SimConfig(telemetry="bogus")
    with pytest.raises(ValueError, match="unknown protocol"):
        SimConfig(transport="quic")


def test_with_overrides_revalidates():
    cfg = SimConfig(lossless="pfc")
    assert cfg.with_overrides(routing="ecmp").routing == "ecmp"
    assert cfg.with_overrides(routing="ecmp").lossless == "pfc"
    with pytest.raises(ValueError):
        cfg.with_overrides(lossless="bogus")


def test_from_env_pins_current_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_LOSSLESS", raising=False)
    monkeypatch.setenv("REPRO_ROUTING", "ecmp")
    cfg = SimConfig.from_env(seed=7)
    assert cfg.seed == 7
    assert cfg.lossless == "off"
    assert cfg.routing == "ecmp"
    assert cfg.telemetry == "off"
    assert cfg.telemetry_dir is None


def test_simulator_refuses_config():
    """The kernel has one run loop and reads no knob: a config has
    nothing left to select there."""
    with pytest.raises(TypeError):
        Simulator(config=SimConfig())


def test_network_accepts_config():
    cfg = SimConfig(seed=5, routing="ecmp")
    net = Network(config=cfg)
    assert net.routing.name == "ecmp"
    assert net.seeds.root_seed == Network(seed=5).seeds.root_seed
    assert net.telemetry is None  # telemetry deferred -> off


def test_network_explicit_args_win_over_config():
    cfg = SimConfig(seed=5, routing="ecmp")
    net = Network(seed=9, routing="spray", config=cfg)
    assert net.routing.name == "spray"
    assert net.seeds.root_seed == Network(seed=9).seeds.root_seed


def test_network_config_installs_telemetry():
    net = Network(config=SimConfig(telemetry="full"))
    assert net.telemetry is not None
    assert net.telemetry.mode == "full"
    assert net.telemetry.slots is not None
    assert net.telemetry.flight is not None
    assert drain_pending() == [net.telemetry]


def test_telemetry_enabled_property():
    assert SimConfig(telemetry="counters").telemetry_enabled
    assert not SimConfig(telemetry="off").telemetry_enabled
    assert not SimConfig().telemetry_enabled


# ----------------------------------------------------------------------
# to_dict / from_dict round-trip
# ----------------------------------------------------------------------
def test_to_dict_from_dict_round_trip_all_fields():
    cfg = SimConfig(
        seed=42,
        routing="ecmp",
        transport="tfc",
        telemetry="counters",
        telemetry_dir="/tmp/somewhere",
        lossless="pfc",
    )
    data = cfg.to_dict()
    assert data["telemetry_dir"] == "/tmp/somewhere"
    assert data["lossless"] == "pfc"
    restored = SimConfig.from_dict(data)
    assert restored == cfg


def test_round_trip_of_defaults():
    cfg = SimConfig()
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict({"seed": 1, "sched": "heap"})


def test_from_dict_rejects_the_removed_scheduler_field():
    with pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict({"scheduler": "heap"})


def test_the_removed_batch_field_is_rejected():
    with pytest.raises(TypeError, match="batch"):
        SimConfig(batch="on")
    with pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict({"batch": "on"})


def test_the_removed_compiled_field_is_rejected():
    with pytest.raises(TypeError, match="compiled"):
        SimConfig(compiled="on")
    with pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict({"compiled": "on"})


def test_the_removed_shards_field_is_rejected():
    with pytest.raises(TypeError, match="shards"):
        SimConfig(shards=2)
    with pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict({"shards": 2})


def test_from_env_ignores_a_stale_shard_count(monkeypatch):
    """``REPRO_SHARDS`` once named a shard count; nothing reads it now,
    so a value left in a shell neither fails nor lands in the config."""
    for knob in ("REPRO_ROUTING", "REPRO_TELEMETRY", "REPRO_TELEMETRY_DIR",
                 "REPRO_LOSSLESS"):
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    clean = SimConfig.from_env(seed=3)
    for stale in ("2", "nope"):
        monkeypatch.setenv("REPRO_SHARDS", stale)
        assert SimConfig.from_env(seed=3) == clean
        assert "shards" not in SimConfig.from_env(seed=3).to_dict()


def test_fields_are_the_seed_the_transport_and_the_knobs():
    """One field per ``REPRO_*`` knob, plus the seed and the transport."""
    from dataclasses import fields

    from repro.config import KNOBS

    names = [f.name for f in fields(SimConfig)]
    assert len(names) == 6
    assert set(names) == {"seed", "transport"} | set(KNOBS)


def test_from_dict_validates_values():
    with pytest.raises(ValueError, match="unknown lossless fabric mode"):
        SimConfig.from_dict({"lossless": "bogus"})
