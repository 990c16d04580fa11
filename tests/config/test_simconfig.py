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
    assert cfg.scheduler is None
    assert cfg.routing is None
    assert cfg.transport is None
    assert cfg.telemetry is None
    assert not cfg.telemetry_enabled


def test_validation_matches_legacy_error_messages():
    with pytest.raises(ValueError, match="unknown scheduler backend"):
        SimConfig(scheduler="bogus")
    with pytest.raises(ValueError, match="unknown routing policy"):
        SimConfig(routing="bogus")
    with pytest.raises(ValueError, match="unknown telemetry mode"):
        SimConfig(telemetry="bogus")
    with pytest.raises(ValueError, match="unknown protocol"):
        SimConfig(transport="quic")


def test_shards_field_validates_and_exports(monkeypatch):
    import os

    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert SimConfig().shards is None
    with pytest.raises(ValueError, match="positive integer"):
        SimConfig(shards=0)
    with pytest.raises(ValueError, match="positive integer"):
        SimConfig(shards=-2)
    cfg = SimConfig(shards=4)
    with cfg.env():
        assert os.environ["REPRO_SHARDS"] == "4"
    assert "REPRO_SHARDS" not in os.environ
    monkeypatch.setenv("REPRO_SHARDS", "3")
    assert SimConfig.from_env().shards == 3


def test_with_overrides_revalidates():
    cfg = SimConfig(scheduler="heap")
    assert cfg.with_overrides(routing="ecmp").routing == "ecmp"
    assert cfg.with_overrides(routing="ecmp").scheduler == "heap"
    with pytest.raises(ValueError):
        cfg.with_overrides(scheduler="bogus")


def test_from_env_pins_current_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    monkeypatch.setenv("REPRO_ROUTING", "ecmp")
    cfg = SimConfig.from_env(seed=7)
    assert cfg.seed == 7
    assert cfg.scheduler == "heap"
    assert cfg.routing == "ecmp"
    assert cfg.telemetry == "off"
    assert cfg.telemetry_dir is None


def test_from_env_reads_opt_in_adaptive(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "adaptive")
    assert SimConfig.from_env().scheduler == "adaptive"


def test_simulator_accepts_config(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    assert Simulator(config=SimConfig(scheduler="heap")).scheduler_name == "heap"
    assert Simulator(config=SimConfig()).scheduler_name == "heap"
    adaptive = Simulator(config=SimConfig(scheduler="adaptive"))
    assert adaptive.scheduler_name == "adaptive"
    assert adaptive.active_backend == "heap"  # until the live threshold
    # explicit argument wins over the config
    assert (
        Simulator(scheduler="calendar", config=SimConfig(scheduler="heap"))
        .scheduler_name
        == "calendar"
    )


def test_network_accepts_config():
    cfg = SimConfig(seed=5, scheduler="heap", routing="ecmp")
    net = Network(config=cfg)
    assert net.sim.scheduler_name == "heap"
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
        scheduler="heap",
        routing="ecmp",
        transport="tfc",
        telemetry="counters",
        telemetry_dir="/tmp/somewhere",
        lossless="pfc",
        batch="on",
        compiled="off",
        shards=3,
    )
    data = cfg.to_dict()
    assert data["shards"] == 3
    assert data["lossless"] == "pfc"
    restored = SimConfig.from_dict(data)
    assert restored == cfg


def test_round_trip_of_defaults():
    cfg = SimConfig()
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict({"seed": 1, "sched": "heap"})


def test_from_dict_validates_values():
    with pytest.raises(ValueError, match="unknown scheduler backend"):
        SimConfig.from_dict({"scheduler": "bogus"})
