"""SimConfig: validation, env round-trip, and layer acceptance."""

from dataclasses import replace

import pytest

from repro.config import KNOBS, SimConfig
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
    assert cfg.telemetry is None


def test_validation_matches_legacy_error_messages():
    with pytest.raises(ValueError, match="unknown routing policy"):
        SimConfig(routing="bogus")
    with pytest.raises(ValueError, match="unknown telemetry mode"):
        SimConfig(telemetry="bogus")


def test_with_overrides_revalidates():
    """A variant is derived with ``dataclasses.replace``, which runs the
    same validation as the constructor (``with_overrides`` is gone)."""
    cfg = SimConfig(lossless="pfc")
    assert replace(cfg, routing="ecmp").routing == "ecmp"
    assert replace(cfg, routing="ecmp").lossless == "pfc"
    with pytest.raises(ValueError):
        replace(cfg, lossless="bogus")


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


@pytest.mark.parametrize("mode", ("pfc", "off"))
def test_network_config_lossless_beats_the_environment(monkeypatch, mode):
    """``Network(config=SimConfig(lossless=...))`` decides whether the
    protocol installer arms PFC; ``$REPRO_LOSSLESS`` only fills in for a
    config that leaves the field unset."""
    from repro.transport.registry import get_protocol

    monkeypatch.setenv("REPRO_LOSSLESS", "off" if mode == "pfc" else "pfc")
    net = Network(config=SimConfig(lossless=mode))
    a, b, switch = net.add_host("a"), net.add_host("b"), net.add_switch("sw")
    net.cable(a, switch, 10**9, 1_000)
    net.cable(switch, b, 10**9, 1_000)
    net.build_routes()
    get_protocol("tfc").install(net)
    assert (net.lossless is not None) == (mode == "pfc")
    # A config without a lossless field defers to the environment.
    unset = Network(config=SimConfig())
    unset.add_host("h")
    get_protocol("tcp").install(unset)
    assert (unset.lossless is not None) == (mode == "off")


#: The value each source supplies for a field, highest precedence first:
#: explicit ``Network`` argument, config field, ``$REPRO_*``, default.
#: None: the field has no such source (only seed and routing are
#: ``Network`` arguments; the seed has no environment variable).
SOURCES = ("explicit", "config", "env", "default")
LADDER = {
    "seed": (9, 5, None, 0),
    "routing": ("spray", "flowlet", "ecmp", "single"),
    "telemetry": (None, "counters", "slots", "off"),
    "telemetry_dir": (None, "/cfg", "/env", None),
    "lossless": (None, "off", "pfc", "off"),
}
PRECEDENCE_CASES = [
    (field, source)
    for field, values in LADDER.items()
    for source, value in zip(SOURCES, values)
    if value is not None or source == "default"
]


@pytest.mark.parametrize("field, source", PRECEDENCE_CASES)
def test_network_config_resolves_by_one_precedence_rule(
    monkeypatch, field, source
):
    """Every source below ``source`` is set to its own value; the one at
    ``source`` must win, and ``network.config`` must come out complete."""
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.var, raising=False)
    values = dict(zip(SOURCES, LADDER[field]))
    present = SOURCES[SOURCES.index(source):]
    explicit, config = {}, None
    if "explicit" in present and values["explicit"] is not None:
        explicit[field] = values["explicit"]
    if "config" in present:
        config = SimConfig(**{field: values["config"]})
    if "env" in present and values["env"] is not None:
        monkeypatch.setenv(KNOBS[field].var, values["env"])
    net = Network(config=config, **explicit)
    assert getattr(net.config, field) == values[source]
    assert net.routing.name == net.config.routing
    assert None not in (net.config.routing, net.config.telemetry,
                        net.config.lossless)


@pytest.mark.parametrize("knob", ("routing", "telemetry", "lossless"))
def test_network_rejects_a_bad_environment_value(monkeypatch, knob):
    var = KNOBS[knob].var
    monkeypatch.setenv(var, "bogus")
    with pytest.raises(ValueError, match=rf"\${var}"):
        Network()
    # A config field shadows the variable, which is then never read.
    default = KNOBS[knob].default
    assert getattr(Network(config=SimConfig(**{knob: default})).config, knob) == default


# ----------------------------------------------------------------------
# to_dict / from_dict round-trip
# ----------------------------------------------------------------------
def test_to_dict_from_dict_round_trip_all_fields():
    cfg = SimConfig(
        seed=42,
        routing="ecmp",
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
    """One field per ``REPRO_*`` knob, plus the seed.  The transport is
    not a field: it was validated but applied nowhere, so it is gone."""
    from dataclasses import fields

    from repro.config import KNOBS

    names = [f.name for f in fields(SimConfig)]
    assert len(names) == 5
    assert set(names) == {"seed"} | set(KNOBS)


def test_from_dict_validates_values():
    with pytest.raises(ValueError, match="unknown lossless fabric mode"):
        SimConfig.from_dict({"lossless": "bogus"})
