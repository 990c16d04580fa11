"""The consolidated REPRO_* environment surface and its legacy shims."""

import os

import pytest

from repro.config import (
    KNOBS,
    LOSSLESS_MODES,
    ROUTING_NAMES,
    SCHEDULER_NAMES,
    TELEMETRY_MODES,
    current,
    env,
    lossless_mode,
    routing_name,
    scheduler_name,
    telemetry_dir,
    telemetry_mode,
)


def test_knob_table_covers_every_surface():
    assert set(KNOBS) == {
        "scheduler", "routing", "telemetry", "telemetry_dir", "lossless",
        "batch", "compiled", "shards",
    }
    assert KNOBS["scheduler"].names == SCHEDULER_NAMES
    assert KNOBS["routing"].names == ROUTING_NAMES
    assert KNOBS["telemetry"].names == TELEMETRY_MODES
    assert KNOBS["telemetry_dir"].names is None  # free-form path
    assert KNOBS["lossless"].names == LOSSLESS_MODES
    assert KNOBS["batch"].names == ("on", "off")
    assert KNOBS["compiled"].names == ("on", "off")
    assert KNOBS["shards"].names is None  # a count, checked not enumerated
    assert KNOBS["shards"].var == "REPRO_SHARDS"


def test_defaults_when_unset(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.var, raising=False)
    assert scheduler_name() == "heap"
    assert routing_name() == "single"
    assert telemetry_mode() == "off"
    assert telemetry_dir() is None
    assert lossless_mode() == "off"
    assert current("batch") == "on"
    assert current("compiled") == "off"


def test_adaptive_is_opt_in_by_name(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "adaptive")
    assert scheduler_name() == "adaptive"
    with env(scheduler="adaptive"):
        assert os.environ["REPRO_SCHEDULER"] == "adaptive"


def test_current_validates_and_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "bogus")
    with pytest.raises(ValueError, match=r"\$REPRO_SCHEDULER"):
        current("scheduler")
    with pytest.raises(ValueError, match="unknown scheduler backend"):
        current("scheduler")


def test_env_pins_and_restores(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    monkeypatch.delenv("REPRO_ROUTING", raising=False)
    with env(scheduler="calendar", routing="ecmp", telemetry="full",
             telemetry_dir="/tmp/t"):
        assert os.environ["REPRO_SCHEDULER"] == "calendar"
        assert os.environ["REPRO_ROUTING"] == "ecmp"
        assert os.environ["REPRO_TELEMETRY"] == "full"
        assert os.environ["REPRO_TELEMETRY_DIR"] == "/tmp/t"
    assert os.environ["REPRO_SCHEDULER"] == "heap"  # previous value back
    assert "REPRO_ROUTING" not in os.environ  # unset restored to unset
    assert "REPRO_TELEMETRY" not in os.environ


def test_env_none_knobs_are_untouched(monkeypatch):
    monkeypatch.setenv("REPRO_ROUTING", "spray")
    with env(scheduler="heap"):
        assert os.environ["REPRO_ROUTING"] == "spray"
    with env():  # a no-op context
        pass


def test_env_validates_eagerly():
    context = None
    with pytest.raises(ValueError, match="unknown scheduler backend"):
        context = env(scheduler="bogus")
    assert context is None  # raised before the block could even start
    with pytest.raises(ValueError, match="unknown routing policy"):
        env(routing="bogus")
    with pytest.raises(ValueError, match="unknown telemetry mode"):
        env(telemetry="bogus")


def test_shard_count_knob(monkeypatch):
    from repro.config import shard_count

    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert shard_count() is None  # unset: serial
    with env(shards="4"):
        assert os.environ["REPRO_SHARDS"] == "4"
        assert shard_count() == 4
    assert "REPRO_SHARDS" not in os.environ
    monkeypatch.setenv("REPRO_SHARDS", "2")
    assert shard_count() == 2
    for bogus in ("zero", "0", "-3", "2.5"):
        monkeypatch.setenv("REPRO_SHARDS", bogus)
        with pytest.raises(ValueError, match=r"\$REPRO_SHARDS"):
            shard_count()
    with pytest.raises(ValueError, match="positive integer"):
        env(shards="nope")  # eager validation, like every other knob


def test_env_restores_on_exception(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    with pytest.raises(RuntimeError):
        with env(scheduler="heap"):
            raise RuntimeError("boom")
    assert "REPRO_SCHEDULER" not in os.environ


# ----------------------------------------------------------------------
# Legacy shims
# ----------------------------------------------------------------------
def test_scheduler_env_shim(monkeypatch):
    from repro.sim.sched import scheduler_env

    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    with scheduler_env("wheel"):
        assert os.environ["REPRO_SCHEDULER"] == "wheel"
    assert "REPRO_SCHEDULER" not in os.environ
    with pytest.raises(ValueError, match="unknown scheduler backend"):
        scheduler_env("bogus")


def test_routing_env_shim(monkeypatch):
    from repro.routing import routing_env

    monkeypatch.delenv("REPRO_ROUTING", raising=False)
    with routing_env("flowlet"):
        assert os.environ["REPRO_ROUTING"] == "flowlet"
    assert "REPRO_ROUTING" not in os.environ
    with pytest.raises(ValueError, match="unknown routing policy"):
        routing_env("bogus")
