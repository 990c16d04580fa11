"""The consolidated REPRO_* environment surface and its legacy shims."""

import os

import pytest

from repro.config import (
    KNOBS,
    LOSSLESS_MODES,
    ROUTING_NAMES,
    TELEMETRY_MODES,
    current,
    env,
    lossless_mode,
    routing_name,
    telemetry_dir,
    telemetry_mode,
)


def test_knob_table_covers_every_surface():
    assert set(KNOBS) == {
        "routing", "telemetry", "telemetry_dir", "lossless", "shards",
    }
    assert KNOBS["routing"].names == ROUTING_NAMES
    assert KNOBS["telemetry"].names == TELEMETRY_MODES
    assert KNOBS["telemetry_dir"].names is None  # free-form path
    assert KNOBS["lossless"].names == LOSSLESS_MODES
    assert KNOBS["shards"].names is None  # a count, checked not enumerated
    assert KNOBS["shards"].var == "REPRO_SHARDS"


def test_defaults_when_unset(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.var, raising=False)
    assert routing_name() == "single"
    assert telemetry_mode() == "off"
    assert telemetry_dir() is None
    assert lossless_mode() == "off"
    assert current("shards") == ""


def test_current_validates_and_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_ROUTING", "bogus")
    with pytest.raises(ValueError, match=r"\$REPRO_ROUTING"):
        current("routing")
    with pytest.raises(ValueError, match="unknown routing policy"):
        current("routing")


def test_env_pins_and_restores(monkeypatch):
    monkeypatch.setenv("REPRO_LOSSLESS", "off")
    monkeypatch.delenv("REPRO_ROUTING", raising=False)
    with env(lossless="pfc", routing="ecmp", telemetry="full",
             telemetry_dir="/tmp/t"):
        assert os.environ["REPRO_LOSSLESS"] == "pfc"
        assert os.environ["REPRO_ROUTING"] == "ecmp"
        assert os.environ["REPRO_TELEMETRY"] == "full"
        assert os.environ["REPRO_TELEMETRY_DIR"] == "/tmp/t"
    assert os.environ["REPRO_LOSSLESS"] == "off"  # previous value back
    assert "REPRO_ROUTING" not in os.environ  # unset restored to unset
    assert "REPRO_TELEMETRY" not in os.environ


def test_env_none_knobs_are_untouched(monkeypatch):
    monkeypatch.setenv("REPRO_ROUTING", "spray")
    with env(lossless="off"):
        assert os.environ["REPRO_ROUTING"] == "spray"
    with env():  # a no-op context
        pass


def test_env_validates_eagerly():
    context = None
    with pytest.raises(ValueError, match="unknown routing policy"):
        context = env(routing="bogus")
    assert context is None  # raised before the block could even start
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


def test_env_refuses_the_removed_batch_knob():
    with pytest.raises(TypeError, match="batch"):
        env(batch="off")


def test_env_refuses_the_removed_compiled_knob():
    with pytest.raises(TypeError, match="compiled"):
        env(compiled="on")


def test_env_keywords_are_exactly_the_knobs():
    """Every knob is settable through :func:`env`, and :func:`env` sets
    nothing that is not a knob."""
    import inspect

    assert list(inspect.signature(env).parameters) == list(KNOBS)


def test_env_restores_on_exception(monkeypatch):
    monkeypatch.delenv("REPRO_ROUTING", raising=False)
    with pytest.raises(RuntimeError):
        with env(routing="ecmp"):
            raise RuntimeError("boom")
    assert "REPRO_ROUTING" not in os.environ


# ----------------------------------------------------------------------
# Legacy shims
# ----------------------------------------------------------------------
def test_routing_env_shim(monkeypatch):
    from repro.routing import routing_env

    monkeypatch.delenv("REPRO_ROUTING", raising=False)
    with routing_env("flowlet"):
        assert os.environ["REPRO_ROUTING"] == "flowlet"
    assert "REPRO_ROUTING" not in os.environ
    with pytest.raises(ValueError, match="unknown routing policy"):
        routing_env("bogus")
