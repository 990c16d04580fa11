"""Telemetry sessions: modes, snapshot, export, install surfaces."""

import csv
import json

import pytest

from repro.config import SimConfig
from repro.experiments.common import build_topology
from repro.net.network import Network
from repro.net.topology import dumbbell
from repro.obs import Telemetry, drain_pending, install
from repro.sim.units import seconds
from repro.transport.registry import open_flow


@pytest.fixture(autouse=True)
def _clean_pending(monkeypatch):
    # Sessions here are installed explicitly; neutralise any ambient
    # REPRO_TELEMETRY (the telemetry CI shard) except where a test sets it.
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    drain_pending()
    yield
    drain_pending()


def _ran_dumbbell(n=2, seed=1):
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=n, seed=seed
    )
    receiver = topo.host(n)
    for i in range(n):
        open_flow(topo.host(i), receiver, "tfc")
    topo.network.run_for(seconds(0.05))
    return topo


def test_mode_selects_recorders():
    topo = _ran_dumbbell()
    counters = Telemetry(topo.network, "counters")
    assert counters.slots is None and counters.flight is None
    slots = Telemetry(topo.network, "slots")
    assert slots.slots is not None and slots.flight is None
    full = Telemetry(topo.network, "full")
    assert full.slots is not None and full.flight is not None
    for session in (counters, slots, full):
        session.detach()
    with pytest.raises(ValueError, match="telemetry mode"):
        Telemetry(topo.network, "off")
    with pytest.raises(ValueError, match="telemetry mode"):
        Telemetry(topo.network, "verbose")


def test_snapshot_mirrors_tracer_and_ports():
    topo = _ran_dumbbell()
    net = topo.network
    session = Telemetry(net, "counters")
    registry = session.snapshot()
    assert registry.get("sim.now_ns").value == net.sim.now
    assert (
        registry.get("sim.events_processed").value == net.sim.events_processed
    )
    for topic, count in net.tracer.counters.items():
        assert registry.get(topic).value == count
    assert registry.get("net.total_drops").value == net.total_drops()
    # every port appears with its gauge set
    port = net.switches[0].ports[0]
    prefix = f"port.{port.node.name}.{port.index}"
    assert registry.get(f"{prefix}.tx_bytes").value == port.tx_bytes
    received = registry.get("transport.bytes_received").value
    assert received > 0
    session.detach()


def test_export_writes_labelled_files(tmp_path):
    topo = _ran_dumbbell()
    session = install(topo.network, "full")
    topo.network.run_for(seconds(0.01))
    paths = session.export(str(tmp_path), "unit")
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == [
        "unit.flight.jsonl",
        "unit.metrics.jsonl",
        "unit.slots.csv",
    ]
    metric_rows = [
        json.loads(line)
        for line in (tmp_path / "unit.metrics.jsonl").read_text().splitlines()
    ]
    assert [r["name"] for r in metric_rows] == sorted(
        r["name"] for r in metric_rows
    )
    with open(tmp_path / "unit.slots.csv") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "agent" and "tokens" in header


def test_counters_mode_exports_metrics_only(tmp_path):
    topo = _ran_dumbbell()
    session = Telemetry(topo.network, "counters")
    paths = session.export(str(tmp_path), "c")
    assert [p.split("/")[-1] for p in paths] == ["c.metrics.jsonl"]


def test_install_sets_network_handle_and_pending_queue():
    topo = _ran_dumbbell()
    session = install(topo.network, "counters")
    assert topo.network.telemetry is session
    assert drain_pending() == [session]
    assert drain_pending() == []


def test_environment_telemetry_reaches_every_network(monkeypatch):
    """``$REPRO_TELEMETRY`` is resolved by ``Network`` itself, so a
    network built straight from a topology builder carries the session."""
    monkeypatch.setenv("REPRO_TELEMETRY", "slots")
    network = dumbbell(n_senders=2, seed=1).network
    assert network.telemetry is not None and network.telemetry.mode == "slots"
    assert drain_pending() == [network.telemetry]


def test_config_off_beats_environment_telemetry(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "full")
    network = Network(config=SimConfig(telemetry="off"))
    assert network.telemetry is None
    assert drain_pending() == []


def test_invalid_env_mode_raises(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "everything")
    with pytest.raises(ValueError, match="REPRO_TELEMETRY"):
        build_topology(
            dumbbell, "tfc", buffer_bytes=256_000, n_senders=2, seed=1
        )


def test_pending_queue_is_bounded():
    for seed in range(10):
        topo = build_topology(
            dumbbell, "tfc", buffer_bytes=256_000, n_senders=2, seed=seed
        )
        install(topo.network, "counters")
    assert len(drain_pending()) == 8


def test_exports_are_deterministic(tmp_path):
    def run(directory):
        drain_pending()
        topo = _ran_dumbbell()
        session = install(topo.network, "full")
        topo.network.run_for(seconds(0.01))
        return [open(p, "rb").read() for p in session.export(directory, "d")]

    first = run(str(tmp_path / "a"))
    second = run(str(tmp_path / "b"))
    assert first == second
