"""The documented public API stays importable and coherent."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_quickstart_from_package_docstring():
    """The exact snippet in repro.__doc__ must run."""
    from repro.experiments.common import build_topology
    from repro.net import dumbbell
    from repro.transport import open_flow
    from repro.sim.units import seconds

    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=4)
    flows = [open_flow(h, topo.hosts[-1], "tfc") for h in topo.hosts[:4]]
    topo.network.run_for(seconds(0.05))
    assert sum(f.stats.bytes_acked for f in flows) > 0


def test_top_level_namespaces():
    from repro import (
        config,
        core,
        experiments,
        faults,
        metrics,
        net,
        obs,
        sim,
        transport,
        workloads,
    )
    from repro.experiments.runner import FIGURE_CELLS

    assert core.TfcParams
    assert net.Packet and net.dumbbell
    assert net.FaultyQueue and net.GilbertElliottLoss
    assert sim.Simulator
    assert transport.open_flow and transport.PROTOCOLS is not None
    assert callable(transport.register_protocol)
    assert callable(transport.registered_protocols)
    assert workloads.IncastCoordinator
    assert metrics.FctCollector
    assert {f"fig{n}" for n in range(12, 17)} <= set(FIGURE_CELLS)
    assert experiments.run_chaos
    assert faults.FaultInjector and faults.InvariantMonitor
    assert config.SimConfig and config.env
    assert obs.MetricRegistry and obs.Telemetry


def test_config_namespace_is_the_selection_surface():
    """Every run-level selection knob is reachable from repro.config."""
    from repro.config import (
        KNOBS,
        LOSSLESS_MODES,
        ROUTING_NAMES,
        TELEMETRY_MODES,
        SimConfig,
        current,
        env,
    )

    assert set(ROUTING_NAMES) >= {"single", "ecmp", "flowlet", "spray"}
    assert TELEMETRY_MODES == ("off", "counters", "slots", "full")
    assert LOSSLESS_MODES == ("off", "pfc")
    assert set(KNOBS) == {"routing", "telemetry", "telemetry_dir", "lossless"}
    assert callable(env) and callable(current)
    assert SimConfig().seed == 0


@pytest.mark.parametrize(
    "module",
    (
        "repro.sim.shard",
        "repro.experiments.shard_scale",
        "repro.perf",
        "repro.analysis",
        "repro.experiments.multipath_benchmark",
    ),
)
def test_retired_modules_are_gone(module):
    """Every simulation runs on one serial ``Simulator``, ``bench/`` is
    the only benchmark harness, the runner prints every report, and the
    fat-tree benchmark is Fig. 13's cell at ``scale="fattree"``."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_the_shard_knob_helpers_are_gone():
    import repro.config

    for name in ("shard_count", "SHARDS_ENV_VAR"):
        assert not hasattr(repro.config, name)
        assert name not in repro.config.__all__


@pytest.mark.parametrize(
    "module, name",
    (
        ("repro.routing", "routing_env"),
        ("repro.routing", "ROUTING_ENV_VAR"),
        ("repro.transport", "configure_network"),
        ("repro.transport", "queue_factory_for"),
        ("repro.transport.registry", "configure_network"),
        ("repro.transport.registry", "queue_factory_for"),
        ("repro.transport.registry", "resolve_legacy_params"),
        ("repro.config", "routing_name"),
        ("repro.config", "telemetry_mode"),
        ("repro.config", "telemetry_dir"),
        ("repro.config", "lossless_mode"),
        ("repro.obs", "maybe_install"),
    ),
)
def test_retired_configuration_shims_are_gone(module, name):
    """A protocol is configured one way: its registry entry's typed hooks
    (``get_protocol(name).install(network, params)``) plus ``SimConfig`` /
    ``repro.config`` for the run-level knobs."""
    namespace = importlib.import_module(module)
    assert not hasattr(namespace, name)
    assert name not in getattr(namespace, "__all__", ())


def test_simconfig_has_no_transport_and_no_with_overrides():
    from repro.config import SimConfig

    assert not hasattr(SimConfig(), "transport")
    assert not hasattr(SimConfig, "with_overrides")
    with pytest.raises(TypeError, match="transport"):
        SimConfig(transport="tfc")
    with pytest.raises(ValueError, match="unknown SimConfig field"):
        SimConfig.from_dict({"transport": "tfc"})


def test_obs_namespace_surface():
    from repro.obs import (
        SLOT_FIELDS,
        TELEMETRY_MODES,
        Counter,
        FlightRecorder,
        Gauge,
        Histogram,
        MetricRegistry,
        SlotTimelineRecorder,
        Telemetry,
        Timeline,
        drain_pending,
        install,
        write_metrics_jsonl,
        write_slots_csv,
    )

    assert SLOT_FIELDS[0] == "time_ns" and "tokens" in SLOT_FIELDS
    assert TELEMETRY_MODES[0] == "off"
    registry = MetricRegistry()
    assert registry.counter("c") is registry.counter("c")
    assert Counter and Gauge and Histogram and Timeline
    assert Telemetry and SlotTimelineRecorder and FlightRecorder
    assert callable(install)
    assert callable(drain_pending)
    assert callable(write_metrics_jsonl) and callable(write_slots_csv)


def test_observability_quickstart_from_package_docstring(tmp_path):
    """The observability snippet in repro.__doc__ must run."""
    from repro.config import SimConfig
    from repro.net import Network
    from repro.obs import drain_pending
    from repro.sim.units import seconds
    from repro.transport import get_protocol, open_flow

    net = Network(config=SimConfig(seed=1, telemetry="full"))
    senders = [net.add_host(f"s{i}") for i in range(2)]
    receiver = net.add_host("r")
    switch = net.add_switch("sw")
    for host in senders + [receiver]:
        net.cable(host, switch, 10_000_000_000, 1_000)
    net.build_routes()
    get_protocol("tfc").install(net)
    for host in senders:
        open_flow(host, receiver, "tfc")
    net.run_for(seconds(0.02))
    paths = net.telemetry.export(str(tmp_path), "my_run")
    assert len(paths) == 3
    drain_pending()


def test_protocol_registry_contents():
    from repro.transport import get_protocol, registered_protocols

    for name in (
        "tcp", "dctcp", "tfc", "pfc", "bfc", "tbtcp", "tracks", "fairq",
    ):
        spec = get_protocol(name)
        assert spec.name == name
        assert name in registered_protocols()
    import pytest

    with pytest.raises(ValueError) as excinfo:
        get_protocol("quic")
    # The error names the live registry, not a frozen list.
    assert "bfc" in str(excinfo.value) and "tfc" in str(excinfo.value)
