"""Tests for the experiment plumbing shared across figure drivers."""

import inspect

import pytest

from repro.core.params import TfcParams
from repro.core.switch_agent import TfcPortAgent
from repro.experiments.common import (
    ALL_PROTOCOLS,
    BASELINE_PROTOCOLS,
    build_topology,
    format_table,
)
from repro.net.pfc import PfcParams
from repro.net.queues import DropTailQueue, EcnQueue
from repro.net.topology import dumbbell
from repro.transport.registry import EcnParams, registered_protocols


def test_protocol_labels_cover_all():
    assert set(ALL_PROTOCOLS) == {"tfc", "dctcp", "tcp"}
    assert set(BASELINE_PROTOCOLS) == set(ALL_PROTOCOLS) | {
        "pfc", "bfc", "tbtcp", "tracks", "fairq",
    }
    # Every protocol of the baseline grid is registered.
    assert set(BASELINE_PROTOCOLS) <= set(registered_protocols())


def test_build_topology_tcp_plain_queues():
    topo = build_topology(dumbbell, "tcp", buffer_bytes=128_000, n_senders=2)
    port = topo.bottleneck("main")
    assert type(port.queue) is DropTailQueue
    assert port.queue.capacity_bytes == 128_000
    assert port.agent is None


def test_build_topology_dctcp_ecn_queues():
    topo = build_topology(
        dumbbell, "dctcp", buffer_bytes=128_000,
        protocol_params=EcnParams(ecn_threshold_bytes=9000), n_senders=2,
    )
    queue = topo.bottleneck("main").queue
    assert isinstance(queue, EcnQueue)
    assert queue.mark_threshold_bytes == 9000


def test_build_topology_tfc_agents_installed():
    params = TfcParams(rho0=0.93)
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=128_000, protocol_params=params, n_senders=2
    )
    agent = topo.bottleneck("main").agent
    assert isinstance(agent, TfcPortAgent)
    assert agent.params.rho0 == 0.93


def test_build_topology_pfc_params_fill_the_pfc_slot():
    """On the ``pfc`` transport, ``pfc_params`` is the transport's own
    slot: the fabric installs once, so these thresholds must be the ones
    its installer arms (not the buffer-scaled defaults)."""
    params = PfcParams(xoff_bytes=20_000, xon_bytes=10_000)
    topo = build_topology(
        dumbbell, "pfc", buffer_bytes=128_000, pfc_params=params, n_senders=2
    )
    assert topo.network.lossless.params is params
    # On any other transport it layers the same fabric next to the agents.
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=128_000, pfc_params=params, n_senders=2
    )
    assert topo.network.lossless.params is params
    assert isinstance(topo.bottleneck("main").agent, TfcPortAgent)


def test_build_topology_has_one_typed_params_slot():
    """``protocol_params`` is the one way in; the per-protocol keywords
    that predate the registry are gone."""
    parameters = inspect.signature(build_topology).parameters
    assert "protocol_params" in parameters
    for retired in ("tfc_params", "ecn_threshold_bytes"):
        assert retired not in parameters


def test_format_table_rows():
    table = format_table(["proto", "x"], [["tfc", "1"], ["tcp", "22"]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "tfc" in lines[2]


def test_format_table_alignment():
    lines = format_table(["a", "long"], [[1, 2], [333, 4]]).splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)
    assert lines[3].split() == ["333", "4"]


def test_format_table_empty_rows():
    out = format_table(["x", "y"], [])
    assert out.splitlines()[0].split() == ["x", "y"]


def test_network_helpers():
    topo = build_topology(dumbbell, "tcp", buffer_bytes=64_000, n_senders=2)
    net = topo.network
    assert net.host_by_name("S0") is topo.hosts[0]
    with pytest.raises(KeyError):
        net.host_by_name("nope")
    assert net.total_drops() == 0
