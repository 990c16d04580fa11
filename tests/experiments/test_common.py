"""Tests for the experiment plumbing shared across figure drivers."""

import pytest

from repro.core.params import TfcParams
from repro.core.switch_agent import TfcPortAgent
from repro.experiments.common import (
    ALL_PROTOCOLS,
    BASELINE_PROTOCOLS,
    PROTOCOL_LABELS,
    build_topology,
    format_rate,
    format_table,
)
from repro.net.queues import DropTailQueue, EcnQueue
from repro.net.topology import dumbbell


def test_protocol_labels_cover_all():
    assert set(ALL_PROTOCOLS) == {"tfc", "dctcp", "tcp"}
    assert set(BASELINE_PROTOCOLS) == set(ALL_PROTOCOLS) | {
        "pfc", "bfc", "tbtcp", "tracks", "fairq",
    }
    # PROTOCOL_LABELS is a live view of the registry, so it covers the
    # full baseline grid (and any protocol registered at runtime).
    assert set(BASELINE_PROTOCOLS) <= set(PROTOCOL_LABELS)
    assert PROTOCOL_LABELS["bfc"] == "TCP+BFC"


def test_build_topology_tcp_plain_queues():
    topo = build_topology(dumbbell, "tcp", buffer_bytes=128_000, n_senders=2)
    port = topo.bottleneck("main")
    assert type(port.queue) is DropTailQueue
    assert port.queue.capacity_bytes == 128_000
    assert port.agent is None


def test_build_topology_dctcp_ecn_queues():
    topo = build_topology(
        dumbbell, "dctcp", buffer_bytes=128_000, ecn_threshold_bytes=9000,
        n_senders=2,
    )
    queue = topo.bottleneck("main").queue
    assert isinstance(queue, EcnQueue)
    assert queue.mark_threshold_bytes == 9000


def test_build_topology_tfc_agents_installed():
    params = TfcParams(rho0=0.93)
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=128_000, tfc_params=params, n_senders=2
    )
    agent = topo.bottleneck("main").agent
    assert isinstance(agent, TfcPortAgent)
    assert agent.params.rho0 == 0.93


def test_format_table_rows():
    table = format_table(["proto", "x"], [["tfc", "1"], ["tcp", "22"]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "tfc" in lines[2]


def test_format_rate():
    assert format_rate(1.5e9) == "1.50 Gbps"
    assert format_rate(250e6) == "250 Mbps"


def test_network_helpers():
    topo = build_topology(dumbbell, "tcp", buffer_bytes=64_000, n_senders=2)
    net = topo.network
    assert net.host_by_name("S0") is topo.hosts[0]
    with pytest.raises(KeyError):
        net.host_by_name("nope")
    assert net.total_drops() == 0
