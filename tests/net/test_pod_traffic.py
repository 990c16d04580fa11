"""Pinned pod-to-pod ring traffic on fat trees, for every transport.

Each pod sends to its neighbour pod, so every flow crosses the
aggregation and core layers (workload in ``tests/net/pod_traffic.py``).
Each pin is ``(events, final clock, fingerprint digest)``, captured
once.  Same contract as the golden suite: if a change here is
intentional, recapture the constants and say so in the commit.
"""

import pytest

from repro.sim.units import milliseconds
from repro.transport.registry import registered_protocols

from tests.net.pod_traffic import run_pod_traffic

#: protocol -> pins of ``fat_tree(4)``, seed 0, two flows per pod, after
#: 1 ms and after 4 ms.  Until the first loss or mark, the TCP-style
#: transports run the same packets, so their 1 ms pins coincide.
FAT_TREE4 = {
    "bfc": (
        (4724, 1_000_000, "f32c3031b4d85f96"),
        (29695, 4_000_000, "5f97721385484b57"),
    ),
    "dctcp": (
        (4485, 1_000_000, "f20f797ca8566ce2"),
        (27428, 4_000_000, "37b15886666c8617"),
    ),
    "fairq": (
        (4308, 1_000_000, "d02641c07fb45f3f"),
        (22155, 4_000_000, "72afa29487c6c230"),
    ),
    "pfc": (
        (4485, 1_000_000, "f20f797ca8566ce2"),
        (27646, 4_000_000, "b13ab2469d17d21a"),
    ),
    "tbtcp": (
        (3811, 1_000_000, "e47c6da9d26682bb"),
        (26107, 4_000_000, "28dbd8efd62d407f"),
    ),
    "tcp": (
        (4485, 1_000_000, "f20f797ca8566ce2"),
        (27663, 4_000_000, "356f15925704b797"),
    ),
    "tfc": (
        (4262, 1_000_000, "5bebd05119bf2467"),
        (24617, 4_000_000, "c729ba224772b0bf"),
    ),
    "tracks": (
        (4485, 1_000_000, "f20f797ca8566ce2"),
        (27663, 4_000_000, "356f15925704b797"),
    ),
}


@pytest.fixture(autouse=True)
def _default_fabric(monkeypatch):
    # The constants describe the default fabric: an exported
    # REPRO_LOSSLESS=pfc legitimately changes TCP's drop-driven runs.
    monkeypatch.delenv("REPRO_LOSSLESS", raising=False)


@pytest.mark.parametrize("protocol", registered_protocols())
def test_fat_tree4_pod_traffic_is_pinned(protocol):
    short, long = FAT_TREE4[protocol]
    assert run_pod_traffic(milliseconds(1), protocol=protocol) == short
    assert run_pod_traffic(milliseconds(4), protocol=protocol) == long


#: protocol -> pin of ``fat_tree(8)`` (128 hosts, 80 switches), seed 1,
#: two flows per pod, after 4 ms.
FAT_TREE8 = {
    "bfc": (59000, 4_000_000, "f4e3894148dcfa3b"),
    "dctcp": (51849, 4_000_000, "f907ef6f65b95f98"),
    "fairq": (43570, 4_000_000, "c480043cb73060c1"),
    "pfc": (54477, 4_000_000, "db9a45476fab2397"),
    "tbtcp": (54056, 4_000_000, "7a713a6a72748235"),
    "tcp": (54477, 4_000_000, "db9a45476fab2397"),
    "tfc": (45070, 4_000_000, "fc7eca28794ff8e8"),
    "tracks": (54477, 4_000_000, "db9a45476fab2397"),
}


@pytest.mark.parametrize("protocol", registered_protocols())
def test_fat_tree8_pod_traffic_is_pinned(protocol):
    pin = run_pod_traffic(milliseconds(4), k=8, seed=1, protocol=protocol)
    assert pin == FAT_TREE8[protocol]
