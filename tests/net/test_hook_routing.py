"""A switch enters a port agent's hook only where the hook acts.

Each agent class fixes which packets :class:`repro.net.node.Switch` hands
it: TFC's reverse hook takes RMA ACKs only (all its delay arbiter can
park), FairQ has no reverse hook and BFC no transit hook.  Counting
hooks planted on the classes check the routing on small dumbbells.
"""

import pytest

from repro.core.switch_agent import TfcPortAgent
from repro.experiments.common import build_topology
from repro.net.bfc import BfcPortAgent
from repro.net.fairq import FairqPortAgent
from repro.net.node import Switch
from repro.net.topology import dumbbell
from repro.sim.units import MILLISECOND
from repro.transport.registry import open_flow


def _run_dumbbell(protocol):
    topo = build_topology(dumbbell, protocol, buffer_bytes=256_000, n_senders=3)
    receiver = topo.hosts[-1]
    for sender in topo.hosts[:3]:
        open_flow(sender, receiver, protocol, size_bytes=60_000)
    topo.network.run_for(5 * MILLISECOND)
    return topo.network


def _count_calls(monkeypatch, cls, name, counts):
    """Replace ``cls.name`` by a wrapper counting its entries in ``counts``."""
    original = getattr(cls, name, None)

    def counting(self, *args):
        counts[name] = counts.get(name, 0) + 1
        return None if original is None else original(self, *args)

    monkeypatch.setattr(cls, name, counting, raising=False)


def test_tfc_reverse_hook_is_entered_for_rma_acks_only(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, TfcPortAgent, "on_reverse_arrival", counts)
    receive = Switch.receive

    def counting_receive(self, packet, in_port_index):
        if packet.rma and packet.is_ack and self.ports[in_port_index].agent is not None:
            counts["rma_acks"] = counts.get("rma_acks", 0) + 1
        receive(self, packet, in_port_index)

    monkeypatch.setattr(Switch, "receive", counting_receive)
    network = _run_dumbbell("tfc")
    assert network.total_drops() == 0
    assert counts["rma_acks"] > 0
    assert counts["on_reverse_arrival"] == counts["rma_acks"]


@pytest.mark.parametrize(
    "protocol, cls, idle, busy",
    [
        ("bfc", BfcPortAgent, "on_transit", "on_reverse_arrival"),
        ("fairq", FairqPortAgent, "on_reverse_arrival", "on_transit"),
    ],
)
def test_no_op_hooks_are_never_entered(monkeypatch, protocol, cls, idle, busy):
    counts = {}
    _count_calls(monkeypatch, cls, idle, counts)
    _count_calls(monkeypatch, cls, busy, counts)
    _run_dumbbell(protocol)
    assert counts[busy] > 0
    assert idle not in counts
