"""The redesigned protocol registry: hooks, typed params, plugin point.

Covers the API surface DESIGN.md §6k documents: protocol-owned queue
factories and installers, the typed params slot, the capability surface
(``supports_weight``/``monitor_invariants``) and runtime registration
via ``register_protocol``.
"""

import pytest

from repro.core.params import TfcParams
from repro.experiments.common import build_topology
from repro.net.bfc import BfcQueue
from repro.net.queues import DropTailQueue, EcnQueue
from repro.net.topology import dumbbell
from repro.sim.units import seconds
from repro.transport.newreno import NewRenoReceiver, NewRenoSender
from repro.transport.registry import (
    EcnParams,
    Protocol,
    get_protocol,
    open_flow,
    register_protocol,
    registered_protocols,
    unregister_protocol,
)
from repro.transport.tbtcp import TbtcpParams


# ----------------------------------------------------------------------
# Typed params slot
# ----------------------------------------------------------------------
def test_resolve_params_defaults_and_type_check():
    tfc = get_protocol("tfc")
    assert tfc.resolve_params(None) is tfc.default_params
    custom = TfcParams(rho0=0.9)
    assert tfc.resolve_params(custom) is custom
    with pytest.raises(TypeError, match="expects TfcParams"):
        tfc.resolve_params(EcnParams())


def test_parameterless_protocol_rejects_params():
    tracks = get_protocol("tracks")
    assert tracks.params_cls is None
    assert tracks.resolve_params(None) is None
    with pytest.raises(TypeError, match="takes no params"):
        tracks.resolve_params(TfcParams())


# ----------------------------------------------------------------------
# Protocol-owned queue factory
# ----------------------------------------------------------------------
def test_queue_factory_hooks():
    assert type(get_protocol("tcp").queue_factory(64_000, 10**9)) is DropTailQueue
    dctcp_q = get_protocol("dctcp").queue_factory(
        64_000, 10**9, EcnParams(ecn_threshold_bytes=9000)
    )
    assert isinstance(dctcp_q, EcnQueue)
    assert dctcp_q.mark_threshold_bytes == 9000
    assert isinstance(get_protocol("bfc").queue_factory(64_000, 10**9), BfcQueue)
    # TB-TCP caps the shared buffer regardless of what the port offers.
    tb_q = get_protocol("tbtcp").queue_factory(256_000, 10**9)
    assert tb_q.capacity_bytes == TbtcpParams().buffer_cap_bytes


def test_port_queue_factory_adapter():
    factory = get_protocol("dctcp").port_queue_factory(64_000)
    queue = factory(10**9)
    assert isinstance(queue, EcnQueue)
    assert queue.capacity_bytes == 64_000


# ----------------------------------------------------------------------
# Capability surface
# ----------------------------------------------------------------------
def test_capability_surface():
    tfc = get_protocol("tfc")
    assert tfc.supports_weight and tfc.monitor_invariants
    for name in ("tcp", "dctcp", "pfc", "bfc", "tbtcp", "tracks", "fairq"):
        spec = get_protocol(name)
        assert not spec.supports_weight
        assert not spec.monitor_invariants


def test_open_flow_weight_gated_by_capability():
    topo = build_topology(dumbbell, "tcp", buffer_bytes=64_000, n_senders=2)
    with pytest.raises(ValueError, match="'tcp' does not support flow weights"):
        open_flow(topo.hosts[0], topo.hosts[-1], "tcp", weight=2)


# ----------------------------------------------------------------------
# Runtime registration (the plugin point)
# ----------------------------------------------------------------------
def test_register_protocol_end_to_end():
    class MySender(NewRenoSender):
        protocol_name = "myproto"

    spec = Protocol("myproto", MySender, NewRenoReceiver)
    register_protocol(spec)
    try:
        assert "myproto" in registered_protocols()
        assert get_protocol("myproto") is spec
        # Immediately usable through the normal entry points.
        topo = build_topology(
            dumbbell, "myproto", buffer_bytes=64_000, n_senders=2
        )
        flow = open_flow(topo.hosts[0], topo.hosts[-1], "myproto")
        assert isinstance(flow, MySender)
        # The built-in endpoints are slotted; an unslotted plugin subclass
        # simply gets an instance dict and may add its own fields.
        sized = open_flow(topo.hosts[1], topo.hosts[-1], "myproto", size_bytes=20_000)
        assert hasattr(sized, "__dict__")
        sized.note = "plugin field"
        topo.network.run_for(seconds(0.002))
        assert flow.stats.bytes_acked > 0
        assert sized.stats.complete_ns is not None
        assert sized.stats.bytes_acked == 20_000
        # A fresh lookup error now names it.
        with pytest.raises(ValueError, match="myproto"):
            get_protocol("nope")
        # Duplicate registration needs replace=True.
        with pytest.raises(ValueError, match="already registered"):
            register_protocol(spec)
        register_protocol(spec, replace=True)
    finally:
        unregister_protocol("myproto")
    assert "myproto" not in registered_protocols()


def test_get_protocol_error_lists_live_registry():
    with pytest.raises(ValueError) as excinfo:
        get_protocol("quic")
    message = str(excinfo.value)
    for name in registered_protocols():
        assert name in message
