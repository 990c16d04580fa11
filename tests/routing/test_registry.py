"""Routing registry and selection surfaces: make/resolve/env."""

import pytest

from repro.config import ROUTING_ENV_VAR
from repro.net.network import Network
from repro.net.topology import dumbbell
from repro.routing import (
    ROUTING_NAMES,
    ROUTING_POLICIES,
    FlowletPolicy,
    RoutingPolicy,
    make_routing,
    resolve_routing,
)


def test_registry_names_are_sorted_and_complete():
    assert ROUTING_NAMES == tuple(sorted(ROUTING_POLICIES))
    assert set(ROUTING_NAMES) == {"single", "ecmp", "flowlet", "spray"}


@pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
def test_make_routing_round_trips_every_name(name):
    policy = make_routing(name)
    assert isinstance(policy, RoutingPolicy)
    assert policy.name == name


def test_make_routing_rejects_unknown():
    with pytest.raises(ValueError, match="unknown routing"):
        make_routing("bogus")


def test_resolve_routing_defaults_to_single(monkeypatch):
    monkeypatch.delenv(ROUTING_ENV_VAR, raising=False)
    network = Network()
    assert network.config.routing == "single"
    assert resolve_routing(network.config.routing).name == "single"
    assert network.routing.name == "single"


def test_resolve_routing_passes_instances_through():
    policy = FlowletPolicy(gap_ns=1234)
    assert resolve_routing(policy) is policy
    assert policy.gap_ns == 1234


def test_network_accepts_name_and_instance(monkeypatch):
    monkeypatch.delenv(ROUTING_ENV_VAR, raising=False)
    by_name = dumbbell(n_senders=2, routing="ecmp")
    assert by_name.network.routing.name == "ecmp"
    # ecmp attaches to the switch; single leaves the datapath alone.
    assert all(s.routing is by_name.network.routing for s in by_name.switches)
    plain = dumbbell(n_senders=2)
    assert plain.network.routing.name == "single"
    assert all(s.routing is None for s in plain.switches)
    custom = FlowletPolicy(gap_ns=777)
    topo = dumbbell(n_senders=2, routing=custom)
    assert topo.network.routing is custom
