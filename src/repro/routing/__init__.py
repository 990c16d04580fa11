"""Pluggable routing / load-balancing policies for multi-path fabrics.

A small registry of named policies, selected through three surfaces,
all resolved once into ``network.config.routing`` by ``Network``:

* ``Network(routing=...)`` — a name or a policy instance (or
  ``Network(config=SimConfig(routing=...))``);
* ``REPRO_ROUTING`` — the env default (what the experiment runner and
  the CI shard export process-wide; pin it with
  ``repro.config.env(routing=)``);
* ``runner --routing`` — pins the policy for every experiment cell.

Policies, all bit-deterministic under a fixed network seed:

* ``single``  — fixed BFS next hop (the default; bit-identical to the
  pre-multipath datapath, enforced by the golden-determinism suite);
* ``ecmp``    — per-flow seeded 5-tuple hash;
* ``flowlet`` — idle-gap flowlet switching (``FlowletPolicy(gap_ns=...)``
  for a non-default gap);
* ``spray``   — per-packet round-robin (reordering stress case).
"""

from __future__ import annotations

from typing import Union

from .base import RoutingPolicy, flow_hash
from .policies import EcmpPolicy, FlowletPolicy, SinglePathPolicy, SprayPolicy

#: Name -> policy class.
ROUTING_POLICIES = {
    "single": SinglePathPolicy,
    "ecmp": EcmpPolicy,
    "flowlet": FlowletPolicy,
    "spray": SprayPolicy,
}

#: Every accepted value for Network(routing=...) / REPRO_ROUTING.
ROUTING_NAMES = tuple(sorted(ROUTING_POLICIES))


def make_routing(name: str) -> RoutingPolicy:
    """Instantiate a policy by registry name."""
    try:
        policy_cls = ROUTING_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; "
            f"choose from {', '.join(ROUTING_NAMES)}"
        ) from None
    return policy_cls()


def resolve_routing(routing: Union[str, RoutingPolicy]) -> RoutingPolicy:
    """Turn a Network's routing selection into a policy instance.

    A name (``Network`` passes its resolved ``config.routing``) builds
    that policy.  Policy instances pass through untouched, so one
    pre-configured policy (e.g. a custom flowlet gap) can be handed to a
    network directly.
    """
    if isinstance(routing, RoutingPolicy):
        return routing
    return make_routing(routing)


__all__ = [
    "RoutingPolicy",
    "SinglePathPolicy",
    "EcmpPolicy",
    "FlowletPolicy",
    "SprayPolicy",
    "ROUTING_POLICIES",
    "ROUTING_NAMES",
    "flow_hash",
    "make_routing",
    "resolve_routing",
]
