"""Network substrate: packets, queues, links, switches, hosts, topologies."""

from .host import Host
from .network import Network
from .node import Endpoint, Node, Switch
from .packet import (
    ETHERNET_OVERHEAD,
    HEADER_BYTES,
    MIN_FRAME_BYTES,
    MSS,
    MTU,
    WINDOW_SENTINEL,
    FlowKey,
    Packet,
)
from .pfc import (
    LosslessFabric,
    PauseFrame,
    PfcIngress,
    PfcParams,
    enable_pfc,
)
from .port import Link, Port
from .queues import (
    BernoulliLoss,
    DropTailQueue,
    EcnQueue,
    FaultyQueue,
    FilteredLoss,
    GilbertElliottLoss,
    LossModel,
    RandomDropQueue,
    is_pure_ack,
)
from .topology import Topology, dumbbell, leaf_spine, multi_bottleneck, testbed

__all__ = [
    "ETHERNET_OVERHEAD",
    "HEADER_BYTES",
    "MIN_FRAME_BYTES",
    "MSS",
    "MTU",
    "WINDOW_SENTINEL",
    "FlowKey",
    "Packet",
    "Host",
    "Network",
    "Endpoint",
    "Node",
    "Switch",
    "Link",
    "Port",
    "DropTailQueue",
    "EcnQueue",
    "FaultyQueue",
    "RandomDropQueue",
    "LossModel",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "FilteredLoss",
    "is_pure_ack",
    "PfcParams",
    "PauseFrame",
    "PfcIngress",
    "LosslessFabric",
    "enable_pfc",
    "Topology",
    "dumbbell",
    "leaf_spine",
    "multi_bottleneck",
    "testbed",
]
