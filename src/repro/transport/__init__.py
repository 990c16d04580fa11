"""Transport protocols: shared reliability framework plus the registry.

Protocol behaviour is owned by :class:`~repro.transport.registry.
Protocol` entries — each spec carries its sender/receiver classes, a
typed parameter dataclass, a queue factory and a network installer.
``register_protocol`` adds new transports at runtime; nothing outside
the registry branches on protocol names.
"""

from .base import FinishedFlow, FlowState, FlowStats, Receiver, RtoEstimator, Sender
from .bfc import BfcReceiver, BfcSender
from .dctcp import DctcpReceiver, DctcpSender
from .fairq import FairqReceiver, FairqSender
from .newreno import NewRenoReceiver, NewRenoSender
from .registry import (
    DEFAULT_DCTCP_K_BYTES,
    PROTOCOLS,
    EcnParams,
    Protocol,
    configure_network,
    get_protocol,
    open_flow,
    queue_factory_for,
    register_protocol,
    registered_protocols,
    unregister_protocol,
)
from .tbtcp import TbtcpParams, TbtcpReceiver, TbtcpSender
from .tracks import TracksParams, TracksReceiver, TracksSender

__all__ = [
    "FinishedFlow",
    "FlowState",
    "FlowStats",
    "Receiver",
    "RtoEstimator",
    "Sender",
    "BfcReceiver",
    "BfcSender",
    "DctcpReceiver",
    "DctcpSender",
    "FairqReceiver",
    "FairqSender",
    "NewRenoReceiver",
    "NewRenoSender",
    "TbtcpParams",
    "TbtcpReceiver",
    "TbtcpSender",
    "TracksParams",
    "TracksReceiver",
    "TracksSender",
    "DEFAULT_DCTCP_K_BYTES",
    "PROTOCOLS",
    "EcnParams",
    "Protocol",
    "configure_network",
    "get_protocol",
    "open_flow",
    "queue_factory_for",
    "register_protocol",
    "registered_protocols",
    "unregister_protocol",
]
