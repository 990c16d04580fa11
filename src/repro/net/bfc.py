"""BFC-style per-flow backpressure: per-hop pause at flow-queue granularity.

Backpressure Flow Control (Goyal et al., NSDI 2022) keeps PFC's hop-by-hop
pause but keys it by *flow*: every port holds one FIFO per flow
(:class:`BfcQueue`), and when one flow's queue crosses XOFF only that flow
is paused at the upstream hop, so other flows sharing the link keep
flowing — the head-of-line victim collapse per-port PFC cannot avoid.
Frames, delivery and counters are the shared
:class:`~repro.net.pfc.Backpressure` primitive; :class:`BfcPortAgent`
learns which port each flow enters a switch through, so a pause knows
where upstream is.  The endpoints are plain NewReno
(:mod:`repro.transport.bfc`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from ..sim.trace import BFC_PAUSE, BFC_RESUME
from .packet import MTU, FlowKey, Packet
from .pfc import Backpressure, check_watermarks
from .port import EVERY_PACKET, install_agent
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .port import Port


@dataclass(frozen=True)
class BfcParams:
    """Per-flow-queue pause thresholds.

    Thresholds are *per flow*, not per port: a couple of MTUs is enough
    to cover the pause frame's propagation plus one in-flight frame on
    short data-center cables, and keeping them tiny is what holds total
    buffer occupancy at (flows x few KB) instead of PFC's per-port
    hundreds of KB.
    """

    xoff_bytes: int = 3 * MTU
    """Pause the flow upstream once its local queue exceeds this."""

    xon_bytes: int = MTU
    """Resume once the flow's local queue drains back to this."""

    def __post_init__(self) -> None:
        check_watermarks(self, xoff_floor=MTU)


DEFAULT_BFC_PARAMS = BfcParams()


class BfcQueue(DropTailQueue):
    """Per-flow FIFOs with deterministic round-robin and pause state.

    The :class:`DropTailQueue` byte accounting, drop counters and
    loss-model hook stay.  Determinism is structural: the ring is a deque
    in first-arrival order, rotated only in ``dequeue``; per-flow
    occupancy crossings call ``on_congested``/``on_drained``.
    """

    #: A paused flow holds its frames even in an empty queue: an idle
    #: port always enqueues, then dequeues.
    cut_through = False

    __slots__ = (
        "params",
        "_flows",
        "_flow_bytes",
        "_ring",
        "paused_flows",
        "_congested",
        "on_congested",
        "on_drained",
        "pause_skips",
    )

    def __init__(
        self, capacity_bytes: int, params: BfcParams = DEFAULT_BFC_PARAMS
    ):
        super().__init__(capacity_bytes)
        self.params = params
        self._flows: Dict[FlowKey, Deque[Packet]] = {}
        self._flow_bytes: Dict[FlowKey, int] = {}
        #: Round-robin ring of flows with queued packets, service order.
        self._ring: Deque[FlowKey] = deque()
        self.paused_flows: set = set()
        #: Flows above XOFF that have signalled congestion upstream.
        self._congested: set = set()
        self.on_congested: Optional[Callable[[FlowKey], None]] = None
        self.on_drained: Optional[Callable[[FlowKey], None]] = None
        #: Dequeue attempts that found only paused flows (port went idle
        #: with bytes buffered — the backpressure actually biting).
        self.pause_skips = 0

    def __len__(self) -> int:
        return sum(map(len, self._flows.values()))

    def enqueue(self, packet: Packet) -> bool:
        size = packet.size
        if self.loss_model is not None and self.loss_model.should_drop(packet):
            self.faulted_drops += 1
            self.drops += 1
            self.dropped_bytes += size
            return False
        new_bytes = self.byte_length + size
        if new_bytes > self.capacity_bytes:
            self.drops += 1
            self.dropped_bytes += size
            return False
        key = packet.flow_key
        fifo = self._flows.get(key)
        if fifo is None:
            fifo = deque()
            self._flows[key] = fifo
            self._flow_bytes[key] = 0
            self._ring.append(key)
        fifo.append(packet)
        occupancy = self._flow_bytes[key] + size
        self._flow_bytes[key] = occupancy
        self.byte_length = new_bytes
        self.enqueues += 1
        if new_bytes > self.max_bytes_seen:
            self.max_bytes_seen = new_bytes
        if occupancy > self.params.xoff_bytes and key not in self._congested:
            self._congested.add(key)
            if self.on_congested is not None:
                self.on_congested(key)
        return True

    def dequeue(self) -> Optional[Packet]:
        ring = self._ring
        paused = self.paused_flows
        for _ in range(len(ring)):
            key = ring[0]
            if key in paused:
                ring.rotate(-1)
                continue
            fifo = self._flows[key]
            packet = fifo.popleft()
            size = packet.size
            self.byte_length -= size
            remaining = self._flow_bytes[key] - size
            if fifo:
                self._flow_bytes[key] = remaining
                ring.rotate(-1)  # served flow goes to the back of the ring
            else:
                del self._flows[key]
                del self._flow_bytes[key]
                ring.popleft()
            if key in self._congested and remaining <= self.params.xon_bytes:
                self._congested.discard(key)
                if self.on_drained is not None:
                    self.on_drained(key)
            return packet
        if ring:
            self.pause_skips += 1
        return None

    def pause_flow(self, key: FlowKey) -> None:
        self.paused_flows.add(key)

    def resume_flow(self, key: FlowKey) -> None:
        self.paused_flows.discard(key)


class BfcPortAgent:
    """Per-switch-port BFC role (``port.agent``).

    On the reverse path (packets arriving *from* this port's cable) it
    hands pause frames to the fabric that sent them and records the
    flow -> ingress-port map the fabric aims its own frames by.  It has
    no transit hook: BFC never rewrites data packets.
    """

    __slots__ = ("fabric", "port", "ingress")
    transit_hook = False
    reverse_hook = EVERY_PACKET

    def __init__(self, fabric: "BfcFabric", port: "Port"):
        self.fabric = fabric
        self.port = port
        self.ingress = fabric._ingress[port.node.node_id]

    def on_reverse_arrival(self, packet: Packet) -> bool:
        backpressure = packet.backpressure
        if backpressure is not None:
            backpressure.apply(self.port, packet)
            return True  # control frame consumed, never forwarded
        # Remember where this flow enters the switch: a pause for it must
        # travel back out this port.  Every direction records its own key
        # (pure ACK streams queue at egresses too and may need pausing).
        self.ingress[packet.flow_key] = self.port
        return False

    def reset(self) -> None:
        """Fault hook (port reboot)."""
        self.fabric.reset(self.port)


class BfcFabric(Backpressure):
    """One network's BFC install: ingress maps, per-flow pause, counters."""

    name = "bfc"
    attr = "bfc"
    pause_topic = BFC_PAUSE
    resume_topic = BFC_RESUME

    def __init__(self, network: "Network", params: BfcParams):
        super().__init__(network, params)
        #: switch node_id -> {flow_key -> local ingress port} (last wins;
        #: multipath reroutes simply update the entry on the next packet).
        self._ingress: Dict[int, Dict[FlowKey, "Port"]] = {}
        #: Congestion crossings whose upstream was not yet known (the
        #: flow's very first packets are still in the pipeline); the
        #: backstop is plain drop-tail admission.
        self.unknown_upstream = 0
        for switch in network.switches:
            ingress = self._ingress[switch.node_id] = {}
            for port in switch.ports:
                install_agent(port, BfcPortAgent(self, port))
                queue = port.queue
                if isinstance(queue, BfcQueue):
                    queue.on_congested = partial(self._upstream, ingress, True)
                    queue.on_drained = partial(self._upstream, ingress, False)
        # Installed before traffic, so swapping the (empty) queue is safe.
        for host in network.hosts:
            for port in host.ports:
                port.queue = BfcQueue(network.host_buffer_bytes, params)

    def _upstream(self, ingress: dict, pause: bool, key: FlowKey) -> None:
        """A queue threshold crossing: signal the flow's upstream hop."""
        via_port = ingress.get(key)
        if via_port is None:
            self.unknown_upstream += 1
            return
        self.signal(via_port, key, pause)

    def _stop(self, port: "Port", key: FlowKey) -> None:
        port.queue.pause_flow(key)

    def _start(self, port: "Port", key: FlowKey) -> None:
        port.queue.resume_flow(key)
        port.kick()

    def _drop_held(self, port: "Port") -> None:
        queue = port.queue
        if isinstance(queue, BfcQueue) and queue.paused_flows:
            queue.paused_flows.clear()
            port.kick()

    def _forget_sent(self, port: "Port") -> List[FlowKey]:
        ingress = self._ingress.get(port.node.node_id)
        if not ingress:
            return []  # hosts send no BFC frames
        keys = []
        for egress in port.node.ports:
            queue = egress.queue
            if isinstance(queue, BfcQueue):
                sent = [k for k in queue._congested if ingress.get(k) is port]
                queue._congested.difference_update(sent)
                keys.extend(sent)
        return sorted(keys)

    def _describe(self, via_port: "Port", key: FlowKey) -> dict:
        return dict(
            node=via_port.node.name,
            upstream=via_port.peer_node.name,
            flow_key=key,
        )

    def reset(self, port: "Port") -> None:
        """Port reboot; it also forgets which flows entered through it."""
        super().reset(port)
        ingress = self._ingress.get(port.node.node_id)
        if ingress:
            for key in [k for k, p in ingress.items() if p is port]:
                del ingress[key]

    def paused_flow_count(self) -> int:
        """Flows currently paused anywhere in the fabric (hosts included)."""
        return sum(
            len(port.queue.paused_flows)
            for node in self.network.nodes
            for port in node.ports
            if isinstance(port.queue, BfcQueue)
        )

    def register(self, registry) -> None:
        super().register(registry)
        registry.gauge("bfc.paused_flows").set(self.paused_flow_count())


def make_bfc_queue(params: BfcParams, buffer_bytes: int, rate_bps: int) -> BfcQueue:
    """One switch-port per-flow queue for a BFC fabric."""
    return BfcQueue(buffer_bytes, params)


def enable_bfc(
    network: "Network", params: BfcParams = DEFAULT_BFC_PARAMS
) -> BfcFabric:
    """Install per-flow backpressure on every switch of ``network``.

    Must run after the topology is wired.  Switch queues built by
    :func:`make_bfc_queue` get their threshold callbacks wired; host NICs
    get per-flow queues, so the last pause hop is flow-granular too.
    Installing twice returns the existing fabric.
    """
    return BfcFabric.install(network, params)
