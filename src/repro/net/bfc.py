"""BFC-style per-flow backpressure: per-hop pause at flow-queue granularity.

Backpressure Flow Control (Goyal et al., NSDI 2022) keeps PFC's hop-by-hop
pause signalling but moves the pause granularity from the *port* to the
*flow queue*: each egress port holds one FIFO per flow, and when a single
flow's queue crosses its occupancy threshold, only that flow is paused at
the upstream hop.  Other flows sharing the link keep flowing — which is
exactly the head-of-line-blocking victim collapse that per-port PFC
cannot avoid (see :mod:`repro.net.pfc` and the pathology detectors).

The model reuses the PFC machinery's vocabulary and plumbing:

* :class:`BfcQueue` — the per-flow-queue discipline installed on every
  port of a BFC fabric (switch egresses via the protocol's
  ``queue_factory`` hook, host NICs by :func:`enable_bfc`).  Flows are
  drained in deterministic round-robin among unpaused flows; per-flow
  occupancy crossings raise ``on_congested``/``on_drained`` callbacks.
* :class:`BfcFrame` — the pause/resume control frame.  Like PFC pause
  frames it bypasses data queues (``link.carry``), but it carries its
  own ``bfc_op``/``bfc_key`` fields so it composes with a PFC fabric
  (a ``REPRO_LOSSLESS=pfc`` run must not mistake it for an 802.1Qbb
  frame), and rides priority 7 — outside PFC's lossless class 0 — so it
  never charges PFC ingress accounting.
* :class:`BfcPortAgent` — per switch port.  On the reverse path it
  consumes pause frames addressed to this port's transmitter (the agent
  receiving from a cable *is* the upstream tx port of that cable) and
  records which local port each arriving flow entered through, so pause
  frames for that flow know where upstream is.
* :class:`BfcFabric` / :func:`enable_bfc` — the install handle: wires
  queue callbacks to frame emission, replaces host NIC queues with
  per-flow queues, attaches NIC agents (consulted by ``Host.
  receive``), and keeps the pause/resume counters the experiments
  assert on.

The endpoints are plain NewReno (:mod:`repro.transport.bfc`): like the
PFC baseline, the transport only reacts to loss — the fabric's job is to
make loss rare per flow without collateral pausing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from ..sim.trace import BFC_PAUSE, BFC_RESUME
from .packet import MTU, FlowKey, Packet
from .port import install_agent
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .node import Switch
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
        if self.xoff_bytes < MTU:
            raise ValueError(
                f"per-flow xoff must cover at least one MTU ({MTU} B), "
                f"got {self.xoff_bytes}"
            )
        if not 0 < self.xon_bytes <= self.xoff_bytes:
            raise ValueError(
                f"xon must be in (0, xoff], got xon={self.xon_bytes} "
                f"xoff={self.xoff_bytes}"
            )


DEFAULT_BFC_PARAMS = BfcParams()


class BfcFrame(Packet):
    """A per-flow pause/resume control frame (64-byte MAC control).

    ``bfc_op`` is ``"xoff"`` or ``"xon"``; ``bfc_key`` names the flow
    being paused.  Deliberately distinct from the PFC fields: the PFC
    fabric role must pass these through untouched, and ``priority = 7``
    keeps them outside PFC's lossless class 0 so they are never charged
    to (or leaked from) PFC ingress accounting.
    """

    __slots__ = ("bfc_op", "bfc_key")

    priority = 7

    def __init__(self, src: int, dst: int, op: str, flow_key: FlowKey):
        super().__init__(src=src, dst=dst, sport=0, dport=0)
        self.bfc_op = op
        self.bfc_key = flow_key


class BfcQueue(DropTailQueue):
    """Per-flow FIFOs with deterministic round-robin and pause state.

    Subclassing :class:`DropTailQueue` keeps the byte accounting, drop
    counters and loss-model hook every port expects.

    Determinism is structural: the round-robin ring is a deque ordered
    by first arrival, rotation happens only in ``dequeue``, and pause
    state changes only on control-frame arrival — no iteration over
    dict/set order anywhere.
    """

    __slots__ = (
        "params",
        "_flows",
        "_flow_bytes",
        "_ring",
        "_pkts",
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
        self._pkts = 0
        self.paused_flows: set = set()
        #: Flows above XOFF that have signalled congestion upstream.
        self._congested: set = set()
        self.on_congested: Optional[Callable[[FlowKey], None]] = None
        self.on_drained: Optional[Callable[[FlowKey], None]] = None
        #: Dequeue attempts that found only paused flows (port went idle
        #: with bytes buffered — the backpressure actually biting).
        self.pause_skips = 0

    # ------------------------------------------------------------------
    @property
    def packet_length(self) -> int:
        return self._pkts

    def __len__(self) -> int:
        return self._pkts

    def flow_bytes(self, key: FlowKey) -> int:
        """Current occupancy of one flow's queue (0 when absent)."""
        return self._flow_bytes.get(key, 0)

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        size = packet.size
        if self.loss_model is not None and self.loss_model.should_drop(packet):
            self.faulted_drops += 1
            self.drops += 1
            self.dropped_bytes += size
            return False
        new_bytes = self._bytes + size
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
        self._bytes = new_bytes
        self._pkts += 1
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
            self._bytes -= size
            self._pkts -= 1
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

    # ------------------------------------------------------------------
    # Pause state (driven by control-frame arrival at the port agent)
    # ------------------------------------------------------------------
    def pause_flow(self, key: FlowKey) -> None:
        self.paused_flows.add(key)

    def resume_flow(self, key: FlowKey) -> None:
        self.paused_flows.discard(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BfcQueue {self._bytes}/{self.capacity_bytes}B"
            f" flows={len(self._flows)} paused={len(self.paused_flows)}"
            f" drops={self.drops}>"
        )


class BfcPortAgent:
    """Per-switch-port BFC logic.

    Reverse-path duties (packets arriving *from* this port's cable):
    consume pause frames — the agent's port is the upstream transmitter
    the frame addresses, exactly the identity PFC exploits — and record
    the flow -> ingress-port map the fabric needs to aim pause frames of
    its own.  ``on_transit`` is a no-op: BFC never rewrites data packets.
    """

    def __init__(self, switch: "Switch", port: "Port", fabric: "BfcFabric"):
        self.switch = switch
        self.port = port
        self.fabric = fabric

    def on_transit(self, packet: Packet) -> None:
        pass

    def on_reverse_arrival(self, packet: Packet) -> bool:
        op = packet.bfc_op
        if op is not None:
            self.fabric.apply(self.port, op, packet.bfc_key)
            return True  # control frame consumed, never forwarded
        # Remember where this flow enters the switch: a pause for it must
        # travel back out this port.  Every direction records its own key
        # (pure ACK streams queue at egresses too and may need pausing).
        self.fabric.note_ingress(self.switch, packet.flow_key, self.port)
        return False

    def reset(self) -> None:
        """Fault hook (switch reboot): forget learned ingress + pauses."""
        self.fabric.reset_switch(self.switch)


class BfcHostAgent:
    """NIC-side pause handling: per-flow pause lands in the host's
    :class:`BfcQueue` instead of stopping the whole NIC the way a PFC
    pause frame does."""

    def __init__(self, port: "Port", fabric: "BfcFabric"):
        self.port = port
        self.fabric = fabric

    def on_reverse_arrival(self, packet: Packet) -> bool:
        op = packet.bfc_op
        if op is not None:
            self.fabric.apply(self.port, op, packet.bfc_key)
            return True
        return False

    def reset(self) -> None:
        self.port.queue.paused_flows.clear()
        self.port.kick()


class BfcFabric:
    """One network's BFC install: ingress maps, frame emission, counters."""

    def __init__(self, network: "Network", params: BfcParams):
        self.network = network
        self.tracer = network.tracer
        self.params = params
        #: switch node_id -> {flow_key -> local ingress port} (last wins;
        #: multipath reroutes simply update the entry on the next packet).
        self._ingress: Dict[int, Dict[FlowKey, "Port"]] = {}
        self.pause_frames = 0
        self.resume_frames = 0
        #: Congestion crossings whose upstream was not yet known (the
        #: flow's very first packets are still in the pipeline); the
        #: backstop is plain drop-tail admission.
        self.unknown_upstream = 0
        self._install()

    # ------------------------------------------------------------------
    def _install(self) -> None:
        network = self.network
        for switch in network.switches:
            self._ingress[switch.node_id] = {}
            for port in switch.ports:
                install_agent(port, BfcPortAgent(switch, port, self))
                queue = port.queue
                if isinstance(queue, BfcQueue):
                    self._wire(switch, queue)
        # Host NICs get per-flow queues too: the final pause hop lands in
        # the sender's own NIC queue, flow by flow, leaving other flows
        # from the same host untouched.  Installed before traffic, so
        # swapping the (empty) queue is safe.
        for host in network.hosts:
            host.nic_agents_installed = True
            for port in host.ports:
                if isinstance(port.queue, BfcQueue):
                    continue  # idempotent re-install
                port.queue = BfcQueue(network.host_buffer_bytes, self.params)
                install_agent(port, BfcHostAgent(port, self))

    def _wire(self, switch: "Switch", queue: BfcQueue) -> None:
        def congested(key: FlowKey, _switch: "Switch" = switch) -> None:
            self._signal(_switch, key, pause=True)

        def drained(key: FlowKey, _switch: "Switch" = switch) -> None:
            self._signal(_switch, key, pause=False)

        queue.on_congested = congested
        queue.on_drained = drained

    # ------------------------------------------------------------------
    # Frame emission (queue threshold crossings)
    # ------------------------------------------------------------------
    def _signal(self, switch: "Switch", key: FlowKey, pause: bool) -> None:
        via_port = self._ingress[switch.node_id].get(key)
        if via_port is None:
            self.unknown_upstream += 1
            return
        frame = BfcFrame(
            src=switch.node_id,
            dst=via_port.peer_node.node_id,
            op="xoff" if pause else "xon",
            flow_key=key,
        )
        if pause:
            self.pause_frames += 1
            topic = BFC_PAUSE
        else:
            self.resume_frames += 1
            topic = BFC_RESUME
        # Control frames preempt data: carried straight on the link, one
        # propagation delay, same simplification as PFC pause frames.
        via_port.link.carry(frame)
        tracer = self.tracer
        if tracer.active(topic):
            tracer.emit(
                topic,
                node=switch.name,
                upstream=via_port.peer_node.name,
                flow_key=key,
            )
        else:
            tracer.bump(topic)

    # ------------------------------------------------------------------
    # Frame application (agent on the upstream transmitter)
    # ------------------------------------------------------------------
    def apply(self, port: "Port", op: str, key: FlowKey) -> None:
        queue = port.queue
        if not isinstance(queue, BfcQueue):
            return  # fabric partially installed (tests); nothing to pause
        if op == "xoff":
            queue.pause_flow(key)
        else:
            queue.resume_flow(key)
            port.kick()

    # ------------------------------------------------------------------
    def reset_switch(self, switch: "Switch") -> None:
        """Switch reboot: learned ingress map and pause state are gone.

        Every XOFF the switch sent is first released with an XON while
        the ingress map still knows where upstream is; it stands in for
        the pause expiry that frees real upstream hops after a reboot.
        """
        for port in switch.ports:
            queue = port.queue
            if isinstance(queue, BfcQueue):
                for key in sorted(queue._congested):
                    self._signal(switch, key, pause=False)
                queue.paused_flows.clear()
                queue._congested.clear()
                port.kick()
        self._ingress[switch.node_id].clear()

    def note_ingress(
        self, switch: "Switch", key: FlowKey, port: "Port"
    ) -> None:
        self._ingress[switch.node_id][key] = port

    # ------------------------------------------------------------------
    # Aggregates (assertion surface for the head-to-head experiments)
    # ------------------------------------------------------------------
    def paused_flow_count(self) -> int:
        """Flows currently paused anywhere in the fabric (hosts included)."""
        total = 0
        for node in self.network.nodes:
            for port in node.ports:
                queue = port.queue
                if isinstance(queue, BfcQueue):
                    total += len(queue.paused_flows)
        return total

    def register(self, registry) -> None:
        """Mirror fabric counters into a :class:`repro.obs` registry."""
        registry.counter(
            "bfc.pause_frames", help="per-flow XOFF frames sent"
        ).set_total(self.pause_frames)
        registry.counter(
            "bfc.resume_frames", help="per-flow XON frames sent"
        ).set_total(self.resume_frames)
        registry.gauge("bfc.paused_flows").set(self.paused_flow_count())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BfcFabric pauses={self.pause_frames}"
            f" resumes={self.resume_frames}"
            f" paused_flows={self.paused_flow_count()}>"
        )


def make_bfc_queue(
    params: BfcParams, buffer_bytes: int, rate_bps: int
) -> BfcQueue:
    """One switch-port per-flow queue for a BFC fabric."""
    return BfcQueue(buffer_bytes, params)


def enable_bfc(
    network: "Network", params: BfcParams = DEFAULT_BFC_PARAMS
) -> BfcFabric:
    """Install per-flow backpressure on every switch of ``network``.

    Must run after the topology is wired (ports exist).  Switch egress
    queues built by :func:`make_bfc_queue` (the protocol's queue factory)
    get their threshold callbacks wired; host NIC queues are replaced
    with per-flow queues so the last pause hop is flow-granular too.
    Installing twice returns the existing fabric.
    """
    existing = getattr(network, "bfc", None)
    if existing is not None:
        return existing
    fabric = BfcFabric(network, params)
    network.bfc = fabric
    return fabric
