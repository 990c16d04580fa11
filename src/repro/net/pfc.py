"""Hop-by-hop backpressure, and the PFC lossless fabric built on it.

:class:`Backpressure` is the one pause primitive under both lossless
fabrics (DESIGN.md §6g).  A receiver whose buffer crosses XOFF sends a
:class:`PauseFrame` back out the port the data came in on; the
transmitter at the far end stops until the XON.  A frame names the
fabric that sent it, and only that fabric consumes it, so fabrics stack
on one port without confusing each other's frames.

:class:`LosslessFabric` is PFC (IEEE 802.1Qbb): keyed by traffic class,
per-ingress byte accounting with headroom above XOFF for the bytes in
flight while the pause propagates.  Ports own a single FIFO, so a pause
on any lossless class stops the whole port — the head-of-line blocking
the pathology detectors (:mod:`repro.faults.pathology`) pin.
:class:`repro.net.bfc.BfcFabric` keys by flow and stops one flow's FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from ..sim.trace import PACKET_DROP, PFC_PAUSE, PFC_RESUME
from .packet import MTU, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .port import Port


def check_watermarks(params, xoff_floor: int = 1) -> None:
    """The XOFF/XON validation shared by :class:`PfcParams` and
    :class:`repro.net.bfc.BfcParams`."""
    if params.xoff_bytes < xoff_floor:
        raise ValueError(
            f"xoff must be at least {xoff_floor} B, got {params.xoff_bytes}"
        )
    if not 0 < params.xon_bytes <= params.xoff_bytes:
        raise ValueError(
            f"xon must be in (0, xoff], got xon={params.xon_bytes} "
            f"xoff={params.xoff_bytes}"
        )


@dataclass(frozen=True)
class PfcParams:
    """Thresholds and headroom for one lossless fabric.

    ``xoff_bytes``/``xon_bytes`` are per-ingress watermarks on the bytes
    a single ingress has buffered locally; ``headroom_bytes`` is the
    budget reserved above XOFF for in-flight absorption (the invariant
    the tests pin: ingress occupancy never exceeds
    ``xoff_bytes + headroom_bytes``).  ``lossless_classes`` lists the
    packet priorities under PFC protection; other priorities are
    best-effort and never charged.
    """

    xoff_bytes: int = 128_000
    xon_bytes: int = 96_000
    headroom_bytes: int = 128_000
    lossless_classes: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        check_watermarks(self)
        if self.headroom_bytes < MTU:
            raise ValueError(
                f"headroom must cover at least one MTU ({MTU} B), "
                f"got {self.headroom_bytes}"
            )
        if not self.lossless_classes:
            raise ValueError("need at least one lossless class")


def default_params_for(buffer_bytes: int) -> PfcParams:
    """Conservative thresholds scaled to a switch buffer size.

    XOFF at half the per-port buffer with the other half as headroom:
    loose enough that well-behaved transports (TFC keeps queues in the
    tens of kilobytes) never trip a pause, which is what lets the
    ``REPRO_LOSSLESS=pfc`` CI shard demand bit-identical golden results.
    Pathology scenarios pass tighter explicit thresholds instead.
    """
    xoff = max(buffer_bytes // 2, MTU)
    return PfcParams(
        xoff_bytes=xoff,
        xon_bytes=max((3 * buffer_bytes) // 8, MTU),
        headroom_bytes=max(buffer_bytes - xoff, MTU),
    )


class PauseFrame(Packet):
    """A pause (``op="xoff"``) or resume (``"xon"``) MAC control frame.

    ``key`` names what stops: a traffic class under PFC, a flow key under
    BFC.  ``backpressure`` is the fabric that sent the frame; a switch or
    host receiving it hands it to that fabric and to no other.
    """

    __slots__ = ("op", "key", "backpressure")

    def __init__(self, via_port: "Port", op: str, key: Hashable, backpressure):
        super().__init__(src=via_port.node.node_id, dst=via_port.peer_node.node_id)
        self.op = op
        self.key = key
        self.backpressure = backpressure


def peer_tx_port(port: "Port") -> Optional["Port"]:
    """The peer's port transmitting the opposite direction of ``port``'s
    cable (the transmitter a pause frame from this side must stop)."""
    for peer_port in port.peer_node.ports:
        link = peer_port.link
        if link.dst_node is port.node and link.dst_port_index == port.index:
            return peer_port
    return None


class Backpressure:
    """One network's hop-by-hop pause: frames, their effect, counters.

    A subclass sets ``name`` (the metric prefix), ``attr`` (the
    :class:`~repro.net.network.Network` attribute holding the install),
    the two trace topics, and the hooks that say what a pause does:

    * ``_stop(port, key)`` / ``_start(port, key)`` — apply an XOFF / XON
      at the transmitter ``port``;
    * ``_drop_held(port)`` — forget every pause ``port`` holds from its
      peer and let it transmit again;
    * ``_forget_sent(port)`` — forget, and return sorted, the keys this
      fabric paused upstream through ``port``;
    * ``_describe(via_port, key)`` — the trace payload of a frame, built
      only when the topic has a subscriber.
    """

    name = ""
    attr = ""
    pause_topic = ""
    resume_topic = ""

    def __init__(self, network: "Network", params):
        self.network = network
        self.tracer = network.tracer
        self.params = params

    @classmethod
    def install(cls, network: "Network", params) -> "Backpressure":
        """Install on ``network`` once; a second call returns the first
        install (the env-driven chokepoint and an explicit experiment
        install must not stack)."""
        existing = getattr(network, cls.attr)
        if existing is None:
            existing = cls(network, params)
            setattr(network, cls.attr, existing)
        return existing

    def signal(self, via_port: "Port", key: Hashable, pause: bool) -> None:
        """Send an XOFF/XON for ``key`` back out ``via_port``.

        Control frames preempt data: carried straight on the link (one
        propagation delay; the 64-byte serialisation time is noise at
        fabric rates and would only shift every event by a constant).
        """
        frame = PauseFrame(via_port, "xoff" if pause else "xon", key, self)
        via_port.link.carry(frame)
        topic = self.pause_topic if pause else self.resume_topic
        tracer = self.tracer
        if tracer.active(topic):
            tracer.emit(topic, **self._describe(via_port, key))
        else:
            tracer.bump(topic)

    def apply(self, port: "Port", frame: PauseFrame) -> None:
        """Apply one of this fabric's frames at the transmitter ``port``."""
        if frame.op == "xoff":
            self._stop(port, frame.key)
        else:
            self._start(port, frame.key)

    def reset(self, port: "Port") -> None:
        """Port reboot: release every pause sent upstream through
        ``port`` with an XON (standing in for the pause expiry that frees
        a real upstream hop), then drop the pauses ``port`` holds."""
        for key in self._forget_sent(port):
            self.signal(port, key, pause=False)
        self._drop_held(port)

    def carrier_lost(self, port: "Port") -> None:
        """A cut or restored cable behind ``port``: as an 802.3 MAC does
        on carrier loss, forget every pause across it in both directions
        — the XON that would end one may be lost on the cut."""
        self._forget_sent(port)
        self._drop_held(port)

    @property
    def pause_frames(self) -> int:
        """XOFF frames sent across the fabric."""
        return self.tracer.count(self.pause_topic)

    @property
    def resume_frames(self) -> int:
        """XON frames sent across the fabric."""
        return self.tracer.count(self.resume_topic)

    def register(self, registry) -> None:
        """Mirror the fabric's counters into a :class:`repro.obs` registry."""
        name = self.name
        registry.counter(
            f"{name}.pause_frames", help="XOFF frames sent"
        ).set_total(self.pause_frames)
        registry.counter(
            f"{name}.resume_frames", help="XON frames sent"
        ).set_total(self.resume_frames)


class PfcIngress:
    """One switch port's PFC role (``port.fabric``).

    Per-(node, ingress) byte accounting with XOFF/XON watermarks:
    ``charge`` runs on packet arrival from the ingress link, ``release``
    when the packet is dequeued for transmission at a local egress port
    (or dropped), mirroring a shared-buffer switch with per-ingress
    counters.  Crossing XOFF from below pauses the upstream transmitter
    through ``via_port`` (the port this ingress belongs to); draining to
    XON resumes it.  ``paused_classes`` holds the classes paused that way.
    """

    __slots__ = (
        "fabric",
        "node",
        "via_port",
        "params",
        "bytes",
        "paused_classes",
        "max_bytes_seen",
        "headroom_overflows",
    )

    def __init__(self, fabric: "LosslessFabric", via_port: "Port"):
        self.fabric = fabric
        self.node = via_port.node
        self.via_port = via_port
        self.params = fabric.params
        self.bytes = 0
        self.paused_classes: set = set()
        self.max_bytes_seen = 0
        self.headroom_overflows = 0

    @property
    def name(self) -> str:
        """``node<-neighbour`` label used in traces and detector output."""
        return f"{self.node.name}<-{self.via_port.peer_node.name}"

    def on_reverse_arrival(self, packet: Packet) -> bool:
        """Hand a pause frame to the fabric that sent it (True) or charge
        a data arrival (False)."""
        backpressure = packet.backpressure
        if backpressure is not None:
            backpressure.apply(self.via_port, packet)
            return True  # control frame consumed, never forwarded
        self.charge(packet)
        return False

    def reset(self) -> None:
        """Fault hook (switch reboot)."""
        self.fabric.reset(self.via_port)

    def charge(self, packet: Packet) -> None:
        """Account an arrival from this ingress; maybe send XOFF."""
        cls = packet.priority
        if cls not in self.fabric.lossless_classes:
            return
        packet.pfc_ingress = self
        self.bytes += packet.size
        if self.bytes > self.max_bytes_seen:
            self.max_bytes_seen = self.bytes
        params = self.params
        if self.bytes > params.xoff_bytes + params.headroom_bytes:
            # Headroom exhausted: the fabric is no longer lossless.  The
            # counter (and the invariant test pinned on it) is the alarm.
            self.headroom_overflows += 1
        if cls not in self.paused_classes and self.bytes > params.xoff_bytes:
            self.paused_classes.add(cls)
            self.fabric.signal(self.via_port, cls, pause=True)

    def release(self, packet: Packet) -> None:
        """Release a packet's bytes (egress dequeue or drop)."""
        self.bytes -= packet.size
        if self.paused_classes and self.bytes <= self.params.xon_bytes:
            for cls in self.fabric._forget_sent(self.via_port):
                self.fabric.signal(self.via_port, cls, pause=False)


def protocol_agent(agent):
    """Identity, kept for ``bench/workloads.py``, which still imports it."""
    return agent


class LosslessFabric(Backpressure):
    """One network's PFC install: ingress table, paused set, counters."""

    name = "pfc"
    attr = "lossless"
    pause_topic = PFC_PAUSE
    resume_topic = PFC_RESUME

    def __init__(self, network: "Network", params: PfcParams):
        super().__init__(network, params)
        self.lossless_classes = frozenset(params.lossless_classes)
        #: ingress accounting keyed by the local port facing the neighbour.
        self.ingresses: Dict["Port", PfcIngress] = {}
        #: transmitter -> the classes its peer has paused (host NICs too).
        self.held: Dict["Port", set] = {}
        #: switch transmit ports currently stopped by an XOFF (deadlock
        #: detector input; host NICs pause without entering it).
        self.paused_ports: set = set()
        self.pause_events = 0
        self.resume_events = 0
        #: per-port pause intervals: port -> list of [start_ns, end_ns]
        #: (end is None while still paused) — the pause-storm detector's
        #: raw material, kept tiny (appends only on state transitions).
        self.pause_intervals: Dict["Port", List[list]] = {}
        for switch in network.switches:
            for port in switch.ports:
                ingress = PfcIngress(self, port)
                self.ingresses[port] = ingress
                port.fabric = ingress
                port.on_dequeue = self._release
        # Dropped packets must still release their ingress charge or the
        # counter leaks and the port never resumes.
        network.tracer.subscribe(PACKET_DROP, self._on_drop)

    def _release(self, packet: Packet) -> None:
        ingress = packet.pfc_ingress
        if ingress is not None:
            packet.pfc_ingress = None
            ingress.release(packet)

    def _on_drop(self, packet: Packet = None, **_kw) -> None:
        if packet is not None:
            self._release(packet)

    def _stop(self, port: "Port", cls: int) -> None:
        held = self.held.setdefault(port, set())
        if not held:
            port.pause()
            if port in self.ingresses:
                self.paused_ports.add(port)
                self.pause_events += 1
                self.pause_intervals.setdefault(port, []).append(
                    [self.network.sim.now, None]
                )
        held.add(cls)

    def _start(self, port: "Port", cls: int) -> None:
        held = self.held.get(port)
        if held:
            held.discard(cls)
            if not held:
                self._drop_held(port)

    def _drop_held(self, port: "Port") -> None:
        if self.held.pop(port, None) is None:
            return
        if port in self.paused_ports:
            self.paused_ports.discard(port)
            self.resume_events += 1
            self.pause_intervals[port][-1][1] = self.network.sim.now
        if not getattr(port.node, "paused", False):  # a stalled host stays stalled
            port.resume()

    def _forget_sent(self, port: "Port") -> List[int]:
        ingress = self.ingresses.get(port)
        if ingress is None or not ingress.paused_classes:
            return []
        classes = sorted(ingress.paused_classes)
        ingress.paused_classes.clear()
        return classes

    def _describe(self, via_port: "Port", cls: int) -> dict:
        ingress = self.ingresses[via_port]
        return dict(
            ingress=ingress.name,
            node=via_port.node.name,
            upstream=via_port.peer_node.name,
            pfc_class=cls,
            bytes=ingress.bytes,
            port=peer_tx_port(via_port),
        )

    def any_paused(self) -> bool:
        """Whether any switch transmit port is currently PFC-paused."""
        return bool(self.paused_ports)

    @property
    def headroom_overflows(self) -> int:
        """Ingress occupancy excursions beyond XOFF + headroom (0 =
        the lossless guarantee held everywhere)."""
        return sum(i.headroom_overflows for i in self.ingresses.values())

    def max_ingress_bytes(self) -> int:
        """Peak per-ingress occupancy seen anywhere in the fabric."""
        return max((i.max_bytes_seen for i in self.ingresses.values()), default=0)

    def register(self, registry) -> None:
        super().register(registry)
        registry.counter(
            "pfc.headroom_overflows", help="lossless guarantee breaches"
        ).set_total(self.headroom_overflows)
        registry.gauge("pfc.max_ingress_bytes").set(self.max_ingress_bytes())
        registry.gauge("pfc.paused_ports").set(len(self.paused_ports))


def enable_pfc(
    network: "Network", params: Optional[PfcParams] = None
) -> LosslessFabric:
    """Install PFC lossless classes on every switch of ``network``.

    Must run after the topology is wired (ports exist).  It sets
    ``port.fabric`` and leaves ``port.agent`` alone, so it may run before
    or after the protocol installer.  Installing twice returns the
    existing fabric.
    """
    if params is None:
        params = default_params_for(network.default_buffer_bytes)
    return LosslessFabric.install(network, params)
