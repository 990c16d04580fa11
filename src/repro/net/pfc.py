"""PFC-style per-priority lossless fabric: ingress pause/resume.

Priority Flow Control (IEEE 802.1Qbb) makes a fabric lossless by pausing
the *upstream transmitter* of a link before the local buffer can
overflow.  The model here follows the standard switch implementation
vocabulary (see the Backpressure Flow Control and Tiny Buffer TCP lines
of work): per-ingress byte accounting with an **XOFF** threshold that
triggers a pause frame upstream, an **XON** threshold that sends the
resume, and **headroom** — buffer reserved above XOFF to absorb the
frames already in flight while the pause propagates.  With headroom of
at least two link BDPs plus one MTU per ingress, no admitted packet is
ever dropped: the fabric is lossless.

Losslessness is exactly what buys the pathologies TFC claims to avoid:

* a paused port stalls *every* flow queued behind it, including flows
  whose own next hop is idle — head-of-line blocking;
* pause propagates hop by hop toward the sources, so one slow drain can
  blanket a whole subtree in pause frames — a pause storm;
* routes that thread paused buffers into a ring deadlock permanently —
  cyclic buffer dependency (CBD).

The detectors for all three live in :mod:`repro.faults.pathology`.

Structure
---------
* :class:`PfcParams` — thresholds, headroom and the lossless class set.
* :class:`PfcIngress` — one per switch port, installed as ``port.fabric``.
  It does the ingress byte accounting for the port's cable: bytes are
  charged when a packet arrives from the link and released when it is
  dequeued for transmission at any local egress port (or dropped),
  mirroring a shared-buffer switch with per-ingress counters.  It also
  consumes the pause frames addressed to the port's transmitter.  The
  protocol agent in ``port.agent`` is left alone: the switch calls the
  fabric first, then the agent (see :class:`~repro.net.node.Switch`).
* :class:`LosslessFabric` — the per-network install handle: owns the
  ingress table, the paused-port set the deadlock detector walks, and
  the pause/resume counters.

Pause frames are MAC control frames: they bypass the data queues (the
frame is carried straight on the link after the propagation delay) and
are consumed by the peer's port logic, never forwarded.  A pause stops
the peer port from *starting* new transmissions; the frame already being
serialised finishes, which is why headroom must cover in-flight bytes.

One honest simplification, stated loudly: ports own a single FIFO, not
per-class queues, so a pause on any lossless class stops the whole port.
That collapses per-class pause to per-port pause — which is precisely
the head-of-line blocking failure mode the pathology experiments pin.
Per-class *accounting* is still kept (``PfcParams.lossless_classes``,
``Packet.priority``), so best-effort traffic neither charges ingress
counters nor triggers pauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.trace import PACKET_DROP, PFC_PAUSE, PFC_RESUME
from .packet import MTU, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .node import Node, Switch
    from .port import Port

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
        if self.xoff_bytes <= 0:
            raise ValueError(f"xoff must be positive, got {self.xoff_bytes}")
        if not 0 < self.xon_bytes <= self.xoff_bytes:
            raise ValueError(
                f"xon must be in (0, xoff], got xon={self.xon_bytes} "
                f"xoff={self.xoff_bytes}"
            )
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
    """A per-priority pause/resume control frame (64-byte MAC control).

    ``pfc_op`` is ``"xoff"`` or ``"xon"``; ``pfc_class`` names the
    lossless class being paused.  The frame travels on the reverse
    direction of the congested ingress link, bypassing data queues.
    """

    __slots__ = ("pfc_op", "pfc_class")

    def __init__(self, src: int, dst: int, op: str, pfc_class: int):
        super().__init__(src=src, dst=dst, sport=0, dport=0)
        self.pfc_op = op
        self.pfc_class = pfc_class


def peer_tx_port(port: "Port") -> Optional["Port"]:
    """The peer's port transmitting the opposite direction of ``port``'s
    cable (the transmitter a pause frame from this side must stop)."""
    for peer_port in port.peer_node.ports:
        link = peer_port.link
        if link.dst_node is port.node and link.dst_port_index == port.index:
            return peer_port
    return None


class PfcIngress:
    """One switch port's lossless-fabric role (``port.fabric``).

    Receive side: per-(node, ingress) byte accounting with XOFF/XON
    watermarks.  ``charge`` runs on packet arrival from the ingress link;
    ``release`` when the packet is dequeued for transmission at a local
    egress port (or dropped).  Crossing XOFF from below sends a pause
    frame upstream through ``via_port`` (the port this ingress belongs
    to, transmitting back towards the neighbour); draining to XON sends
    the resume.

    Transmit side: pause frames from the neighbour stop ``via_port``;
    ``pfc_paused_classes`` holds the lossless classes currently pausing
    it.
    """

    __slots__ = (
        "fabric",
        "node",
        "via_port",
        "params",
        "bytes",
        "class_bytes",
        "paused_classes",
        "pfc_paused_classes",
        "max_bytes_seen",
        "pause_frames_sent",
        "resume_frames_sent",
        "headroom_overflows",
    )

    def __init__(self, fabric: "LosslessFabric", via_port: "Port"):
        self.fabric = fabric
        self.node = via_port.node
        self.via_port = via_port
        self.params = fabric.params
        self.bytes = 0
        self.class_bytes: Dict[int, int] = {}
        self.paused_classes: set = set()
        self.pfc_paused_classes: set = set()
        self.max_bytes_seen = 0
        self.pause_frames_sent = 0
        self.resume_frames_sent = 0
        self.headroom_overflows = 0

    @property
    def name(self) -> str:
        """``node<-neighbour`` label used in traces and detector output."""
        return f"{self.node.name}<-{self.via_port.peer_node.name}"

    # ------------------------------------------------------------------
    # Port role (called by Switch.receive and the fault engine)
    # ------------------------------------------------------------------
    def on_reverse_arrival(self, packet: Packet) -> bool:
        """Consume a pause frame (True) or charge a data arrival (False)."""
        op = packet.pfc_op
        if op is not None:
            self._apply(op, packet.pfc_class)
            return True  # control frame consumed, never forwarded
        self.charge(packet)
        return False

    def reset(self) -> None:
        """Fault hook (switch reboot): forget pause state, resume TX.

        A port paused at the reboot leaves through the same transition as
        an XON, so its pause interval closes and the resume is counted.
        """
        self.paused_classes.clear()
        self.pfc_paused_classes.clear()
        self._resume()

    # ------------------------------------------------------------------
    def charge(self, packet: Packet) -> None:
        """Account an arrival from this ingress; maybe send XOFF."""
        cls = packet.priority
        if cls not in self.fabric.lossless_classes:
            return
        size = packet.size
        packet.pfc_ingress = self
        self.bytes += size
        self.class_bytes[cls] = self.class_bytes.get(cls, 0) + size
        if self.bytes > self.max_bytes_seen:
            self.max_bytes_seen = self.bytes
        if (
            self.bytes > self.params.xoff_bytes + self.params.headroom_bytes
        ):
            # Headroom exhausted: the fabric is no longer lossless.  The
            # counter (and the invariant test pinned on it) is the alarm.
            self.headroom_overflows += 1
        if (
            cls not in self.paused_classes
            and self.bytes > self.params.xoff_bytes
        ):
            self._send(True, cls)

    def release(self, packet: Packet) -> None:
        """Release a packet's bytes (egress dequeue or drop)."""
        cls = packet.priority
        size = packet.size
        self.bytes -= size
        remaining = self.class_bytes.get(cls, 0) - size
        if remaining > 0:
            self.class_bytes[cls] = remaining
        else:
            self.class_bytes.pop(cls, None)
        if self.paused_classes and self.bytes <= self.params.xon_bytes:
            for paused in sorted(self.paused_classes):
                self._send(False, paused)

    # ------------------------------------------------------------------
    def _send(self, pause: bool, cls: int) -> None:
        """Emit an XOFF/XON frame upstream, bypassing data queues."""
        upstream = self.via_port.peer_node
        frame = PauseFrame(
            src=self.node.node_id,
            dst=upstream.node_id,
            op="xoff" if pause else "xon",
            pfc_class=cls,
        )
        if pause:
            self.paused_classes.add(cls)
            self.pause_frames_sent += 1
        else:
            self.paused_classes.discard(cls)
            self.resume_frames_sent += 1
        # Control frames preempt data: carried straight on the link (one
        # propagation delay; the 64-byte serialisation time is noise at
        # fabric rates and would only shift every event by a constant).
        self.via_port.link.carry(frame)
        target = peer_tx_port(self.via_port)
        topic = PFC_PAUSE if pause else PFC_RESUME
        self.fabric.tracer.emit(
            topic,
            ingress=self.name,
            node=self.node.name,
            upstream=upstream.name,
            pfc_class=cls,
            bytes=self.bytes,
            port=target,
        )

    def _apply(self, op: str, cls: int) -> None:
        """Apply a pause frame's XOFF/XON for ``cls`` to ``via_port``."""
        if op == "xoff":
            was_paused = bool(self.pfc_paused_classes)
            self.pfc_paused_classes.add(cls)
            if not was_paused:
                port = self.via_port
                fabric = self.fabric
                port.pause()
                fabric.paused_ports.add(port)
                fabric.pause_events += 1
                fabric.note_pause(port, paused=True)
        else:
            self.pfc_paused_classes.discard(cls)
            if not self.pfc_paused_classes:
                self._resume()

    def _resume(self) -> None:
        """Leave the paused state (a no-op if ``via_port`` is not paused)."""
        port = self.via_port
        fabric = self.fabric
        if port in fabric.paused_ports:
            fabric.paused_ports.discard(port)
            fabric.resume_events += 1
            fabric.note_pause(port, paused=False)
            port.resume()


def protocol_agent(agent):
    """Identity, kept for ``bench/workloads.py``, which still imports it.

    ``port.agent`` is always the protocol agent; PFC sits in
    ``port.fabric``.
    """
    return agent


class LosslessFabric:
    """One network's PFC install: ingress table, paused set, counters."""

    def __init__(self, network: "Network", params: PfcParams):
        self.network = network
        self.tracer = network.tracer
        self.params = params
        self.lossless_classes = frozenset(params.lossless_classes)
        #: ingress accounting keyed by the local port facing the neighbour.
        self.ingresses: Dict["Port", PfcIngress] = {}
        #: transmit ports currently stopped by an XOFF (deadlock detector
        #: input; membership is updated where the pause is applied).
        self.paused_ports: set = set()
        self.pause_events = 0
        self.resume_events = 0
        #: per-port pause intervals: port -> list of [start_ns, end_ns]
        #: (end is None while still paused) — the pause-storm detector's
        #: raw material, kept tiny (appends only on state transitions).
        self.pause_intervals: Dict["Port", List[list]] = {}
        self._install()

    # ------------------------------------------------------------------
    def _install(self) -> None:
        network = self.network
        for switch in network.switches:
            for port in switch.ports:
                ingress = PfcIngress(self, port)
                self.ingresses[port] = ingress
                port.fabric = ingress
                port.on_dequeue = self._release
        # Hosts honour pause frames through their NIC hook; nothing to
        # install there.  Dropped packets must still release their
        # ingress charge or the counter leaks and the port never resumes.
        network.tracer.subscribe(PACKET_DROP, self._on_drop)

    def _release(self, packet: Packet) -> None:
        ingress = packet.pfc_ingress
        if ingress is not None:
            packet.pfc_ingress = None
            ingress.release(packet)

    def _on_drop(self, packet: Packet = None, **_kw) -> None:
        if packet is not None:
            self._release(packet)

    # ------------------------------------------------------------------
    # Pause bookkeeping for the detectors
    # ------------------------------------------------------------------
    def note_pause(self, port: "Port", paused: bool) -> None:
        intervals = self.pause_intervals.setdefault(port, [])
        now = self.network.sim.now
        if paused:
            intervals.append([now, None])
        elif intervals and intervals[-1][1] is None:
            intervals[-1][1] = now

    def any_paused(self) -> bool:
        """Whether any transmit port is currently PFC-paused."""
        return bool(self.paused_ports)

    # ------------------------------------------------------------------
    # Aggregates (assertion surface for the head-to-head experiments)
    # ------------------------------------------------------------------
    @property
    def pause_frames(self) -> int:
        """XOFF frames emitted across the fabric."""
        return self.tracer.count(PFC_PAUSE)

    @property
    def resume_frames(self) -> int:
        """XON frames emitted across the fabric."""
        return self.tracer.count(PFC_RESUME)

    @property
    def headroom_overflows(self) -> int:
        """Ingress occupancy excursions beyond XOFF + headroom (0 =
        the lossless guarantee held everywhere)."""
        return sum(i.headroom_overflows for i in self.ingresses.values())

    def max_ingress_bytes(self) -> int:
        """Peak per-ingress occupancy seen anywhere in the fabric."""
        if not self.ingresses:
            return 0
        return max(i.max_bytes_seen for i in self.ingresses.values())

    def register(self, registry) -> None:
        """Mirror fabric counters into a :class:`repro.obs` registry."""
        registry.counter(
            "pfc.pause_frames", help="XOFF frames sent"
        ).set_total(self.pause_frames)
        registry.counter(
            "pfc.resume_frames", help="XON frames sent"
        ).set_total(self.resume_frames)
        registry.counter(
            "pfc.headroom_overflows", help="lossless guarantee breaches"
        ).set_total(self.headroom_overflows)
        registry.gauge("pfc.max_ingress_bytes").set(self.max_ingress_bytes())
        registry.gauge("pfc.paused_ports").set(len(self.paused_ports))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LosslessFabric ingresses={len(self.ingresses)}"
            f" paused={len(self.paused_ports)}"
            f" pauses={self.pause_events}>"
        )


def enable_pfc(
    network: "Network", params: Optional[PfcParams] = None
) -> LosslessFabric:
    """Install PFC lossless classes on every switch of ``network``.

    Must run after the topology is wired (ports exist).  It sets
    ``port.fabric`` and leaves ``port.agent`` alone, so it may run before
    or after the protocol installer.  Installing twice returns the
    existing fabric — the env-driven chokepoint and an explicit
    experiment install must not stack.
    """
    existing = getattr(network, "lossless", None)
    if existing is not None:
        return existing
    fabric = LosslessFabric(
        network,
        params
        if params is not None
        else default_params_for(network.default_buffer_bytes),
    )
    network.lossless = fabric
    return fabric
