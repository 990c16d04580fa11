"""Output ports and unidirectional links.

A :class:`Port` is the transmitting side of one link direction: it owns the
packet queue, serialises one packet at a time at the link rate, and hands
finished frames to the :class:`Link`, which delivers them to the peer node
after the propagation delay.  Store-and-forward behaviour (the paper's
NetFPGA switches, and the reason RTT depends on frame size) falls out
naturally: a node only sees a packet once the whole frame has been received.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.engine import Simulator
from ..sim.trace import PACKET_DROP, Tracer
from ..sim.units import transmission_time_ns
from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

class Link:
    """One direction of a cable: nominal rate and propagation delay.

    Fault hooks (driven by :mod:`repro.faults`): ``up = False`` models a
    cut cable — frames finishing serialisation vanish instead of arriving
    (counted in ``faulted_frames``); ``rate_factor`` degrades the
    serialisation rate (failing optics, autoneg fallback) without changing
    the nominal rate protocols were configured against.
    """

    __slots__ = (
        "_sim",
        "rate_bps",
        "delay_ns",
        "dst_node",
        "dst_port_index",
        "up",
        "_rate_factor",
        "effective_rate_bps",
        "faulted_frames",
        "owner",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: int,
        delay_ns: int,
        dst_node: "Node",
        dst_port_index: int,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay_ns < 0:
            raise ValueError(f"link delay must be >= 0, got {delay_ns}")
        self._sim = sim
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.dst_node = dst_node
        self.dst_port_index = dst_port_index
        self.up = True
        self._rate_factor = 1.0
        # Serialisation rate after degradation, cached as a plain attribute
        # (read once per transmitted frame) and refreshed only when the
        # factor changes.
        self.effective_rate_bps = rate_bps
        self.faulted_frames = 0
        # Transmitting Port feeding this direction (set when one attaches):
        # rate changes must invalidate its tx-time cache before the new
        # rate takes effect.
        self.owner: Optional["Port"] = None

    @property
    def rate_factor(self) -> float:
        """Injected serialisation-rate degradation factor (1.0 = healthy)."""
        return self._rate_factor

    @rate_factor.setter
    def rate_factor(self, factor: float) -> None:
        self._rate_factor = factor
        if factor >= 1.0:
            self.effective_rate_bps = self.rate_bps
        else:
            self.effective_rate_bps = max(int(self.rate_bps * factor), 1)
        owner = self.owner
        if owner is not None:
            owner._tx_cache.clear()

    def degrade(self, factor: float) -> None:
        """Scale the serialisation rate by ``factor`` (0 < factor <= 1)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"rate factor must be in (0, 1], got {factor}")
        self.rate_factor = factor

    def restore_rate(self) -> None:
        """Clear any injected rate degradation."""
        self.rate_factor = 1.0

    def carry(self, packet: Packet) -> None:
        """Deliver a fully serialised frame to the far end after the delay.

        Pause frames (:class:`~repro.net.pfc.PauseFrame`) ride this,
        skipping the data queue.
        The :class:`Port` transmit path inlines it (one posted
        delivery straight to the destination node) because the
        propagation delay is static.
        """
        if not self.up:
            self.faulted_frames += 1
            return  # the cable is cut; the frame vanishes
        packet.hops += 1
        self._sim.post(
            self.delay_ns, self.dst_node.receive, packet, self.dst_port_index
        )


class Port:
    """Transmit side of a link direction, owned by a node.

    Two optional roles hook a port; the port itself never inspects
    them — nodes do (see :class:`~repro.net.node.Switch` for the order):

    * ``agent`` — the protocol agent (TFC, BFC or FairQ);
    * ``fabric`` — the lossless-fabric hook
      (:class:`~repro.net.pfc.PfcIngress` once PFC is armed);
      ``pause()``/``resume()`` and ``kick()`` are what a pause frame
      from the peer drives, through the fabric that sent it.
    """

    __slots__ = (
        "_sim",
        "node",
        "index",
        "link",
        "queue",
        "tracer",
        "agent",
        "fabric",
        "on_dequeue",
        "_busy",
        "paused",
        "tx_packets",
        "tx_bytes",
        "_tx_cache",
        "_finish",
    )

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        index: int,
        link: Link,
        queue: DropTailQueue,
        tracer: Optional[Tracer] = None,
    ):
        self._sim = sim
        self.node = node
        self.index = index
        self.link = link
        link.owner = self
        self.queue = queue
        self.tracer = tracer
        self.agent = None  # set by protocols that need per-port state
        self.fabric = None
        # Optional callable(packet) fired when a packet leaves the queue
        # to start serialising — the lossless fabric releases its ingress
        # accounting here (the buffer slot is free once TX begins).
        self.on_dequeue = None
        self._busy = False
        self.paused = False
        self.tx_packets = 0
        self.tx_bytes = 0
        # frame_size -> serialisation ns at the current effective rate;
        # cleared by Link.rate_factor on any rate change.
        self._tx_cache: dict = {}
        self._finish = self._finish_tx  # bound once: every frame schedules it

    @property
    def rate_bps(self) -> int:
        """Line rate of the attached link."""
        return self.link.rate_bps

    @property
    def peer_node(self) -> "Node":
        """Node on the far end of the attached link."""
        return self.link.dst_node

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission; False if drop-tail rejected it.

        A frame that finds the port idle and its queue empty cuts
        through: ``queue.admit`` books it exactly as enqueue-then-dequeue
        would, and it goes straight to serialisation.  A discipline that
        may hold an admitted frame (``cut_through = False``) always
        queues.
        """
        queue = self.queue
        if self._busy or self.paused or queue.byte_length or not queue.cut_through:
            if queue.enqueue(packet):
                if not self._busy and not self.paused:
                    self._start_next()
                return True
        elif queue.admit(packet):
            self._busy = True
            if self.on_dequeue is not None:
                self.on_dequeue(packet)
            tx_ns = self._tx_cache.get(packet.frame_size) or self._tx_time(packet.frame_size)
            self._sim.post(tx_ns, self._finish, packet)
            return True
        tracer = self.tracer
        if tracer is not None:
            if tracer.active(PACKET_DROP):
                tracer.emit(PACKET_DROP, packet=packet, port=self)
            else:
                tracer.bump(PACKET_DROP)
        return False

    def pause(self) -> None:
        """Stop starting new transmissions (host stall fault, PFC XOFF).

        A frame already on the wire finishes serialising; everything else
        accumulates in the queue until :meth:`resume`.
        """
        self.paused = True

    def resume(self) -> None:
        """Resume transmission after :meth:`pause`."""
        if not self.paused:
            return
        self.paused = False
        if not self._busy:
            self._start_next()

    def kick(self) -> None:
        """Restart service if the port sits idle with work newly eligible.

        Queue disciplines that can hold back queued packets (per-flow
        pause in :class:`repro.net.bfc.BfcQueue`) leave the port idle
        when ``dequeue`` returns None with bytes still buffered; whoever
        makes a packet eligible again (a per-flow XON) must kick.  A
        no-op while transmitting or paused — identical to the send-path
        idle check, so it can never double-start service.
        """
        if not self._busy and not self.paused:
            self._start_next()

    def _start_next(self) -> None:
        packet = None if self.paused else self.queue.dequeue()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        if self.on_dequeue is not None:
            self.on_dequeue(packet)
        tx_ns = self._tx_cache.get(packet.frame_size) or self._tx_time(packet.frame_size)
        self._sim.post(tx_ns, self._finish, packet)

    def _tx_time(self, size: int) -> int:
        """Serialisation ns of a ``size``-byte frame, cached per size."""
        tx_ns = self._tx_cache[size] = transmission_time_ns(size, self.link.effective_rate_bps)
        return tx_ns

    def _finish_tx(self, packet: Packet) -> None:
        # Link.carry, inlined: one posted delivery straight to the peer node.
        self.tx_packets += 1
        self.tx_bytes += packet.frame_size
        link = self.link
        if link.up:
            packet.hops += 1
            self._sim.post(
                link.delay_ns, link.dst_node.receive, packet, link.dst_port_index
            )
        else:
            link.faulted_frames += 1
        # _start_next, asking the queue only when it holds bytes.
        queue = self.queue
        packet = queue.dequeue() if queue.byte_length and not self.paused else None
        if packet is None:
            self._busy = False
            return
        if self.on_dequeue is not None:
            self.on_dequeue(packet)
        tx_ns = self._tx_cache.get(packet.frame_size) or self._tx_time(packet.frame_size)
        self._sim.post(tx_ns, self._finish, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.node.name}[{self.index}] q={self.queue.byte_length}B>"


#: An agent class's ``reverse_hook`` (see :class:`~repro.net.node.Switch`).
EVERY_PACKET = "every packet"
RMA_ACKS = "RMA ACKs"


def install_agent(port: Port, agent) -> None:
    """Set ``port.agent``, refusing to displace a different protocol's.

    A port runs one protocol agent.  Re-installing the same agent type
    replaces it (fresh state); a second protocol on a taken port is a
    configuration error, not a silent overwrite.
    """
    existing = port.agent
    if existing is not None and type(existing) is not type(agent):
        raise ValueError(
            f"port {port.node.name}[{port.index}] already runs a "
            f"{type(existing).__name__}; cannot install a "
            f"{type(agent).__name__} on it"
        )
    port.agent = agent
