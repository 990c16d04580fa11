"""End hosts.

A :class:`Host` terminates transport connections.  Packets arriving from the
NIC are demultiplexed to connection endpoints by flow key (with a listener
table for passive opens, like the OS dispatching a SYN to a listening
socket).  Each delivery is delayed by a small random *host processing
delay*; the paper leans on this jitter to explain why the measured
queue-free RTT (``rtt_b``) sits below the average referenced RTT (Fig. 6),
so it is modelled explicitly and is configurable per host.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from ..sim.engine import Simulator
from ..sim.rng import SeedSequence
from ..sim.trace import Tracer
from .node import Endpoint
from .packet import FlowKey, Packet
from .port import Port


class PacketSink(Protocol):
    """Anything that can accept a delivered packet (connection endpoints)."""

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class Host(Endpoint):
    """A server: one NIC port plus a transport demux table.

    A pause frame reaching the NIC never reaches the demux: ``receive``
    hands it to the fabric that sent it (``frame.backpressure``).
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        name: str,
        tracer: Tracer,
        seeds: SeedSequence,
        processing_delay_ns: int = 2_000,
        processing_jitter_ns: int = 4_000,
    ):
        super().__init__(sim, node_id, name, tracer)
        self._rng = seeds.stream(f"host:{name}:proc")
        self._getrandbits = self._rng.getrandbits  # bound once; per-packet call
        self.processing_delay_ns = processing_delay_ns
        self.processing_jitter_ns = processing_jitter_ns
        self._connections: Dict[FlowKey, PacketSink] = {}
        #: Compact records of this host's completed senders (see
        #: :meth:`retire_connection`); ``_connections`` only keeps live ones.
        self.finished_flows: List[object] = []
        self._listeners: Dict[int, Callable[[Packet], Optional[PacketSink]]] = {}
        self._port_counter = itertools.count(10_000)
        self.paused = False
        self._paused_rx: List[Tuple[Packet, int]] = []  # (packet, delay)
        self.pauses = 0

    # ------------------------------------------------------------------
    # Socket-table management
    # ------------------------------------------------------------------
    def allocate_port(self) -> int:
        """Pick a fresh ephemeral source port."""
        return next(self._port_counter)

    def register_connection(self, key: FlowKey, endpoint: PacketSink) -> None:
        """Bind ``endpoint`` to the *incoming* flow key it should receive."""
        if key in self._connections:
            raise ValueError(f"{self.name}: flow key {key} already bound")
        self._connections[key] = endpoint

    def unregister_connection(self, key: FlowKey) -> None:
        """Release a binding (idempotent, for teardown paths)."""
        self._connections.pop(key, None)

    def retire_connection(
        self, key: FlowKey, sink: PacketSink, record: object
    ) -> None:
        """Re-bind a finished endpoint's ``key`` to ``sink`` and keep
        ``record`` in :attr:`finished_flows` in its place."""
        self._connections[key] = sink
        self.finished_flows.append(record)

    def listen(
        self, port: int, acceptor: Callable[[Packet], Optional[PacketSink]]
    ) -> None:
        """Register a passive-open handler for SYNs addressed to ``port``.

        The acceptor returns the endpoint that will own the new connection
        (which must register itself), or None to ignore the SYN.
        """
        self._listeners[port] = acceptor

    # ------------------------------------------------------------------
    # Fault hooks: host stall (VM pause, GC, kernel soft-lockup)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Freeze the host: hold arriving packets, stop NIC transmission.

        Simulator timers belonging to the host's transports still fire (a
        stalled OS loses its short-term timekeeping too, but modelling that
        buys nothing: an RTO retransmission during the pause just queues in
        the paused NIC like everything else).
        """
        if self.paused:
            return
        self.paused = True
        self.pauses += 1
        for port in self.ports:
            port.pause()

    def resume(self) -> None:
        """Unfreeze: deliver held packets and restart NIC transmission."""
        if not self.paused:
            return
        self.paused = False
        for port in self.ports:
            port.resume()
        pending, self._paused_rx = self._paused_rx, []
        for packet, delay in pending:
            self.sim.post(delay, self._deliver, packet)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def add_port(self, port: Port) -> int:
        index = super().add_port(port)
        if index == 0:
            self.send = port.send  # the NIC: one call per transmitted frame
        return index

    def send(self, packet: Packet) -> None:
        """Transmit via the NIC.  :meth:`add_port` rebinds ``self.send`` to
        the NIC's ``Port.send``; this declaration only raises: no NIC yet."""
        raise RuntimeError(f"{self.name} has no NIC port")

    def receive(self, packet: Packet, in_port_index: int) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.frame_size
        backpressure = packet.backpressure
        if backpressure is not None:
            # A pause frame: the NIC hands it to the fabric that sent it.
            # Only transmission stops — reception continues (unlike the
            # host *stall* fault above, which freezes the whole machine).
            backpressure.apply(self.ports[in_port_index], packet)
            return
        # randrange(jitter + 1)'s own getrandbits loop, inlined: the same draws.
        # A stalled host draws on arrival too, in the order resume() would.
        delay = self.processing_delay_ns
        jitter = self.processing_jitter_ns
        if jitter > 0:
            bits = (jitter + 1).bit_length()
            draw = self._getrandbits(bits)
            while draw > jitter:
                draw = self._getrandbits(bits)
            delay += draw
        if self.paused:
            self._paused_rx.append((packet, delay))
            return
        self.sim.post(delay, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        endpoint = self._connections.get(packet.flow_key)
        if endpoint is not None:
            endpoint.on_packet(packet)
            return
        if packet.syn and not packet.is_ack:
            acceptor = self._listeners.get(packet.dport)
            if acceptor is not None:
                new_endpoint = acceptor(packet)
                if new_endpoint is not None:
                    new_endpoint.on_packet(packet)
                return
        # Late segment for a closed connection; real stacks send RST, we drop.
        self.tracer.emit("host.orphan_packet", packet=packet, host=self)
