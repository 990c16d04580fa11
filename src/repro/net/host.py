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
from typing import Callable, Dict, List, Optional, Protocol

from ..sim.engine import Simulator
from ..sim.rng import SeedSequence
from ..sim.trace import Tracer
from .node import Endpoint
from .packet import FlowKey, Packet


class PacketSink(Protocol):
    """Anything that can accept a delivered packet (connection endpoints)."""

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class Host(Endpoint):
    """A server: one NIC port plus a transport demux table."""

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
        self._randrange = self._rng.randrange  # bound once; per-packet call
        self.processing_delay_ns = processing_delay_ns
        self.processing_jitter_ns = processing_jitter_ns
        self._connections: Dict[FlowKey, PacketSink] = {}
        #: Compact records of this host's completed senders (see
        #: :meth:`retire_connection`); ``_connections`` only keeps live ones.
        self.finished_flows: List[object] = []
        self._listeners: Dict[int, Callable[[Packet], Optional[PacketSink]]] = {}
        self._port_counter = itertools.count(10_000)
        self.paused = False
        self._paused_rx: List[Packet] = []
        self.pauses = 0
        # Set by installers that attach NIC agents (repro.net.bfc); the
        # per-packet agent probe in handle_packet is gated on it so the
        # common no-agent datapath pays one boolean check.
        self.nic_agents_installed = False

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
        for packet in pending:
            self._schedule_delivery(packet)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit via the single NIC port."""
        self.ports[0].send(packet)

    def handle_packet(self, packet: Packet, in_port_index: int) -> None:
        # NIC agent hook, mirroring the switch datapath: a protocol may
        # attach per-NIC logic (BFC's per-flow pause handling) that
        # consumes control frames before demux.
        if self.nic_agents_installed:
            agent = self.ports[in_port_index].agent
            if agent is not None and agent.on_reverse_arrival(packet):
                return
        op = packet.pfc_op
        if op is not None:
            # MAC-control pause frame: consumed by the NIC itself.  Only
            # transmission stops — reception continues (unlike the host
            # *stall* fault above, which freezes the whole machine).
            if op == "xoff":
                self.ports[in_port_index].pause()
            elif not self.paused:  # a stalled host stays stalled
                self.ports[in_port_index].resume()
            return
        if self.paused:
            self._paused_rx.append(packet)
            return
        self._schedule_delivery(packet)

    def _schedule_delivery(self, packet: Packet) -> None:
        delay = self.processing_delay_ns
        jitter = self.processing_jitter_ns
        if jitter > 0:
            delay += self._randrange(jitter + 1)
        self.sim.schedule(delay, self._deliver, packet)

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
