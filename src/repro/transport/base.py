"""Transport framework shared by TCP NewReno, DCTCP and TFC.

The library models one-directional flows (all the paper's experiments move
data one way with pure ACKs coming back): a :class:`Sender` owns the
congestion-control state and the retransmission machinery, a
:class:`Receiver` owns reassembly and ACK generation.  Protocols subclass
the hooks instead of reimplementing reliability:

* ``on_ack_accepted(packet, newly_acked)`` — cumulative ACK advanced.
* ``on_duplicate_ack(packet)`` / ``on_fast_retransmit()`` — loss signals.
* ``on_timeout()`` — RTO fired (the base class already retransmits).
* ``next_packet_hook(packet)`` — decorate an outgoing data packet
  (RM marking, ECN capability...).

The per-packet hooks are entered only in classes that override them,
which is decided once, when the class is defined.

Sequence numbers count payload bytes from zero; SYN/FIN do not consume
sequence space (both ends are ours, so the simplification is safe).  RTT
samples come from a timestamp echoed by the receiver, with Karn's rule
applied (no samples from retransmitted segments).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..net.host import Host
from ..net.packet import MSS, FlowKey, Packet
from ..sim.timers import Timer
from ..sim.trace import FLOW_COMPLETE, RETRANSMIT_TIMEOUT
from ..sim.units import MILLISECOND, SECOND, microseconds

DEFAULT_AWND = 1 << 20  # 1 MiB advertised window
_MIN_RTTVAR_TERM_NS = microseconds(10)  # RFC 6298's clock-granularity floor


class FlowState(enum.Enum):
    """Lifecycle of a one-directional flow."""

    CLOSED = "closed"
    SYN_SENT = "syn_sent"
    ESTABLISHED = "established"
    DONE = "done"


# The members as plain module globals: an enum member read is a class
# attribute lookup through the enum machinery, several times a global's
# cost, and the per-ACK path makes a few of them.
_CLOSED = FlowState.CLOSED
_SYN_SENT = FlowState.SYN_SENT
_ESTABLISHED = FlowState.ESTABLISHED
_DONE = FlowState.DONE


class RtoEstimator:
    """RFC 6298 retransmission-timeout estimator."""

    __slots__ = ("min_rto_ns", "max_rto_ns", "srtt", "rttvar", "rto_ns", "_backoff",
                 "current_rto_ns")

    def __init__(
        self,
        min_rto_ns: int = 10 * MILLISECOND,
        max_rto_ns: int = 4 * SECOND,
        initial_rto_ns: int = 10 * MILLISECOND,
    ):
        self.min_rto_ns = min_rto_ns
        self.max_rto_ns = max_rto_ns
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.rto_ns = max(initial_rto_ns, min_rto_ns)
        self._backoff = 1
        #: The timeout to arm right now, backoff included (kept current).
        self.current_rto_ns = int(min(self.rto_ns, max_rto_ns))

    def sample(self, rtt_ns: int) -> None:
        """Fold a clean (non-retransmitted) RTT sample into the estimate."""
        if self.srtt is None:
            self.srtt = float(rtt_ns)
            self.rttvar = rtt_ns / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt_ns)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt_ns
        self._backoff = 1
        # max()/min() spelled as comparisons, with the builtins' tie rules:
        # one sample per ACK makes the calls themselves the cost.
        rttvar_term = 4 * self.rttvar
        if _MIN_RTTVAR_TERM_NS > rttvar_term:
            rttvar_term = _MIN_RTTVAR_TERM_NS
        rto = self.srtt + rttvar_term
        if self.min_rto_ns > rto:
            rto = self.min_rto_ns
        if self.max_rto_ns < rto:
            rto = self.max_rto_ns
        self.rto_ns = self.current_rto_ns = int(rto)

    def backoff(self) -> None:
        """Double the timeout after an expiry (bounded by max_rto)."""
        self._backoff = min(self._backoff * 2, 64)
        self.current_rto_ns = int(min(self.rto_ns * self._backoff, self.max_rto_ns))


class FlowStats:
    """Everything experiments measure about one flow."""

    __slots__ = (
        "start_ns", "established_ns", "complete_ns", "bytes_acked",
        "bytes_sent", "packets_sent", "retransmissions", "timeouts",
        "fast_retransmits",
    )

    def __init__(self) -> None:
        self.start_ns: Optional[int] = None
        self.established_ns: Optional[int] = None
        self.complete_ns: Optional[int] = None
        self.bytes_acked = 0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    @property
    def fct_ns(self) -> Optional[int]:
        """Flow completion time (start of open -> last byte acked)."""
        if self.start_ns is None or self.complete_ns is None:
            return None
        return self.complete_ns - self.start_ns


class FinishedFlow:
    """What a host keeps of a completed sender (its finished-flow ledger).

    ``stats`` is the sender's own :class:`FlowStats` object, so a caller
    still holding the sender reads the same numbers through either.
    """

    __slots__ = ("flow_key", "flow_bytes", "tenant", "stats")

    def __init__(self, sender: "Sender"):
        self.flow_key = sender.flow_key
        self.flow_bytes = sender.flow_bytes
        self.tenant = sender.tenant
        self.stats = sender.stats


class _FinishedSink:
    """Demux binding of a released sender: late ACKs are dropped silently,
    exactly as the ``DONE`` sender itself would drop them."""

    __slots__ = ()

    def on_packet(self, packet: Packet) -> None:
        pass


#: The one stateless sink every released sender's demux key points at.
FINISHED_SINK = _FinishedSink()


class Sender:
    """Reliable one-directional data sender with pluggable congestion control.

    ``size_bytes=None`` makes the flow long-lived: it always has data to
    send until :meth:`finish` is called.  On-off sources instead construct
    with ``size_bytes=0`` and feed data via :meth:`queue_bytes`.
    """

    protocol_name = "base"

    # Live flows add up at paper scale (a finished sender is released
    # into its host's ledger, but a long run keeps thousands open at
    # once); subclasses declare their own fields the same way.
    __slots__ = (
        "host", "sim", "tracer", "src_id", "dst_id", "sport", "dport",
        "flow_key", "ack_key", "on_complete", "stats", "state", "long_lived",
        "flow_bytes", "fin_on_empty", "snd_una", "snd_nxt", "cwnd",
        "peer_awnd", "dupacks", "recover_point", "_inflight", "_high_tx",
        "rto", "_rto_timer", "_fin_sent", "tenant", "receiver",
    )

    # Which per-packet hooks a class overrides, fixed once per class by
    # ``__init_subclass__``: the datapath enters a hook only where the
    # protocol acts, never the base class's no-op.
    _calls_ack_hook = False
    _calls_next_packet_hook = False
    _calls_on_ack_accepted = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._calls_ack_hook = cls.ack_hook is not Sender.ack_hook
        cls._calls_next_packet_hook = cls.next_packet_hook is not Sender.next_packet_hook
        cls._calls_on_ack_accepted = cls.on_ack_accepted is not Sender.on_ack_accepted

    def __init__(
        self,
        host: Host,
        dst_id: int,
        dport: int,
        size_bytes: Optional[int] = None,
        sport: Optional[int] = None,
        min_rto_ns: int = 10 * MILLISECOND,
        awnd_bytes: int = DEFAULT_AWND,
        on_complete: Optional[Callable[["Sender"], None]] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.tracer = host.tracer
        self.src_id = host.node_id
        self.dst_id = dst_id
        self.sport = sport if sport is not None else host.allocate_port()
        self.dport = dport
        #: The one key tuple of each direction: every data packet carries
        #: ``flow_key``, every ACK coming back carries ``ack_key`` (also the
        #: demux key this sender registers at its host).
        self.flow_key = (self.src_id, self.dst_id, self.sport, self.dport)
        self.ack_key = (self.dst_id, self.src_id, self.dport, self.sport)
        self.on_complete = on_complete
        self.stats = FlowStats()
        #: Tenant tag for multi-tenant accounting, stamped by
        #: :func:`repro.transport.registry.open_flow`; None = untenanted.
        self.tenant: Optional[str] = None

        self.state = _CLOSED
        self.long_lived = size_bytes is None
        self.flow_bytes = 0 if size_bytes is None else int(size_bytes)
        self.fin_on_empty = not self.long_lived and size_bytes is not None

        # Sliding-window state (byte sequence space).
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd: float = float(MSS)
        self.peer_awnd = float(awnd_bytes)
        self.dupacks = 0
        self.recover_point: Optional[int] = None

        # seq -> payload length of every unacknowledged segment
        self._inflight: Dict[int, int] = {}
        self._high_tx = 0  # highest sequence ever transmitted
        self.rto = RtoEstimator(min_rto_ns=min_rto_ns)
        self._rto_timer = Timer(self.sim, self._on_rto, name="rto")
        self._fin_sent = False
        host.register_connection(self.ack_key, self)

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the flow (sends SYN). Idempotent."""
        if self.state is not _CLOSED:
            return
        self.stats.start_ns = self.sim.now
        self.state = _SYN_SENT
        self._send_syn()

    def queue_bytes(self, nbytes: int) -> None:
        """Append application data to the flow (for on-off sources)."""
        if self.long_lived:
            raise ValueError("long-lived flows always have data queued")
        if self.state is _DONE:
            raise ValueError("flow already completed")
        self.flow_bytes += int(nbytes)
        self.fin_on_empty = False
        if self.state is _ESTABLISHED:
            self.try_send()

    def finish(self) -> None:
        """Stop a long-lived/on-off flow once everything queued is acked."""
        self.long_lived = False
        self.fin_on_empty = True
        if self.state is _ESTABLISHED:
            self._maybe_complete()

    def abort(self) -> None:
        """Kill the flow instantly, with no FIN (process or host crash).

        The connection just goes silent: peers and switches get no
        teardown signal and must detect the death themselves — for TFC
        this is what forces the delimiter-silence re-election backoff
        instead of the clean FIN hand-over.  ``stats.complete_ns`` stays
        None (the flow did not complete) and ``on_complete`` never fires.
        """
        self.close()
        self.state = _DONE

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def flight_size(self) -> int:
        """Bytes sent but not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    @property
    def send_window(self) -> float:
        """Usable window: min of congestion and advertised windows."""
        return min(self.cwnd, self.peer_awnd)

    @property
    def available_bytes(self) -> int:
        """Application bytes not yet transmitted."""
        if self.long_lived:
            return 1 << 30
        return max(self.flow_bytes - self.snd_nxt, 0)

    # ------------------------------------------------------------------
    # Packet construction
    # ------------------------------------------------------------------
    def _make_packet(self, **kwargs) -> Packet:
        packet = Packet(self.flow_key, **kwargs)
        packet.sent_at = self.sim.now
        return packet

    def _send_syn(self) -> None:
        syn = self._make_packet(syn=True)
        self.syn_hook(syn)
        self.host.send(syn)
        self._rto_timer.start(self.rto.current_rto_ns)

    def _transmit(self, seq: int, length: int, retransmission: bool) -> None:
        # Positional (key, dst, sport, dport, seq, ack, payload): keyword
        # binding costs more than the rest of the constructor on this path.
        packet = Packet(self.flow_key, None, 0, 0, seq, 0, length)
        packet.sent_at = self.sim.now
        packet.retransmitted = retransmission
        if self._calls_next_packet_hook:
            self.next_packet_hook(packet)
        self._inflight[seq] = length
        self.stats.packets_sent += 1
        self.stats.bytes_sent += length
        if retransmission:
            self.stats.retransmissions += 1
        self.host.send(packet)
        self._rto_timer.start_if_idle(self.rto.current_rto_ns)

    # ------------------------------------------------------------------
    # Transmission engine
    # ------------------------------------------------------------------
    def try_send(self) -> None:
        """Send as much new data as the window and the app buffer allow."""
        if self.state is not _ESTABLISHED:
            return
        # A segment is sent only when it fully fits in the window (floor
        # quantisation, as in packet-counting kernel stacks).  The residual
        # fraction of a window is never borrowed against — TFC's token
        # adjustment compensates the resulting undershoot at the switch.
        # The window bound is hoisted out of the loop: cwnd/peer_awnd only
        # change from ACK processing, which is never re-entered from here.
        cwnd, awnd = self.cwnd, self.peer_awnd
        limit = (awnd if awnd < cwnd else cwnd) + 0.5
        long_lived = self.long_lived
        while True:
            if long_lived:
                length = MSS
            else:
                available = self.flow_bytes - self.snd_nxt
                length = MSS if MSS < available else available
            if length <= 0 or (self.snd_nxt - self.snd_una) + length > limit:
                break
            # Segments below the high-water mark are go-back-N retransmissions.
            self._transmit(self.snd_nxt, length, self.snd_nxt < self._high_tx)
            self.snd_nxt += length
            if self.snd_nxt > self._high_tx:
                self._high_tx = self.snd_nxt

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """Entry point from the host demux (SYN-ACKs and ACKs)."""
        if not packet.is_ack:
            return
        if packet.syn:
            self._on_syn_ack(packet)
            return
        if self.state is not _ESTABLISHED:
            return
        flight_before = self.snd_nxt - self.snd_una
        if self._calls_ack_hook:
            self.ack_hook(packet)
        ack = packet.ack
        una = self.snd_una
        if ack > una:
            # Segments are contiguous from seq 0, so walk them off in
            # order; the sweep only runs if retransmissions misaligned them.
            inflight = self._inflight
            seq = una
            while seq < ack:
                length = inflight.pop(seq, None)
                if length is None:
                    break
                seq += length
            if seq < ack and any(s < ack for s in inflight):
                for stale in [s for s in inflight if s < ack]:
                    del inflight[stale]
            newly_acked = ack - una
            self.stats.bytes_acked += newly_acked
            self.snd_una = ack
            if self.snd_nxt < ack:
                # An old in-flight segment was acked after a go-back-N rewind.
                self.snd_nxt = ack
            if packet.sent_at is not None and not packet.retransmitted:
                self.rto.sample(self.sim.now - packet.sent_at)
            self.dupacks = 0
            if self._calls_on_ack_accepted:
                self.on_ack_accepted(packet, newly_acked)
            if self.snd_nxt > self.snd_una:
                self._rto_timer.start(self.rto.current_rto_ns)
            else:
                self._rto_timer.stop()
            self.try_send()
            if self.fin_on_empty and self.snd_una >= self.flow_bytes:
                self._maybe_complete()
        elif ack == una and flight_before > 0:
            self.dupacks += 1
            self.on_duplicate_ack(packet)
            self.try_send()

    def _on_syn_ack(self, packet: Packet) -> None:
        if self.state is not _SYN_SENT:
            return  # duplicate SYN-ACK
        self.state = _ESTABLISHED
        self.stats.established_ns = self.sim.now
        self._rto_timer.stop()
        if packet.sent_at is not None and not packet.retransmitted:
            self.rto.sample(self.sim.now - packet.sent_at)
        self.on_established(packet)
        self.try_send()
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        if self.long_lived or self.state is _DONE:
            return
        all_acked = self.fin_on_empty and self.snd_una >= self.flow_bytes
        if all_acked and self.snd_nxt >= self.flow_bytes:
            if not self._fin_sent:
                fin = self._make_packet(fin=True, seq=self.snd_nxt)
                self.next_packet_hook(fin)
                self.host.send(fin)
                self._fin_sent = True
            self.state = _DONE
            self.stats.complete_ns = self.sim.now
            self._rto_timer.stop()
            self._inflight.clear()  # already empty; frees the table
            self.tracer.emit(FLOW_COMPLETE, sender=self)
            if self.on_complete is not None:
                self.on_complete(self)
            self._release()

    def _release(self) -> None:
        """Swap this sender for a :class:`FinishedFlow` in its host's ledger.

        The demux key stays bound (to :data:`FINISHED_SINK`), so late ACKs
        are still dropped silently instead of becoming orphan packets.
        Dropping the timer reference breaks the sender <-> timer cycle, so
        reference counting frees a sender nobody else holds.
        """
        self.host.retire_connection(self.ack_key, FINISHED_SINK, FinishedFlow(self))
        self._rto_timer = None

    # ------------------------------------------------------------------
    # Loss recovery (shared skeleton)
    # ------------------------------------------------------------------
    def retransmit_head(self) -> None:
        """Retransmit the first unacknowledged segment."""
        if self.snd_una >= self.snd_nxt:
            return
        length = self._inflight.get(self.snd_una, min(MSS, self.snd_nxt - self.snd_una))
        self._transmit(self.snd_una, length, retransmission=True)

    def _on_rto(self) -> None:
        if self.state is _DONE:
            return
        if self.state is _SYN_SENT:
            self.rto.backoff()
            self._send_syn()
            return
        if self.flight_size == 0:
            return
        self.stats.timeouts += 1
        self.tracer.emit(RETRANSMIT_TIMEOUT, sender=self)
        self.rto.backoff()
        self.on_timeout()
        # Go-back-N: rewind to the cumulative ACK point and resend from
        # there as the window reopens (middle holes would otherwise each
        # need their own backed-off RTO and the flow would stall).
        self.snd_nxt = self.snd_una
        self._inflight.clear()
        self.dupacks = 0
        self.try_send()
        self._rto_timer.start(self.rto.current_rto_ns)

    # ------------------------------------------------------------------
    # Protocol hooks (overridden by NewReno / DCTCP / TFC)
    # ------------------------------------------------------------------
    def syn_hook(self, packet: Packet) -> None:
        """Decorate the SYN (TFC marks it RM)."""

    def next_packet_hook(self, packet: Packet) -> None:
        """Decorate an outgoing data packet."""

    def ack_hook(self, packet: Packet) -> None:
        """Observe every ACK before cumulative processing (TFC windows)."""

    def on_established(self, packet: Packet) -> None:
        """Handshake completed."""

    def on_ack_accepted(self, packet: Packet, newly_acked: int) -> None:
        """Cumulative ACK advanced by ``newly_acked`` bytes."""

    def on_duplicate_ack(self, packet: Packet) -> None:
        """A duplicate ACK arrived (dupack counter already incremented)."""

    def on_timeout(self) -> None:
        """An RTO fired (head retransmission happens in the base class)."""

    def close(self) -> None:
        """Tear down demux state (tests and teardown paths)."""
        if self._rto_timer is not None:  # None once released
            self._rto_timer.stop()
        self.host.unregister_connection(self.ack_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.flow_key} state={self.state.value}"
            f" una={self.snd_una} nxt={self.snd_nxt} cwnd={self.cwnd:.0f}>"
        )


class Receiver:
    """Reassembly plus per-packet cumulative ACK generation."""

    __slots__ = (
        "host", "sim", "ack_key", "awnd_bytes", "rcv_nxt",
        "bytes_received", "reordered_segments", "_out_of_order",
        "fin_seen", "tenant",
    )

    #: Whether the class overrides :meth:`ack_decoration_hook` (fixed once
    #: per class, like the sender's hook flags).
    _calls_ack_decoration_hook = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._calls_ack_decoration_hook = (
            cls.ack_decoration_hook is not Receiver.ack_decoration_hook
        )

    def __init__(
        self,
        host: Host,
        flow_key: FlowKey,
        awnd_bytes: int = DEFAULT_AWND,
        ack_key: Optional[FlowKey] = None,
    ):
        self.host = host
        self.sim = host.sim
        #: Key every ACK carries: pass the sender's ``ack_key`` so the flow
        #: keeps one tuple per direction (built here when omitted).  The
        #: incoming ``flow_key`` is kept only by the host's demux table.
        if ack_key is None:
            src, dst, sport, dport = flow_key
            ack_key = (dst, src, dport, sport)
        self.ack_key = ack_key
        self.awnd_bytes = awnd_bytes
        self.rcv_nxt = 0
        self.bytes_received = 0
        #: Segments that arrived ahead of ``rcv_nxt`` (reordering gauge;
        #: the spray routing policy drives this hard on purpose).
        self.reordered_segments = 0
        #: Sorted ``(seq, end)`` ranges held past a gap: a list only while
        #: something is held, else the shared empty tuple.
        self._out_of_order: Sequence[Tuple[int, int]] = ()
        self.fin_seen = False
        #: Tenant tag mirroring the sender's (see :class:`Sender`).
        self.tenant: Optional[str] = None
        host.register_connection(flow_key, self)

    @property
    def flow_key(self) -> FlowKey:
        """Key of the incoming data direction (``ack_key`` reversed)."""
        src, dst, sport, dport = self.ack_key
        return (dst, src, dport, sport)

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """Entry point from host demux (SYN, data, FIN)."""
        if packet.syn and not packet.is_ack:
            self._send_ack(packet, syn=True)
            return
        if packet.fin:
            self.fin_seen = True
            self._send_ack(packet)
            return
        payload = packet.payload
        if payload > 0 or packet.rm:
            seq, end, rcv_nxt = packet.seq, packet.seq + payload, self.rcv_nxt
            if end > rcv_nxt:  # else a pure duplicate
                if seq <= rcv_nxt:
                    self.bytes_received += end - rcv_nxt
                    self.rcv_nxt = end
                    if self._out_of_order:
                        self._drain_out_of_order()
                else:
                    self._store_out_of_order(seq, end)
            self._send_ack(packet)

    def _store_out_of_order(self, seq: int, end: int) -> None:
        self.reordered_segments += 1
        merged = []
        for lo, hi in self._out_of_order:
            if end < lo or seq > hi:
                merged.append((lo, hi))
            else:
                seq, end = min(seq, lo), max(end, hi)
        merged.append((seq, end))
        merged.sort()
        self._out_of_order = merged

    def _drain_out_of_order(self) -> None:
        held = self._out_of_order
        while held and held[0][0] <= self.rcv_nxt:
            lo, hi = held.pop(0)
            if hi > self.rcv_nxt:
                self.bytes_received += hi - self.rcv_nxt
                self.rcv_nxt = hi
        if not held:
            self._out_of_order = ()

    # ------------------------------------------------------------------
    def _send_ack(self, data_packet: Packet, syn: bool = False) -> None:
        # Positional (key, dst, sport, dport, seq, ack, payload, syn, fin,
        # is_ack), as in Sender._transmit.
        ack = Packet(self.ack_key, None, 0, 0, 0, self.rcv_nxt, 0, syn, False, True)
        # Echo the timestamp for RTT sampling (Karn: skip retransmissions);
        # a new packet starts with sent_at None and retransmitted False.
        if data_packet.retransmitted:
            ack.retransmitted = True
        else:
            ack.sent_at = data_packet.sent_at
        if self._calls_ack_decoration_hook:
            self.ack_decoration_hook(ack, data_packet)
        self.host.send(ack)

    def ack_decoration_hook(self, ack: Packet, data_packet: Packet) -> None:
        """Protocol hook: ECN echo (DCTCP) or RMA/window copy (TFC)."""

    def close(self) -> None:
        """Tear down demux state."""
        self.host.unregister_connection(self.flow_key)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.flow_key} rcv_nxt={self.rcv_nxt}>"
