"""TFC sender endpoint (paper section 5.1).

The sender does *no* congestion probing: its window is whatever the last
RMA-marked ACK carried (the minimum allocation along the path).  Its three
responsibilities are:

1. **Round marking** — the SYN carries the RM bit (so switches count the
   new flow towards ``E`` immediately, Fig. 2); after every received RMA
   the next outgoing data packet carries RM — exactly one mark per round.
2. **Window acquisition** (section 4.6) — after the handshake it sends an
   RM-marked zero-payload probe and waits for the allocation instead of
   blasting data with a guessed window; this is what protects highly
   concurrent new flows from overrunning buffers.
3. **Window field initialisation** — every outgoing data packet's window
   field starts at the 0xffff sentinel so switches can only lower it.

Loss is rare by design, so recovery is minimal: classic triple-dupack fast
retransmit and RTO retransmission, neither of which touches the window
(the switch owns the window).
"""

from __future__ import annotations

from ..net.packet import MSS, Packet, WINDOW_SENTINEL
from ..sim.timers import Timer
from ..sim.trace import FAST_RETRANSMIT
from ..transport.base import FlowState, Receiver, Sender

DUPACK_THRESHOLD = 3


class TfcSender(Sender):
    """Explicit-window sender driven entirely by switch allocations."""

    protocol_name = "tfc"

    #: Idle time after which the held window is considered stale and the
    #: sender re-enters window acquisition before transmitting again (the
    #: TFC analogue of Linux's congestion-window restart after idle).  The
    #: allocation W = T/E is only valid for the slot that computed it; an
    #: on-off flow resuming with a held window from many slots ago would
    #: burst unpaced — with hundreds of synchronised senders (incast round
    #: boundaries) those bursts are exactly what overruns buffers.
    idle_reacquire_ns = 500_000  # 0.5 ms, several datacenter RTTs

    #: A flow resuming after *any* gap with a held window above this limit
    #: re-acquires even if the gap was shorter than idle_reacquire_ns.  At
    #: a round tail the effective-flow count collapses and the last
    #: stragglers are legitimately granted near-full-pipe windows; carrying
    #: such a window into the next synchronised round would burst it all.
    resume_burst_limit = 4 * MSS

    __slots__ = (
        "weight", "window_acquired", "_mark_next", "_probe_timer",
        "window_updates", "reacquisitions", "_last_activity_ns",
    )

    def __init__(self, *args, weight: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self.weight = int(weight)
        self.cwnd = 0.0  # nothing may be sent before the first allocation
        self.window_acquired = False
        self._mark_next = False
        self._probe_timer = Timer(self.sim, self._resend_probe, name="tfc-probe")
        self.window_updates = 0
        self.reacquisitions = 0
        self._last_activity_ns = 0

    # ------------------------------------------------------------------
    # Round marking
    # ------------------------------------------------------------------
    def syn_hook(self, packet: Packet) -> None:
        packet.rm = True  # marked SYN counts towards E at every switch
        packet.weight = self.weight

    def next_packet_hook(self, packet: Packet) -> None:
        packet.window = WINDOW_SENTINEL
        packet.weight = self.weight
        self._last_activity_ns = self.sim.now
        if self._mark_next and not packet.fin:
            packet.rm = True
            self._mark_next = False

    def queue_bytes(self, nbytes: int) -> None:
        idle_ns = self.sim.now - self._last_activity_ns
        if (
            self.window_acquired
            and self.flight_size == 0
            and self.state is FlowState.ESTABLISHED
            and (
                idle_ns > self.idle_reacquire_ns
                or self.cwnd > self.resume_burst_limit
            )
        ):
            # Resuming after idle: the held window is stale.  Drop back to
            # the acquisition phase so the fresh grant flows through the
            # switch delay function, which paces the simultaneous resumes
            # of an incast round instead of letting them burst.
            self.window_acquired = False
            self.cwnd = 0.0
            self.reacquisitions += 1
            self._send_probe()
        super().queue_bytes(nbytes)

    # ------------------------------------------------------------------
    # Window acquisition phase
    # ------------------------------------------------------------------
    def on_established(self, packet: Packet) -> None:
        self._send_probe()

    def _send_probe(self) -> None:
        probe = self._make_packet(seq=self.snd_nxt, payload=0, rm=True)
        probe.window = WINDOW_SENTINEL
        probe.weight = self.weight
        self._last_activity_ns = self.sim.now
        self.host.send(probe)
        self._probe_timer.start(2 * self.rto.current_rto_ns)

    def _resend_probe(self) -> None:
        if not self.window_acquired and self.state is FlowState.ESTABLISHED:
            self._send_probe()

    # ------------------------------------------------------------------
    # Window updates from RMA ACKs
    # ------------------------------------------------------------------
    def ack_hook(self, packet: Packet) -> None:
        if not packet.rma:
            return
        self.cwnd = float(packet.window)
        self.window_updates += 1
        self._mark_next = True
        if not self.window_acquired:
            self.window_acquired = True
            self._probe_timer.stop()
            self.try_send()

    # ------------------------------------------------------------------
    # Minimal loss recovery (no window changes — the switch owns W)
    # ------------------------------------------------------------------
    def on_duplicate_ack(self, packet: Packet) -> None:
        if self.dupacks == DUPACK_THRESHOLD:
            self.stats.fast_retransmits += 1
            self.tracer.emit(FAST_RETRANSMIT, sender=self)
            self.retransmit_head()

    def on_timeout(self) -> None:
        # The base class retransmits the head; when the window was never
        # acquired (probe or its RMA lost) re-enter acquisition instead.
        if not self.window_acquired:
            self._send_probe()

    def _release(self) -> None:
        self._probe_timer.stop()
        self._probe_timer = None  # the second sender <-> timer cycle
        super()._release()

    def close(self) -> None:
        if self._probe_timer is not None:  # None once released
            self._probe_timer.stop()
        super().close()


class TfcReceiver(Receiver):
    """Copies allocations from RM data packets onto RMA ACKs.

    The SYN is RM-marked purely for flow counting; its SYN-ACK must *not*
    grant a window (new flows take their window from the acquisition probe,
    section 4.6), so only non-SYN RM packets produce RMA ACKs.
    """

    __slots__ = ()

    def ack_decoration_hook(self, ack: Packet, data_packet: Packet) -> None:
        if data_packet.rm and not data_packet.syn:
            ack.rma = True
            ack.window = min(float(self.awnd_bytes), data_packet.window)
