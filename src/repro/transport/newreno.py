"""TCP NewReno congestion control (RFC 6582) — the paper's "TCP" baseline.

Slow start, congestion avoidance, fast retransmit / fast recovery with
NewReno partial-ACK handling, and RTO-triggered slow start.  All window
arithmetic is in float bytes; segments are MSS-sized.
"""

from __future__ import annotations

from ..net.packet import MSS, Packet
from ..sim.trace import FAST_RETRANSMIT
from .base import Receiver, Sender

INITIAL_CWND_SEGMENTS = 2
DUPACK_THRESHOLD = 3


class NewRenoSender(Sender):
    """Loss-based AIMD sender."""

    protocol_name = "tcp"

    __slots__ = ("ssthresh", "in_recovery", "_recovery_high")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cwnd = float(INITIAL_CWND_SEGMENTS * MSS)
        self.ssthresh = float(1 << 30)
        self.in_recovery = False
        self._recovery_high = 0

    # ------------------------------------------------------------------
    # Congestion control hooks
    # ------------------------------------------------------------------
    def on_ack_accepted(self, packet: Packet, newly_acked: int) -> None:
        if self.in_recovery:
            if packet.ack >= self._recovery_high:
                # Full ACK: leave recovery, deflate to ssthresh.
                self.in_recovery = False
                self.cwnd = self.ssthresh
            else:
                # Partial ACK: retransmit the next hole, deflate partially.
                self.retransmit_head()
                self.cwnd = max(self.cwnd - newly_acked + MSS, float(MSS))
            return
        if self.cwnd < self.ssthresh:
            self.cwnd += MSS if MSS < newly_acked else newly_acked  # slow start
        else:
            self.cwnd += MSS * MSS / self.cwnd  # congestion avoidance

    def on_duplicate_ack(self, packet: Packet) -> None:
        if self.in_recovery:
            self.cwnd += MSS  # inflate per extra dupack
            return
        if self.dupacks >= DUPACK_THRESHOLD:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self.stats.fast_retransmits += 1
        self.tracer.emit(FAST_RETRANSMIT, sender=self)
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * MSS)
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD * MSS
        self.in_recovery = True
        self._recovery_high = self.snd_nxt
        self.retransmit_head()

    def on_timeout(self) -> None:
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * MSS)
        self.cwnd = float(MSS)
        self.in_recovery = False
        self.dupacks = 0


class NewRenoReceiver(Receiver):
    """Plain cumulative-ACK receiver (no decoration needed)."""

    __slots__ = ()
