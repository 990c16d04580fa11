"""DCTCP (SIGCOMM 2010) — the paper's stronger baseline.

DCTCP = NewReno plus ECN-proportional backoff:

* data packets are sent ECN-capable; switches running :class:`~repro.net.
  queues.EcnQueue` CE-mark them past the threshold ``K``;
* the receiver echoes the CE bit on every ACK (per-packet ACKs make the
  delayed-ACK echo state machine unnecessary);
* once per window the sender updates ``alpha = (1-g) alpha + g F`` with
  ``F`` the fraction of CE-echoed bytes, and on any mark in the window cuts
  ``cwnd *= (1 - alpha/2)`` — once per window, like a real DCTCP sender.

Paper parameters: K = 32 KB (1 Gbps testbed), g = 1/16.
"""

from __future__ import annotations

from ..net.packet import MSS, Packet
from .base import Receiver
from .newreno import NewRenoSender

DEFAULT_G = 1.0 / 16.0


class DctcpSender(NewRenoSender):
    """NewReno with ECN-fraction proportional window reduction."""

    protocol_name = "dctcp"

    __slots__ = (
        "g", "alpha", "_window_end", "_acked_bytes", "_marked_bytes",
        "_cut_this_window",
    )

    def __init__(self, *args, g: float = DEFAULT_G, **kwargs):
        super().__init__(*args, **kwargs)
        self.g = g
        self.alpha = 1.0
        self._window_end = 0        # seq after which the observation window rolls
        self._acked_bytes = 0
        self._marked_bytes = 0
        self._cut_this_window = False

    def next_packet_hook(self, packet: Packet) -> None:
        super().next_packet_hook(packet)
        packet.ecn_capable = True

    def on_ack_accepted(self, packet: Packet, newly_acked: int) -> None:
        # Roll the observation window *before* reacting to this ACK's mark,
        # otherwise a cut triggered by the window's first ACK would be
        # forgotten by the roll and the next mark would cut a second time.
        if packet.ack >= self._window_end:
            self._roll_observation_window()
        self._acked_bytes += newly_acked
        if packet.ecn_echo:
            self._marked_bytes += newly_acked
            if not self._cut_this_window and not self.in_recovery:
                # React immediately on the first mark of the window, using
                # the alpha from the previous observation window.
                self._cut_this_window = True
                self.ssthresh = max(
                    self.cwnd * (1 - self.alpha / 2.0), 2.0 * MSS
                )
                self.cwnd = self.ssthresh
        super().on_ack_accepted(packet, newly_acked)

    def _roll_observation_window(self) -> None:
        if self._acked_bytes > 0:
            fraction = self._marked_bytes / self._acked_bytes
            self.alpha = (1 - self.g) * self.alpha + self.g * fraction
        self._acked_bytes = 0
        self._marked_bytes = 0
        self._cut_this_window = False
        self._window_end = self.snd_nxt


class DctcpReceiver(Receiver):
    """Echoes the CE mark of each data packet on its ACK."""

    __slots__ = ()

    def ack_decoration_hook(self, ack: Packet, data_packet: Packet) -> None:
        ack.ecn_echo = data_packet.ecn_ce
