"""T-RACKs — receiver-driven tail-loss recovery bolted onto NewReno.

T-RACKs (Abdelmoniem & Bensaou, "Reducing latency in multi-tenant data
centers via cautious congestion watch") observes that short data-center
flows mostly die on *tail* losses: the last segments of a burst are
dropped, no further data arrives to generate duplicate ACKs, and the
sender sits out a full RTO (10 ms here — an eternity against ~100 us
RTTs).  The fix needs no sender changes: the *receiver* arms a short
timer whenever data arrives and, if the flow goes quiet with no FIN, it
retransmits a small train of duplicate ACKs for the byte it is missing.
The sender's ordinary fast-retransmit machinery (three dupacks → resend
``snd_una``) then recovers the tail in about one RTT.

The timer fires harmlessly on genuinely idle flows: the base sender only
counts duplicate ACKs while it has unacknowledged bytes in flight, so an
injected dupack train at ``flight == 0`` is a no-op.  Injected ACKs
carry ``sent_at=None``/``retransmitted=True`` so they never feed the
sender's RTT estimator (Karn's rule path).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.packet import Packet
from ..sim.timers import Timer
from ..sim.units import MILLISECOND
from .base import Host
from .newreno import DUPACK_THRESHOLD, NewRenoReceiver, NewRenoSender


@dataclass(frozen=True)
class TracksParams:
    """Receiver-side tail-loss probe constants."""

    tail_timer_ns: int = MILLISECOND
    """Quiet time after the last data arrival before the receiver probes;
    must sit well under the sender's min RTO (10 ms) to matter."""

    dupacks: int = DUPACK_THRESHOLD
    """Duplicate ACKs per probe — the sender's fast-retransmit threshold."""

    def __post_init__(self) -> None:
        if self.tail_timer_ns <= 0:
            raise ValueError(
                f"tail timer must be positive, got {self.tail_timer_ns}"
            )
        if self.dupacks < 1:
            raise ValueError(f"need at least one dupack, got {self.dupacks}")


DEFAULT_TRACKS_PARAMS = TracksParams()


class TracksSender(NewRenoSender):
    """Unmodified NewReno — T-RACKs is deliberately sender-transparent."""

    protocol_name = "tracks"

    __slots__ = ()


class TracksReceiver(NewRenoReceiver):
    """NewReno receiver with the T-RACKs tail-loss ACK timer."""

    __slots__ = ("params", "tail_probes", "_tail_timer")

    def __init__(
        self,
        host: Host,
        flow_key,
        params: TracksParams = DEFAULT_TRACKS_PARAMS,
        **kwargs,
    ):
        super().__init__(host, flow_key, **kwargs)
        self.params = params
        self.tail_probes = 0
        self._tail_timer = Timer(self.sim, self._on_tail_timer, name="tracks-tail")

    def on_packet(self, packet: Packet) -> None:
        super().on_packet(packet)
        if self.fin_seen:
            self._tail_timer.stop()
        elif packet.payload > 0 or (packet.syn and not packet.is_ack):
            # Any forward-direction activity re-arms the quiet timer.
            self._tail_timer.start(self.params.tail_timer_ns)

    def _on_tail_timer(self) -> None:
        if self.fin_seen:
            return
        # The flow went quiet mid-transfer: either the tail of a burst was
        # dropped (sender has bytes in flight and will fast-retransmit on
        # our dupack train) or the application paused (sender's dupack
        # counter ignores ACKs at flight == 0, so the probe is inert).
        self.tail_probes += 1
        for _ in range(self.params.dupacks):
            self._send_dupack()
        self._tail_timer.start(self.params.tail_timer_ns)

    def _send_dupack(self) -> None:
        ack = Packet(self.ack_key, ack=self.rcv_nxt, is_ack=True)
        # Never an RTT sample: there is no fresh data packet to echo.
        ack.sent_at = None
        ack.retransmitted = True
        self.host.send(ack)

    def close(self) -> None:
        self._tail_timer.stop()
        super().close()
