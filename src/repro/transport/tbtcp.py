"""Tiny Buffer TCP — NewReno tuned for switches with tens-of-KB buffers.

The tiny-buffer line of work (Enachescu et al., "Routers with very small
buffers"; the Tiny Buffer TCP baseline in the TFC related work) shows
that core buffers can shrink from a full bandwidth-delay product to a few
dozen packets *if* senders stop dumping whole windows back to back:
paced, sub-exponential window growth keeps the instantaneous queue near
the mean instead of the burst peak.

Two halves, matching that argument:

* **Fabric half** (:func:`make_tbtcp_queue`, wired through the protocol's
  ``queue_factory`` hook): switch ports get drop-tail queues capped at
  ``TbtcpParams.buffer_cap_bytes`` (default 48 KB ≈ 32 MSS segments)
  regardless of the physical buffer the topology was built with — the
  premise of the experiment is that the buffer *is* tiny.
* **Endpoint half** (:class:`TbtcpSender`): NewReno with paced growth —
  slow start gains ``pace_gain`` (< 1) of the bytes acked per RTT instead
  of doubling, and the congestion window is capped at ``cwnd_cap_bytes``
  so a single flow can never queue more than a few dozen segments at the
  bottleneck.

Both knobs live in :class:`TbtcpParams`; the registry's typed params slot
carries one instance to the queue factory, and the sender reads the same
defaults (per-flow overrides are constructor keywords, used by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.packet import MSS, MTU
from ..net.queues import DropTailQueue
from .base import Packet
from .newreno import NewRenoReceiver, NewRenoSender


@dataclass(frozen=True)
class TbtcpParams:
    """Tiny-buffer fabric and pacing constants."""

    buffer_cap_bytes: int = 48_000
    """Switch-port buffer cap (the 'tiny' in Tiny Buffer TCP); the
    physical ``buffer_bytes`` still applies when it is smaller."""

    cwnd_cap_bytes: int = 64 * MSS
    """Upper bound on any flow's congestion window."""

    pace_gain: float = 0.5
    """Fraction of newly acked bytes added to cwnd in slow start (1.0
    would be standard doubling; 0.5 grows 1.5x per RTT)."""

    def __post_init__(self) -> None:
        if self.buffer_cap_bytes < 2 * MTU:
            raise ValueError(
                f"buffer cap must hold at least two MTUs ({2 * MTU} B), "
                f"got {self.buffer_cap_bytes}"
            )
        if self.cwnd_cap_bytes < 2 * MSS:
            raise ValueError(
                f"cwnd cap must be at least two segments, got {self.cwnd_cap_bytes}"
            )
        if not 0.0 < self.pace_gain <= 1.0:
            raise ValueError(
                f"pace gain must be in (0, 1], got {self.pace_gain}"
            )


DEFAULT_TBTCP_PARAMS = TbtcpParams()


def make_tbtcp_queue(
    params: TbtcpParams, buffer_bytes: int, rate_bps: int
) -> DropTailQueue:
    """Switch queue for a tiny-buffer fabric: drop-tail, capped capacity."""
    return DropTailQueue(min(buffer_bytes, params.buffer_cap_bytes))


class TbtcpSender(NewRenoSender):
    """NewReno with paced slow start and a hard congestion-window cap."""

    protocol_name = "tbtcp"

    __slots__ = ("params",)

    def __init__(self, *args, params: TbtcpParams = DEFAULT_TBTCP_PARAMS, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = params
        # The cap substitutes for the usual "infinite" initial ssthresh:
        # growth above it is pointless when the window can never get there.
        self.ssthresh = min(self.ssthresh, float(params.cwnd_cap_bytes))

    def on_ack_accepted(self, packet: Packet, newly_acked: int) -> None:
        if not self.in_recovery and self.cwnd < self.ssthresh:
            # Paced slow start: gain a fraction of the acked bytes per
            # RTT, bounding the burst a new flow injects into the tiny
            # buffer (the base class would add the full acked amount).
            self.cwnd += self.params.pace_gain * min(newly_acked, MSS)
            self.cwnd = min(self.cwnd, float(self.params.cwnd_cap_bytes))
            return
        super().on_ack_accepted(packet, newly_acked)
        self.cwnd = min(self.cwnd, float(self.params.cwnd_cap_bytes))

    def on_duplicate_ack(self, packet: Packet) -> None:
        super().on_duplicate_ack(packet)
        self.cwnd = min(self.cwnd, float(self.params.cwnd_cap_bytes))


class TbtcpReceiver(NewRenoReceiver):
    """Plain cumulative-ACK receiver (pacing is sender-side only)."""

    __slots__ = ()
