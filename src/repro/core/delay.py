"""The sub-MSS ACK delay function (paper section 4.6, "Delay Arbiter").

When thousands of flows share a port, ``W = T/E`` drops below one MSS and a
sender that received such a window could still only inject whole packets —
the classic incast overload.  TFC fixes this *at the switch*: a per-port
token-bucket counter accrues credit at the line rate (here ``rho0`` times
the line rate, DESIGN.md section 5a-9); an RMA ACK carrying a window smaller
than one MSS is only released (with its window rounded up to exactly one
MSS) when a full MSS of credit is available, otherwise it waits in a FIFO
delay queue.  ACKs carrying a window of at least one MSS pass
through immediately but still debit the counter, so the *total* window
granted per slot never exceeds the token value.

The paper does not bound the counter's debt; we floor it at ``-cap`` so a
transient of large windows cannot lock the port out forever (DESIGN.md
section 5).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..net.packet import ETHERNET_OVERHEAD, HEADER_BYTES, MSS, Packet
from ..sim.engine import Event, Simulator
from ..sim.trace import TFC_ACK_DELAYED, Tracer
from ..sim.units import SECOND

PER_PACKET_OVERHEAD = HEADER_BYTES + ETHERNET_OVERHEAD
_BIT_NS = 8 * SECOND  # credit bytes = rate_bps x elapsed ns / _BIT_NS


class DelayArbiter:
    """Per-port credit counter plus the FIFO queue of parked RMA ACKs."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: int,
        release: Callable[[Packet], None],
        tracer: Optional[Tracer] = None,
        queue_limit: int = 65536,
        mss: int = MSS,
        fill_fraction: float = 1.0,
        per_packet_overhead: int = PER_PACKET_OVERHEAD,
    ):
        self._sim = sim
        # Credit accrues at fill_fraction x line rate (TFC's utilisation
        # target rho0): in the sub-MSS regime the rho feedback loop cannot
        # act (grants are pinned to one MSS), so the bucket itself must
        # leave the head-room that keeps queues near zero.
        self.rate_bps = max(round(rate_bps * fill_fraction), 1)
        self._release = release
        self._tracer = tracer
        self.queue_limit = queue_limit
        self.mss = mss
        self.per_packet_overhead = per_packet_overhead
        # A sub-MSS grant is released as one MSS and paid as one frame.
        self._mss_window = float(mss)
        self._mss_wire = float(mss) + per_packet_overhead
        self.credit: float = float(mss)  # one packet of head-room at boot
        self.cap: float = float(2 * mss)
        self._last_update_ns = sim.now
        # Parked ACKs, each beside its uncapped wire cost (its window does
        # not change while parked; the cap does, so it is applied per use).
        self._queue: Deque[Tuple[Packet, float]] = deque()
        self._pending: Optional[Event] = None
        self.delayed_acks = 0
        self.dropped_acks = 0

    # ------------------------------------------------------------------
    def reset(self, cap_bytes: Optional[float] = None) -> None:
        """Forget all state, as after a switch reboot (fault injection).

        Parked ACKs are lost with the rest of the port state — their
        senders recover through probe retries or RTO, which is exactly the
        recovery path a chaos run wants to exercise.  Credit restarts at
        the boot value of one MSS.
        """
        self.dropped_acks += len(self._queue)
        self._queue.clear()
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self.credit = float(self.mss)
        self._last_update_ns = self._sim.now
        if cap_bytes is not None:
            self.set_cap(cap_bytes)

    def set_cap(self, cap_bytes: float) -> None:
        """Track the port's current token value (cap >= 2 MSS always)."""
        self.cap = max(cap_bytes, 2.0 * self.mss)

    # ------------------------------------------------------------------
    def offer(self, ack: Packet) -> bool:
        """Process an arriving RMA ACK.

        Returns True when the arbiter kept the packet (it will be released
        later through the ``release`` callback); False when the caller
        should forward it normally (its window may have been rewritten).

        Every grant is gated on the credit counter, not only sub-MSS ones:
        the paper's stated invariant is that the windows granted per slot
        never exceed the token value, and letting large-window ACKs bypass
        the bucket would break it exactly when it matters (a flash crowd of
        acquisition probes returning stale windows).  Sub-MSS windows are
        rounded up to one MSS at release, as in the paper.

        Grants are charged in wire bytes, not payload bytes: a grant of w
        payload bytes puts ceil(w / MSS) frames of header+framing overhead
        on the link as well, and ignoring that makes the paced inflow
        exceed the line rate by the overhead ratio (the queue then
        integrates up).  The charge is clamped to the bucket capacity,
        min(wire, cap), so a grant larger than the cap can always
        eventually be paid for (it would deadlock otherwise); the debt it
        leaves is floored at -cap.
        """
        cap = self.cap
        credit = self.credit
        now = self._sim.now
        elapsed = now - self._last_update_ns
        if elapsed > 0:  # accrue since the last update, up to the cap
            credit += self.rate_bps * elapsed / _BIT_NS
            if credit > cap:
                credit = cap
            self._last_update_ns = now
        window = ack.window
        if window >= self.mss:
            # Paper rule: an ACK already carrying at least one MSS passes
            # immediately and debits the counter (possibly into debt, down
            # to -cap).  The debt then delays the sub-MSS grants behind it,
            # which is exactly the compensation the token-bucket analogy
            # intends; adding latency to large grants themselves would
            # throttle the link below the token allocation (rho0 would be
            # applied twice).  A sender fills whole bytes: int(window).
            wire = window + -(-int(window) // self.mss) * self.per_packet_overhead
            credit -= wire if wire < cap else cap
            self.credit = credit if credit > -cap else -cap
            return False
        wire = self._mss_wire
        cost = wire if wire < cap else cap
        if not self._queue and credit >= cost - self._EPSILON:
            ack.window = self._mss_window
            credit -= cost
            self.credit = credit if credit > -cap else -cap
            return False
        self.credit = credit
        dropped = len(self._queue) >= self.queue_limit
        if dropped:  # consumed; the sender's RTO will recover
            self.dropped_acks += 1
        else:
            self._queue.append((ack, wire))
            self.delayed_acks += 1
        tracer = self._tracer
        if tracer is not None:
            if tracer.active(TFC_ACK_DELAYED):
                tracer.emit(TFC_ACK_DELAYED, packet=ack, dropped=dropped)
            else:
                tracer.bump(TFC_ACK_DELAYED)
        if self._pending is None:
            self._schedule_release()
        return True

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Number of ACKs currently parked."""
        return len(self._queue)

    # Float headroom for credit comparisons: without it a deficit of a few
    # ULPs truncates to a zero-delay reschedule and the release loop spins
    # at one simulated instant forever.
    _EPSILON = 1e-6

    def _schedule_release(self) -> None:
        if self._pending is not None or not self._queue:
            return
        deficit = min(self._queue[0][1], self.cap) - self.credit
        if deficit <= self._EPSILON:
            delay_ns = 0
        else:
            delay_ns = max(
                -(-int(deficit * 8 * SECOND) // self.rate_bps), 1
            )
        self._pending = self._sim.schedule(delay_ns, self._release_head)

    def _release_head(self) -> None:
        self._pending = None
        cap = self.cap
        credit = self.credit
        now = self._sim.now
        elapsed = now - self._last_update_ns
        if elapsed > 0:
            credit += self.rate_bps * elapsed / _BIT_NS
            if credit > cap:
                credit = cap
            self.credit = credit
            self._last_update_ns = now
        queue = self._queue
        if not queue:
            return
        ack, wire = queue[0]
        cost = wire if wire < cap else cap
        if credit < cost - self._EPSILON:
            self._schedule_release()
            return
        queue.popleft()
        ack.window = self._mss_window
        credit -= cost
        self.credit = credit if credit > -cap else -cap
        self._release(ack)
        if queue:
            self._schedule_release()
