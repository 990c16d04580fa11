"""BFC endpoints — plain NewReno over a per-flow backpressured fabric.

The entire BFC mechanism lives in the fabric (:mod:`repro.net.bfc`):
per-flow queues, per-hop pause, NIC-level flow pausing.  The endpoints
are deliberately the unmodified loss-based transport, exactly like the
PFC baseline — the comparison the pathology experiments draw is *fabric
vs fabric* (per-port pause head-of-line blocks victims; per-flow pause
does not), and endpoint differences would contaminate it.  With pause
thresholds doing their job the flow rarely sees a drop, so cwnd grows
until the NIC's per-flow queue absorbs the excess.
"""

from __future__ import annotations

from .newreno import NewRenoReceiver, NewRenoSender


class BfcSender(NewRenoSender):
    """NewReno sender; backpressure is applied by the fabric per flow."""

    protocol_name = "bfc"

    __slots__ = ()


class BfcReceiver(NewRenoReceiver):
    """Plain cumulative-ACK receiver."""

    __slots__ = ()
