"""FairQ endpoints — ECN-proportional senders under switch fair-shares.

The switch half of FairQ lives in :mod:`repro.net.fairq`: per-egress
agents measure per-flow rates each control interval and CE-mark only the
bytes a flow sends *beyond* its computed fair share.  The endpoint half
is deliberately thin — the protocol's design point is that fairness
comes from the switch, not from endpoint cleverness — so the sender is
the DCTCP machinery unchanged (ECN-capable data, alpha-proportional
cuts) and the receiver is the standard CE echo.  A flow above its share
sees marks on exactly its overshoot fraction, so DCTCP's
``cwnd *= (1 - alpha/2)`` backs it off in proportion; a compliant flow
sees no marks at all and keeps growing, which is what drives the
per-flow rates together.
"""

from __future__ import annotations

from .dctcp import DctcpReceiver, DctcpSender


class FairqSender(DctcpSender):
    """DCTCP sender driven by the switch's fair-share marks."""

    protocol_name = "fairq"

    __slots__ = ()


class FairqReceiver(DctcpReceiver):
    """Standard CE-echo receiver."""

    __slots__ = ()
