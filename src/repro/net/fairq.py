"""FairQ — switch-computed per-flow fair shares fed back through ECN.

FairQ (Abdelmoniem & Bensaou) moves fairness enforcement from end-host
AIMD dynamics into the switch: each egress port measures per-flow
arrival rates over a short interval, computes the equal share of the
port's capacity among the flows it actually saw, and pushes flows above
their share back down.  The published design writes an explicit rate
into feedback packets; this reproduction keeps the feedback channel the
repo already has — ECN — and marks precisely the *bytes a flow sends
beyond its fair share*, so the DCTCP-style sender backs off in
proportion to its overshoot while compliant flows never see a mark.
Selective marking is the whole difference from a plain
:class:`~repro.net.queues.EcnQueue`, which marks by queue depth and hits
every flow that happens to arrive behind the backlog.

Mechanics (deliberately event-free so determinism is structural):

* :class:`FairqPortAgent` hangs off a switch egress port's ``agent``
  slot, exactly like the TFC agent.  Every transiting packet lazily
  rolls the measurement slot forward — no timers, so an idle port costs
  nothing and bit-identical schedules need no event-ordering care.
* At each slot boundary the agent publishes ``fair_share_bytes =
  capacity(slot) x target_utilization / n_active`` where ``n_active`` is
  the number of flows that sent payload in the *finished* slot (the
  measure-then-apply split mirrors the paper's control interval).
* Within a slot, a flow's payload bytes beyond the published share get
  CE-marked (if ECN-capable); the per-flow counters reset each slot.

The port queue behind the agent is still an ECN queue
(:func:`make_fairq_queue`) with a *generous* threshold: it is the
safety net that keeps the buffer bounded while the first slot
measures, not the primary fairness signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..sim.units import MICROSECOND
from .packet import FlowKey, Packet
from .port import install_agent
from .queues import EcnQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .node import Switch
    from .port import Port


@dataclass(frozen=True)
class FairqParams:
    """Control-interval and marking constants for the FairQ agent."""

    slot_us: float = 100.0
    """Measurement/enforcement interval.  Roughly one RTT of the paper's
    testbed topologies — long enough to see every active flow, short
    enough to track incast arrival waves."""

    target_utilization: float = 0.95
    """Fraction of port capacity divided among active flows; the
    headroom keeps the standing queue near zero, like TFC's rho0."""

    ecn_threshold_bytes: int = 96_000
    """Depth threshold of the backstop ECN queue.  Three times DCTCP's
    K: it should only fire while the first slot is still measuring or
    under flash crowds faster than the control interval."""

    def __post_init__(self) -> None:
        if self.slot_us <= 0:
            raise ValueError(f"slot must be positive, got {self.slot_us}")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError(
                "target utilization must be in (0, 1], "
                f"got {self.target_utilization}"
            )
        if self.ecn_threshold_bytes <= 0:
            raise ValueError(
                f"ecn threshold must be positive, got {self.ecn_threshold_bytes}"
            )


DEFAULT_FAIRQ_PARAMS = FairqParams()


def make_fairq_queue(
    params: FairqParams, buffer_bytes: int, rate_bps: int
) -> EcnQueue:
    """The backstop ECN queue behind a FairQ agent."""
    return EcnQueue(buffer_bytes, min(params.ecn_threshold_bytes, buffer_bytes))


class FairqPortAgent:
    """Per-egress-port fair-share measurement and selective CE marking."""

    # Hooks Switch enters: transit for all; FairQ sends nothing upstream.
    transit_hook = True
    reverse_hook = None

    def __init__(
        self,
        switch: "Switch",
        port: "Port",
        params: FairqParams = DEFAULT_FAIRQ_PARAMS,
    ):
        self.switch = switch
        self.port = port
        self.params = params
        self.sim = switch.sim
        self.slot_ns = max(int(params.slot_us * MICROSECOND), 1)
        #: Payload capacity of one slot, derated to the target utilisation.
        self.slot_budget_bytes = (
            port.rate_bps * self.slot_ns / 8e9 * params.target_utilization
        )
        self.slot_start_ns = 0
        self.slot_index = 0
        #: Fair share published from the last finished slot; packets in
        #: the current slot are judged against it.  Starts at the whole
        #: budget (one flow's worth): nothing is marked until flows have
        #: actually been counted.
        self.fair_share_bytes: float = self.slot_budget_bytes
        self._slot_bytes: Dict[FlowKey, int] = {}
        self.marked_packets = 0

    # ------------------------------------------------------------------
    # Fault hook: state reset (switch reboot)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all measured flows, as if the agent rebooted."""
        self.slot_start_ns = self.sim.now
        self.slot_index = 0
        self.fair_share_bytes = self.slot_budget_bytes
        self._slot_bytes.clear()

    # ------------------------------------------------------------------
    # Forward (data) direction
    # ------------------------------------------------------------------
    def on_transit(self, packet: Packet) -> None:
        """Measure the packet's flow; CE-mark bytes beyond the fair share."""
        now = self.sim.now
        elapsed = now - self.slot_start_ns
        if elapsed >= self.slot_ns:
            # Lazy slot rollover: publish the share measured in the slot
            # that just ended, then skip any fully idle slots in between
            # (an idle gap means no flows to measure — the published
            # share would only be recomputed from an empty count).
            counted = len(self._slot_bytes)
            if counted:
                self.fair_share_bytes = self.slot_budget_bytes / counted
                self._slot_bytes.clear()
            else:
                self.fair_share_bytes = self.slot_budget_bytes
            skipped = elapsed // self.slot_ns
            self.slot_start_ns += skipped * self.slot_ns
            self.slot_index += skipped
        if packet.payload <= 0:
            return  # pure ACKs/control: not rate-measured, never marked
        key = packet.flow_key
        sent = self._slot_bytes.get(key, 0) + packet.payload
        self._slot_bytes[key] = sent
        if sent > self.fair_share_bytes and packet.ecn_capable:
            packet.ecn_ce = True
            self.marked_packets += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FairqPortAgent {self.port!r} share={self.fair_share_bytes:.0f}B"
            f" active={len(self._slot_bytes)} marked={self.marked_packets}>"
        )


def enable_fairq(
    network: "Network", params: FairqParams = DEFAULT_FAIRQ_PARAMS
) -> int:
    """Attach a FairQ agent to every switch port of ``network``.

    Returns the number of agents installed.  Hosts keep plain NIC ports:
    like TFC, FairQ is a switch function — end hosts just run the
    ECN-reactive endpoints.
    """
    installed = 0
    for switch in network.switches:
        for port in switch.ports:
            install_agent(port, FairqPortAgent(switch, port, params))
            installed += 1
    return installed
