"""Barrier-synchronised incast workload (paper sections 6.1.2 and 6.2.1).

A client requests a data block from every server; all servers respond
simultaneously; the client only requests the next round once *every* block
of the current round has fully arrived.  This is the classic incast pattern
(and the paper's Figs. 12 and 15).

Connections are persistent across rounds (as in the original incast
studies): each server keeps one established flow to the client and queues
``block_bytes`` when a request arrives.  The request itself is modelled as
a one-way delay (``request_delay_ns``, defaulting to the topology's one-hop
request latency) rather than as reverse-direction segments — the paper
itself notes the request costs one round, and that is exactly what the
delay reproduces.

Round-completion detection watches each sender's cumulative acked bytes, so
a round ends only when the client has acknowledged every block — matching
"the receiver could not request the next round data blocks until it
receives all the current transmitted data blocks".
"""

from __future__ import annotations

from typing import List, Optional

from ..net.host import Host
from ..sim.units import microseconds
from ..transport.base import Sender
from ..transport.registry import open_flow


class IncastCoordinator:
    """Runs ``rounds`` barrier-synchronised block transfers."""

    def __init__(
        self,
        client: Host,
        servers: List[Host],
        protocol: str,
        block_bytes: int = 256_000,
        rounds: int = 10,
        request_delay_ns: int = microseconds(50),
        min_rto_ns: Optional[int] = None,
        start_ns: int = 0,
        tenant: Optional[str] = None,
    ):
        if not servers:
            raise ValueError("incast needs at least one server")
        if block_bytes <= 0 or rounds <= 0:
            raise ValueError("block_bytes and rounds must be positive")
        self.sim = client.sim
        self.client = client
        self.block_bytes = block_bytes
        self.total_rounds = rounds
        self.request_delay_ns = request_delay_ns
        self.rounds_completed = 0
        self.round_start_ns: Optional[int] = None
        self.round_durations_ns: List[int] = []
        self.finished = False
        self._expected_acked = 0
        kwargs = {} if min_rto_ns is None else {"min_rto_ns": min_rto_ns}
        # size_bytes=0 keeps flows open; blocks are queued per round.
        self.senders: List[Sender] = [
            open_flow(
                server, client, protocol, size_bytes=0, tenant=tenant, **kwargs
            )
            for server in servers
        ]
        for sender in self.senders:
            sender.fin_on_empty = False
        self.sim.post(max(start_ns - self.sim.now, 0), self._issue_round)

    # ------------------------------------------------------------------
    @property
    def goodput_bps(self) -> float:
        """Application goodput over all completed rounds (client side)."""
        if not self.round_durations_ns:
            return 0.0
        total_bytes = self.rounds_completed * self.block_bytes * len(self.senders)
        elapsed = self._last_finish_ns - self._first_start_ns
        return total_bytes * 8 * 1e9 / elapsed if elapsed > 0 else 0.0

    @property
    def total_timeouts(self) -> int:
        """RTO events across all servers so far."""
        return sum(sender.stats.timeouts for sender in self.senders)

    @property
    def max_timeouts_per_block(self) -> float:
        """The paper's Fig. 15b metric: worst per-flow timeouts per round."""
        if self.rounds_completed == 0:
            return 0.0
        return max(
            sender.stats.timeouts / self.rounds_completed
            for sender in self.senders
        )

    # ------------------------------------------------------------------
    def _issue_round(self) -> None:
        if self.rounds_completed >= self.total_rounds:
            self._finish()
            return
        if self.rounds_completed == 0:
            self._first_start_ns = self.sim.now
        self.round_start_ns = self.sim.now
        self._expected_acked += self.block_bytes
        # The request reaches every server after the request latency.
        self.sim.post(self.request_delay_ns, self._deliver_requests)
        self._watch_completion()

    def _deliver_requests(self) -> None:
        for sender in self.senders:
            sender.queue_bytes(self.block_bytes)

    def _watch_completion(self) -> None:
        if all(
            sender.snd_una >= self._expected_acked for sender in self.senders
        ):
            assert self.round_start_ns is not None
            self.round_durations_ns.append(self.sim.now - self.round_start_ns)
            self.rounds_completed += 1
            self._last_finish_ns = self.sim.now
            self._issue_round()
            return
        # Poll at a fine grain; event-driven completion would require the
        # coordinator to hook every sender's ACK path, and 10 us polling is
        # far below any per-round timescale of interest.
        self.sim.post(microseconds(10), self._watch_completion)

    def _finish(self) -> None:
        self.finished = True
        for sender in self.senders:
            sender.finish()
