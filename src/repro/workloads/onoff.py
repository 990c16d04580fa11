"""On-off (intermittent) flow sources.

The paper motivates effective-flow counting with Storm-style connections
that "transmit data intermittently" — a flow stays open but is silent
between bursts, and TFC must stop counting it while silent (Fig. 7).
:class:`OnOffSource` drives a long-lived sender through alternating active
and silent phases; during an active phase it keeps a burst of bytes queued,
during a silent phase it queues nothing (the connection stays established).
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Simulator
from ..transport.base import Sender


class OnOffSource:
    """Feeds a sender bursts of data on a fixed on/off cadence.

    Each cycle queues ``burst_bytes`` at the start of the on-phase, then
    stays silent for the off-phase.  ``cycles=None`` repeats forever.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: Sender,
        on_ns: int,
        off_ns: int,
        burst_bytes: int,
        cycles: Optional[int] = None,
        start_ns: int = 0,
    ):
        if on_ns <= 0 or off_ns < 0:
            raise ValueError("on_ns must be positive and off_ns >= 0")
        if burst_bytes <= 0:
            raise ValueError("burst_bytes must be positive")
        self._sim = sim
        self.sender = sender
        self.on_ns = on_ns
        self.off_ns = off_ns
        self.burst_bytes = burst_bytes
        self.cycles_remaining = cycles
        self.bursts_sent = 0
        self.active = False
        self._stopped = False
        sim.post(max(start_ns - sim.now, 0), self._begin_on_phase)

    def stop(self) -> None:
        """Stop cycling (the sender is left as-is, silent)."""
        self._stopped = True
        self.active = False

    def _begin_on_phase(self) -> None:
        if self._stopped:
            return
        if self.cycles_remaining is not None and self.cycles_remaining <= 0:
            self.sender.finish()
            return
        self.active = True
        self.sender.queue_bytes(self.burst_bytes)
        self.bursts_sent += 1
        self._sim.post(self.on_ns, self._begin_off_phase)

    def _begin_off_phase(self) -> None:
        if self._stopped:
            return
        self.active = False
        if self.cycles_remaining is not None:
            self.cycles_remaining -= 1
        self._sim.post(self.off_ns, self._begin_on_phase)


class PacedSource:
    """Keeps a long-lived sender topped up at a fixed average byte rate.

    Useful for partially loading a link (ablation and utilisation tests):
    every ``interval_ns`` it queues ``rate_bps x interval`` worth of bytes.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: Sender,
        rate_bps: int,
        interval_ns: int,
        start_ns: int = 0,
    ):
        if rate_bps <= 0 or interval_ns <= 0:
            raise ValueError("rate and interval must be positive")
        self._sim = sim
        self.sender = sender
        self.rate_bps = rate_bps
        self.interval_ns = interval_ns
        self._stopped = False
        sim.post(max(start_ns - sim.now, 0), self._tick)

    def stop(self) -> None:
        """Stop feeding the sender."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        chunk = round(self.rate_bps * self.interval_ns / (8 * 1_000_000_000))
        if chunk > 0:
            self.sender.queue_bytes(chunk)
        self._sim.post(self.interval_ns, self._tick)
