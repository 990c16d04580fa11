"""Periodic samplers for the time-series figures.

The paper plots queue length over time (Figs. 8, 11b, 12b, 14b), per-flow
goodput over time (Figs. 9-11) and aggregate throughput (Figs. 12a, 15a).
Each sampler schedules itself on the simulator at a fixed interval and
records a series; derived statistics (mean/max, convergence time) come out
afterwards.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..net.port import Port
from ..sim.engine import Simulator
from ..sim.units import SECOND

Series = List[Tuple[int, float]]  # (time_ns, value)


class PeriodicSampler:
    """Base: calls ``probe()`` every ``interval_ns`` and records the value."""

    def __init__(self, sim: Simulator, interval_ns: int, start_ns: int = 0):
        if interval_ns <= 0:
            raise ValueError("sampling interval must be positive")
        self._sim = sim
        self.interval_ns = interval_ns
        self.series: Series = []
        self._stopped = False
        sim.post(max(start_ns - sim.now, 0), self._tick)

    def probe(self) -> float:
        """Return the current value of the measured quantity."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop sampling (the pending event is skipped when it fires)."""
        self._stopped = True

    def register(self, registry, name: str) -> None:
        """Expose this sampler's series as a registry timeline.

        Zero-copy: the :class:`~repro.obs.Timeline` adopts the live series
        list, so samples recorded before *and* after registration all show
        up in the registry's export.
        """
        registry.timeline(name).adopt(self.series)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.series.append((self._sim.now, self.probe()))
        self._sim.post(self.interval_ns, self._tick)

    # ------------------------------------------------------------------
    @property
    def values(self) -> List[float]:
        """Just the sampled values (no timestamps)."""
        return [value for _, value in self.series]

    def max(self) -> float:
        """Largest sample seen (0.0 when nothing sampled)."""
        return max(self.values, default=0.0)

    def mean(self) -> float:
        """Mean of samples (0.0 when nothing sampled)."""
        values = self.values
        return sum(values) / len(values) if values else 0.0


class QueueSampler(PeriodicSampler):
    """Samples a port's instantaneous queue occupancy in bytes."""

    def __init__(self, sim: Simulator, port: Port, interval_ns: int, start_ns: int = 0):
        self._port = port
        super().__init__(sim, interval_ns, start_ns)

    def probe(self) -> float:
        return float(self._port.queue.byte_length)


class RateSampler(PeriodicSampler):
    """Differentiates a monotone byte counter into a rate in bits/s.

    ``counter`` is any zero-argument callable returning cumulative bytes
    (e.g. ``lambda: receiver.bytes_received`` for per-flow goodput, or
    ``lambda: port.tx_bytes`` for link throughput).
    """

    def __init__(
        self,
        sim: Simulator,
        counter: Callable[[], int],
        interval_ns: int,
        start_ns: int = 0,
        label: str = "",
    ):
        self._counter = counter
        self._last: Optional[int] = None
        self.label = label
        super().__init__(sim, interval_ns, start_ns)

    def probe(self) -> float:
        current = self._counter()
        if self._last is None:
            rate = 0.0
        else:
            rate = (current - self._last) * 8 * SECOND / self.interval_ns
        self._last = current
        return rate


def convergence_time_ns(
    series: Series,
    target: float,
    tolerance: float = 0.1,
    hold_samples: int = 3,
) -> Optional[int]:
    """When did a rate series first reach and hold ``target`` +/- tolerance?

    Used for the Fig. 10 convergence comparison: the answer is the first
    timestamp from which ``hold_samples`` consecutive samples sit within
    ``tolerance`` (fractional) of the target.  None when it never converges.
    """
    if target <= 0:
        raise ValueError("target rate must be positive")
    run = 0
    start_ns: Optional[int] = None
    for t, value in series:
        if abs(value - target) <= tolerance * target:
            if run == 0:
                start_ns = t
            run += 1
            if run >= hold_samples:
                return start_ns
        else:
            run = 0
            start_ns = None
    return None
