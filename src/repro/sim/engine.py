"""Discrete-event simulation kernel.

A :class:`Simulator` owns a monotonic integer-nanosecond clock and one
binary heap of pending events.  Events scheduled for the same instant
fire in the order they were scheduled (FIFO tie-breaking via a
monotonically increasing sequence number), which makes every run fully
deterministic.  The golden-determinism tests pin whole runs; a
model-based fuzz (``tests/sim/test_kernel_model.py``) checks the kernel
op by op against a sorted-list oracle that shares no code with it.

The kernel is deliberately tiny: components interact only through
``schedule`` / ``cancel`` and the read-only ``now`` property.  Everything
network-specific lives in :mod:`repro.net` and above.

Fast-path design (DESIGN.md §6d):

* The heap stores ``(time, seq, event)`` tuples, not :class:`Event`
  objects, so sift comparisons are C tuple comparisons instead of
  ``Event.__lt__``.  ``(time, seq)`` is unique per event, so the
  comparison never reaches the event object itself.
* Executed and cancelled-and-popped events are recycled through a free
  list; :meth:`schedule` reuses them.  A retired event keeps
  ``cancelled = True`` until reuse, so a stale ``cancel()`` on an
  already-fired handle is a no-op.  The one contract this imposes on
  callers: do not retain an :class:`Event` handle across its own firing
  and cancel it later — use :class:`repro.sim.timers.Timer`, which clears
  its handle before the callback runs, for restartable semantics.
* Live (non-cancelled) events are counted incrementally, so
  :attr:`pending_events` is O(1) and exact at every instant, including
  inside a callback (the running event is not counted; same-time events
  not yet run are).
* Cancellation is lazy: a dead entry is discarded when it surfaces at
  the heap head.  When more than half the heap is dead (cancelled timers
  that were never popped — long-RTO transports generate these in bulk)
  it is compacted in place, bounding both memory and sift work.
"""

from __future__ import annotations

from heapq import heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple

from .units import SECOND, to_seconds

Callback = Callable[..., None]

# Sentinels letting the run loop test bounds with plain comparisons
# instead of per-event ``is not None`` checks.
_NO_HORIZON = 1 << 62
_NO_LIMIT = 1 << 62

# Compaction fires when the heap holds more dead entries than live ones
# and is big enough for the O(n) sweep to pay for itself.
COMPACT_MIN_ENTRIES = 256

HeapEntry = Tuple[int, int, "Event"]


class Event:
    """A scheduled callback (the cancellation handle returned by ``schedule``).

    Events are created through :meth:`Simulator.schedule` and ordered by
    ``(time, seq)``.  Cancelling marks the event dead and drops its
    callback/argument references immediately (so cancelled retransmission
    timers stop pinning packets); the simulator lazily discards the dead
    heap entry, or a compaction sweep removes it earlier.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Optional[Callback],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark this event dead so the engine skips it when popped.

        Idempotent; also a no-op on an event that has already fired.  The
        callback and argument references are nulled out right away so the
        objects they pin (packets, senders) are reclaimable without waiting
        for the dead entry to surface.
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        sim = self.sim
        if sim is not None:
            # The simulator's counters are updated inline: timer-churn
            # transports cancel several times per executed event.
            sim._live -= 1
            dead = sim._dead + 1
            sim._dead = dead
            if dead >= COMPACT_MIN_ENTRIES and dead * 2 > len(sim._heap):
                sim._compact()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time}ns #{self.seq} {name}{state}>"


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, negative delays)."""


class Simulator:
    """The event loop: a clock plus one heap of pending events."""

    # Slots measurably speed up schedule()/run(): every per-event
    # attribute touch skips the instance dict (see DESIGN.md §6d).
    __slots__ = (
        "_now",
        "_seq",
        "_heap",
        "_free",
        "_live",
        "_dead",
        "_running",
        "_events_processed",
    )

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: List[HeapEntry] = []
        self._free: List[Event] = []
        self._live: int = 0  # queued events not cancelled
        self._dead: int = 0  # heap entries whose event is cancelled
        self._running = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in integer nanoseconds."""
        return self._now

    @property
    def now_seconds(self) -> float:
        """Current simulation time in float seconds (reporting only)."""
        return to_seconds(self._now)

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    @property
    def active_backend(self) -> str:
        """Always "heap"; bench/workloads.py reads it for sim.on_calendar."""
        return "heap"

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending live event, or None when drained.

        Dead entries surfacing at the head are discarded on the way (they
        were unobservable); live entries never move, so any number of
        peeks between two pops leaves the pop order unchanged.
        :meth:`run` uses it to park the clock at its horizon.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if not event.cancelled:
                return entry[0]
            _heappop(heap)
            self._dead -= 1
            self._free.append(event)
        return None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, callback: Callback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time_ns
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time_ns, seq, callback, args, self)
        _heappush(self._heap, (time_ns, seq, event))
        return event

    def schedule_at(self, time_ns: int, callback: Callback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, now is {self._now}ns"
            )
        return self.schedule(time_ns - self._now, callback, *args)

    def _compact(self) -> None:
        """Sweep dead entries out of the heap.

        In place (slice assignment): :meth:`run` holds an alias of the
        list while a callback's ``cancel()`` may trigger this.
        """
        heap = self._heap
        free = self._free
        live_entries = []
        for entry in heap:
            if entry[2].cancelled:
                free.append(entry[2])
            else:
                live_entries.append(entry)
        self._dead = 0
        heap[:] = live_entries
        heapify(heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until_ns: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in order until the queue drains or a bound is hit.

        ``until_ns`` is inclusive: events scheduled exactly at ``until_ns``
        still execute, and the clock is left at ``until_ns`` if the horizon
        was reached (so samplers see the full window).  Returns the number of
        events processed by this call.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        processed = 0
        heap = self._heap
        free = self._free
        horizon = _NO_HORIZON if until_ns is None else until_ns
        limit = _NO_LIMIT if max_events is None else max_events
        try:
            # Inlined heap drain: no function call per event.
            while processed < limit:
                if not heap:
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    _heappop(heap)
                    self._dead -= 1
                    free.append(event)
                    continue
                if entry[0] > horizon:
                    break
                _heappop(heap)
                self._now = entry[0]
                callback = event.callback
                args = event.args
                # Retire the handle before the callback runs: a stale
                # cancel() inside it must not double-count.
                event.cancelled = True
                event.callback = None
                event.args = ()
                # Settled per event, before dispatch: callbacks read
                # pending_events.
                self._live -= 1
                callback(*args)
                free.append(event)
                processed += 1
        finally:
            self._running = False
            # Batched counter update: nothing reads this one mid-run.
            self._events_processed += processed
        if until_ns is not None and self._now < until_ns:
            # Park the clock at the horizon unless a live event remains
            # inside it (only possible when max_events stopped us early).
            next_live = self.peek_time()
            if next_live is None or next_live > until_ns:
                self._now = until_ns
        return processed

    def run_for(self, duration_ns: int) -> int:
        """Run for ``duration_ns`` of simulated time from the current clock."""
        return self.run(until_ns=self._now + duration_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now / SECOND:.6f}s"
            f" pending={self._live} done={self._events_processed}>"
        )
