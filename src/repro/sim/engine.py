"""Discrete-event simulation kernel.

A :class:`Simulator` owns a monotonic integer-nanosecond clock and two
binary heaps of pending events.  Events scheduled for the same instant
fire in the order they were scheduled (FIFO tie-breaking via a
monotonically increasing sequence number), which makes every run fully
deterministic.  The golden-determinism tests pin whole runs; a
model-based fuzz (``tests/sim/test_kernel_model.py``) checks the kernel
op by op against a sorted-list oracle that shares no code with it.

The kernel is deliberately tiny: components interact only through
``post`` / ``schedule`` / ``cancel`` and the clock ``now``: a plain
attribute every layer reads and only the run loop writes
(``tests/sim/test_post_discipline.py`` holds the rest to reading it).
Everything network-specific lives in :mod:`repro.net` and above.

Fast-path design (DESIGN.md §6d):

* Entries are tuples keyed by a unique ``(time, seq)``, one ``seq``
  counter for both kinds, in two heaps.  Use :meth:`Simulator.post`
  unless you keep the handle: it pushes ``(time, seq, callback, args)``
  onto the packet heap, never dead nor stale.  :meth:`Simulator.schedule`
  pushes ``(time, seq, event)`` onto the timer heap, the :class:`Event`
  being the cancellation handle.  The run loop dispatches whichever head
  has the smaller key, so the merged order is one heap's; the split keeps
  the many long timers (RTOs) out of every packet event's sift.
* Handle events are recycled through a free list.  A retired event
  keeps ``cancelled = True`` until reuse, so a stale ``cancel()`` on an
  already-fired handle is a no-op.  The one contract this imposes on
  callers: do not retain an :class:`Event` handle across its own firing
  and cancel it later — use :class:`repro.sim.timers.Timer`, which clears
  its handle before the callback runs, for restartable semantics.
* Nothing is counted per event: :attr:`pending_events` is the heaps'
  length less the dead entries, O(1) and exact at every instant,
  including inside a callback (the running event is already popped;
  same-time events not yet run are counted).
* Cancellation is lazy: a dead entry is discarded when it surfaces at
  the timer-heap head, and a timer heap more than half dead (timer
  churn) is compacted in place.  A restart is not a cancel:
  :meth:`Simulator.reschedule` gives a pending event moved no earlier a
  new ``(time, seq)`` and leaves its entry under the old key, re-keyed
  with one ``heapreplace`` when it surfaces — never dispatched.  A real
  key is never below its stale one, so the order is cancel + schedule's.
"""

from __future__ import annotations

from heapq import heapify, heappop as _heappop, heappush as _heappush, heapreplace as _heapreplace
from typing import Any, Callable, List, Optional, Tuple

from .units import SECOND, to_seconds

Callback = Callable[..., None]

# Sentinels letting the run loop test bounds with plain comparisons
# instead of per-event ``is not None`` checks.
_NO_HORIZON = 1 << 62
_NO_LIMIT = 1 << 62

# Compaction fires when the timer heap holds more dead entries than live
# ones and is big enough for the O(n) sweep to pay for itself.
COMPACT_MIN_ENTRIES = 256

PostedEntry = Tuple[int, int, Callback, tuple]
TimerEntry = Tuple[int, int, "Event"]


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
            # The simulator's dead count is updated inline: timer-churn
            # transports cancel several times per executed event.
            dead = sim._dead + 1
            sim._dead = dead
            if dead >= COMPACT_MIN_ENTRIES and dead * 2 > len(sim._timers):
                sim._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time}ns #{self.seq} {name}{state}>"


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, negative delays)."""


class Simulator:
    """The event loop: a clock plus a packet heap and a timer heap."""

    # Slots measurably speed up schedule()/run(): every per-event
    # attribute touch skips the instance dict (see DESIGN.md §6d).
    __slots__ = (
        "now",
        "_seq",
        "_heap",
        "_timers",
        "_free",
        "_dead",
        "_running",
        "_events_processed",
    )

    def __init__(self) -> None:
        #: Current simulation time in integer nanoseconds; only run() writes it.
        self.now: int = 0
        self._seq: int = 0
        self._heap: List[PostedEntry] = []  # post(): the packet heap
        self._timers: List[TimerEntry] = []  # schedule(): the timer heap
        self._free: List[Event] = []
        self._dead: int = 0  # timer entries whose event is cancelled
        self._running = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now_seconds(self) -> float:
        """Current simulation time in float seconds (reporting only)."""
        return to_seconds(self.now)

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._heap) + len(self._timers) - self._dead

    @property
    def active_backend(self) -> str:
        """Always "heap"; bench/workloads.py reads it for sim.on_calendar."""
        return "heap"

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending live event, or None when drained.

        Dead entries surfacing at the timer head are discarded and stale
        keys re-keyed, as in :meth:`run`: peeks never change the pop order.
        :meth:`run` uses it to park the clock at its horizon.
        """
        timers = self._timers
        while timers:
            entry = timers[0]
            event = entry[2]
            if event.cancelled:
                _heappop(timers)
                self._dead -= 1
                self._free.append(event)
            elif entry[1] != event.seq:
                _heapreplace(timers, (event.time, event.seq, event))
            else:
                break
        heap = self._heap
        if heap and not (timers and timers[0] < heap[0]):
            return heap[0][0]
        return timers[0][0] if timers else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def post(self, delay_ns: int, callback: Callback, *args: Any) -> None:
        """:meth:`schedule` without a handle: the event cannot be cancelled."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now + delay_ns, seq, callback, args))

    def schedule(self, delay_ns: int, callback: Callback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now and
        return its handle; a caller that drops the handle should :meth:`post`."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        time_ns = self.now + delay_ns
        seq = self._seq
        self._seq = seq + 1
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
        _heappush(self._timers, (time_ns, seq, event))
        return event

    def reschedule(self, event: Event, delay_ns: int, callback: Callback, *args: Any) -> Event:
        """Exactly ``event.cancel(); return self.schedule(delay_ns, ...)``,
        but a pending event moved no earlier is re-keyed in place."""
        time_ns = self.now + delay_ns
        if event.cancelled or time_ns < event.time:
            event.cancel()
            return self.schedule(delay_ns, callback, *args)
        event.time = time_ns
        event.seq = self._seq
        self._seq += 1
        event.callback = callback
        event.args = args
        return event

    def schedule_at(self, time_ns: int, callback: Callback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, now is {self.now}ns"
            )
        return self.schedule(time_ns - self.now, callback, *args)

    def _compact(self) -> None:
        """Sweep dead entries out of the timer heap; live ones get their
        real keys.

        In place (slice assignment): :meth:`run` holds an alias of the
        list while a callback's ``cancel()`` may trigger this.
        """
        timers = self._timers
        free = self._free
        live_entries = []
        for entry in timers:
            event = entry[2]
            if event.cancelled:
                free.append(event)
            else:
                live_entries.append((event.time, event.seq, event))
        self._dead = 0
        timers[:] = live_entries
        heapify(timers)

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
        timers = self._timers
        free = self._free
        horizon = _NO_HORIZON if until_ns is None else until_ns
        limit = _NO_LIMIT if max_events is None else max_events
        try:
            # Inlined two-heap drain: no function call per event.  Keys are
            # unique, so a tuple compare of the heads is a (time, seq) one.
            while processed < limit:
                if heap:
                    entry = heap[0]
                    if not timers or entry < timers[0]:
                        # Posted: never dead, never stale.
                        if entry[0] > horizon:
                            break
                        _heappop(heap)
                        self.now = entry[0]
                        entry[2](*entry[3])
                        processed += 1
                        continue
                elif not timers:
                    break
                entry = timers[0]
                event = entry[2]
                if event.cancelled:
                    _heappop(timers)
                    self._dead -= 1
                    free.append(event)
                    continue
                if entry[1] != event.seq:  # re-keyed: not an event
                    _heapreplace(timers, (event.time, event.seq, event))
                    continue
                if entry[0] > horizon:
                    break
                _heappop(timers)
                self.now = entry[0]
                callback = event.callback
                args = event.args
                # Retire the handle before the callback runs: a stale
                # cancel() inside it must not double-count.
                event.cancelled = True
                event.callback = None
                event.args = ()
                callback(*args)
                free.append(event)
                processed += 1
        finally:
            self._running = False
            # Batched counter update: nothing reads this one mid-run.
            self._events_processed += processed
        if until_ns is not None and self.now < until_ns:
            # Park the clock at the horizon unless a live event remains
            # inside it (only possible when max_events stopped us early).
            next_live = self.peek_time()
            if next_live is None or next_live > until_ns:
                self.now = until_ns
        return processed

    def run_for(self, duration_ns: int) -> int:
        """Run for ``duration_ns`` of simulated time from the current clock."""
        return self.run(until_ns=self.now + duration_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self.now / SECOND:.6f}s"
            f" pending={self.pending_events} done={self._events_processed}>"
        )
