"""Discrete-event simulation kernel.

A :class:`Simulator` owns a monotonic integer-nanosecond clock and a
pluggable pending-event store (a :class:`~repro.sim.sched.Scheduler`
backend).  Events scheduled for the same instant fire in the order they
were scheduled (FIFO tie-breaking via a monotonically increasing sequence
number), which makes every run fully deterministic — on *every* backend:
the backends are interchangeable bit-for-bit, and the golden-determinism
tests plus a cross-backend differential fuzz enforce it.

The kernel is deliberately tiny: components interact only through
``schedule`` / ``cancel`` and the read-only ``now`` property.  Everything
network-specific lives in :mod:`repro.net` and above.

Backend selection (see :mod:`repro.sim.sched` for the data structures):

* ``Simulator(scheduler="heap" | "calendar" | "wheel")`` pins a backend;
  ``heap`` is the default — the fastest backend on all four ``bench/``
  workloads (DESIGN.md §6d).
* ``Simulator(scheduler="adaptive")`` — opt-in — starts on the heap and
  migrates the live event population to the calendar queue once
  :attr:`pending_events` reaches ``ADAPTIVE_SWITCH_THRESHOLD``.
* The ``REPRO_SCHEDULER`` environment variable overrides the default for
  simulators built without an explicit ``scheduler=`` (the experiment
  runner's ``--scheduler`` flag and the CI backend shards use this).

Fast-path design carried over from the tuple-heap kernel (measured on the
pinned workloads, see ``repro.perf``):

* Backends store ``(time, seq, event)`` tuples, not :class:`Event`
  objects, so ordering compares happen in C tuple comparison instead of
  ``Event.__lt__``.  ``(time, seq)`` is unique per event, so the
  comparison never reaches the event object itself.
* Executed and cancelled-and-popped events are recycled through a free
  list shared by all backends (it survives an adaptive migration);
  :meth:`schedule` reuses them.  A retired event keeps
  ``cancelled = True`` until reuse, so a stale ``cancel()`` on an
  already-fired handle is a no-op.  The one contract this imposes on
  callers: do not retain an :class:`Event` handle across its own firing
  and cancel it later — use :class:`repro.sim.timers.Timer`, which clears
  its handle before the callback runs, for restartable semantics.
* Live (non-cancelled) events are counted incrementally, so
  :attr:`pending_events` is O(1) on every backend and exact at every
  instant, including inside a callback (the running event is not
  counted; same-time events not yet run are).
* When more than half a backend's store is dead (cancelled timers that
  were never popped — long-RTO transports generate these in bulk) it is
  compacted in place, bounding both memory and ordering work.

Batching (``REPRO_BATCH``, default ``on``; see DESIGN.md §6h):

* The run loop pops all events sharing one time key in a single
  :meth:`~repro.sim.sched.Scheduler.pop_batch` call and dispatches them
  in ``seq`` order — third-party backends get a correct single-pop
  fallback from the base class.  Batch members stay individually
  cancellable: a member cancelled by an earlier member's callback is
  skipped exactly as the store's lazy dead-entry discard would have.
  Dispatch order is identical to single-pop, so results are bit-exact.
* The port layer (``repro.net.port``) additionally precomputes whole TX
  burst schedules, replacing the general per-frame completion path with
  a lean chained one — same events, same order, less work per event.

Compiled core (``REPRO_COMPILED``, default ``off``): the hot batch
helpers live in :mod:`repro.sim.core`, written to compile under mypyc
(``pip install .[compiled]`` + ``benchmarks/perf/build_compiled.py``).
When the knob is on the engine routes through :func:`load_core`, which
prefers the compiled twin and silently falls back to the interpreted
module — same bit-identical results either way.
"""

from __future__ import annotations

import os
from bisect import insort as _insort
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple, Union

from .sched import (
    CalendarScheduler,
    HeapScheduler,
    Scheduler,
    TimerWheelScheduler,
    make_scheduler,
)
from .sched.base import COMPACT_MIN_ENTRIES
from .sched.calendar import _MAX_BUCKETS as _CAL_MAX_BUCKETS
from .units import SECOND, to_seconds

Callback = Callable[..., None]

# Sentinels letting the run loop test bounds with plain comparisons
# instead of per-event ``is not None`` checks.
_NO_HORIZON = 1 << 62
_NO_LIMIT = 1 << 62

# The opt-in adaptive policy migrates heap -> calendar when this many
# live events are pending at once (counted exactly, also inside run()).
# Dumbbell-scale runs (tens to hundreds of live events) stay on the
# heap; fleet-scale runs (leaf-spine, large incast, timer-churn) cross
# it early and stay on the calendar queue.
ADAPTIVE_SWITCH_THRESHOLD = 2048

HeapEntry = Tuple[int, int, "Event"]


def load_core(compiled: bool):
    """The kernel-helper module: compiled twin when asked for and built.

    With ``compiled`` False this returns the interpreted
    :mod:`repro.sim.core`.  With True it prefers the mypyc-built
    ``repro.sim._core_compiled`` (produced by
    ``benchmarks/perf/build_compiled.py``) and falls back to the
    interpreted module when the build is absent — opting in never breaks
    an environment without the extension.
    """
    if compiled:
        try:
            from . import _core_compiled  # type: ignore[attr-defined]

            return _core_compiled
        except ImportError:
            pass
    from . import core

    return core


class Event:
    """A scheduled callback (the cancellation handle returned by ``schedule``).

    Events are created through :meth:`Simulator.schedule` and ordered by
    ``(time, seq)`` so the backend pops them in deterministic order.
    Cancelling marks the event dead and drops its callback/argument
    references immediately (so cancelled retransmission timers stop
    pinning packets); the backend lazily discards the dead entry, or a
    compaction sweep removes it earlier.
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
            # Inlined Scheduler.note_cancel plus the live-count decrement
            # — timer-churn transports cancel several times per executed
            # event, so the extra method calls are measurable.
            sim._live -= 1
            sched = sim._sched
            dead = sched._dead + 1
            sched._dead = dead
            if dead >= COMPACT_MIN_ENTRIES:
                heap = sim._heap_list
                size = len(heap) if heap is not None else sched._size
                if dead * 2 > size:
                    sched.compact()

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
    """The event loop: a clock plus a pluggable priority store of events."""

    # Slots measurably speed up schedule()/run(): every per-event
    # attribute touch skips the instance dict (see DESIGN.md §6d).
    __slots__ = (
        "_now",
        "_seq",
        "_free",
        "_live",
        "_running",
        "_events_processed",
        "_batch",
        "_core",
        "_adapt_at",
        "scheduler_name",
        "_sched",
        "_push",
        "_heap_list",
        "_cal",
        "_wheel",
    )

    def __init__(
        self,
        scheduler: Optional[Union[str, Scheduler]] = None,
        config: Optional[Any] = None,
    ) -> None:
        # ``config`` is a repro.config.SimConfig (duck-typed here so the
        # kernel stays free of upper-layer imports): its ``scheduler``
        # field applies when no explicit ``scheduler=`` is given.
        if scheduler is None and config is not None:
            scheduler = config.scheduler
        self._now: int = 0
        self._seq: int = 0
        self._free: List[Event] = []
        self._live: int = 0
        self._running = False
        self._events_processed = 0
        batch = getattr(config, "batch", None) if config is not None else None
        if batch is None:
            batch = os.environ.get("REPRO_BATCH", "") or "on"
        self._batch = batch != "off"
        compiled = (
            getattr(config, "compiled", None) if config is not None else None
        )
        if compiled is None:
            compiled = os.environ.get("REPRO_COMPILED", "") or "off"
        # None = pure inlined fast paths; a module = route batch pops and
        # burst schedules through repro.sim.core (compiled when built).
        # "1" is accepted as an alias for "on" (CI shard convenience).
        self._core = load_core(True) if compiled in ("on", "1") else None

        if scheduler is None:
            scheduler = os.environ.get("REPRO_SCHEDULER", "") or "heap"
        # Past this live-event count, schedule() migrates the population
        # to the calendar backend; pinned backends never adapt (sentinel).
        self._adapt_at = _NO_LIMIT
        if isinstance(scheduler, str):
            name = scheduler.strip().lower()
            self.scheduler_name = name
            if name == "adaptive":
                self._sched: Scheduler = HeapScheduler()
                self._adapt_at = ADAPTIVE_SWITCH_THRESHOLD
            else:
                self._sched = make_scheduler(name)
        else:
            self._sched = scheduler
            self.scheduler_name = scheduler.name
        self._sched.bind_free_list(self._free)
        self._bind_backend()

    def _bind_backend(self) -> None:
        """Cache the hot entry points of the active backend.

        Each stock backend gets an inlined fast path (exactly one of
        ``_heap_list`` / ``_cal`` / ``_wheel`` is non-None when active):
        schedule() inserts directly into the backend's store and run()
        drains it without a function call per event.  The slow corners
        (rebuilds, wheel refills, year scans) stay behind method calls.
        Subclassed backends (e.g. test shadows) keep the generic bound
        ``push``/``pop_due`` path — the ``type() is`` checks are exact.
        """
        sched = self._sched
        kind = type(sched)
        self._push = sched.push
        self._heap_list: Optional[List[HeapEntry]] = (
            sched._heap if kind is HeapScheduler else None
        )
        self._cal: Optional[CalendarScheduler] = (
            sched if kind is CalendarScheduler else None
        )
        self._wheel: Optional[TimerWheelScheduler] = (
            sched if kind is TimerWheelScheduler else None
        )

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
        """Name of the backend currently holding events (``adaptive``
        reports whichever side of the switch it is on)."""
        return self._sched.name

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending live event, or None when drained.

        Non-destructive: delegates to the active backend's
        :meth:`~repro.sim.sched.base.Scheduler.peek_time` (the adaptive
        policy reports through whichever backend currently holds the
        population).  The shard coordinator uses this between
        horizon-bounded :meth:`run` calls to compute the next
        conservative epoch.
        """
        return self._sched.peek_time()

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
        live = self._live + 1
        self._live = live
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
        heap_list = self._heap_list
        if heap_list is not None:
            _heappush(heap_list, (time_ns, seq, event))
        else:
            cal = self._cal
            if cal is not None:
                # Inlined CalendarScheduler.push (kept in sync with it).
                _insort(
                    cal._buckets[(time_ns >> cal._wshift) & cal._mask],
                    (-time_ns, -seq, event),
                )
                stored = cal._size + 1
                cal._size = stored
                if (
                    stored - cal._dead > cal._grow_at
                    and cal._nbuckets < _CAL_MAX_BUCKETS
                ):
                    cal._rebuild(cal._nbuckets << 1)
            else:
                wheel = self._wheel
                if wheel is not None:
                    # Inlined TimerWheelScheduler.push for the two levels
                    # that cover delays under ~67 ms (where timer churn
                    # lives); longer delays take the method.
                    wtime = wheel._wtime
                    if time_ns >= wtime:
                        delta = time_ns - wtime
                        if delta < 262144:  # 2**18: level 0
                            wheel._rings[0][(time_ns >> 10) & 255].append(
                                (-time_ns, -seq, event)
                            )
                            wheel._counts[0] += 1
                            wheel._size += 1
                        elif delta < 67108864:  # 2**26: level 1
                            wheel._rings[1][(time_ns >> 18) & 255].append(
                                (-time_ns, -seq, event)
                            )
                            wheel._counts[1] += 1
                            wheel._size += 1
                        else:
                            wheel.push(time_ns, seq, event)
                    else:
                        _insort(wheel._due, (-time_ns, -seq, event))
                        wheel._size += 1
                else:
                    self._push(time_ns, seq, event)
        if live >= self._adapt_at:
            self._adapt()
        return event

    def schedule_at(self, time_ns: int, callback: Callback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns}ns, now is {self._now}ns"
            )
        return self.schedule(time_ns - self._now, callback, *args)

    def _adapt(self) -> None:
        """Migrate the live population heap -> calendar (adaptive policy).

        Dead entries are recycled during the drain instead of migrating.
        The run loop notices the swap when the (drained) old backend runs
        dry and rebinds, so adapting from inside a callback is safe.
        """
        self._adapt_at = _NO_LIMIT
        calendar = CalendarScheduler()
        calendar.bind_free_list(self._free)
        calendar.prefill(self._sched.drain_live())
        self._sched = calendar
        self._bind_backend()

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
        free = self._free
        horizon = _NO_HORIZON if until_ns is None else until_ns
        limit = _NO_LIMIT if max_events is None else max_events
        core = self._core
        # Batched dispatch pops whole same-time groups before running
        # them, so it only engages when no max_events bound can land
        # mid-group; a bounded run keeps the exact per-event fast path.
        batch: Optional[List[Event]] = (
            [] if (self._batch and limit == _NO_LIMIT) else None
        )
        try:
            while processed < limit:
                sched = self._sched
                heap = self._heap_list
                cal = self._cal
                wheel = self._wheel
                if heap is not None and core is not None and batch is not None:
                    # Compiled-core heap drain: same-time groups pop in
                    # one core call (C when the extension is built), then
                    # dispatch here.  Members stay cancellable mid-batch:
                    # a cancelled member mirrors the store's lazy skip
                    # (its cancel() charged _dead as if still stored).
                    pop_batch = core.heap_pop_batch
                    while True:
                        n, ndead = pop_batch(heap, free, horizon, batch)
                        if ndead:
                            sched._dead -= ndead
                        if n == 0:
                            break
                        self._now = batch[0].time
                        for event in batch:
                            if event.cancelled:
                                sched._dead -= 1
                                free.append(event)
                                continue
                            callback = event.callback
                            args = event.args
                            event.cancelled = True
                            event.callback = None
                            event.args = ()
                            self._live -= 1
                            callback(*args)
                            free.append(event)
                            processed += 1
                        del batch[:]
                elif heap is not None:
                    # Inlined heap drain (the PR-2 loop): no function
                    # call per event.  A callback may adapt the backend
                    # mid-loop — drain_live empties the heap *in place*,
                    # so this alias runs dry and the outer loop rebinds.
                    while processed < limit:
                        if not heap:
                            break
                        entry = heap[0]
                        event = entry[2]
                        if event.cancelled:
                            _heappop(heap)
                            sched._dead -= 1
                            free.append(event)
                            continue
                        if entry[0] > horizon:
                            break
                        _heappop(heap)
                        self._now = entry[0]
                        callback = event.callback
                        args = event.args
                        # Retire the handle before the callback runs: a
                        # stale cancel() inside it must not double-count.
                        event.cancelled = True
                        event.callback = None
                        event.args = ()
                        # Settled per event, before dispatch (here and at
                        # the six sibling sites): callbacks read
                        # pending_events, and schedule() compares _live
                        # with the adaptive threshold.
                        self._live -= 1
                        callback(*args)
                        free.append(event)
                        processed += 1
                elif cal is not None:
                    # Inlined calendar drain: while the floor bucket's
                    # tail entry is live inside its year window it is the
                    # global minimum (see CalendarScheduler._hot_bucket),
                    # so it pops without the year-scan preamble.  Dead
                    # tails, empty/stale hot caches and year rollovers
                    # fall through to pop_due.
                    while processed < limit:
                        bucket = cal._hot_bucket
                        if bucket:
                            key = bucket[-1]
                            time_ns = -key[0]
                            if time_ns < cal._hot_top:
                                event = key[2]
                                if not event.cancelled:
                                    if time_ns > horizon:
                                        break
                                    bucket.pop()
                                    cal._size -= 1
                                    cal._floor = time_ns
                                    self._now = time_ns
                                    callback = event.callback
                                    args = event.args
                                    event.cancelled = True
                                    event.callback = None
                                    event.args = ()
                                    self._live -= 1
                                    callback(*args)
                                    free.append(event)
                                    processed += 1
                                    continue
                        event = cal.pop_due(horizon)
                        if event is None:
                            break
                        self._now = event.time
                        callback = event.callback
                        args = event.args
                        event.cancelled = True
                        event.callback = None
                        event.args = ()
                        self._live -= 1
                        callback(*args)
                        free.append(event)
                        processed += 1
                elif wheel is not None:
                    # Inlined wheel drain: pop the sorted due buffer from
                    # the tail; refill (slot drain / cascade) stays a
                    # method call.  _refill may rebind _due, so the local
                    # alias is refreshed after every refill; pushes and
                    # compaction mutate it in place.
                    due = wheel._due
                    while processed < limit:
                        if due:
                            key = due[-1]
                            event = key[2]
                            if event.cancelled:
                                due.pop()
                                wheel._size -= 1
                                wheel._dead -= 1
                                free.append(event)
                                continue
                            time_ns = -key[0]
                            if time_ns > horizon:
                                break
                            due.pop()
                            wheel._size -= 1
                            self._now = time_ns
                            callback = event.callback
                            args = event.args
                            event.cancelled = True
                            event.callback = None
                            event.args = ()
                            self._live -= 1
                            callback(*args)
                            free.append(event)
                            processed += 1
                            continue
                        if not wheel._refill():
                            break
                        due = wheel._due
                elif batch is not None:
                    # Generic backend, batching on: one pop_batch call per
                    # same-time group (the base class gives third-party
                    # backends a correct single-pop fallback).  Cancel
                    # handling matches the compiled-core branch above.
                    pop_batch = sched.pop_batch
                    while True:
                        if pop_batch(horizon, batch) == 0:
                            break
                        self._now = batch[0].time
                        for event in batch:
                            if event.cancelled:
                                sched._dead -= 1
                                free.append(event)
                                continue
                            callback = event.callback
                            args = event.args
                            event.cancelled = True
                            event.callback = None
                            event.args = ()
                            self._live -= 1
                            callback(*args)
                            free.append(event)
                            processed += 1
                        del batch[:]
                else:
                    pop_due = sched.pop_due
                    while processed < limit:
                        event = pop_due(horizon)
                        if event is None:
                            break
                        self._now = event.time
                        callback = event.callback
                        args = event.args
                        event.cancelled = True
                        event.callback = None
                        event.args = ()
                        self._live -= 1
                        callback(*args)
                        free.append(event)
                        processed += 1
                if self._sched is sched:
                    break  # drained / horizon / limit on a stable backend
                # A callback adapted the backend mid-run; the old one
                # drained into the new one, so rebind and keep going.
        finally:
            self._running = False
            # Batched counter update: nothing reads this one mid-run.
            self._events_processed += processed
            if batch:
                # A callback raised mid-group: its unrun same-time
                # siblings were already popped and never fire.
                self._live -= sum(not event.cancelled for event in batch)
        if until_ns is not None and self._now < until_ns:
            # Park the clock at the horizon unless a live event remains
            # inside it (only possible when max_events stopped us early).
            next_live = self._sched.next_live_time()
            if next_live is None or next_live > until_ns:
                self._now = until_ns
        return processed

    def run_for(self, duration_ns: int) -> int:
        """Run for ``duration_ns`` of simulated time from the current clock."""
        return self.run(until_ns=self._now + duration_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now / SECOND:.6f}s"
            f" pending={self._live} done={self._events_processed}"
            f" backend={self._sched.name}>"
        )
