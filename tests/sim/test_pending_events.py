"""``Simulator.pending_events`` is exact at every instant, also mid-run.

The count used to be settled only when ``run()`` returned, so a callback
read ``live + events already run by this call``.  These tests keep an
independent ledger (+1 per schedule, −1 per dispatch or cancel) and
compare it with the simulator from inside callbacks, on every dispatch
path ``run()`` has: the inlined heap loop and the compiled-core group
drain (interpreted fallback).
"""

import pytest

from repro.sim.engine import Simulator

#: Kernel modes by the env knobs that select them.  ``compiled`` routes
#: the heap through ``core.heap_pop_batch`` — true same-time group pops.
MODES = {
    "default": {"REPRO_COMPILED": "off"},
    "compiled": {"REPRO_COMPILED": "on"},
}


@pytest.fixture(params=sorted(MODES))
def sim(request, monkeypatch):
    for var, value in MODES[request.param].items():
        monkeypatch.setenv(var, value)
    return Simulator()


class Ledger:
    """The expected live count, kept without looking at the simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.expected = 0
        self.seen = []  # pending_events as read on entry to each callback

    def schedule(self, delay_ns, fn=None, *args):
        self.expected += 1
        return self.sim.schedule(delay_ns, self._fire, fn, args)

    def cancel(self, event):
        """Cancel an event the caller knows to be live."""
        event.cancel()
        self.expected -= 1
        self.check()

    def check(self):
        assert self.sim.pending_events == self.expected

    def _fire(self, fn, args):
        self.expected -= 1  # the running event is no longer pending
        self.seen.append(self.sim.pending_events)
        self.check()
        if fn is not None:
            fn(*args)
            self.check()


def _chain(ledger, depth=10, spacing_ns=5):
    """Ten nested callbacks, each scheduling the next plus a same-time
    sibling, over three far-future background events."""

    def step(level):
        if level < depth:
            ledger.schedule(spacing_ns, step, level + 1)
            ledger.schedule(spacing_ns)  # runs right after step(level + 1)

    for i in range(3):
        ledger.schedule(10_000 + i)
    ledger.schedule(spacing_ns, step, 1)


def test_ten_nested_callbacks_read_the_exact_count(sim):
    ledger = Ledger(sim)
    _chain(ledger)
    ledger.check()
    sim.run(until_ns=1_000)
    # step(1) sees the background only; every later step also sees its
    # parent's sibling, still queued behind it at the same instant; each
    # sibling sees its own step's two children.
    assert ledger.seen == [3] + [4, 5] * 8 + [4, 3]
    assert sim.pending_events == ledger.expected == 3
    sim.run()
    assert sim.pending_events == ledger.expected == 0


def test_exact_after_cancel_from_callback(sim):
    ledger = Ledger(sim)
    later = [ledger.schedule(500 + i) for i in range(4)]
    same_time = []

    def canceller():
        ledger.cancel(same_time[1])  # a member of the group being run
        ledger.cancel(later[0])
        ledger.cancel(later[3])
        later[0].cancel()  # idempotent: no double count
        ledger.check()

    same_time.append(ledger.schedule(100, canceller))
    same_time.append(ledger.schedule(100))
    same_time.append(ledger.schedule(100))
    sim.run(until_ns=200)
    assert ledger.seen == [6, 2]  # canceller, then the surviving sibling
    assert sim.pending_events == ledger.expected == 2
    sim.run()
    assert sim.pending_events == ledger.expected == 0
    same_time[0].cancel()  # stale handle of a fired event: a no-op
    assert sim.pending_events == 0


def test_exact_under_max_events(sim):
    ledger = Ledger(sim)
    _chain(ledger)
    total = 0
    while sim.pending_events:
        total += sim.run(max_events=3)  # stops inside same-time groups
        ledger.check()
    assert total == 3 + 10 + 9
    assert ledger.expected == 0


def test_exact_under_until_ns(sim):
    ledger = Ledger(sim)
    _chain(ledger)
    for horizon in (4, 5, 12, 27, 50, 9_999, 10_001, 20_000):
        sim.run(until_ns=horizon)
        ledger.check()
    assert ledger.expected == 0
    assert len(ledger.seen) == 3 + 10 + 9


def test_raising_callback_leaves_the_true_live_population(sim):
    """After a callback raises, ``pending_events`` is the number of events
    that will still fire.  (A batched drain has already popped the
    raiser's same-time siblings, and they are lost with the exception;
    the count must say so rather than keep them.)"""
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule(5, fired.append, "before")
    sim.schedule(10, fired.append, "sibling-0")
    doomed = []
    sim.schedule(10, lambda: doomed[0].cancel())
    doomed.append(sim.schedule(10, fired.append, "cancelled"))
    sim.schedule(10, boom)
    sim.schedule(10, fired.append, "sibling-1")
    sim.schedule(20, fired.append, "after")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert fired[:2] == ["before", "sibling-0"]
    del fired[:]
    pending = sim.pending_events
    sim.run()
    assert len(fired) == pending
    assert fired[-1] == "after"
    assert sim.pending_events == 0


def test_exact_when_callbacks_join_their_own_instant(sim):
    """Zero-delay schedules from inside a same-time group queue behind
    the rest of the group and are counted from the moment they exist."""
    ledger = Ledger(sim)

    def spawn(depth):
        if depth:
            ledger.schedule(0, spawn, depth - 1)
            ledger.schedule(0)

    for _ in range(3):
        ledger.schedule(10, spawn, 2)
    sim.run()
    assert len(ledger.seen) == 3 + 3 * 4
    assert ledger.seen[:3] == [2, 3, 4]
    assert sim.pending_events == ledger.expected == 0


def test_exact_after_cancelling_the_rest_of_the_group(sim):
    ledger = Ledger(sim)
    group = []

    def cancel_rest():
        for event in group[1:]:
            ledger.cancel(event)

    group.append(ledger.schedule(50, cancel_rest))
    group.extend(ledger.schedule(50) for _ in range(5))
    ledger.schedule(60)
    sim.run(until_ns=55)
    assert ledger.seen == [6]
    assert sim.pending_events == ledger.expected == 1
    sim.run()
    assert ledger.seen == [6, 0]
    assert sim.pending_events == ledger.expected == 0


def test_exact_across_a_compaction_inside_a_callback(sim):
    """Mass-cancelling far timers from inside a group compacts the heap
    while a cancelled sibling sits in the group; the count stays exact
    through it and through every later compaction."""
    ledger = Ledger(sim)
    group = []

    def churn(n):
        timers = [ledger.schedule(1_000_000 + i) for i in range(n)]
        if len(group) > 1:
            ledger.cancel(group.pop())
        for event in timers:
            ledger.cancel(event)

    for _ in range(3):
        group[:] = [ledger.schedule(10, churn, 300), ledger.schedule(10)]
        sim.run(until_ns=sim.now + 10)
        ledger.check()
    assert ledger.seen == [1, 1, 1]
    assert sim.pending_events == ledger.expected == 0


def test_bare_simulator_stays_on_the_heap():
    """Neither many schedule() calls inside one run() nor thousands of
    live events move a bare simulator off its one heap."""
    sim = Simulator()
    left = 8_000

    def hop():
        nonlocal left
        if left:
            left -= 1
            sim.schedule(7, hop)

    for _ in range(8):
        sim.schedule(1, hop)
    assert sim.run() == 8_008
    for _ in range(4_096):
        sim.schedule(5, lambda: None)
    assert sim.pending_events == 4_096
    assert sim.active_backend == "heap"
    assert sim.run() == 4_096
    assert sim.active_backend == "heap"
    assert sim.pending_events == 0
