"""Unit tests for the discrete-event kernel.

Every kernel test runs on both ``run()`` paths: the inlined heap loop
(``default``) and the compiled-core group drain (``compiled``, the
interpreted fallback when the extension is not built).
"""

import pytest
from hypothesis import given, strategies as st

from repro.config import SimConfig
from repro.sim.engine import SimulationError, Simulator

#: Kernel modes by the ``SimConfig.compiled`` value that selects them.
MODES = {"default": "off", "compiled": "on"}


def make_sim(mode):
    return Simulator(config=SimConfig(compiled=MODES[mode]))


@pytest.fixture(params=sorted(MODES))
def sim(request):
    return make_sim(request.param)


def test_clock_starts_at_zero(sim):
    assert sim.now == 0
    assert sim.now_seconds == 0.0


def test_events_run_in_time_order(sim):
    log = []
    sim.schedule(30, log.append, "c")
    sim.schedule(10, log.append, "a")
    sim.schedule(20, log.append, "b")
    sim.run()
    assert log == ["a", "b", "c"]


def test_same_time_events_run_fifo(sim):
    log = []
    for tag in range(10):
        sim.schedule(5, log.append, tag)
    sim.run()
    assert log == list(range(10))


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_schedule_in_past_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_scheduler_argument_is_refused():
    """The kernel has one event queue; there is nothing left to select."""
    with pytest.raises(TypeError):
        Simulator(scheduler="heap")
    assert Simulator().active_backend == "heap"


def test_order_fifo_and_cancel(sim):
    log = []
    sim.schedule(30, log.append, "c")
    sim.schedule(10, log.append, "a")
    doomed = sim.schedule(20, log.append, "x")
    sim.schedule(20, log.append, "b1")
    sim.schedule(20, log.append, "b2")
    doomed.cancel()
    sim.run()
    assert log == ["a", "b1", "b2", "c"]
    assert sim.pending_events == 0


def test_horizon_probe_then_earlier_insert(sim):
    """A run(until) that finds nothing due must not hide a later insert
    landing before an already-stored far event."""
    log = []
    sim.schedule(1_000_000, log.append, "far")
    sim.run(until_ns=500)  # probe: nothing due, clock parks at 500
    assert log == []
    assert sim.now == 500
    sim.schedule(100, log.append, "near")  # t=600, before the far event
    sim.run()
    assert log == ["near", "far"]


def test_far_future_delays(sim):
    fired = []
    delays = [
        0, 1, 1023, 1024, 262_143, 262_144, 1 << 20, (1 << 26) + 7,
        (1 << 34) + 1, (1 << 42) + 5, (1 << 51) + 3,
    ]
    for delay in delays:
        sim.schedule(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(delays)
    assert sim.now == max(delays)


def test_peek_time_reports_earliest_live_event(sim):
    assert sim.peek_time() is None  # empty
    sim.schedule(500, lambda: None)
    handle = sim.schedule(100, lambda: None)
    sim.schedule(900, lambda: None)
    assert sim.peek_time() == 100
    handle.cancel()
    assert sim.peek_time() == 500  # skips the cancelled head
    sim.run()
    assert sim.peek_time() is None  # drained
    sim.schedule(0, lambda: None)
    assert sim.peek_time() == sim.now  # a due event is "now", not future


def test_cancelled_event_does_not_fire(sim):
    log = []
    event = sim.schedule(10, log.append, "x")
    sim.schedule(5, event.cancel)
    sim.run()
    assert log == []


def test_cancel_is_idempotent(sim):
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_run_until_is_inclusive_and_advances_clock(sim):
    log = []
    sim.schedule(100, log.append, "at-horizon")
    sim.schedule(101, log.append, "beyond")
    processed = sim.run(until_ns=100)
    assert log == ["at-horizon"]
    assert processed == 1
    assert sim.now == 100  # clock parked at the horizon


def test_run_until_leaves_future_events_runnable(sim):
    log = []
    sim.schedule(50, log.append, 1)
    sim.schedule(150, log.append, 2)
    sim.run(until_ns=100)
    sim.run(until_ns=200)
    assert log == [1, 2]


def test_run_for_is_relative(sim):
    sim.schedule(10, lambda: None)
    sim.run_for(100)
    assert sim.now == 100
    sim.schedule(10, lambda: None)
    sim.run_for(100)
    assert sim.now == 200


def test_events_can_schedule_events(sim):
    log = []

    def chain(n):
        log.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert log == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_max_events_bound(sim):

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    processed = sim.run(max_events=100)
    assert processed == 100


def test_not_reentrant(sim):
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0, reenter)
    sim.run()
    assert len(errors) == 1


def test_pending_events_counts_live_only(sim):
    sim.schedule(10, lambda: None)
    dead = sim.schedule(20, lambda: None)
    dead.cancel()
    assert sim.pending_events == 1


@pytest.mark.parametrize("mode", sorted(MODES))
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_property_execution_order_is_sorted(mode, delays):
    sim = make_sim(mode)
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@pytest.mark.parametrize("mode", sorted(MODES))
@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=1000),
)
def test_property_run_until_never_executes_beyond_horizon(mode, delays, horizon):
    sim = make_sim(mode)
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run(until_ns=horizon)
    assert all(t <= horizon for t in fired)
    assert len(fired) == sum(1 for d in delays if d <= horizon)


# ----------------------------------------------------------------------
# Fast-path machinery: free list, compaction, cancel reference-dropping
# ----------------------------------------------------------------------
def test_cancel_drops_callback_and_args_references(sim):
    """Cancelling must not pin the callback/args until the heap drains."""
    payload = object()
    event = sim.schedule(10, lambda p: None, payload)
    event.cancel()
    assert event.callback is None
    assert event.args == ()


def test_pending_events_is_live_counter(sim):
    """pending_events tracks schedules, cancels, and executions exactly."""
    events = [sim.schedule(i + 1, lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    for event in events[:4]:
        event.cancel()
    assert sim.pending_events == 6
    sim.run(until_ns=5)  # events at t=1..4 were cancelled; only t=5 fires
    assert sim.events_processed == 1
    assert sim.pending_events == 5


def test_executed_events_are_recycled(sim):
    """The free list reuses retired Event objects instead of allocating."""
    first = sim.schedule(1, lambda: None)
    sim.run()
    second = sim.schedule(1, lambda: None)
    assert second is first  # recycled, not a fresh allocation
    sim.run()


def test_stale_cancel_of_fired_event_is_harmless(sim):
    """cancel() on a handle that already fired must not kill later events."""
    fired = []
    handle = sim.schedule(1, lambda: fired.append("a"))
    sim.run()
    handle.cancel()  # stale: the event already executed
    sim.schedule(1, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b"]
    assert sim.pending_events == 0


def test_heap_compaction_preserves_order_and_counts(sim):
    """Mass-cancelling (timer churn) compacts without losing live events."""
    fired = []
    live = []
    # Interleave many cancelled "timers" with a few real events.
    for i in range(2000):
        event = sim.schedule(10_000 + i, lambda: None)
        event.cancel()
    for i in range(5):
        live.append(sim.schedule(100 + i, fired.append, i))
    # Compaction triggered: the heap must be mostly dead-free now.
    assert sim.pending_events == 5
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.pending_events == 0


def test_compaction_during_run_keeps_heap_consistent(sim):
    """A callback that mass-cancels mid-run must not break the loop."""
    fired = []
    doomed = [sim.schedule(1_000_000 + i, lambda: None) for i in range(600)]

    def cancel_all():
        for event in doomed:
            event.cancel()
        fired.append("cancelled")

    sim.schedule(10, cancel_all)
    sim.schedule(20, fired.append, "after")
    sim.run()
    assert fired == ["cancelled", "after"]
    assert sim.pending_events == 0


def test_dead_count_survives_compaction_inside_a_same_time_group(sim):
    """A callback cancels a same-time sibling (already popped by the group
    drain) and then enough far timers to compact the heap.  The dead-entry
    count must still equal the dead entries the heap holds, or later
    compactions fire at the wrong moment."""
    doomed = [sim.schedule(1_000_000 + i, lambda: None) for i in range(300)]
    group = []

    def canceller():
        group[1].cancel()
        for event in doomed:
            event.cancel()

    group.append(sim.schedule(10, canceller))
    group.append(sim.schedule(10, lambda: None))
    group.append(sim.schedule(10, lambda: None))
    assert sim.run(until_ns=100) == 2
    assert sim._dead == sum(entry[2].cancelled for entry in sim._heap) == 0
    assert sim.pending_events == 0


def test_zero_delay_schedule_joins_the_end_of_its_instant(sim):
    log = []

    def first():
        log.append(("first", sim.now))
        sim.schedule(0, lambda: log.append(("late", sim.now)))

    sim.schedule(10, first)
    sim.schedule(10, lambda: log.append(("second", sim.now)))
    sim.schedule(11, lambda: log.append(("next", sim.now)))
    sim.run()
    assert log == [("first", 10), ("second", 10), ("late", 10), ("next", 11)]


def test_kernel_is_reusable_after_a_callback_raises(sim):
    log = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1, log.append, "a")
    sim.schedule(2, boom)
    sim.schedule(3, log.append, "b")
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.events_processed == 1  # the raiser itself is not counted
    assert sim.now == 2
    assert sim.run() == 1
    assert log == ["a", "b"]
    assert sim.events_processed == 2


def test_bounded_and_unbounded_runs_continue_one_order(sim):
    """Alternating ``max_events`` runs (the per-event loop) with unbounded
    ones (the group drain when compiled) dispatches the same sequence as a
    single run, same-time groups cut at any point included."""
    log = []
    for i in range(40):
        sim.schedule((i % 7) * 10, log.append, i)
    total = 0
    for bound in (1, None, 3, None):
        total += sim.run(until_ns=total * 5 + 15, max_events=bound)
    total += sim.run()
    assert total == 40
    assert log == sorted(range(40), key=lambda i: ((i % 7) * 10, i))


def test_schedule_at_now_runs_within_the_current_instant(sim):
    log = []

    def first():
        log.append("first")
        sim.schedule_at(sim.now, log.append, "now")

    sim.schedule(5, first)
    sim.schedule(5, log.append, "sibling")
    sim.schedule(6, log.append, "later")
    sim.run()
    assert log == ["first", "sibling", "now", "later"]


def test_run_on_an_empty_queue_parks_the_clock_at_the_horizon(sim):
    assert sim.run(until_ns=250) == 0
    assert sim.now == 250
    assert sim.run() == 0
    assert sim.now == 250  # an unbounded drain of nothing leaves the clock


def test_max_events_zero_runs_nothing_and_keeps_the_clock(sim):
    log = []
    sim.schedule(10, log.append, "a")
    assert sim.run(until_ns=100, max_events=0) == 0
    assert log == []
    assert sim.now == 0  # a live event inside the horizon is still due
    assert sim.pending_events == 1
    assert sim.run(until_ns=100) == 1
    assert sim.now == 100


def test_cancelled_head_does_not_stop_the_horizon_probe(sim):
    """A dead entry at the head, before the horizon, is discarded and the
    live event behind it still fires."""
    log = []
    dead = sim.schedule(10, log.append, "dead")
    sim.schedule(10, log.append, "live")
    sim.schedule(30, log.append, "beyond")
    dead.cancel()
    assert sim.run(until_ns=20) == 1
    assert log == ["live"]
    assert sim.peek_time() == 30
