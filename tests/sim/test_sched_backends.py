"""Pluggable scheduler backends: selection, semantics, differential fuzz.

The contract is single-sentence: **every backend pops the identical
(time, seq, callback) sequence**.  The differential fuzz drives a seeded
random schedule/cancel/run trace through heap, calendar, and wheel (and
the adaptive policy) and asserts the pop logs match event-for-event —
covering same-timestamp FIFO ties, zero delays, far-future events that
exercise the wheel's upper levels and the calendar's year wrap,
cancellations (before and after firing), and horizon-bounded runs.
"""

import random

import pytest

from repro.sim.engine import (
    ADAPTIVE_SWITCH_THRESHOLD,
    Simulator,
)
from repro.sim.sched import SCHEDULER_NAMES, make_scheduler

BACKENDS = ("heap", "calendar", "wheel")


# ----------------------------------------------------------------------
# Selection plumbing
# ----------------------------------------------------------------------
def test_scheduler_names_registry():
    assert set(BACKENDS) <= set(SCHEDULER_NAMES)
    assert "adaptive" in SCHEDULER_NAMES


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown scheduler"):
        Simulator(scheduler="bogus")
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("adaptive")  # a policy, not a backend class


@pytest.mark.parametrize("backend", BACKENDS)
def test_explicit_backend_selected(backend):
    sim = Simulator(scheduler=backend)
    assert sim.scheduler_name == backend
    assert sim.active_backend == backend


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "wheel")
    assert Simulator().active_backend == "wheel"
    monkeypatch.setenv("REPRO_SCHEDULER", "")
    sim = Simulator()
    assert sim.scheduler_name == "heap"
    assert sim.active_backend == "heap"
    monkeypatch.delenv("REPRO_SCHEDULER")
    assert Simulator().scheduler_name == "heap"


def test_env_var_selects_adaptive_policy(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "adaptive")
    sim = Simulator()
    assert sim.scheduler_name == "adaptive"
    assert sim.active_backend == "heap"  # starts there, migrates at scale


def test_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "calendar")
    assert Simulator(scheduler="heap").active_backend == "heap"


# ----------------------------------------------------------------------
# Per-backend semantics (the engine unit-test core, on every backend)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_order_fifo_and_cancel(backend):
    sim = Simulator(scheduler=backend)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_horizon_probe_then_earlier_insert(backend):
    """Probing run(until) must not let a backend skip later inserts that
    land before an already-stored far event."""
    sim = Simulator(scheduler=backend)
    log = []
    sim.schedule(1_000_000, log.append, "far")
    sim.run(until_ns=500)  # probe: nothing due, clock parks at 500
    assert log == []
    assert sim.now == 500
    sim.schedule(100, log.append, "near")  # t=600, before the far event
    sim.run()
    assert log == ["near", "far"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_far_future_levels_and_years(backend):
    """Delays spanning the wheel's level widths / many calendar years."""
    sim = Simulator(scheduler=backend)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_mass_cancel_compaction(backend):
    sim = Simulator(scheduler=backend)
    fired = []
    doomed = [sim.schedule(10_000 + i, lambda: None) for i in range(2000)]
    for event in doomed:
        event.cancel()
    for i in range(5):
        sim.schedule(100 + i, fired.append, i)
    assert sim.pending_events == 5
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.pending_events == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_after_fire_is_noop(backend):
    sim = Simulator(scheduler=backend)
    fired = []
    handle = sim.schedule(5, fired.append, "a")
    sim.run()
    handle.cancel()  # stale: already fired; must not kill a later event
    sim.schedule(5, fired.append, "b")
    sim.run()
    assert fired == ["a", "b"]
    assert sim.pending_events == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_free_list_recycles_across_backends(backend):
    sim = Simulator(scheduler=backend)
    first = sim.schedule(1, lambda: None)
    sim.run()
    second = sim.schedule(1, lambda: None)
    assert second is first
    sim.run()


# ----------------------------------------------------------------------
# Adaptive policy
# ----------------------------------------------------------------------
def test_adaptive_switches_to_calendar_and_preserves_order():
    sim = Simulator(scheduler="adaptive")
    assert sim.active_backend == "heap"
    fired = []
    n = ADAPTIVE_SWITCH_THRESHOLD + 500
    for i in range(n):
        # Reversed times with FIFO ties sprinkled in.
        sim.schedule((n - i) * 10 + (i % 3 == 0), fired.append, i)
    assert sim.active_backend == "calendar"
    assert sim.pending_events == n
    sim.run()
    assert len(fired) == n
    times = [(n - i) * 10 + (i % 3 == 0) for i in fired]
    assert times == sorted(times)
    assert sim.pending_events == 0


def test_adaptive_switch_mid_run_keeps_draining():
    sim = Simulator(scheduler="adaptive")
    fired = []

    def burst():
        for i in range(ADAPTIVE_SWITCH_THRESHOLD + 10):
            sim.schedule(100 + i, lambda i=i: None)
        fired.append("burst")

    sim.schedule(10, burst)
    sim.schedule(20, fired.append, "after")
    sim.run()
    assert fired == ["burst", "after"]
    assert sim.active_backend == "calendar"
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# Cross-backend differential fuzz (the determinism contract)
# ----------------------------------------------------------------------
def _random_trace(seed, ops=3000):
    """A seeded schedule/cancel/run script, backend-agnostic."""
    rng = random.Random(seed)
    script = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.55:
            kind = rng.random()
            if kind < 0.35:
                delay = rng.randrange(0, 4)  # same-slot / same-time ties
            elif kind < 0.80:
                delay = rng.randrange(0, 50_000)
            elif kind < 0.95:
                delay = rng.randrange(0, 300_000_000)  # RTO-scale
            else:
                delay = rng.randrange(0, 1 << 45)  # upper wheel levels
            script.append(("schedule", delay))
        elif roll < 0.80:
            script.append(("cancel", rng.randrange(1 << 30)))
        elif roll < 0.95:
            script.append(("run_for", rng.randrange(1, 200_000)))
        else:
            script.append(("run_max", rng.randrange(1, 40)))
    script.append(("drain",))
    return script


def _execute(script, scheduler, peek_every_op=False):
    sim = Simulator(scheduler=scheduler)
    log = []
    # Cancels must only target *live* handles: a fired handle may have
    # been recycled into a brand-new event, and free-list state depends
    # on when each backend lazily reaps dead entries — cancelling raw
    # retained handles would couple the trace to backend internals (the
    # kernel contract forbids it; Timer exists for restartable handles).
    live = {}

    def fire(tag):
        log.append((sim.now, tag))
        live.pop(tag, None)

    tag = 0
    for op in script:
        if peek_every_op:
            sim.peek_time()
        if op[0] == "schedule":
            live[tag] = sim.schedule(op[1], fire, tag)
            tag += 1
        elif op[0] == "cancel":
            if live:
                # Deterministic pick among currently-live tags: identical
                # across backends iff the pop sequences are identical,
                # which is exactly the property under test.
                tags = sorted(live)
                live.pop(tags[op[1] % len(tags)]).cancel()
        elif op[0] == "run_for":
            sim.run_for(op[1])
        elif op[0] == "run_max":
            sim.run(max_events=op[1])
        else:
            sim.run()
    return log, sim.events_processed, sim.now


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_differential_fuzz_identical_pop_sequence(seed):
    script = _random_trace(seed)
    reference, ref_count, ref_now = _execute(script, "heap")
    assert ref_count == len(reference)
    for backend in ("calendar", "wheel", "adaptive"):
        log, count, now = _execute(script, backend)
        assert count == ref_count, f"{backend}: event count diverged"
        assert now == ref_now, f"{backend}: final clock diverged"
        assert log == reference, f"{backend}: pop sequence diverged"


# ----------------------------------------------------------------------
# peek_time: the non-destructive horizon probe (shard coordinator API)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS + ("adaptive",))
def test_peek_time_reports_earliest_live_event(backend):
    sim = Simulator(scheduler=backend)
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


@pytest.mark.parametrize("seed", [0, 1])
def test_peek_between_pops_never_perturbs_order(seed):
    """Differential: interleaving peeks leaves the pop trace bit-identical.

    The same fuzz script runs twice per backend — once untouched, once
    with a ``peek_time()`` probe before every op — and the pop logs must
    match.  This is the contract the shard coordinator relies on when it
    probes every shard's horizon between epochs.
    """
    script = _random_trace(seed, ops=1500)
    for backend in BACKENDS + ("adaptive",):
        plain, plain_count, plain_now = _execute(script, backend)
        peeked, peeked_count, peeked_now = _execute(
            script, backend, peek_every_op=True
        )
        assert peeked == plain, f"{backend}: peeking perturbed the order"
        assert peeked_count == plain_count
        assert peeked_now == plain_now


def test_peek_time_on_raw_backends_matches_next_live_time():
    class _Ev:
        __slots__ = ("time", "seq", "cancelled")

        def __init__(self, time, seq):
            self.time = time
            self.seq = seq
            self.cancelled = False

    for backend in BACKENDS:
        sched = make_scheduler(backend)
        assert sched.peek_time() is None
        sched.push(40, 0, _Ev(40, 0))
        early = _Ev(10, 1)
        sched.push(10, 1, early)
        assert sched.peek_time() == 10 == sched.next_live_time()
        early.cancelled = True
        assert sched.peek_time() == 40 == sched.next_live_time()
