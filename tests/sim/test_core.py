"""Unit tests for the compiled-core primitives: the ``repro.sim.core``
group pop and the compiled-core loader.

The golden and model-based suites prove the group drain end-to-end;
these pin the primitives in isolation so a regression names the broken
layer directly.
"""

import heapq
import random

import pytest

from repro.sim import core
from repro.sim.engine import Event, load_core

def _event(time_ns: int, seq: int) -> Event:
    return Event(time_ns, seq, lambda: None, ())


def _push(heap, time_ns, seq):
    event = _event(time_ns, seq)
    heapq.heappush(heap, (time_ns, seq, event))
    return event


def _pop_batch(heap, horizon_ns, out):
    popped, _ = core.heap_pop_batch(heap, [], horizon_ns, out)
    return popped


# ----------------------------------------------------------------------
# core.heap_pop_batch — the same-time group pop of the compiled drain
# ----------------------------------------------------------------------
def test_pop_batch_pops_the_whole_same_time_group():
    heap = []
    for seq in (3, 1, 2):
        _push(heap, 100, seq)
    _push(heap, 200, 4)
    out = []
    assert _pop_batch(heap, 1_000, out) == 3
    assert [(e.time, e.seq) for e in out] == [(100, 1), (100, 2), (100, 3)]
    out2 = []
    assert _pop_batch(heap, 1_000, out2) == 1
    assert (out2[0].time, out2[0].seq) == (200, 4)
    assert _pop_batch(heap, 1_000, out2) == 0


def test_pop_batch_respects_horizon():
    heap = []
    _push(heap, 500, 1)
    out = []
    assert _pop_batch(heap, 499, out) == 0
    assert out == []
    assert _pop_batch(heap, 500, out) == 1


def test_pop_batch_skips_dead_entries():
    heap = []
    doomed_head = _push(heap, 100, 1)
    _push(heap, 100, 2)
    doomed_mid = _push(heap, 100, 3)
    _push(heap, 100, 4)
    for doomed in (doomed_head, doomed_mid):
        doomed.cancelled = True
    out = []
    assert _pop_batch(heap, 1_000, out) == 2
    assert [e.seq for e in out] == [2, 4]


def test_pop_batch_on_an_empty_heap_pops_nothing():
    out = []
    assert core.heap_pop_batch([], [], 1_000, out) == (0, 0)
    assert out == []


def test_pop_batch_recycles_an_all_dead_heap():
    heap, free = [], []
    doomed = [_push(heap, 100 + i, i) for i in range(5)]
    for event in doomed:
        event.cancelled = True
    assert core.heap_pop_batch(heap, free, 1_000, []) == (0, 5)
    assert heap == []
    assert free == doomed


def test_pop_batch_recycles_dead_heads_even_past_the_horizon():
    """Dead entries are unobservable, so they are swept off the head
    whatever the horizon; the live entry behind them stays."""
    heap, free = [], []
    dead = _push(heap, 50, 1)
    dead.cancelled = True
    _push(heap, 500, 2)
    assert core.heap_pop_batch(heap, free, 100, []) == (0, 1)
    assert free == [dead]
    assert [entry[0] for entry in heap] == [500]


def test_pop_batch_takes_the_whole_group_sitting_on_the_horizon():
    heap = []
    for seq in range(4):
        _push(heap, 300, seq)
    _push(heap, 301, 4)
    out = []
    assert _pop_batch(heap, 300, out) == 4  # the horizon is inclusive
    assert [e.seq for e in out] == [0, 1, 2, 3]
    assert _pop_batch(heap, 300, []) == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_pop_batch_matches_pop_due_sequence(seed):
    """Differential: draining by group pops yields the exact order of
    popping one live head at a time."""
    rng = random.Random(seed)
    plan = [(rng.randrange(1, 20) * 10, seq) for seq in range(200)]
    doomed = set(rng.sample(range(200), 40))

    def build():
        heap = []
        for time_ns, seq in plan:
            event = _push(heap, time_ns, seq)
            if seq in doomed:
                event.cancelled = True
        return heap

    serial, heap = [], build()
    while heap:
        _, _, event = heapq.heappop(heap)
        if not event.cancelled:
            serial.append((event.time, event.seq))

    batched, heap = [], build()
    out = []
    while _pop_batch(heap, 10_000, out):
        batched.extend((e.time, e.seq) for e in out)
        del out[:]
    assert batched == serial
    assert len(serial) == 160


# ----------------------------------------------------------------------
# repro.sim.core kernels
# ----------------------------------------------------------------------
def test_heap_pop_batch_mirrors_heap_backend():
    heap, free = [], []
    events = {}
    for seq, time_ns in enumerate([100, 100, 100, 200]):
        events[seq] = _event(time_ns, seq)
        heapq.heappush(heap, (time_ns, seq, events[seq]))
    events[1].cancelled = True
    out = []
    assert core.heap_pop_batch(heap, free, 1_000, out) == (2, 1)
    assert [e.seq for e in out] == [0, 2]
    assert free == [events[1]]
    assert core.heap_pop_batch(heap, [], 150, []) == (0, 0)  # horizon holds
    out2 = []
    assert core.heap_pop_batch(heap, [], 1_000, out2) == (1, 0)
    assert out2[0].seq == 3
    assert core.heap_pop_batch(heap, [], 1_000, []) == (0, 0)


# ----------------------------------------------------------------------
# Compiled-core loader
# ----------------------------------------------------------------------
def test_load_core_falls_back_to_pure_python():
    loaded = load_core(True)
    assert hasattr(loaded, "heap_pop_batch")
    try:
        import repro.sim._core_compiled  # noqa: F401
    except ImportError:
        assert loaded is core  # no compiled twin: pure module, quietly
        assert core.COMPILED is False


def test_load_core_plain_returns_pure_module():
    assert load_core(False) is core
