"""Model-based fuzz: the event kernel against a sorted-list oracle.

:class:`Oracle` is the kernel's contract and nothing else: pending events
in a list kept sorted by ``(time, seq)``, where ``seq`` counts schedule
calls, so same-time events fire in FIFO order.  It shares no code with
:mod:`repro.sim.engine`.  One seeded script of schedule / cancel /
``run(until_ns=)`` / ``run(max_events=)`` ops drives both; every fired
event runs a per-tag script of follow-ups (same-time and later
schedules, cancels of live events — same-time siblings included — and a
stale cancel of its own retired handle).  The two logs must match entry
for entry: every firing with the clock and ``pending_events`` seen from
inside the callback, and after every op the clock, ``peek_time()``,
``pending_events`` and the op's return value.

Cancels target only live handles, keyed by tag: the kernel recycles a
fired handle into a later event, so cancelling a retained one is outside
its contract.
"""

import random
from bisect import insort

import pytest

from repro.sim.engine import Simulator

#: The two ``run()`` paths: the inlined heap loop and the compiled-core
#: group drain (interpreted fallback when the extension is not built).
MODES = {
    "default": {"REPRO_COMPILED": "off"},
    "compiled": {"REPRO_COMPILED": "on"},
}

OPS = 3_000


class Oracle:
    """Pending events as a sorted list of ``(time, seq, tag)``."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.queue = []
        self.entries = {}  # tag -> its queue entry

    def schedule(self, delay, tag):
        entry = self.entries[tag] = (self.now + delay, self.seq, tag)
        insort(self.queue, entry)
        self.seq += 1

    def cancel(self, tag):
        self.queue.remove(self.entries.pop(tag))

    def peek_time(self):
        return self.queue[0][0] if self.queue else None

    def run(self, fire, until_ns=None, max_events=None):
        fired = 0
        while self.queue and fired != max_events:
            if until_ns is not None and self.queue[0][0] > until_ns:
                break
            self.now, _, tag = self.queue.pop(0)
            del self.entries[tag]
            fire(tag)
            fired += 1
        if until_ns is not None and self.now < until_ns:
            head = self.peek_time()
            if head is None or head > until_ns:
                self.now = until_ns
        return fired


class OracleSide:
    def __init__(self):
        self.model = Oracle()

    def now(self):
        return self.model.now

    def pending(self):
        return len(self.model.queue)

    def peek(self):
        return self.model.peek_time()

    def live(self):
        return sorted(self.model.entries)

    def schedule(self, delay, tag):
        self.model.schedule(delay, tag)

    def cancel(self, tag):
        self.model.cancel(tag)

    def cancel_running(self):
        pass  # a fired event is no longer pending: nothing to cancel

    def run(self, fire, until_ns=None, max_events=None):
        return self.model.run(fire, until_ns, max_events)


class KernelSide:
    def __init__(self):
        self.sim = Simulator()
        self.handles = {}  # tag -> handle of a live event
        self.running = None  # retired handle of the event being run
        self.fire = None

    def now(self):
        return self.sim.now

    def pending(self):
        return self.sim.pending_events

    def peek(self):
        return self.sim.peek_time()

    def live(self):
        return sorted(self.handles)

    def schedule(self, delay, tag):
        self.handles[tag] = self.sim.schedule(delay, self._fire, tag)

    def _fire(self, tag):
        self.running = self.handles.pop(tag)
        self.fire(tag)

    def cancel(self, tag):
        self.handles.pop(tag).cancel()

    def cancel_running(self):
        self.running.cancel()  # stale: must be a no-op

    def run(self, fire, until_ns=None, max_events=None):
        self.fire = fire
        return self.sim.run(until_ns=until_ns, max_events=max_events)


def _delay(rng):
    kind = rng.random()
    if kind < 0.35:
        return rng.randrange(0, 4)  # same-time ties
    if kind < 0.80:
        return rng.randrange(0, 50_000)
    if kind < 0.95:
        return rng.randrange(0, 300_000_000)  # RTO-scale
    return rng.randrange(0, 1 << 45)


def _play(side, seed):
    """Run the seed's script on one side; return everything observable."""
    rng = random.Random(seed)
    log = []
    tags = iter(range(1 << 62))

    def cancel_one(pick):
        live = side.live()
        if live:
            side.cancel(live[pick % len(live)])

    def fire(tag):
        log.append(("fire", side.now(), tag, side.pending()))
        script = random.Random(seed * 1_000_003 + tag)
        for _ in range(2):
            if script.random() < 0.3:
                delay = script.choice((0, 0, script.randrange(0, 50_000)))
                side.schedule(delay, next(tags))
        roll = script.random()
        if roll < 0.2:
            cancel_one(script.randrange(1 << 30))
        elif roll < 0.25:
            side.cancel_running()

    for op in range(OPS):
        roll = rng.random()
        if roll < 0.45:
            for _ in range(rng.choice((1, 1, 1, 30))):
                side.schedule(_delay(rng), next(tags))
            result = None
        elif roll < 0.55:
            cancel_one(rng.randrange(1 << 30))
            result = None
        elif roll < 0.56:
            # Timer churn: arm a burst of long timers, cancel them all.
            burst = [next(tags) for _ in range(300)]
            for tag in burst:
                side.schedule(rng.randrange(1, 300_000_000), tag)
            for tag in burst:
                side.cancel(tag)
            result = None
        elif roll < 0.89:
            reach = 200_000 if roll < 0.87 else 400_000_000
            horizon = side.now() + rng.randrange(1, reach)
            result = side.run(fire, until_ns=horizon)
        else:
            result = side.run(fire, max_events=rng.randrange(1, 40))
        log.append(("op", op, result, side.now(), side.peek(), side.pending()))
    result = side.run(fire)
    log.append(("drain", result, side.now(), side.peek(), side.pending()))
    return log


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_kernel_matches_sorted_list_oracle(monkeypatch, mode, seed):
    for var, value in MODES[mode].items():
        monkeypatch.setenv(var, value)
    compactions = []
    compact = Simulator._compact

    def counted(sim):
        compactions.append((sim._dead, len(sim._heap)))
        compact(sim)

    monkeypatch.setattr(Simulator, "_compact", counted)
    kernel = _play(KernelSide(), seed)
    oracle = _play(OracleSide(), seed)
    assert len(kernel) == len(oracle)
    for got, want in zip(kernel, oracle):
        assert got == want
    fired = sum(entry[0] == "fire" for entry in oracle)
    assert fired > 1_000  # the script really ran events
    # Timer churn crossed the compaction threshold: >= 256 dead entries
    # and more than half the heap.
    assert compactions
    assert all(dead >= 256 and 2 * dead > size for dead, size in compactions)
