"""Model-based fuzz: the event kernel against a sorted-list oracle.

:class:`Oracle` is the kernel's contract and nothing else: pending events
in a list kept sorted by ``(time, seq)``, where ``seq`` counts schedule
calls, so same-time events fire in FIFO order.  It shares no code with
:mod:`repro.sim.engine`.  One seeded script of schedule / post / cancel /
reschedule / ``run(until_ns=)`` / ``run(max_events=)`` ops drives both;
every fired event runs a per-tag script of follow-ups (same-time and
later schedules and posts, cancels and reschedules of live events —
same-time siblings included — and a stale cancel or reschedule of its
own retired handle).  The oracle's post is a schedule nothing can
cancel; its reschedule is cancel + schedule; the script moves events
later, to the same time and earlier.  The two logs must match
entry for entry: every firing with the clock and ``pending_events`` seen
from inside the callback, every move's old and new deadline, and after
every op the clock, ``peek_time()``, ``pending_events`` and the op's
return value.  After every op the kernel's two heaps must hold exactly
one entry per event: the packet heap one per pending post, under the
key the post pushed and never a handle or a dead entry; the timer heap
one per live or dead handle event and never a post.  The dead-entry
count must equal the cancelled handle entries there: compaction fires
off that count, measured against the timer heap alone, on the very
cancel that crosses the threshold.  Some ops set posted and handle
events at the very same nanosecond, so the merge of the two heads must
break ties by ``seq``.

Cancels target only live handles, keyed by tag: the kernel recycles a
fired handle into a later event, so cancelling a retained one is outside
its contract.
"""

import random
from bisect import insort

import pytest

from repro.sim.engine import COMPACT_MIN_ENTRIES, Event, Simulator
from tests.sim.kernel_envs import KERNEL_ENVS, exported

OPS = 3_000


class Oracle:
    """Pending events as a sorted list of ``(time, seq, tag)``."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.queue = []
        self.entries = {}  # tag -> its queue entry, cancellable ones only

    def schedule(self, delay, tag):
        entry = self.entries[tag] = (self.now + delay, self.seq, tag)
        insort(self.queue, entry)
        self.seq += 1

    def post(self, delay, tag):
        insort(self.queue, (self.now + delay, self.seq, tag))
        self.seq += 1

    def cancel(self, tag):
        self.queue.remove(self.entries.pop(tag))

    def due(self, tag):
        return self.entries[tag][0]

    def peek_time(self):
        return self.queue[0][0] if self.queue else None

    def run(self, fire, until_ns=None, max_events=None):
        fired = 0
        while self.queue and fired != max_events:
            if until_ns is not None and self.queue[0][0] > until_ns:
                break
            self.now, _, tag = self.queue.pop(0)
            self.entries.pop(tag, None)
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

    def post(self, delay, tag):
        self.model.post(delay, tag)

    def cancel(self, tag):
        self.model.cancel(tag)

    def due(self, tag):
        return self.model.due(tag)

    def reschedule(self, tag, delay, new_tag):
        self.model.cancel(tag)
        self.model.schedule(delay, new_tag)

    def cancel_running(self):
        pass  # a fired event is no longer pending: nothing to cancel

    def reschedule_running(self, delay, new_tag):
        self.model.schedule(delay, new_tag)  # cancelling it is a no-op

    def run(self, fire, until_ns=None, max_events=None):
        return self.model.run(fire, until_ns, max_events)

    def check(self):
        pass


class KernelSide:
    def __init__(self):
        self.sim = Simulator()
        self.handles = {}  # tag -> handle of a live event
        self.posts = {}  # tag -> (time, seq) of a pending post
        self.running = None  # retired handle of the event being run, if any
        self.fire = None
        self.stale = 0  # stale heap keys seen by check(), summed

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

    def post(self, delay, tag):
        self.posts[tag] = (self.sim.now + delay, self.sim._seq)
        self.sim.post(delay, self._fire_posted, tag)

    def _fire_posted(self, tag):
        del self.posts[tag]
        self.running = None
        self.fire(tag)

    def cancel(self, tag):
        dead = self.sim._dead + 1
        crossed = dead >= COMPACT_MIN_ENTRIES and 2 * dead > len(self.sim._timers)
        self.handles.pop(tag).cancel()
        # The cancel that crosses the threshold compacts, no other does.
        assert self.sim._dead == (0 if crossed else dead)

    def due(self, tag):
        return self.handles[tag].time

    def reschedule(self, tag, delay, new_tag):
        self.handles[new_tag] = self.sim.reschedule(
            self.handles.pop(tag), delay, self._fire, new_tag
        )

    def cancel_running(self):
        if self.running is not None:
            self.running.cancel()  # stale: must be a no-op

    def reschedule_running(self, delay, new_tag):
        if self.running is None:  # a post has no handle to move
            self.schedule(delay, new_tag)
            return
        self.handles[new_tag] = self.sim.reschedule(
            self.running, delay, self._fire, new_tag
        )

    def run(self, fire, until_ns=None, max_events=None):
        self.fire = fire
        return self.sim.run(until_ns=until_ns, max_events=max_events)

    def check(self):
        heap, timers = self.sim._heap, self.sim._timers
        # Posted entries only in the packet heap, handle entries only in
        # the timer heap.
        assert all(len(entry) == 4 and entry[2] == self._fire_posted for entry in heap)
        assert all(len(entry) == 3 and type(entry[2]) is Event for entry in timers)
        events = [entry[2] for entry in timers]
        assert len({id(event) for event in events}) == len(events)
        live = {id(event) for event in events if not event.cancelled}
        assert live == {id(handle) for handle in self.handles.values()}
        assert self.sim._dead == len(events) - len(live)
        # One entry per pending post, under the key it was pushed with: a
        # posted entry is never stale, and none is dead.
        posted = {entry[3][0]: entry[:2] for entry in heap}
        assert len(posted) == len(heap)
        assert posted == self.posts
        # One seq per entry across both heaps: the merge is a total order.
        seqs = [entry[1] for entry in heap] + [entry[1] for entry in timers]
        assert len(set(seqs)) == len(seqs)
        # A stale key never exceeds the real one: the order argument.
        keys = [(entry[:2], (entry[2].time, entry[2].seq)) for entry in timers]
        assert all(key <= real for key, real in keys)
        self.stale += sum(key != real for key, real in keys)


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
    posted = set()

    def add(delay, post):
        tag = next(tags)
        if post:
            posted.add(tag)
            side.post(delay, tag)
        else:
            side.schedule(delay, tag)

    def cancel_one(pick):
        live = side.live()
        if live:
            side.cancel(live[pick % len(live)])

    def reschedule_one(pick, rng):
        live = side.live()
        if not live:
            return
        tag = live[pick % len(live)]
        due = side.due(tag)
        # Later, to the same time, or earlier (never before now).
        shift = rng.choice((rng.randrange(1, 50_000), rng.randrange(0, 3), 0))
        if rng.random() < 0.4:
            shift = -shift
        delay = max(due + shift - side.now(), 0)
        log.append(("move", tag, due, side.now() + delay))
        side.reschedule(tag, delay, next(tags))

    def fire(tag):
        log.append(("fire", side.now(), tag, side.pending(), tag in posted))
        script = random.Random(seed * 1_000_003 + tag)
        for _ in range(2):
            if script.random() < 0.3:
                delay = script.choice((0, 0, script.randrange(0, 50_000)))
                add(delay, post=script.random() < 0.5)
        roll = script.random()
        if roll < 0.2:
            cancel_one(script.randrange(1 << 30))
        elif roll < 0.25:
            side.cancel_running()
        elif roll < 0.4:
            reschedule_one(script.randrange(1 << 30), script)
        elif roll < 0.43:
            side.reschedule_running(script.randrange(0, 3), next(tags))

    for op in range(OPS):
        roll = rng.random()
        if roll < 0.45:
            for _ in range(rng.choice((1, 1, 1, 30))):
                add(_delay(rng), post=rng.random() < 0.4)
            result = None
        elif roll < 0.55:
            cancel_one(rng.randrange(1 << 30))
            result = None
        elif roll < 0.62:
            for _ in range(rng.choice((1, 1, 20))):
                reschedule_one(rng.randrange(1 << 30), rng)
            result = None
        elif roll < 0.63:
            # Timer churn: arm a burst of long timers, cancel them all;
            # at times beside a burst of pending posts, which the
            # compaction threshold must not count.
            if rng.random() < 0.15:
                for _ in range(200):
                    add(rng.randrange(1, 300_000_000), post=True)
            burst = [next(tags) for _ in range(300)]
            for tag in burst:
                side.schedule(rng.randrange(1, 300_000_000), tag)
            for tag in burst:
                side.cancel(tag)
            result = None
        elif roll < 0.65:
            # Same-nanosecond ties between posted and handle events.
            delay = rng.choice((0, rng.randrange(1, 50_000)))
            for _ in range(rng.randrange(2, 9)):
                add(delay, post=rng.random() < 0.5)
            result = None
        elif roll < 0.89:
            reach = 200_000 if roll < 0.87 else 400_000_000
            horizon = side.now() + rng.randrange(1, reach)
            result = side.run(fire, until_ns=horizon)
        else:
            result = side.run(fire, max_events=rng.randrange(1, 40))
        log.append(("op", op, result, side.now(), side.peek(), side.pending()))
        side.check()
    result = side.run(fire)
    log.append(("drain", result, side.now(), side.peek(), side.pending()))
    return log


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mode", sorted(KERNEL_ENVS))
def test_kernel_matches_sorted_list_oracle(monkeypatch, mode, seed):
    compactions = []
    compact = Simulator._compact

    def counted(sim):
        compactions.append((sim._dead, len(sim._timers)))
        compact(sim)

    monkeypatch.setattr(Simulator, "_compact", counted)
    side = KernelSide()
    with exported(mode):
        kernel = _play(side, seed)
    oracle = _play(OracleSide(), seed)
    for got, want in zip(kernel, oracle):
        assert got == want
    assert len(kernel) == len(oracle)
    fired = [entry[4] for entry in oracle if entry[0] == "fire"]
    # The script really ran events, posted and handle ones alike.
    assert fired.count(True) > 1_000 and fired.count(False) > 1_000
    # Same-time posted and handle events fired back to back, each kind
    # first: the two heads really tied.
    fires = [(e[1], e[4]) for e in oracle if e[0] == "fire"]
    ties = {(a[1], b[1]) for a, b in zip(fires, fires[1:]) if a[0] == b[0] and a[1] != b[1]}
    assert ties == {(True, False), (False, True)}
    # Moves went later, to the same time and earlier; some re-keyed in
    # place, leaving stale keys in the timer heap.
    moves = {(e[3] > e[2]) - (e[3] < e[2]) for e in oracle if e[0] == "move"}
    assert moves == {1, 0, -1}
    assert side.stale > 0
    # Timer churn crossed the compaction threshold: >= 256 dead entries
    # and more than half the timer heap.
    assert compactions
    assert all(dead >= 256 and 2 * dead > size for dead, size in compactions)
