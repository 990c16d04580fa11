"""Cut-through equals enqueue-then-dequeue, discipline by discipline.

A frame that finds its port idle and its queue empty goes straight to
serialisation through ``queue.admit``; every other frame is enqueued and
later dequeued.  :class:`Reference` is the port written the long way —
every frame enqueued, then dequeued when the wire is free — and shares
no code with ``Port.send``.  One random script of sends, port pauses and
resumes, rate changes and (for BFC) per-flow pauses drives a real
:class:`~repro.net.port.Port` and the reference over twin queues; the
two must agree on every send's verdict, every queue and port counter,
the loss model's RNG state, the ``on_dequeue`` log and the
``(time, frame)`` delivery log.
"""

import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.net.bfc import BfcQueue
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import Link, Port
from repro.net.queues import (
    BernoulliLoss,
    DropTailQueue,
    EcnQueue,
    FaultyQueue,
    RandomDropQueue,
)
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.sim.units import GBPS, microseconds, transmission_time_ns

RATE = GBPS
DELAY = microseconds(1)
CAPACITY = 6_000  # four full frames: drops happen
PAUSED_SPORT = 1  # the flow a BFC queue starts with paused

#: Discipline -> factory of one queue; called twice per example with
#: the same seed, so the twins draw identical loss streams.
DISCIPLINES = {
    "droptail": lambda s: DropTailQueue(CAPACITY),
    "ecn-below-one-frame": lambda s: EcnQueue(CAPACITY, 500),
    "faulty-bernoulli": lambda s: FaultyQueue(CAPACITY, BernoulliLoss(0.2, random.Random(s))),
    "random-drop": lambda s: RandomDropQueue(CAPACITY, 0.2, seed=s),
    "bfc-paused-flow": lambda s: BfcQueue(CAPACITY),
    "on-dequeue-hook": lambda s: DropTailQueue(CAPACITY),
}

COUNTERS = ("enqueues", "drops", "dropped_bytes", "faulted_drops", "max_bytes_seen", "marks")


def _tag(packet):
    return (packet.sport, packet.seq, packet.payload, packet.ecn_ce)


class Sink(Node):
    """Logs ``(arrival_ns, frame)`` for every frame it receives."""

    def __init__(self, sim):
        super().__init__(sim, 0, "sink", Tracer())
        self.arrivals = []

    def receive(self, packet, in_port_index):
        self.arrivals.append((self.sim.now, _tag(packet)))


class Reference:
    """A port that always enqueues, then dequeues when the wire is free."""

    def __init__(self, sim, queue):
        self.sim = sim
        self.queue = queue
        self.on_dequeue = None
        self.wire_busy = False
        self.paused = False
        self.factor = 1.0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.arrivals = []

    def send(self, packet):
        admitted = self.queue.enqueue(packet)
        self.serve()
        return admitted

    def serve(self):
        if self.wire_busy or self.paused:
            return
        packet = self.queue.dequeue()
        if packet is None:
            return
        self.wire_busy = True
        if self.on_dequeue is not None:
            self.on_dequeue(packet)
        rate = RATE if self.factor >= 1.0 else max(int(RATE * self.factor), 1)
        self.sim.post(transmission_time_ns(packet.frame_size, rate), self.serialised, packet)

    def serialised(self, packet):
        self.wire_busy = False
        self.tx_packets += 1
        self.tx_bytes += packet.frame_size
        self.sim.post(DELAY, self.arrive, packet)
        self.serve()

    def arrive(self, packet):
        self.arrivals.append((self.sim.now, _tag(packet)))

    def pause(self):
        self.paused = True

    def resume(self):
        if self.paused:
            self.paused = False
            self.serve()

    def set_rate(self, factor):
        self.factor = factor


class Real:
    """The port under test, behind the reference's interface."""

    def __init__(self, sim, queue):
        self.sink = Sink(sim)
        self.link = Link(sim, RATE, DELAY, self.sink, 0)
        self.port = Port(sim, self.sink, 0, self.link, queue)

    def send(self, packet):
        return self.port.send(packet)

    def serve(self):
        self.port.kick()

    def pause(self):
        self.port.pause()

    def resume(self):
        self.port.resume()

    def set_rate(self, factor):
        self.link.rate_factor = factor


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("send"),
            st.sampled_from((0, 100, 700, 1460)),
            st.sampled_from((1, 2, 3)),
            st.booleans(),
        ),
        st.tuples(st.just("wait"), st.integers(0, 40_000)),
        st.tuples(st.sampled_from(("pause", "resume"))),
        st.tuples(st.just("rate"), st.sampled_from((1.0, 0.5, 0.1))),
        st.tuples(st.sampled_from(("flow-pause", "flow-resume")), st.sampled_from((1, 2))),
    ),
    min_size=1,
    max_size=80,
)


def _play(side_cls, discipline, stream_seed, ops):
    """Run ``ops`` on one side; return everything observable."""
    sim = Simulator()
    queue = DISCIPLINES[discipline](stream_seed)
    side = side_cls(sim, queue)
    port = getattr(side, "port", side)
    hooked = []
    if discipline == "on-dequeue-hook":
        port.on_dequeue = lambda packet: hooked.append((sim.now, _tag(packet)))
    if isinstance(queue, BfcQueue):
        queue.pause_flow((7, 8, PAUSED_SPORT, 9))
    verdicts = []
    for number, op in enumerate(ops):
        kind = op[0]
        if kind == "send":
            _, payload, sport, ecn = op
            packet = Packet(7, 8, sport, 9, seq=number, payload=payload, ecn_capable=ecn)
            verdicts.append(side.send(packet))
        elif kind == "wait":
            sim.run(until_ns=sim.now + op[1])
        elif kind == "pause":
            side.pause()
        elif kind == "resume":
            side.resume()
        elif kind == "rate":
            side.set_rate(op[1])
        elif isinstance(queue, BfcQueue):
            key = (7, 8, op[1], 9)
            if kind == "flow-pause":
                queue.pause_flow(key)
            else:
                queue.resume_flow(key)
                side.serve()  # an XON kicks the port
    sim.run()
    loss = queue.loss_model
    return {
        "verdicts": verdicts,
        "counters": {name: getattr(queue, name, None) for name in COUNTERS},
        "tx": (port.tx_packets, port.tx_bytes),
        "rng": loss._rng.getstate() if loss is not None else None,
        "hooked": hooked,
        "arrivals": getattr(side, "sink", side).arrivals,
        "clock": sim.now,
    }


@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
@seed(51)
@settings(max_examples=150, deadline=None)
@given(ops=_OPS, stream_seed=st.integers(0, 2**32 - 1))
def test_port_matches_enqueue_then_dequeue_reference(discipline, ops, stream_seed):
    got = _play(Real, discipline, stream_seed, ops)
    want = _play(Reference, discipline, stream_seed, ops)
    assert got == want


@pytest.mark.parametrize("cls, cut", [(DropTailQueue, True), (EcnQueue, True), (BfcQueue, False)])
def test_an_idle_port_cuts_through_unless_the_queue_may_hold(cls, cut):
    """The fast path is really taken: an idle port never enqueues into a
    FIFO discipline, while a BFC port enqueues even when idle."""
    calls = []

    class Counting(cls):
        def enqueue(self, packet):
            calls.append(packet)
            return super().enqueue(packet)

    queue = Counting(CAPACITY, 500) if cls is EcnQueue else Counting(CAPACITY)
    sim = Simulator()
    real = Real(sim, queue)
    assert real.send(Packet(7, 8, 2, 9, payload=1460))
    sim.run()
    assert (calls == []) is cut
    assert queue.enqueues == 1 and real.port.tx_packets == 1
