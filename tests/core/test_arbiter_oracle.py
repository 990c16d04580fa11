"""The delay arbiter against a reference built from the prose alone.

The reference below is PAPER.md §1 item 6 ("RMA ACKs are paced through a
per-port token-bucket counter at the switch") with DESIGN.md §5a item 9's
accounting, written without reading ``DelayArbiter``'s arithmetic:

* credit accrues at ``ρ0 × c`` over elapsed time, up to ``cap``;
* a grant debits its wire bytes (payload plus per-frame overhead; a
  sender fills whole bytes), at most ``cap``, and the debt stops at
  ``−cap``;
* a sub-MSS ACK passes at once, rounded up to one MSS, only when nothing
  is parked and the credit covers its cost; otherwise it joins a FIFO;
* the head of the FIFO leaves at the first nanosecond at which the credit
  covers its cost under the cap of *that* moment, with a window of 1 MSS;
  a release that finds the credit short (the cap rose, a large grant ran
  up debt) tries again from there;
* an ACK of at least one MSS passes through and still pays.

A seeded script of offers, clock gaps, ``set_cap`` and ``reset`` drives
both; every return value, every window, every release nanosecond and the
credit after every operation must agree bit for bit.
"""

import math

from hypothesis import given, seed, settings, strategies as st

from repro.core.delay import DelayArbiter
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.units import GBPS

_BYTE_NS = 8 * 10**9  # bits per byte x nanoseconds per second
_EPS = 1e-6  # float slack of a credit comparison


class ReferenceArbiter:
    def __init__(self, rate_bps, rho0, mss, overhead, limit):
        self.fill = max(round(rate_bps * rho0), 1)
        self.mss, self.overhead, self.limit = mss, overhead, limit
        self.cap, self.credit, self.at = 2.0 * mss, float(mss), 0  # 1 MSS at boot
        self.parked, self.due, self.released = [], None, []
        self.delayed = self.dropped = 0

    def accrue(self, now):
        if now > self.at:
            self.credit = min(self.credit + self.fill * (now - self.at) / _BYTE_NS, self.cap)
            self.at = now

    def covered(self, credit, wire):
        return credit >= min(wire, self.cap) - _EPS

    def pay(self, wire):
        self.credit = max(self.credit - min(wire, self.cap), -self.cap)

    def arm(self, now):  # due at the first ns whose accrued credit covers the head
        wire, credit = self.parked[0][1], self.credit
        def ready(ns):
            return self.covered(min(credit + self.fill * ns / _BYTE_NS, self.cap), wire)
        wait = max(math.ceil((min(wire, self.cap) - credit) * _BYTE_NS / self.fill), 0)
        while wait > 0 and ready(wait - 1):
            wait -= 1
        while not ready(wait):
            wait += 1
        self.due = now + wait

    def advance(self, now):
        while self.due is not None and self.due <= now:
            at, self.due = self.due, None
            self.accrue(at)
            if self.covered(self.credit, self.parked[0][1]):
                ack, wire = self.parked.pop(0)
                self.pay(wire)
                self.released.append((at, ack, float(self.mss)))
            if self.parked:
                self.arm(at)

    def offer(self, now, ack, window):
        self.accrue(now)
        payload = max(window, self.mss)  # a sender fills whole bytes of whole frames
        wire = payload + math.ceil(math.floor(payload) / self.mss) * self.overhead
        if window >= self.mss or (not self.parked and self.covered(self.credit, wire)):
            self.pay(wire)
            return False, max(window, float(self.mss))
        if len(self.parked) >= self.limit:
            self.dropped += 1
            return True, window
        self.parked.append((ack, wire))
        self.delayed += 1
        if self.due is None:
            self.arm(now)
        return True, window

    def reset(self, now, cap):
        self.dropped, self.parked, self.due = self.dropped + len(self.parked), [], None
        self.credit, self.at, self.cap = float(self.mss), now, max(cap, 2.0 * self.mss)


# One step: advance the clock by a gap, then one operation.
_GAPS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=300, max_value=20_000),
    st.integers(min_value=20_000, max_value=400_000),
)
# Caps in MSS; below about four, a parked ACK's wire cost can exceed it.
_CAPS = st.one_of(
    st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=60.0)
)
# A window below one MSS is any fraction of it; above, whole multiples
# (as the switch quantises) or any byte count (a budget-capped RM stamp).
_OPS = st.one_of(
    st.tuples(st.just("sub_mss"), st.floats(min_value=0.001, max_value=0.999)),
    st.tuples(st.just("whole_mss"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("bytes"), st.floats(min_value=1.0, max_value=30.0)),
    st.tuples(st.just("set_cap"), _CAPS),
    st.tuples(st.just("set_cap"), _CAPS),
    st.tuples(st.just("reset"), _CAPS),
)
_SCRIPTS = st.tuples(
    st.sampled_from((GBPS, 10 * GBPS, 3 * GBPS + 7)),
    st.sampled_from((1.0, 0.97)),
    st.sampled_from(((1460, 78), (1460, 78), (200, 600), (977, 1))),  # mss, overhead
    st.sampled_from((3, 65536)),  # queue limit
    st.lists(st.tuples(_GAPS, _OPS), max_size=50),
)


@seed(47)
@settings(max_examples=250, deadline=None)
@given(_SCRIPTS)
def test_arbiter_matches_the_reference_bucket(script):
    rate, rho0, (mss, overhead), limit, steps = script
    sim = Simulator()
    released = []
    arbiter = DelayArbiter(
        sim, rate, release=lambda ack: released.append((sim.now, ack.sport, ack.window)),
        queue_limit=limit, mss=mss, fill_fraction=rho0, per_packet_overhead=overhead,
    )
    reference = ReferenceArbiter(rate, rho0, mss, overhead, limit)
    for index, (gap, (op, size)) in enumerate(steps):
        sim.run(until_ns=sim.now + gap)
        reference.advance(sim.now)
        if op == "set_cap":
            arbiter.set_cap(size * mss)
            reference.cap = max(size * mss, 2.0 * mss)
        elif op == "reset":
            arbiter.reset(size * mss)
            reference.reset(sim.now, size * mss)
        else:
            window = {"sub_mss": size * mss, "whole_mss": float(size * mss),
                      "bytes": float(math.floor(size * mss))}[op]
            ack = Packet(2, 1, index, 10, is_ack=True, rma=True, window=window)
            assert (arbiter.offer(ack), ack.window) == reference.offer(sim.now, index, window)
        assert released == reference.released
        assert (arbiter.credit, arbiter.cap, arbiter.queued) == (
            reference.credit, reference.cap, len(reference.parked)
        )
        assert (arbiter.delayed_acks, arbiter.dropped_acks) == (
            reference.delayed, reference.dropped
        )
    sim.run()
    reference.advance(sim.now)
    assert released == reference.released
    assert arbiter.credit == reference.credit
