"""Unit tests for the sub-MSS ACK delay function (Delay Arbiter)."""

from hypothesis import given, settings, strategies as st

from repro.core.delay import PER_PACKET_OVERHEAD, DelayArbiter
from repro.net.packet import MSS, Packet
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, SECOND


def rma_ack(window):
    ack = Packet(2, 1, 20, 10, is_ack=True, rma=True, window=float(window))
    return ack


def make_arbiter(sim, rate=GBPS, fill=1.0, queue_limit=100):
    released = []
    arbiter = DelayArbiter(
        sim, rate, release=released.append, queue_limit=queue_limit,
        fill_fraction=fill,
    )
    arbiter.set_cap(20 * MSS)
    return arbiter, released


def test_large_window_passes_immediately_and_debits():
    sim = Simulator()
    arbiter, released = make_arbiter(sim)
    credit_before = arbiter.credit
    ack = rma_ack(3 * MSS)
    assert not arbiter.offer(ack)  # caller forwards it
    assert ack.window == 3 * MSS  # unmodified
    cost = 3 * MSS + 3 * PER_PACKET_OVERHEAD
    assert arbiter.credit == credit_before - cost


def test_sub_mss_with_credit_rounds_up_to_one_mss():
    sim = Simulator()
    arbiter, released = make_arbiter(sim)
    arbiter.credit = 2 * MSS
    ack = rma_ack(200)
    assert not arbiter.offer(ack)
    assert ack.window == MSS


def test_sub_mss_without_credit_is_parked_and_released_later():
    sim = Simulator()
    arbiter, released = make_arbiter(sim)
    arbiter.credit = 0.0
    ack = rma_ack(200)
    assert arbiter.offer(ack)  # consumed
    assert arbiter.queued == 1
    assert released == []
    sim.run()
    assert released == [ack]
    assert ack.window == MSS
    # Released once enough credit accrued: ~ (MSS+overhead) * 8 ns at 1G.
    assert sim.now >= (MSS + PER_PACKET_OVERHEAD) * 8 - 10


def test_parked_acks_release_in_fifo_order_at_line_rate():
    sim = Simulator()
    arbiter, released = make_arbiter(sim)
    arbiter.credit = 0.0
    acks = [rma_ack(100 + i) for i in range(5)]
    for ack in acks:
        assert arbiter.offer(ack)
    sim.run()
    assert released == acks
    # Total time ~ 5 grants at line rate.
    expected = 5 * (MSS + PER_PACKET_OVERHEAD) * 8
    assert expected - 100 <= sim.now <= expected + 1000


def test_fill_fraction_slows_release():
    sim_full = Simulator()
    full, _ = make_arbiter(sim_full, fill=1.0)
    full.credit = 0.0
    full.offer(rma_ack(100))
    sim_full.run()

    sim_half = Simulator()
    half, _ = make_arbiter(sim_half, fill=0.5)
    half.credit = 0.0
    half.offer(rma_ack(100))
    sim_half.run()
    assert sim_half.now >= 1.9 * sim_full.now


def test_queue_limit_drops_excess():
    sim = Simulator()
    arbiter, released = make_arbiter(sim, queue_limit=2)
    arbiter.credit = 0.0
    for _ in range(4):
        arbiter.offer(rma_ack(100))
    assert arbiter.queued == 2
    assert arbiter.dropped_acks == 2


def test_credit_capped():
    sim = Simulator()
    arbiter, _ = make_arbiter(sim)
    arbiter.set_cap(5 * MSS)
    arbiter.credit = 5 * MSS
    sim.schedule(SECOND // 100, lambda: None)
    sim.run()
    arbiter._refresh_credit()
    assert arbiter.credit <= 5 * MSS


def test_debt_floor_bounded():
    sim = Simulator()
    arbiter, _ = make_arbiter(sim)
    arbiter.set_cap(5 * MSS)
    for _ in range(10):
        arbiter.offer(rma_ack(10 * MSS))  # all pass (paper rule), debiting
    assert arbiter.credit >= -5 * MSS - 1


def test_sub_mss_waits_behind_debt():
    """A big grant's debt delays the next sub-MSS grant (the paper's
    compensation mechanism)."""
    sim = Simulator()
    arbiter, released = make_arbiter(sim)
    arbiter.credit = float(MSS)
    arbiter.offer(rma_ack(10 * MSS))  # passes, credit goes negative
    assert arbiter.credit < 0
    ack = rma_ack(100)
    assert arbiter.offer(ack)  # parked
    sim.run()
    assert released == [ack]
    # Had to wait for the debt plus its own cost.
    assert sim.now > (MSS + PER_PACKET_OVERHEAD) * 8


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(min_value=1, max_value=MSS - 1), min_size=1, max_size=30))
def test_property_paced_grants_never_exceed_fill_rate(windows):
    sim = Simulator()
    releases = []
    arbiter = DelayArbiter(
        sim, GBPS, release=lambda a: releases.append(sim.now), queue_limit=1000
    )
    arbiter.set_cap(4 * MSS)
    arbiter.credit = 0.0
    for window in windows:
        arbiter.offer(rma_ack(window))
    sim.run()
    assert len(releases) == len(windows)
    # Over the whole run, granted wire bytes <= elapsed time x line rate
    # plus the initial bucket content.
    granted = len(windows) * (MSS + PER_PACKET_OVERHEAD)
    elapsed_capacity = GBPS * sim.now / (8 * SECOND)
    assert granted <= elapsed_capacity + 4 * MSS + 1


def test_parked_ack_pays_its_wire_cost_under_the_cap_at_release():
    """A parked ACK keeps its wire cost; the cap (moved by ``set_cap`` at
    slot close) is applied when the ACK is released, not when parked."""
    sim = Simulator()
    arbiter, released = make_arbiter(sim)
    arbiter.credit = 0.0
    ack = rma_ack(200)
    assert arbiter.offer(ack)
    arbiter.set_cap(2 * MSS)  # the slot closed while the ACK waited
    sim.run()
    assert released == [ack]
    # Released as soon as credit covered MSS + overhead, then debited it.
    assert sim.now == -(-(MSS + PER_PACKET_OVERHEAD) * 8 * SECOND // GBPS)
    assert -1e-6 <= arbiter.credit < 1.0
