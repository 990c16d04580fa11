"""Unit tests for restartable timers, in each of ``KERNEL_ENVS``.

A timer restart cancels its pending event, which may be due at the very
instant being dispatched (queued right behind the restarter).
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from tests.sim.kernel_envs import KERNEL_ENVS, exported


@pytest.fixture(params=sorted(KERNEL_ENVS))
def sim(request):
    with exported(request.param):
        yield Simulator()


def test_timer_fires_once(sim):
    log = []
    timer = Timer(sim, lambda: log.append(sim.now))
    timer.start(100)
    sim.run()
    assert log == [100]
    assert not timer.running


def test_timer_restart_replaces_deadline(sim):
    log = []
    timer = Timer(sim, lambda: log.append(sim.now))
    timer.start(100)
    sim.schedule(50, timer.start, 100)  # push back to 150
    sim.run()
    assert log == [150]


def test_timer_stop(sim):
    log = []
    timer = Timer(sim, log.append, name="t")
    timer.start(100, "fired")
    sim.schedule(10, timer.stop)
    sim.run()
    assert log == []


def test_timer_stop_idempotent(sim):
    timer = Timer(sim, lambda: None)
    timer.stop()
    timer.stop()
    assert not timer.running


def test_start_if_idle_does_not_replace(sim):
    log = []
    timer = Timer(sim, lambda: log.append(sim.now))
    timer.start(100)
    timer.start_if_idle(10)  # ignored: already armed
    sim.run()
    assert log == [100]


def test_start_if_idle_arms_when_idle(sim):
    log = []
    timer = Timer(sim, lambda: log.append(sim.now))
    timer.start_if_idle(10)
    sim.run()
    assert log == [10]


def test_timer_forwards_arguments(sim):
    log = []
    timer = Timer(sim, lambda a, b: log.append((a, b)))
    timer.start(5, "x", 2)
    sim.run()
    assert log == [("x", 2)]


def test_timer_can_rearm_from_callback(sim):
    log = []
    timer = Timer(sim, lambda: None)

    def tick():
        log.append(sim.now)
        if len(log) < 3:
            timer.start(10)

    timer = Timer(sim, tick)
    timer.start(10)
    sim.run()
    assert log == [10, 20, 30]


def test_expiry_property(sim):
    timer = Timer(sim, lambda: None)
    assert timer.expiry is None
    timer.start(100)
    assert timer.expiry == 100
    timer.stop()
    assert timer.expiry is None


def test_same_time_sibling_restarts_a_due_timer(sim):
    """The restart lands while the old deadline is due at the same
    instant (queued right behind the restarter): only the new deadline
    fires."""
    log = []
    timer = Timer(sim, lambda: log.append(sim.now))
    sim.schedule(100, timer.start, 50)
    timer.start(100)
    sim.run()
    assert log == [150]
    assert sim.pending_events == 0


def test_same_time_sibling_stops_a_due_timer(sim):
    log = []
    timer = Timer(sim, lambda: log.append(sim.now))
    sim.schedule(100, timer.stop)
    timer.start(100)
    sim.run()
    assert log == []
    assert not timer.running
    assert sim.pending_events == 0
