"""Pluggable event-scheduler backends for :class:`repro.sim.engine.Simulator`.

Three interchangeable backends, all bit-identical in pop order (enforced
by ``tests/sim/test_golden_determinism.py`` and the cross-backend
differential fuzz in ``tests/sim/test_sched_backends.py``):

* ``heap``     — the PR-2 tuple heap; O(log n), lowest constant factors,
                 the default backend (fastest on every ``bench/`` workload).
* ``calendar`` — adaptive-width calendar queue; amortised O(1), best for
                 large mixed populations.
* ``wheel``    — hierarchical timer wheel; O(1) schedule, best for heavy
                 armed-then-cancelled timer churn (RTO / delayed-ACK).

``adaptive`` (an opt-in policy) is not a backend class: the simulator
starts on the heap and migrates the live population to the calendar queue
once it crosses a threshold — see ``Simulator`` in :mod:`repro.sim.engine`.

Selection: ``Simulator(scheduler=...)`` takes a name or an instance; the
``REPRO_SCHEDULER`` environment variable sets the default for simulators
constructed without an explicit choice (how the experiment runner and CI
shards select a backend process-wide).
"""

from __future__ import annotations

from typing import Optional

from .base import Scheduler
from .calendar import CalendarScheduler
from .heap import HeapScheduler
from .wheel import TimerWheelScheduler

#: Name -> backend class (``adaptive`` is a Simulator policy, not a class).
SCHEDULER_BACKENDS = {
    "heap": HeapScheduler,
    "calendar": CalendarScheduler,
    "wheel": TimerWheelScheduler,
}

#: Every accepted value for Simulator(scheduler=...) / REPRO_SCHEDULER.
SCHEDULER_NAMES = ("adaptive",) + tuple(sorted(SCHEDULER_BACKENDS))


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a backend by name (``adaptive`` is rejected here)."""
    try:
        backend = SCHEDULER_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler backend {name!r}; "
            f"choose from {', '.join(SCHEDULER_NAMES)}"
        ) from None
    return backend()


def scheduler_env(name: Optional[str]):
    """Deprecated shim: use :func:`repro.config.env` instead.

    Pins ``REPRO_SCHEDULER`` while the block runs (None = no-op), with
    identical validation and restore semantics — it *is* the shared
    context manager, specialised to one knob.  Kept so pre-config
    callers keep working; new code should write
    ``with repro.config.env(scheduler=name):``.
    """
    from ...config import env  # deferred: repro.config imports this module

    return env(scheduler=name)


__all__ = [
    "Scheduler",
    "HeapScheduler",
    "CalendarScheduler",
    "TimerWheelScheduler",
    "SCHEDULER_BACKENDS",
    "SCHEDULER_NAMES",
    "make_scheduler",
    "scheduler_env",
]
