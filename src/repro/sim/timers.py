"""Restartable timers built on top of the event kernel.

Transport protocols need timers that can be started, pushed back, and
cancelled many times (retransmission timers, delayed-ACK timers, the TFC
delimiter re-election timer).  :class:`Timer` wraps the cancel-and-reschedule
dance so protocol code stays readable.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Event, Simulator


class Timer:
    """A single restartable timer bound to one callback.

    The callback fires at most once per ``start``; restarting cancels the
    previous deadline.  Arguments passed to :meth:`start` are forwarded to
    the callback when it fires.
    """

    __slots__ = ("_sim", "_callback", "_event", "name")

    def __init__(self, sim: Simulator, callback: Callable[..., None], name: str = ""):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self.name = name

    @property
    def running(self) -> bool:
        """Whether a deadline is currently armed."""
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[int]:
        """Absolute expiry time in ns, or None when not running."""
        if self.running:
            return self._event.time
        return None

    def start(self, delay_ns: int, *args: Any) -> None:
        """(Re)arm the timer ``delay_ns`` from now, replacing any deadline."""
        self.stop()
        self._event = self._sim.schedule(delay_ns, self._fire, *args)

    def start_if_idle(self, delay_ns: int, *args: Any) -> None:
        """Arm the timer only when no deadline is currently pending."""
        if not self.running:
            self.start(delay_ns, *args)

    def stop(self) -> None:
        """Disarm the timer; a no-op when it is not running."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self, *args: Any) -> None:
        self._event = None
        self._callback(*args)

    def __repr__(self) -> str:
        # Names are constant per timer kind ("rto"); the bound callback's
        # owner (a sender or receiver) says which flow the timer serves.
        owner = getattr(self._callback, "__self__", None)
        if self.name and owner is not None:
            label = f"{self.name} {owner!r}"
        else:
            label = self.name or repr(self._callback)
        state = f"expires={self._event.time}" if self.running else "idle"
        return f"<Timer {label} {state}>"
