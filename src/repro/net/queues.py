"""Output-port packet queues and composable loss models.

Two disciplines are enough for the paper's evaluation:

* :class:`DropTailQueue` — FIFO with a byte capacity; arrivals that do not
  fit are dropped (the testbed NetFPGA boards have 256 KB per port).
* :class:`EcnQueue` — the same FIFO, but arrivals are CE-marked when the
  instantaneous queue occupancy exceeds the threshold ``K`` (DCTCP's step
  marking at the switch).

For robustness testing every queue additionally accepts a pluggable
:class:`LossModel` consulted before admission — lossy optics, bursty
interference (:class:`GilbertElliottLoss`), or one-way failures
(:class:`FilteredLoss` over a packet predicate).  All loss models draw from
an explicitly supplied RNG (a :class:`random.Random`, normally a named
stream from :class:`repro.sim.rng.SeedSequence`), so every loss pattern is
reproducible from the run's root seed.

Queues never touch the simulator clock; the owning :class:`~repro.net.port.
Port` drives them.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Optional

from ..sim.rng import SeedSequence
from .packet import Packet


class LossModel:
    """Decides, packet by packet, whether a fault eats an arrival."""

    __slots__ = ()

    def should_drop(self, packet: Packet) -> bool:
        """Whether this arrival is lost to the modelled fault."""
        raise NotImplementedError


class BernoulliLoss(LossModel):
    """Independent per-packet loss with a fixed probability."""

    __slots__ = ("probability", "_rng")

    def __init__(self, probability: float, rng: random.Random):
        if not 0.0 <= probability < 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1), got {probability}"
            )
        self.probability = probability
        self._rng = rng

    def should_drop(self, packet: Packet) -> bool:
        return self.probability > 0 and self._rng.random() < self.probability


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert–Elliott) loss: quiet spells punctuated by
    loss bursts.

    Each arrival first advances the chain (good -> bad with probability
    ``p_enter_bad``, bad -> good with ``p_exit_bad``), then is dropped with
    the loss rate of the resulting state.  Mean burst length is
    ``1/p_exit_bad`` packets; mean gap between bursts ``1/p_enter_bad``.
    """

    __slots__ = (
        "_rng",
        "p_enter_bad",
        "p_exit_bad",
        "loss_good",
        "loss_bad",
        "bad",
    )

    def __init__(
        self,
        rng: random.Random,
        p_enter_bad: float,
        p_exit_bad: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        for name, value in (
            ("p_enter_bad", p_enter_bad),
            ("p_exit_bad", p_exit_bad),
        ):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        for name, value in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self._rng = rng
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False

    def should_drop(self, packet: Packet) -> bool:
        if self.bad:
            if self._rng.random() < self.p_exit_bad:
                self.bad = False
        elif self._rng.random() < self.p_enter_bad:
            self.bad = True
        loss = self.loss_bad if self.bad else self.loss_good
        if loss <= 0.0:
            return False
        return loss >= 1.0 or self._rng.random() < loss


class FilteredLoss(LossModel):
    """Applies an inner loss model only to packets matching a predicate.

    The canonical use is one-way ACK loss (``match=is_pure_ack``): data
    flows one way unharmed while the reverse control channel is lossy —
    the failure mode that exercises sender RTO and TFC probe retries.
    Non-matching packets do not advance the inner model's state.
    """

    __slots__ = ("inner", "match")

    def __init__(self, inner: LossModel, match: Callable[[Packet], bool]):
        self.inner = inner
        self.match = match

    def should_drop(self, packet: Packet) -> bool:
        return self.match(packet) and self.inner.should_drop(packet)


def is_pure_ack(packet: Packet) -> bool:
    """Predicate for :class:`FilteredLoss`: payload-free ACK segments."""
    return packet.is_ack and packet.payload == 0


class DropTailQueue:
    """FIFO byte-bounded queue with drop-tail admission.

    ``loss_model`` is the fault-injection hook: when set, every arrival is
    offered to it before admission and dropped (counted in
    ``faulted_drops``) when the model says so.  The fault engine toggles it
    at scheduled times; it is None — one attribute test per enqueue — in
    normal runs.
    """

    __slots__ = (
        "capacity_bytes",
        "_queue",
        "_bytes",
        "drops",
        "dropped_bytes",
        "enqueues",
        "max_bytes_seen",
        "loss_model",
        "faulted_drops",
    )

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.drops = 0
        self.dropped_bytes = 0
        self.enqueues = 0
        self.max_bytes_seen = 0
        self.loss_model: Optional[LossModel] = None
        self.faulted_drops = 0

    # ------------------------------------------------------------------
    @property
    def byte_length(self) -> int:
        """Current occupancy in bytes (buffered IP packet bytes)."""
        return self._bytes

    @property
    def packet_length(self) -> int:
        """Current occupancy in packets."""
        return len(self)

    def admit(self, packet: Packet) -> bool:
        """Whether ``packet`` fits right now (without enqueueing it)."""
        return self._bytes + packet.size <= self.capacity_bytes

    def enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; returns False (and counts a drop) on overflow."""
        size = packet.size
        if self.loss_model is not None and self.loss_model.should_drop(packet):
            self.faulted_drops += 1
            self.drops += 1
            self.dropped_bytes += size
            return False
        new_bytes = self._bytes + size
        if new_bytes > self.capacity_bytes:
            self.drops += 1
            self.dropped_bytes += size
            return False
        self._queue.append(packet)
        self._bytes = new_bytes
        self.enqueues += 1
        if new_bytes > self.max_bytes_seen:
            self.max_bytes_seen = new_bytes
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self._bytes}/{self.capacity_bytes}B"
            f" pkts={len(self)} drops={self.drops}>"
        )


class FaultyQueue(DropTailQueue):
    """Drop-tail queue constructed with a loss model already attached.

    The general fault-injection queue: compose any :class:`LossModel`
    (Bernoulli, Gilbert–Elliott, filtered one-way loss) with drop-tail
    admission.  The model can also be swapped or cleared at runtime via
    the ``loss_model`` attribute every queue exposes.
    """

    __slots__ = ()

    def __init__(
        self, capacity_bytes: int, loss_model: Optional[LossModel] = None
    ):
        super().__init__(capacity_bytes)
        self.loss_model = loss_model


class RandomDropQueue(FaultyQueue):
    """Thin wrapper over :class:`FaultyQueue` with Bernoulli loss.

    Loss patterns must be reproducible across runs, so the RNG is explicit:
    pass either ``rng`` (normally a named stream from
    :class:`repro.sim.rng.SeedSequence`) or ``seed`` (from which a
    deterministic stream is derived) — never ambient module-level
    randomness.
    """

    __slots__ = ("drop_probability",)

    def __init__(
        self,
        capacity_bytes: int,
        drop_probability: float,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ):
        if (rng is None) == (seed is None):
            raise ValueError("provide exactly one of rng= or seed=")
        if rng is None:
            rng = SeedSequence(seed).stream("random-drop")
        super().__init__(capacity_bytes, BernoulliLoss(drop_probability, rng))
        self.drop_probability = drop_probability

    @property
    def random_drops(self) -> int:
        """Drops caused by the loss model (alias kept for older callers)."""
        return self.faulted_drops


class EcnQueue(DropTailQueue):
    """Drop-tail queue with DCTCP step marking.

    An arriving packet is CE-marked when the queue occupancy *at admission*
    (including the packet itself) exceeds ``mark_threshold_bytes``, matching
    the instantaneous-queue marking DCTCP configures on switches.
    """

    __slots__ = ("mark_threshold_bytes", "marks")

    def __init__(self, capacity_bytes: int, mark_threshold_bytes: int):
        super().__init__(capacity_bytes)
        if mark_threshold_bytes <= 0:
            raise ValueError(
                f"mark threshold must be positive, got {mark_threshold_bytes}"
            )
        self.mark_threshold_bytes = mark_threshold_bytes
        self.marks = 0

    def enqueue(self, packet: Packet) -> bool:
        if not DropTailQueue.enqueue(self, packet):
            return False
        if packet.ecn_capable and self._bytes > self.mark_threshold_bytes:
            packet.ecn_ce = True
            self.marks += 1
        return True
