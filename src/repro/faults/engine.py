"""The fault-injection engine.

A :class:`FaultInjector` is bound to one :class:`~repro.net.network.Network`
and schedules fault primitives on its simulator, so a chaos run is an
ordinary deterministic simulation: same seed, same topology, same fault
schedule — bit-identical packet-level outcome.  Randomised faults (loss
models) draw from named child streams of the network's root seed.

Primitives map one-to-one onto the failure modes data-center operators
actually see:

* :meth:`link_down` / :meth:`link_flap` — cut a cable (both directions by
  default); frames serialised into a downed link vanish, and pause state
  across the cable is forgotten at the cut and at the restore.
* :meth:`degrade_link` — failing optics / autoneg fallback: the link
  serialises slower than its nominal rate.
* :meth:`inject_loss`, :meth:`burst_loss`, :meth:`ack_loss` — attach a
  :class:`~repro.net.queues.LossModel` to a port's queue for a window
  (Gilbert–Elliott bursts, one-way ACK loss).
* :meth:`reset_switch` / :meth:`reset_port_agent` — wipe a TFC agent's
  learned token/E/rtt_b state mid-run (switch reboot), forcing re-learning.
* :meth:`kill_flow` / :meth:`kill_delimiter` — abort a sender with no FIN
  (process crash); killing the current delimiter drives the silent-death
  re-election backoff.
* :meth:`pause_host` — freeze a host (VM pause, GC stall) and resume it.

Every primitive records a :class:`FaultRecord` and emits
``FAULT_INJECTED`` / ``FAULT_CLEARED`` trace events, so experiments can
line recovery metrics up against the fault timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from ..net.pfc import peer_tx_port as reverse_port
from ..net.queues import (
    BernoulliLoss,
    FilteredLoss,
    GilbertElliottLoss,
    LossModel,
    is_pure_ack,
)
from ..sim.trace import FAULT_CLEARED, FAULT_INJECTED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..net.host import Host
    from ..net.network import Network
    from ..net.node import Switch
    from ..net.port import Port
    from ..transport.base import Sender


def _reset_port(port: "Port") -> None:
    """Reboot one port's roles: the lossless fabric, then the agent."""
    if port.fabric is not None:
        port.fabric.reset()
    if port.agent is not None:
        port.agent.reset()


@dataclass
class FaultRecord:
    """One scheduled fault: what, where, and when."""

    kind: str
    target: str
    start_ns: int
    end_ns: Optional[int] = None  # None: one-shot or never cleared
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> Optional[int]:
        """Length of the fault window (None for one-shot faults)."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns


class FaultInjector:
    """Schedules deterministic faults against one network."""

    def __init__(self, network: "Network", name: str = "faults"):
        self.network = network
        self.sim = network.sim
        self.tracer = network.tracer
        # Child seed space: fault randomness is independent of (and cannot
        # perturb) the workload's streams, yet fully determined by the
        # network's root seed.
        self.seeds = network.seeds.spawn(name)
        self.records: list[FaultRecord] = []

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        target: str,
        start_ns: int,
        end_ns: Optional[int] = None,
        **detail: object,
    ) -> FaultRecord:
        record = FaultRecord(kind, target, start_ns, end_ns, dict(detail))
        self.records.append(record)
        return record

    def _at(self, time_ns: int, callback, *args) -> None:
        self.sim.schedule_at(max(time_ns, self.sim.now), callback, *args)

    def _emit(self, topic: str, record: FaultRecord, **extra) -> None:
        self.tracer.emit(topic, record=record, injector=self, **extra)

    @staticmethod
    def _port_name(port: "Port") -> str:
        return f"{port.node.name}[{port.index}]->{port.peer_node.name}"

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------
    def link_down(
        self,
        port: "Port",
        at_ns: int,
        duration_ns: Optional[int] = None,
        both_directions: bool = True,
        reroute: bool = False,
    ) -> FaultRecord:
        """Cut the cable behind ``port`` at ``at_ns``.

        Frames that finish serialising while the link is down vanish (the
        transmitting port keeps draining its queue into the cut — exactly
        what a NIC does until the carrier-loss interrupt).  With
        ``duration_ns`` the cable comes back afterwards.

        ``reroute=True`` models a fabric whose control plane notices the
        carrier loss: :meth:`~repro.net.network.Network.rebuild_routes`
        runs right after the cut (and again after the restore), steering
        traffic onto surviving equal-cost paths instead of letting the
        stale route blackhole it.  The default keeps the blackhole — the
        pessimistic case the recovery experiments compare against.

        Both ends of the cable forget the pause state across it when it
        is cut and when it is restored (``Backpressure.carrier_lost``):
        an XON lost on the cut must not leave a transmitter paused.
        """
        ends = [port]
        reverse = reverse_port(port)
        if reverse is not None:
            ends.append(reverse)
        links = [end.link for end in ends[: 2 if both_directions else 1]]
        end_ns = None if duration_ns is None else at_ns + duration_ns
        record = self._record(
            "link_down", self._port_name(port), at_ns, end_ns,
            reroute=reroute,
        )

        def carrier(up: bool) -> None:
            for link in links:
                link.up = up
            for fabric in (self.network.lossless, self.network.bfc):
                if fabric is not None:
                    for end in ends:
                        fabric.carrier_lost(end)

        def down() -> None:
            carrier(False)
            if reroute:
                self.network.rebuild_routes()
            self._emit(FAULT_INJECTED, record)

        def up() -> None:
            carrier(True)
            if reroute:
                self.network.rebuild_routes()
            self._emit(FAULT_CLEARED, record)

        self._at(at_ns, down)
        if end_ns is not None:
            self._at(end_ns, up)
        return record

    def link_flap(
        self, port: "Port", at_ns: int, down_ns: int, reroute: bool = False
    ) -> FaultRecord:
        """Convenience alias: a transient :meth:`link_down`."""
        return self.link_down(
            port, at_ns, duration_ns=down_ns, reroute=reroute
        )

    def degrade_link(
        self,
        port: "Port",
        factor: float,
        at_ns: int,
        duration_ns: Optional[int] = None,
    ) -> FaultRecord:
        """Serialise ``port``'s link at ``factor`` x nominal rate.

        One direction only — degradation (unlike a cut) is routinely
        asymmetric in practice.  Protocol state keeps seeing the nominal
        rate; the feedback loops must discover the loss of capacity from
        queue growth and utilisation, which is the point.
        """
        end_ns = None if duration_ns is None else at_ns + duration_ns
        record = self._record(
            "degrade_link",
            self._port_name(port),
            at_ns,
            end_ns,
            factor=factor,
        )

        def degrade() -> None:
            port.link.degrade(factor)
            self._emit(FAULT_INJECTED, record)

        def restore() -> None:
            port.link.restore_rate()
            self._emit(FAULT_CLEARED, record)

        self._at(at_ns, degrade)
        if end_ns is not None:
            self._at(end_ns, restore)
        return record

    # ------------------------------------------------------------------
    # Loss faults
    # ------------------------------------------------------------------
    def inject_loss(
        self,
        port: "Port",
        model: LossModel,
        at_ns: int,
        duration_ns: Optional[int] = None,
    ) -> FaultRecord:
        """Attach ``model`` to ``port``'s queue for the fault window."""
        end_ns = None if duration_ns is None else at_ns + duration_ns
        record = self._record(
            "loss",
            self._port_name(port),
            at_ns,
            end_ns,
            model=type(model).__name__,
        )

        def start() -> None:
            port.queue.loss_model = model
            self._emit(FAULT_INJECTED, record)

        def stop() -> None:
            if port.queue.loss_model is model:
                port.queue.loss_model = None
            self._emit(FAULT_CLEARED, record)

        self._at(at_ns, start)
        if end_ns is not None:
            self._at(end_ns, stop)
        return record

    def burst_loss(
        self,
        port: "Port",
        at_ns: int,
        duration_ns: Optional[int] = None,
        mean_burst_packets: float = 8.0,
        mean_gap_packets: float = 200.0,
        loss_in_burst: float = 1.0,
    ) -> FaultRecord:
        """Correlated (Gilbert–Elliott) loss on ``port`` for a window."""
        stream = self.seeds.stream(
            f"burst:{port.node.name}:{port.index}:{at_ns}"
        )
        model = GilbertElliottLoss(
            stream,
            p_enter_bad=1.0 / max(mean_gap_packets, 1.0),
            p_exit_bad=1.0 / max(mean_burst_packets, 1.0),
            loss_bad=loss_in_burst,
        )
        return self.inject_loss(port, model, at_ns, duration_ns)

    def ack_loss(
        self,
        port: "Port",
        at_ns: int,
        duration_ns: Optional[int] = None,
        probability: float = 0.3,
    ) -> FaultRecord:
        """One-way loss: only pure ACKs crossing ``port`` are dropped."""
        stream = self.seeds.stream(
            f"ackloss:{port.node.name}:{port.index}:{at_ns}"
        )
        model = FilteredLoss(BernoulliLoss(probability, stream), is_pure_ack)
        return self.inject_loss(port, model, at_ns, duration_ns)

    # ------------------------------------------------------------------
    # Switch-state faults
    # ------------------------------------------------------------------
    def reset_port_agent(self, port: "Port", at_ns: int) -> FaultRecord:
        """Wipe one port's learned agent and fabric state (targeted reboot)."""
        record = self._record(
            "agent_reset", self._port_name(port), at_ns
        )

        def reset() -> None:
            _reset_port(port)
            self._emit(FAULT_INJECTED, record)

        self._at(at_ns, reset)
        return record

    def reset_switch(self, switch: "Switch", at_ns: int) -> FaultRecord:
        """Wipe every port of ``switch`` at once (full reboot)."""
        record = self._record("switch_reset", switch.name, at_ns)

        def reset() -> None:
            for port in switch.ports:
                _reset_port(port)
            self._emit(FAULT_INJECTED, record)

        self._at(at_ns, reset)
        return record

    # ------------------------------------------------------------------
    # Flow faults
    # ------------------------------------------------------------------
    def kill_flow(self, sender: "Sender", at_ns: int) -> FaultRecord:
        """Abort ``sender`` with no FIN at ``at_ns`` (process crash)."""
        record = self._record(
            "flow_kill", str(sender.flow_key), at_ns
        )

        def kill() -> None:
            sender.abort()
            self._emit(FAULT_INJECTED, record)

        self._at(at_ns, kill)
        return record

    def kill_delimiter(
        self, port: "Port", senders: Iterable["Sender"], at_ns: int
    ) -> FaultRecord:
        """Silently kill whichever flow is ``port``'s delimiter at ``at_ns``.

        The delimiter is only known at fault time, so the lookup happens
        inside the scheduled callback: the sender (from ``senders``) whose
        flow key matches the agent's current delimiter is aborted.  No FIN
        reaches the agent — re-election must come from the ``2^k x
        rtt_last`` silence backoff.
        """
        senders = list(senders)
        record = self._record(
            "delimiter_kill", self._port_name(port), at_ns
        )

        def kill() -> None:
            agent = port.agent
            key = None if agent is None else agent.delimiter_key
            record.detail["delimiter_key"] = key
            if key is None:
                return
            for sender in senders:
                if sender.flow_key == key:
                    sender.abort()
                    self._emit(FAULT_INJECTED, record)
                    return

        self._at(at_ns, kill)
        return record

    # ------------------------------------------------------------------
    # Host faults
    # ------------------------------------------------------------------
    def pause_host(
        self, host: "Host", at_ns: int, duration_ns: int
    ) -> FaultRecord:
        """Freeze ``host`` for ``duration_ns`` (VM pause / GC stall)."""
        end_ns = at_ns + duration_ns
        record = self._record("host_pause", host.name, at_ns, end_ns)

        def pause() -> None:
            host.pause()
            self._emit(FAULT_INJECTED, record)

        def resume() -> None:
            host.resume()
            self._emit(FAULT_CLEARED, record)

        self._at(at_ns, pause)
        self._at(end_ns, resume)
        return record

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector faults={len(self.records)}>"
