"""Detectors for the three classic lossless-fabric pathologies.

PFC buys losslessness by pausing upstream transmitters, and every
production deployment of it has met the same three failure modes.  Each
gets a detector here, built only from signals the fabric already exposes
(pause-frame trace emissions, the paused-port set, port counters):

* **Pause storm** (:class:`PauseStormDetector`) — one slow drain point
  pauses its upstreams, their buffers fill, they pause *their*
  upstreams, and soon whole subtrees spend most of their time paused.
  Detected as a sustained pause duty-cycle per transmitter: the fraction
  of a sliding window a port spent XOFF'd crossing a threshold.

* **Head-of-line blocking** (:class:`HolBlockingDetector`) — a paused
  port stalls every flow queued behind it, including "victim" flows
  whose own path beyond the shared hop is idle.  Detected as a victim
  flow's delivery rate collapsing below a fraction of its own observed
  peak while pause is active somewhere in the fabric.

* **Cyclic buffer dependency deadlock** (:class:`CbdDeadlockDetector`)
  — routes (typically after a reroute around a failure) thread paused
  buffers into a ring: every hop waits for the next to drain, and
  nothing ever does.  Detected as a cycle in the wait-for graph over
  paused ports — port ``P`` (paused, transmitting into node ``D``)
  waits on every paused egress of ``D`` — that persists across sweeps
  with zero transmit progress on any port in the cycle.

All three run off periodic simulator timers (and pure trace
subscriptions), register their counters/timelines into a
:class:`repro.obs.MetricRegistry` when given one, and emit
``fault.pathology`` — which the :class:`repro.obs.FlightRecorder`
auto-dumps on, so every detection ships with the event story that led
to it.  TFC's side of the head-to-head runs with the same detectors
armed: its acceptance claim is that none of them ever fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..sim.trace import PATHOLOGY_DETECTED, PFC_PAUSE, PFC_RESUME
from ..sim.units import milliseconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..net.network import Network
    from ..net.pfc import LosslessFabric
    from ..net.port import Port


def _port_name(port: "Port") -> str:
    """Same format the fault engine uses: ``node[index]->peer``."""
    return f"{port.node.name}[{port.index}]->{port.peer_node.name}"


@dataclass
class Pathology:
    """One detected fabric pathology, with the evidence that tripped it."""

    time_ns: int
    kind: str
    location: str
    message: str
    context: Dict[str, object] = field(default_factory=dict)

    def report(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"pathology detected: {self.kind}",
            f"  at t={self.time_ns}ns ({self.time_ns / 1e6:.3f} ms)",
            f"  location: {self.location}",
            f"  {self.message}",
        ]
        for key, value in sorted(self.context.items()):
            lines.append(f"    {key} = {value}")
        return "\n".join(lines)


class _PeriodicDetector:
    """Shared skeleton: periodic sweep timer, detections list, metrics."""

    kind = "pathology"

    def __init__(
        self,
        network: "Network",
        fabric: Optional["LosslessFabric"],
        check_interval_ns: int,
        registry=None,
    ):
        self.network = network
        self.fabric = fabric
        self.sim = network.sim
        self.tracer = network.tracer
        self.check_interval_ns = check_interval_ns
        self.detections: List[Pathology] = []
        self.checks_run = 0
        self._stopped = False
        self._counter = None
        self._timeline = None
        if registry is not None:
            self._counter = registry.counter(
                f"pathology.{self.kind}", help=f"{self.kind} detections"
            )
            self._timeline = registry.timeline(
                f"pathology.{self.kind}.detections",
                help=f"(time_ns, 1) per {self.kind} detection",
            )
        self.sim.post(check_interval_ns, self._tick)

    @property
    def detected(self) -> bool:
        return bool(self.detections)

    def stop(self) -> None:
        """Stop sweeping (pending timer becomes a no-op)."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.checks_run += 1
        self.check()
        self.sim.post(self.check_interval_ns, self._tick)

    def check(self) -> None:  # pragma: no cover - subclasses implement
        raise NotImplementedError

    def _detect(self, location: str, message: str, **context) -> None:
        pathology = Pathology(
            time_ns=self.sim.now,
            kind=self.kind,
            location=location,
            message=message,
            context=dict(context),
        )
        self.detections.append(pathology)
        if self._counter is not None:
            self._counter.inc()
        if self._timeline is not None:
            self._timeline.append(self.sim.now, 1.0)
        self.tracer.emit(
            PATHOLOGY_DETECTED,
            kind=self.kind,
            location=location,
            message=message,
            pathology=pathology,
            **context,
        )


class PauseStormDetector(_PeriodicDetector):
    """Sustained pause duty-cycle per transmitter.

    Builds per-port pause intervals from the fabric's own XOFF/XON
    trace emissions (so host NIC pauses count too — a storm reaching
    the sources is precisely the interesting endpoint) and flags any
    port that spent at least ``duty_threshold`` of the trailing
    ``window_ns`` paused.  Each port is reported once.
    """

    kind = "pause_storm"

    def __init__(
        self,
        network: "Network",
        fabric: Optional["LosslessFabric"] = None,
        window_ns: int = milliseconds(5),
        duty_threshold: float = 0.5,
        check_interval_ns: int = milliseconds(1),
        registry=None,
    ):
        if not 0.0 < duty_threshold <= 1.0:
            raise ValueError(
                f"duty threshold must be in (0, 1], got {duty_threshold}"
            )
        super().__init__(network, fabric, check_interval_ns, registry)
        self.window_ns = window_ns
        self.duty_threshold = duty_threshold
        #: port -> [[start_ns, end_ns|None], ...], pruned as they age out.
        self._intervals: Dict["Port", List[list]] = {}
        self._reported: set = set()
        self.tracer.subscribe(PFC_PAUSE, self._on_pause)
        self.tracer.subscribe(PFC_RESUME, self._on_resume)

    def stop(self) -> None:
        super().stop()
        self.tracer.unsubscribe(PFC_PAUSE, self._on_pause)
        self.tracer.unsubscribe(PFC_RESUME, self._on_resume)

    # ------------------------------------------------------------------
    def _on_pause(self, port: "Port" = None, **_kw) -> None:
        if port is None:
            return
        intervals = self._intervals.setdefault(port, [])
        if not intervals or intervals[-1][1] is not None:
            intervals.append([self.sim.now, None])

    def _on_resume(self, port: "Port" = None, **_kw) -> None:
        if port is None:
            return
        intervals = self._intervals.get(port)
        if intervals and intervals[-1][1] is None:
            intervals[-1][1] = self.sim.now

    def duty_cycle(self, port: "Port") -> float:
        """Fraction of the trailing window ``port`` spent paused."""
        now = self.sim.now
        window_start = max(now - self.window_ns, 0)
        horizon = now - window_start
        if horizon <= 0:
            return 0.0
        paused = 0
        for start, end in self._intervals.get(port, ()):  # oldest first
            closed_end = now if end is None else end
            overlap = min(closed_end, now) - max(start, window_start)
            if overlap > 0:
                paused += overlap
        return paused / horizon

    def check(self) -> None:
        window_start = self.sim.now - self.window_ns
        for port, intervals in self._intervals.items():
            # Prune intervals that ended before the window; keeps each
            # port's list bounded by the storm's own churn rate.
            while intervals and intervals[0][1] is not None and (
                intervals[0][1] < window_start
            ):
                intervals.pop(0)
            if port in self._reported:
                continue
            duty = self.duty_cycle(port)
            if duty >= self.duty_threshold:
                self._reported.add(port)
                self._detect(
                    _port_name(port),
                    f"transmitter paused {duty:.0%} of the trailing "
                    f"{self.window_ns / 1e6:.1f} ms window",
                    duty=round(duty, 4),
                    window_ns=self.window_ns,
                )


class HolBlockingDetector(_PeriodicDetector):
    """Victim-flow throughput collapse while pause is active.

    ``victims`` maps a label to a callable returning the flow's
    cumulative delivered bytes (``lambda: sender.stats.bytes_acked``).
    Each interval the detector compares the victim's delivered delta
    against its own observed peak; ``consecutive`` intervals at or below
    ``collapse_fraction`` of peak *while some port is PFC-paused* is a
    detection.  The peak-referenced baseline means a victim that never
    got going (slow start) cannot false-positive, and the pause gate
    means ordinary congestion cannot either.
    """

    kind = "hol_blocking"

    def __init__(
        self,
        network: "Network",
        fabric: "LosslessFabric",
        victims: Dict[str, Callable[[], int]],
        check_interval_ns: int = milliseconds(1),
        collapse_fraction: float = 0.1,
        consecutive: int = 2,
        min_peak_bytes: int = 20_000,
        registry=None,
    ):
        super().__init__(network, fabric, check_interval_ns, registry)
        if not victims:
            raise ValueError("need at least one victim flow to watch")
        self.victims = dict(victims)
        self.collapse_fraction = collapse_fraction
        self.consecutive = consecutive
        self.min_peak_bytes = min_peak_bytes
        self._last: Dict[str, int] = {k: fn() for k, fn in self.victims.items()}
        self._peak: Dict[str, int] = {k: 0 for k in self.victims}
        self._collapsed: Dict[str, int] = {k: 0 for k in self.victims}
        self._reported: set = set()

    def check(self) -> None:
        paused = self.fabric.any_paused()
        for label, fn in self.victims.items():
            total = fn()
            delta = total - self._last[label]
            self._last[label] = total
            if delta > self._peak[label]:
                self._peak[label] = delta
            peak = self._peak[label]
            if (
                paused
                and peak >= self.min_peak_bytes
                and delta <= self.collapse_fraction * peak
            ):
                self._collapsed[label] += 1
            else:
                self._collapsed[label] = 0
            if (
                self._collapsed[label] >= self.consecutive
                and label not in self._reported
            ):
                self._reported.add(label)
                self._detect(
                    label,
                    "victim flow collapsed behind a paused class: "
                    f"{delta} B/interval vs a {peak} B/interval peak",
                    delta_bytes=delta,
                    peak_bytes=peak,
                    intervals=self._collapsed[label],
                )


class CbdDeadlockDetector(_PeriodicDetector):
    """Cycle in the wait-for graph over paused ports.

    A paused transmitter ``P`` (into node ``D``) can only resume when
    ``D``'s congested ingress drains, which requires ``D``'s egress
    ports holding those bytes to transmit — so ``P`` *waits for* every
    paused egress of ``D``.  A cycle in that graph is a candidate
    deadlock; it is reported once it has persisted for ``persistence``
    consecutive sweeps with no transmit progress on any member port
    (transient cycles resolve themselves; a real CBD never does).
    """

    kind = "cbd_deadlock"

    def __init__(
        self,
        network: "Network",
        fabric: "LosslessFabric",
        check_interval_ns: int = milliseconds(1),
        persistence: int = 2,
        registry=None,
    ):
        super().__init__(network, fabric, check_interval_ns, registry)
        self.persistence = persistence
        #: cycle key -> [sweeps persisted, tx-progress snapshot]
        self._candidates: Dict[Tuple, List] = {}
        self._reported: set = set()

    # ------------------------------------------------------------------
    def _wait_for_graph(self) -> Dict["Port", List["Port"]]:
        # Sets iterate in id()-dependent order; sort so the graph (and
        # therefore which cycle DFS reports first) is identical across
        # runs and worker processes.
        paused = sorted(
            self.fabric.paused_ports,
            key=lambda p: (p.node.name, p.index),
        )
        by_node: Dict[object, List["Port"]] = {}
        for port in paused:
            by_node.setdefault(port.node, []).append(port)
        graph: Dict["Port", List["Port"]] = {}
        for port in paused:
            graph[port] = by_node.get(port.link.dst_node, [])
        return graph

    @staticmethod
    def _find_cycle(graph: Dict["Port", List["Port"]]) -> List["Port"]:
        """First cycle found by DFS (deterministic: insertion order)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {node: WHITE for node in graph}
        for root in graph:
            if color[root] != WHITE:
                continue
            stack: List[Tuple["Port", int]] = [(root, 0)]
            path: List["Port"] = []
            color[root] = GREY
            path.append(root)
            while stack:
                node, edge_index = stack[-1]
                edges = graph[node]
                if edge_index < len(edges):
                    stack[-1] = (node, edge_index + 1)
                    succ = edges[edge_index]
                    if color[succ] == GREY:
                        return path[path.index(succ):]
                    if color[succ] == WHITE:
                        color[succ] = GREY
                        path.append(succ)
                        stack.append((succ, 0))
                else:
                    color[node] = BLACK
                    path.pop()
                    stack.pop()
        return []

    def check(self) -> None:
        graph = self._wait_for_graph()
        cycle = self._find_cycle(graph)
        if not cycle:
            self._candidates.clear()
            return
        key = tuple(
            sorted((port.node.name, port.index) for port in cycle)
        )
        snapshot = tuple(
            port.tx_packets
            for _, port in sorted(
                ((port.node.name, port.index), port) for port in cycle
            )
        )
        entry = self._candidates.get(key)
        if entry is None or entry[1] != snapshot:
            # New cycle, or frames still moving: (re)start persistence.
            self._candidates = {key: [1, snapshot]}
            return
        entry[0] += 1
        if entry[0] >= self.persistence and key not in self._reported:
            self._reported.add(key)
            names = [
                _port_name(port)
                for port in sorted(
                    cycle, key=lambda p: (p.node.name, p.index)
                )
            ]
            self._detect(
                " -> ".join(names),
                f"{len(cycle)}-port cyclic buffer dependency persisted "
                f"{entry[0]} sweeps with zero transmit progress",
                cycle_ports=len(cycle),
                sweeps=entry[0],
                ports=names,
            )


class PathologySuite:
    """All three detectors armed together (the head-to-head default)."""

    def __init__(
        self,
        network: "Network",
        fabric: "LosslessFabric",
        victims: Optional[Dict[str, Callable[[], int]]] = None,
        registry=None,
        storm_window_ns: int = milliseconds(5),
        storm_duty_threshold: float = 0.5,
        check_interval_ns: int = milliseconds(1),
        cbd_check_interval_ns: Optional[int] = None,
    ):
        self.pause_storm = PauseStormDetector(
            network,
            fabric,
            window_ns=storm_window_ns,
            duty_threshold=storm_duty_threshold,
            check_interval_ns=check_interval_ns,
            registry=registry,
        )
        self.hol_blocking = (
            HolBlockingDetector(
                network,
                fabric,
                victims,
                check_interval_ns=check_interval_ns,
                registry=registry,
            )
            if victims
            else None
        )
        # CBD cycles in a host-terminated fabric recur as short-lived
        # (hundreds of µs) both-directions-paused windows; a millisecond
        # sweep steps right over them, so the CBD detector gets its own,
        # tighter cadence.
        self.cbd_deadlock = CbdDeadlockDetector(
            network,
            fabric,
            check_interval_ns=cbd_check_interval_ns or check_interval_ns,
            registry=registry,
        )

    @property
    def detectors(self):
        return [
            d
            for d in (self.pause_storm, self.hol_blocking, self.cbd_deadlock)
            if d is not None
        ]

    def stop(self) -> None:
        for detector in self.detectors:
            detector.stop()

    def detections(self) -> Dict[str, int]:
        """Detection counts per pathology kind (0 entries included)."""
        counts = {"pause_storm": 0, "hol_blocking": 0, "cbd_deadlock": 0}
        for detector in self.detectors:
            counts[detector.kind] = len(detector.detections)
        return counts
