"""Runtime invariant monitoring for TFC control loops.

A chaos run is only evidence of robustness if the control loops stay
*inside their envelope* while recovering — a run that reconverges after
letting the token value explode through its clamps proved nothing.  The
:class:`InvariantMonitor` attaches to a built network and checks, on every
slot boundary and on a periodic sweep:

* **queue bound** — no queue ever exceeds its configured capacity;
* **token clamps** — every agent's token value stays within the
  ``[min, max]_token_bdp_factor x c x rtt_b`` clamps (with a small
  tolerance for the EWMA crossing an ``rtt_b`` step);
* **flow count** — the published effective-flow count is at least 1 and
  the live counter never goes negative;
* **delay-arbiter credit** — the sub-MSS credit counter stays within
  ``[-cap, +cap]`` (the paper's token-bucket debt bound);
* **window monotonicity** — the window field of a packet is only ever
  *lowered* by a switch (min-reduction along the path), checked by
  wrapping each agent's transit hook.

Violations carry a full event-context report (time, location, the values
involved) and raise :class:`InvariantViolation` immediately by default;
experiments that want to keep running collect them instead
(``raise_on_violation=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from ..net.packet import MSS
from ..sim.trace import INVARIANT_VIOLATION, TFC_WINDOW_UPDATE
from ..sim.units import bandwidth_delay_product, microseconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.switch_agent import TfcPortAgent
    from ..net.network import Network

_EPSILON = 1e-6


@dataclass
class Violation:
    """One observed invariant breach, with everything needed to debug it.

    ``node``/``port_index``/``slot`` carry the structured identity of the
    breach site (and the agent's slot counter at the time), so a
    flight-recorder dump is attributable without replaying the run;
    ``location`` remains the human-readable form.  ``slot`` is -1 for
    checks not tied to an agent (e.g. the queue-capacity sweep).
    """

    time_ns: int
    invariant: str
    location: str
    message: str
    context: Dict[str, float] = field(default_factory=dict)
    node: str = ""
    port_index: int = -1
    slot: int = -1

    def report(self) -> str:
        """Multi-line event-context report."""
        lines = [
            f"invariant violated: {self.invariant}",
            f"  at t={self.time_ns}ns ({self.time_ns / 1e6:.3f} ms)",
            f"  location: {self.location}",
        ]
        if self.node:
            lines.append(
                f"  node: {self.node} port: {self.port_index}"
                f" slot: {self.slot}"
            )
        lines.append(f"  {self.message}")
        for key, value in sorted(self.context.items()):
            lines.append(f"    {key} = {value}")
        return "\n".join(lines)


class InvariantViolation(RuntimeError):
    """Raised when a monitored invariant breaks (carries the Violation)."""

    def __init__(self, violation: Violation):
        super().__init__(violation.report())
        self.violation = violation


class InvariantMonitor:
    """Attach runtime assertions to every TFC agent of a network.

    ``tolerance`` loosens the token-clamp check by a fractional margin:
    the clamps are applied to the *raw* token value before EWMA smoothing,
    so when ``rtt_b`` steps (first real measurement, periodic refresh,
    post-reset re-learning) the smoothed value can lag one or two slots
    outside the clamp computed against the new BDP.  That lag is bounded
    and expected; sustained excursions are what the monitor must catch.
    """

    def __init__(
        self,
        network: "Network",
        raise_on_violation: bool = True,
        sweep_interval_ns: int = microseconds(50),
        tolerance: float = 0.25,
        registry=None,
    ):
        self.network = network
        self.sim = network.sim
        self.tracer = network.tracer
        self.raise_on_violation = raise_on_violation
        self.tolerance = tolerance
        self.sweep_interval_ns = sweep_interval_ns
        self.violations: List[Violation] = []
        self.checks_run = 0
        # Optional repro.obs.MetricRegistry mirror of the two monitor
        # counters, so telemetry exports carry them without the chaos
        # driver copying fields by hand.
        self._checks_counter = None
        self._violations_counter = None
        if registry is not None:
            self._checks_counter = registry.counter(
                "invariant.checks", help="invariant checks run"
            )
            self._violations_counter = registry.counter(
                "invariant.violations", help="invariant violations observed"
            )
        self._attached = False
        self._stopped = False
        self._wrapped_agents: List["TfcPortAgent"] = []
        # When a lossless fabric is installed its PfcPortAgent wraps the
        # TFC agent; the monitor checks the *protocol* agent underneath
        # (token clamps, arbiter credit are TFC state, not PFC state).
        from ..net.pfc import protocol_agent

        agents: List["TfcPortAgent"] = []
        for switch in network.switches:
            for port in switch.ports:
                agent = protocol_agent(port.agent)
                if agent is not None:
                    agents.append(agent)
        self.agents = agents
        self._attach()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        self.tracer.subscribe(TFC_WINDOW_UPDATE, self._on_window_update)
        for agent in self.agents:
            self._wrap_transit(agent)
        self.sim.schedule(self.sweep_interval_ns, self._sweep)

    def _wrap_transit(self, agent: "TfcPortAgent") -> None:
        original = agent.on_transit

        def checked_transit(packet) -> None:
            window_before = packet.window
            original(packet)
            if packet.window > window_before + _EPSILON:
                self._violation(
                    "window_min_reduction",
                    "switch raised a packet's window field (must only "
                    "ever lower it: min-reduction along the path)",
                    agent=agent,
                    window_before=window_before,
                    window_after=packet.window,
                )

        agent.on_transit = checked_transit  # instance attr shadows method
        self._wrapped_agents.append(agent)

    def detach(self) -> None:
        """Remove all hooks (wrappers, subscription, sweep)."""
        if not self._attached:
            return
        self._attached = False
        self._stopped = True
        self.tracer.unsubscribe(TFC_WINDOW_UPDATE, self._on_window_update)
        for agent in self._wrapped_agents:
            if "on_transit" in agent.__dict__:
                del agent.on_transit  # uncover the class method
        self._wrapped_agents.clear()

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    @staticmethod
    def _locate(agent: "TfcPortAgent") -> str:
        port = agent.port
        return f"{port.node.name}[{port.index}]->{port.peer_node.name}"

    def _violation(
        self,
        invariant: str,
        message: str,
        agent: "TfcPortAgent" = None,
        port=None,
        **context: float,
    ) -> None:
        # Structured identity for the breach site: from the agent when the
        # check is agent-bound (which also supplies the slot counter),
        # else from the port the sweep was inspecting.  The location text
        # is only formatted here, once something has failed.
        slot = -1
        if agent is not None:
            location = self._locate(agent)
            port = agent.port
            slot = getattr(agent, "slot_index", -1)
        else:
            location = f"{port.node.name}[{port.index}]"
            if port.agent is not None:
                slot = getattr(port.agent, "slot_index", -1)
        violation = Violation(
            time_ns=self.sim.now,
            invariant=invariant,
            location=location,
            message=message,
            context=context,
            node=port.node.name,
            port_index=port.index,
            slot=slot,
        )
        self.violations.append(violation)
        if self._violations_counter is not None:
            self._violations_counter.inc()
        self.tracer.emit(
            INVARIANT_VIOLATION,
            violation=violation,
            invariant=invariant,
            node=violation.node,
            port_index=violation.port_index,
            slot=violation.slot,
            location=location,
        )
        if self.raise_on_violation:
            raise InvariantViolation(violation)

    def _count_check(self) -> None:
        self.checks_run += 1
        if self._checks_counter is not None:
            self._checks_counter.inc()

    def _on_window_update(self, agent: "TfcPortAgent" = None, **_kw) -> None:
        if agent is None or agent not in self.agents:
            return
        self._count_check()
        self._check_agent(agent)

    def _check_agent(self, agent: "TfcPortAgent") -> None:
        params = agent.params
        bdp = bandwidth_delay_product(agent.rate_bps, agent.rttb_ns)
        low = params.min_token_bdp_factor * bdp * (1.0 - self.tolerance) - MSS
        high = params.max_token_bdp_factor * bdp * (1.0 + self.tolerance) + MSS
        if not low <= agent.tokens <= high:
            self._violation(
                "token_clamps",
                f"token value escaped its "
                f"[{params.min_token_bdp_factor}, "
                f"{params.max_token_bdp_factor}] x c x rtt_b clamps",
                agent=agent,
                tokens=agent.tokens,
                bdp=bdp,
                rttb_ns=agent.rttb_ns,
                low=low,
                high=high,
            )
        if agent.published_e < 1:
            self._violation(
                "effective_flows",
                "published effective-flow count below 1",
                agent=agent,
                published_e=agent.published_e,
            )
        if agent.effective_flows < 0:
            self._violation(
                "effective_flows",
                "live effective-flow counter went negative",
                agent=agent,
                effective_flows=agent.effective_flows,
            )
        if agent.window < 0:
            self._violation(
                "window_nonnegative",
                "published window is negative",
                agent=agent,
                window=agent.window,
            )
        self._check_arbiter(agent)

    def _check_arbiter(self, agent: "TfcPortAgent") -> None:
        arbiter = agent.delay_arbiter
        bound = arbiter.cap * (1.0 + self.tolerance) + MSS
        if not -bound <= arbiter.credit <= bound:
            self._violation(
                "delay_arbiter_credit",
                "delay-arbiter credit escaped its [-cap, +cap] bound",
                agent=agent,
                credit=arbiter.credit,
                cap=arbiter.cap,
            )

    def _sweep(self) -> None:
        """Periodic checks that are not tied to a slot boundary."""
        if self._stopped:
            return
        for node in self.network.nodes:
            for port in node.ports:
                queue = port.queue
                if queue.byte_length > queue.capacity_bytes:
                    self._violation(
                        "queue_capacity",
                        "queue occupancy exceeds configured capacity",
                        port=port,
                        byte_length=queue.byte_length,
                        capacity_bytes=queue.capacity_bytes,
                    )
        for agent in self.agents:
            self._check_arbiter(agent)
        self._count_check()
        self.sim.schedule(self.sweep_interval_ns, self._sweep)

    # ------------------------------------------------------------------
    def assert_clean(self) -> None:
        """Raise (with the first report) if any violation was recorded."""
        if self.violations:
            raise InvariantViolation(self.violations[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InvariantMonitor agents={len(self.agents)}"
            f" checks={self.checks_run} violations={len(self.violations)}>"
        )
