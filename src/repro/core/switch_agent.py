"""The per-port TFC switch agent.

One agent manages one *link direction* out of a switch.  It mirrors the
module structure of the paper's NetFPGA implementation (Fig. 3):

* **Rho counter** — accumulates the bytes transiting the port each slot.
* **N counter** — counts RM-marked packets to measure the number of
  effective flows ``E`` (the delimiter itself accounts for the initial 1).
* **RTT timer** — measures the delimiter flow's instantaneous RTT
  ``rtt_m`` as the gap between its consecutive RM packets and keeps the
  running minimum ``rtt_b``; only RM frames of at least 1500 bytes update
  ``rtt_b`` (store-and-forward size bias, section 4.4).
* **Token allocator / window calculator** — at every slot boundary applies
  the token adjustment ``T = c x rtt_b x rho0 / rho`` (Eq. 7), EWMA
  smoothing (Eq. 8) and the allocation ``W = T / E`` (Eq. 5).
* **Header modifier** — stamps ``min(field, W)`` into the window field of
  every data-direction packet, so the minimum along the path reaches the
  receiver and comes back on the RMA ACK.
* **Delay arbiter** — parks sub-MSS RMA ACKs arriving from the link
  (section 4.6); see :mod:`repro.core.delay`.

Delimiter lifecycle: the first RM packet seen is elected; a FIN from the
delimiter flow or ``2^k x rtt_last`` of delimiter silence (k <= 7) triggers
re-election of the next RM packet (section 5.2, "When the current delimiter
flow ends").  The silence check runs lazily, on RM packets only: only an RM
packet acts on the miss count, and its thresholds grow with the count, so
the late value equals the eager one at every RM packet.  A non-RM packet
only adds its bytes and takes the cached stamp ``min(W, live bound)``,
recomputed where its inputs change (RM arrival, election, slot close, reset).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..net.packet import MSS, FlowKey, Packet
from ..net.port import RMA_ACKS, install_agent
from ..sim.trace import TFC_DELIMITER_ELECTED, TFC_WINDOW_UPDATE
from ..sim.units import bandwidth_delay_product
from .delay import DelayArbiter
from .params import DEFAULT_PARAMS, TfcParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..net.node import Switch
    from ..net.port import Port


#: The live stamp bound's floor, one eighth of an MSS.
_MIN_STAMP = float(MSS) / 8.0


def _quantize_window(window: float) -> float:
    """Grant whole packets above one MSS; keep sub-MSS grants fractional.

    Senders transmit whole segments, so the fractional part of a window
    above one MSS can never be used — but it *is* debited from the delay
    arbiter's credit, and with e.g. W = 1.9 MSS nearly half of every grant
    would be paid for and wasted, capping utilisation well below rho0 with
    no way for the token feedback to recover (it is a multiplicative loss).
    Sub-MSS windows stay fractional: they are the delay function's input.
    """
    if window >= MSS:
        return float(int(window // MSS) * MSS)
    return window


class TfcPortAgent:
    """Token flow control state for one switch output port."""

    # Hooks Switch enters: transit for all, reverse for RMA ACKs only.
    transit_hook = True
    reverse_hook = RMA_ACKS

    def __init__(
        self,
        switch: "Switch",
        port: "Port",
        params: TfcParams = DEFAULT_PARAMS,
    ):
        self.switch = switch
        self.port = port
        self.params = params
        self.sim = switch.sim
        self.tracer = switch.tracer
        self.rate_bps = port.rate_bps

        # RTT timer state.
        self.rttb_ns: int = params.init_rttb_ns
        self.rttm_ns: int = params.init_rttb_ns
        self.rtt_last_ns: int = params.init_rttb_ns
        self._slots_until_rttb_refresh = params.rttb_refresh_slots

        # Delimiter state.
        self.delimiter_key: Optional[FlowKey] = None
        self._delimiter_weight = 1
        self.slot_start_ns: int = 0
        self.miss_count = 0
        self._slots_since_election = 0

        # Counters for the current slot.
        self.effective_flows = 1
        self.arrived_bytes = 0
        # Decaying upper estimate of the flow count (halves per slot).
        self.e_smooth: float = 1.0
        # Window bytes granted (stamped on RM packets) this slot.
        self.granted_bytes = 0.0

        # Token / window state.
        self.tokens: float = bandwidth_delay_product(self.rate_bps, self.rttb_ns)
        self.window: float = self.tokens
        self.slot_index = 0
        self.last_rho: float = params.rho0
        self.published_e: int = 1  # E used for the currently published W
        self._refresh_stamp()  # sets self.stamp = min(W, live bound)

        self.delay_arbiter = DelayArbiter(
            self.sim,
            self.rate_bps,
            release=self.switch.forward,
            tracer=self.tracer,
            queue_limit=params.delay_queue_limit,
            fill_fraction=params.rho0,
        )
        self.delay_arbiter.set_cap(self.tokens)

    # ------------------------------------------------------------------
    # Fault hook: state reset (switch reboot)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Wipe every learned quantity, as if the port's agent rebooted.

        RTT estimates restart from the configured initial value, the
        delimiter is forgotten (the next RM packet is elected), the token
        value restarts from the initial BDP, and the delay arbiter drops
        its parked ACKs with the rest of the state.  Everything must be
        re-learned from live traffic — the recovery path chaos runs
        measure.
        """
        params = self.params
        self.rttb_ns = params.init_rttb_ns
        self.rttm_ns = params.init_rttb_ns
        self.rtt_last_ns = params.init_rttb_ns
        self._slots_until_rttb_refresh = params.rttb_refresh_slots
        self.delimiter_key = None
        self._delimiter_weight = 1
        self.slot_start_ns = self.sim.now
        self.miss_count = 0
        self._slots_since_election = 0
        self.effective_flows = 1
        self.arrived_bytes = 0
        self.e_smooth = 1.0
        self.granted_bytes = 0.0
        self.tokens = bandwidth_delay_product(self.rate_bps, self.rttb_ns)
        self.window = self.tokens
        self.slot_index = 0
        self.last_rho = params.rho0
        self.published_e = 1
        self._refresh_stamp()
        self.delay_arbiter.reset(self.tokens)

    # ------------------------------------------------------------------
    # Forward (data) direction
    # ------------------------------------------------------------------
    def on_transit(self, packet: Packet) -> None:
        """Process a packet about to be queued on this port."""
        self.arrived_bytes += packet.frame_size
        if packet.is_ack and packet.payload == 0 and not packet.syn:
            return  # pure reverse-direction ACK: counts bytes, nothing else

        if packet.fin and packet.flow_key == self.delimiter_key:
            # Delimiter flow ended: drop it so the next RM packet is elected.
            self.delimiter_key = None
            self.miss_count = 0

        if not packet.rm:
            # Header modifier: the minimum window along the path wins.
            # A weight-w flow receives w shares of the per-slot allocation.
            stamp = self.stamp
            weight = packet.weight
            if weight > 1:
                stamp = _quantize_window(stamp * weight)
            if packet.window > stamp:
                packet.window = stamp
            return

        now = self.sim.now
        if self.delimiter_key is not None:
            # Delimiter silence: miss counts the 2^k x rtt_last thresholds
            # the slot has outlived since its start.
            while (
                self.miss_count < self.params.max_delimiter_miss
                and now - self.slot_start_ns
                > (1 << (self.miss_count + 1)) * self.rtt_last_ns
            ):
                self.miss_count += 1
            if self.miss_count >= 2 and packet.flow_key != self.delimiter_key:
                # The old delimiter has been silent for over 4 x rtt_last
                # (miss >= 2): adopt this flow instead.  A single missed
                # slot (miss == 1) is tolerated — ACK jitter alone can
                # stretch a round past 2 x rtt_last, and churning the
                # delimiter flips the slot length and with it every
                # RTT-weighted count.
                self._elect(packet, now)
                self._refresh_stamp()

        stamp = self.stamp
        weight = packet.weight
        if weight > 1:
            stamp = _quantize_window(stamp * weight)
        # Token-budget accounting: only RM packets carry a window back to
        # their sender (the receiver copies it onto the RMA ACK), so each
        # RM stamp is a real grant.  The slot's grants may not exceed the
        # token value in total — once the budget runs out the leftover
        # (sub-MSS) grant is paced by the delay arbiter.  Without this, a
        # flash crowd of probes inside one slot is granted the harmonic
        # ladder T/1 + T/2 + T/3 + ...
        remaining = self.tokens - self.granted_bytes
        if remaining < 64.0:
            remaining = 64.0
        if stamp > remaining:
            stamp = remaining
        self.granted_bytes += stamp
        if packet.window > stamp:
            packet.window = stamp

        # Round mark: the first RM packet elects its flow as delimiter,
        # the delimiter's own closes the slot, and any other flow's counts
        # as effective flows.  Weighted allocation policy (paper section
        # 4.1: "we could allocate the total tokens to flows according to
        # any allocation policies"): a flow of weight w counts as w
        # effective flows and is granted w shares.
        delimiter_key = self.delimiter_key
        if delimiter_key is None:
            self._elect(packet, now)
        elif packet.flow_key == delimiter_key:
            self._close_slot(packet, now)
        else:
            self.effective_flows += weight if weight > 1 else 1

        # _refresh_stamp, inlined: min(W, live bound) for the packets that
        # follow, from the counts this packet just moved.
        e_half = self.e_smooth / 2.0
        denominator = self.effective_flows
        if denominator < e_half:
            denominator = e_half
        if denominator < 1.0:
            denominator = 1.0
        bound = self.tokens / denominator
        if bound < _MIN_STAMP:
            bound = _MIN_STAMP
        elif bound >= MSS:
            bound = float(int(bound // MSS) * MSS)
        window = self.window
        self.stamp = window if window <= bound else bound

    def _refresh_stamp(self) -> None:
        """Recompute the cached stamp from T, E, e_smooth and W.

        The stamp is bounded by a live estimate T / E_so_far as well as
        the published W: within a normal slot E_so_far is below the final
        count and the bound is loose (W wins), but during a flash crowd of
        marked SYNs it tightens with every arrival, so acquisition probes
        racing the first slot boundary cannot take away the huge pre-crowd
        window and overrun the buffers.  E collapsing (a synchronised
        round draining) is bounded the same way: e_smooth halves per slot,
        so a straggler's window at most doubles per slot instead of
        jumping to the whole token value the instant the count reads 1.
        """
        denominator = max(self.effective_flows, self.e_smooth / 2.0, 1.0)
        live_bound = _quantize_window(max(self.tokens / denominator, _MIN_STAMP))
        self.stamp = min(self.window, live_bound)

    def _elect(self, packet: Packet, now: int) -> None:
        self.delimiter_key = packet.flow_key
        self._delimiter_weight = max(packet.weight, 1)
        self.slot_start_ns = now
        self.effective_flows = self._delimiter_weight
        self.arrived_bytes = 0
        self.granted_bytes = 0.0
        self.miss_count = 0
        self._slots_since_election = 0
        self.tracer.emit(
            TFC_DELIMITER_ELECTED, agent=self, flow_key=packet.flow_key
        )

    # ------------------------------------------------------------------
    # Slot boundary: token adjustment and window computation
    # ------------------------------------------------------------------
    def _close_slot(self, packet: Packet, now: int) -> None:
        rttm = now - self.slot_start_ns
        if rttm <= 0:
            return  # same-instant duplicate; ignore
        self.rttm_ns = rttm
        self.rtt_last_ns = rttm
        if packet.frame_size >= self.params.min_rtt_frame_bytes:
            if self._slots_until_rttb_refresh <= 0:
                # Age out the running minimum so one anomalously fast
                # sample (or a long-gone short-RTT delimiter) cannot
                # depress the token base forever.
                self.rttb_ns = rttm
                self._slots_until_rttb_refresh = self.params.rttb_refresh_slots
            else:
                self.rttb_ns = min(self.rttb_ns, rttm)
                self._slots_until_rttb_refresh -= 1

        if self._slots_since_election == 0:
            # The slot straddling a delimiter election has ill-defined
            # boundaries (it often spans a handshake on a near-idle link);
            # its rho would only poison the token adjustment.  Still
            # publish W from the counted E — a flash crowd of marked SYNs
            # must shrink the window before the acquisition probes return —
            # but leave the token value untouched.
            self._slots_since_election = 1
            self.e_smooth = max(float(self.effective_flows), self.e_smooth / 2.0)
            self.published_e = max(self.effective_flows, 1)
            self.window = _quantize_window(
                self.tokens / max(self.effective_flows, 1)
            )
            self.effective_flows = self._delimiter_weight
            self.arrived_bytes = 0
            self.granted_bytes = 0.0
            self.slot_start_ns = now
            self.miss_count = 0
            tracer = self.tracer
            if tracer.active(TFC_WINDOW_UPDATE):
                tracer.emit(TFC_WINDOW_UPDATE, agent=self)
            else:
                tracer.bump(TFC_WINDOW_UPDATE)
            return

        capacity_bytes = bandwidth_delay_product(self.rate_bps, rttm)
        rho = self.arrived_bytes / capacity_bytes if capacity_bytes > 0 else 1.0
        rho = max(rho, self.params.rho_floor)
        self.last_rho = rho

        bdp = bandwidth_delay_product(self.rate_bps, self.rttb_ns)
        if self.params.token_adjustment == "iterative":
            # Compound the correction on the previous token value: the
            # fixed point is rho == rho0 regardless of quantisation losses.
            raw_tokens = self.tokens * self.params.rho0 / rho
        else:
            # Paper Eq. 7, literal form.
            raw_tokens = bdp * self.params.rho0 / rho
        raw_tokens = min(raw_tokens, self.tokens * self.params.token_boost_limit)
        if self.params.queue_drain:
            # Tokens already sitting in the buffer are not available
            # pipeline capacity; reclaim them before allocating.  The
            # benign couple-of-packets dither queue is exempt so the
            # drain term does not depress steady-state utilisation.
            backlog = self.port.queue.byte_length - 2 * MSS
            if backlog > 0:
                raw_tokens -= backlog
        raw_tokens = min(
            max(raw_tokens, bdp * self.params.min_token_bdp_factor),
            bdp * self.params.max_token_bdp_factor,
        )
        self.tokens = (
            self.params.alpha * self.tokens
            + (1.0 - self.params.alpha) * raw_tokens
        )
        self.e_smooth = max(float(self.effective_flows), self.e_smooth / 2.0)
        self.published_e = max(self.effective_flows, 1)
        self.window = _quantize_window(
            self.tokens / max(self.effective_flows, 1)
        )
        self.delay_arbiter.set_cap(self.tokens)
        self.slot_index += 1
        tracer = self.tracer
        if tracer.active(TFC_WINDOW_UPDATE):
            tracer.emit(TFC_WINDOW_UPDATE, agent=self)
        else:
            tracer.bump(TFC_WINDOW_UPDATE)

        # Start the next slot; the delimiter's own RM counts as its weight.
        self.effective_flows = self._delimiter_weight
        self.arrived_bytes = 0
        self.granted_bytes = 0.0
        self.slot_start_ns = now
        self.miss_count = 0

    # ------------------------------------------------------------------
    # Reverse direction: the delay function for RMA ACKs
    # ------------------------------------------------------------------
    def on_reverse_arrival(self, packet: Packet) -> bool:
        """Offer an RMA ACK arriving *from* this port's link to the arbiter.

        Returns True when the delay arbiter kept the packet (it will be
        forwarded when the arbiter releases it).
        """
        return self.delay_arbiter.offer(packet)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TfcPortAgent {self.port!r} W={self.window:.0f}B"
            f" T={self.tokens:.0f}B E={self.effective_flows}"
            f" rttb={self.rttb_ns}ns>"
        )


def enable_tfc(network, params: TfcParams = DEFAULT_PARAMS) -> int:
    """Attach a TFC agent to every switch port of ``network``.

    Returns the number of agents installed.  Hosts keep plain NIC ports
    (TFC is a switch function; end hosts only mark and obey windows).
    """
    installed = 0
    for switch in network.switches:
        for port in switch.ports:
            install_agent(port, TfcPortAgent(switch, port, params))
            installed += 1
    return installed
