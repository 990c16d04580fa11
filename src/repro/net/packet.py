"""Packet model.

One packet class serves every protocol in the library.  It is a TCP-like
segment plus the two TFC flag bits (RM / RMA) and the ECN bits DCTCP needs.
Following the paper's implementation section, the TFC header "is similar to
the TCP header except that it uses two reserved bits in the flags field",
so sharing the structure is faithful, not a shortcut.

Sizes: ``payload`` is the number of application bytes carried; the wire size
adds a fixed 40-byte TCP/IP header plus 18 bytes of Ethernet framing, and is
lower-bounded by the 64-byte minimum Ethernet frame.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple, Union

HEADER_BYTES = 40        # TCP/IP header (no options)
ETHERNET_OVERHEAD = 18   # Ethernet header + FCS (preamble/IFG folded in)
MIN_FRAME_BYTES = 64     # minimum Ethernet frame
MSS = 1460               # maximum segment size (payload bytes)
MTU = MSS + HEADER_BYTES # 1500-byte IP MTU

# Sentinel stamped by TFC senders into the window field of outgoing data
# packets; any real switch allocation is smaller. The paper uses 0xffff with
# a window scale; we keep it in bytes.
WINDOW_SENTINEL = float(0xFFFF * MSS)

_packet_ids = itertools.count()

FlowKey = Tuple[int, int, int, int]  # (src, dst, sport, dport)

#: payload -> (size, frame_size), filled on first use: every packet of a
#: given length shares the two ints (1500 and 1518 are not cached small
#: ints), and only lengths that occur take an entry (at most MSS + 1).
_sizes: Dict[int, Tuple[int, int]] = {}


def _sizes_of(payload: int) -> Tuple[int, int]:
    """Compute and remember ``(size, frame_size)`` for ``payload`` bytes."""
    size = payload + HEADER_BYTES
    frame = size + ETHERNET_OVERHEAD
    sizes = (size, frame if frame >= MIN_FRAME_BYTES else MIN_FRAME_BYTES)
    _sizes[payload] = sizes
    return sizes


class Packet:
    """A simulated segment/frame.

    Attributes mirror header fields; ``hops`` counts store-and-forward
    stages for debugging, and ``sent_at`` carries the original transmission
    timestamp used for RTT sampling (legitimate for a simulator: real stacks
    recover it from the segment's position in the retransmission queue).
    """

    __slots__ = (
        "packet_id", "src", "dst", "sport", "dport",
        "seq", "ack", "_payload",
        "syn", "fin", "is_ack",
        "rm", "rma", "window", "weight",
        "ecn_capable", "ecn_ce", "ecn_echo",
        "sent_at", "retransmitted", "hops",
        "size", "frame_size", "flow_key", "pfc_ingress",
    )

    # Class-level defaults, so reads cost nothing per instance: all
    # traffic rides PFC class 0, and a data packet is no pause frame.
    # PauseFrame (repro.net.pfc) shadows ``backpressure`` with a slot
    # naming the fabric that sent it.
    priority: int = 0
    backpressure = None

    def __init__(
        self,
        src: Union[int, FlowKey],
        dst: Optional[int] = None,
        sport: int = 0,
        dport: int = 0,
        seq: int = 0,
        ack: int = 0,
        payload: int = 0,
        syn: bool = False,
        fin: bool = False,
        is_ack: bool = False,
        rm: bool = False,
        rma: bool = False,
        window: float = WINDOW_SENTINEL,
        ecn_capable: bool = False,
    ):
        # Either four header fields or, with ``dst`` omitted, a whole flow
        # key: endpoints pass the one tuple their flow owns, so queued
        # packets share it instead of each carrying a copy.  The header
        # fields are always unpacked from the key, so the two agree.
        key = src if dst is None else (src, dst, sport, dport)
        self.flow_key = key
        self.src, self.dst, self.sport, self.dport = key
        self.packet_id = next(_packet_ids)
        self.seq = seq
        self.ack = ack
        self._payload = payload
        # Sizes are read on every enqueue/serialise/stat bump but written
        # only here (and via the payload setter), so they are attributes,
        # shared per payload length, rather than recomputed properties.
        self.size, self.frame_size = _sizes.get(payload) or _sizes_of(payload)
        self.syn = syn
        self.fin = fin
        self.is_ack = is_ack
        self.rm = rm
        self.rma = rma
        self.window = window
        self.weight = 1  # TFC allocation weight (weighted policy extension)
        self.ecn_capable = ecn_capable
        self.ecn_ce = False
        self.ecn_echo = False
        self.sent_at: Optional[int] = None
        self.retransmitted = False
        self.hops = 0
        # Ingress-accounting handle set by the lossless fabric while the
        # packet occupies a switch buffer (repro.net.pfc); None otherwise.
        self.pfc_ingress = None

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def payload(self) -> int:
        """Application bytes carried; assignment recomputes the sizes."""
        return self._payload

    @payload.setter
    def payload(self, value: int) -> None:
        self._payload = value
        self.size, self.frame_size = _sizes.get(value) or _sizes_of(value)

    @property
    def reverse_flow_key(self) -> FlowKey:
        """The key of the opposite direction (built on each read)."""
        return (self.dst, self.src, self.dport, self.sport)

    @property
    def end_seq(self) -> int:
        """Sequence number immediately after this segment's payload."""
        return self.seq + self._payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            name
            for name, value in (
                ("S", self.syn), ("F", self.fin), ("A", self.is_ack),
                ("M", self.rm), ("m", self.rma), ("E", self.ecn_ce),
            )
            if value
        )
        return (
            f"<Pkt#{self.packet_id} {self.src}:{self.sport}->"
            f"{self.dst}:{self.dport} seq={self.seq} ack={self.ack} "
            f"len={self.payload} [{flags}]>"
        )
