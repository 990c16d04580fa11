"""Drive a transmitter's pause state the way a frame from its peer does."""

from repro.net.pfc import PauseFrame, peer_tx_port


def apply_frame(port, op, key=0, fabric=None):
    """Apply an ``op`` (``"xoff"``/``"xon"``) frame for ``key`` at the
    transmitter ``port``, as if it had just arrived from the peer.

    ``fabric`` defaults to the PFC fabric that ``port``'s ingress role
    belongs to.
    """
    fabric = fabric or port.fabric.fabric
    fabric.apply(port, PauseFrame(peer_tx_port(port), op, key, fabric))
