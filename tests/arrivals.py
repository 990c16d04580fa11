"""One arrival spy for every test that watches frames land on nodes.

Each concrete node class (``Switch``, ``Host``) handles an arriving
frame in a single ``receive`` call, so that call is the one place to
watch.  :func:`spy_arrivals` wraps every class's own ``receive``; a test
that uses it also checks, with :func:`frames_received`, that the spy saw
exactly the frames the nodes counted.
"""

from repro.net.node import Node


def _receive_classes(cls=Node):
    """Every subclass of ``cls`` that defines its own ``receive``."""
    for sub in cls.__subclasses__():
        if "receive" in vars(sub):
            yield sub
        yield from _receive_classes(sub)


def _logged(receive, record):
    def logged(node, packet, in_port_index):
        record(node, packet, in_port_index)
        return receive(node, packet, in_port_index)

    return logged


def spy_arrivals(monkeypatch, record):
    """Call ``record(node, packet, in_port_index)`` as each frame arrives,
    before the node handles it, for the rest of the test."""
    for cls in set(_receive_classes()):
        monkeypatch.setattr(cls, "receive", _logged(vars(cls)["receive"], record))


def frames_received(net):
    """Frames the nodes of ``net`` counted in: what a spy must have seen."""
    return sum(node.rx_packets for node in net.nodes)
