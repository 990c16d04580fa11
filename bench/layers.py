"""Fold a ``cProfile`` run into per-layer self time, from outside ``src/``.

The layers are the ``repro`` packages.  Every profiled Python function is
billed, by the file that defines it, to the package that owns it; a C
builtin has no file, so its self time is billed to the layer of the
function that called it — except ``_heapq``/``_bisect``, which are the
scheduler backends' data structure wherever they are called from.

One caveat a reader must know: ``Simulator.schedule`` and
``Simulator.run`` inline each backend's push/pop hot path, so that part
of the scheduler's work is billed to ``sim.engine``, not ``sim.sched``.
"""

from __future__ import annotations

import cProfile
from typing import Dict

LAYERS = (
    "sim.engine",
    "sim.sched",
    "net",
    "routing",
    "core",
    "transport",
    "workloads",
    "metrics",
    "faults",
    "obs",
    "other",
)

_PACKAGE_LAYERS = frozenset(LAYERS) - {"sim.engine", "sim.sched", "other"}
_SCHED_BUILTINS = ("_heapq.", "_bisect.")


def layer_of_file(filename: str) -> str:
    """The layer owning a source file (``other`` outside ``repro``)."""
    _, found, tail = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return "other"
    if tail.startswith("sim/"):
        return "sim.sched" if tail.startswith("sim/sched/") else "sim.engine"
    package = tail.split("/", 1)[0]
    return package if package in _PACKAGE_LAYERS else "other"


def _layer_of_code(code, caller_layer: str) -> str:
    if isinstance(code, str):  # a C builtin, e.g. "<built-in method _heapq.heappop>"
        if any(marker in code for marker in _SCHED_BUILTINS):
            return "sim.sched"
        return caller_layer
    return layer_of_file(code.co_filename)


def fold(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` summed over every profiled call."""
    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in profile.getstats():
        is_builtin = isinstance(entry.code, str)
        own_layer = _layer_of_code(entry.code, "other")
        if not is_builtin:
            folded[own_layer]["self_s"] += entry.inlinetime
            folded[own_layer]["calls"] += entry.callcount
        # Builtins are billed per (caller, callee) pair, which cProfile
        # keeps in the caller's sub-entries.
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                layer = _layer_of_code(sub.code, own_layer)
                folded[layer]["self_s"] += sub.inlinetime
                folded[layer]["calls"] += sub.callcount
    return folded
