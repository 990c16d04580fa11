"""Typed hot-loop kernels, written to compile cleanly under mypyc.

This module is the single source of truth for the helper the engine
routes through when ``REPRO_COMPILED=on``: a plain module-level
function over concrete built-in containers, no closures, no dynamic
attribute tricks — exactly the subset mypyc compiles to C extensions with
real speedups.  The same file runs unmodified on the interpreter, which
is what keeps the pure-Python fallback from rotting: tier-1 tests
exercise it interpreted on every run.

Build story (opt-in, nothing here imports mypy):

* ``pip install .[compiled]`` provides mypyc;
* ``python benchmarks/perf/build_compiled.py`` copies this file to
  ``repro/sim/_core_compiled.py`` and compiles that copy in place;
* :func:`repro.sim.engine.load_core` prefers the compiled twin when the
  knob asks for it and silently falls back to this module otherwise.

``COMPILED`` reports which flavour actually loaded (mypyc rewrites
``__file__`` to the extension module's path).
"""

from __future__ import annotations

from heapq import heappop as _heappop
from typing import List, Tuple

COMPILED: bool = not __file__.endswith((".py", ".pyc"))


def heap_pop_batch(
    heap: List[tuple], free: list, horizon_ns: int, out: list
) -> Tuple[int, int]:
    """Pop every due live event sharing the earliest due time into ``out``.

    Dead entries surfacing at the head are recycled into ``free``.
    Returns ``(popped, freed_dead)`` so the caller can settle the owning
    simulator's dead-entry counter in one write.
    """
    ndead = 0
    while heap:
        entry = heap[0]
        event = entry[2]
        if event.cancelled:
            _heappop(heap)
            ndead += 1
            free.append(event)
            continue
        time_ns: int = entry[0]
        if time_ns > horizon_ns:
            return 0, ndead
        _heappop(heap)
        out.append(event)
        n = 1
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                _heappop(heap)
                ndead += 1
                free.append(event)
                continue
            if entry[0] != time_ns:
                break
            _heappop(heap)
            out.append(event)
            n += 1
        return n, ndead
    return 0, ndead

