"""A caller that drops the handle ``schedule`` returns posts instead.

``Simulator.post`` pushes a handle-free heap entry; ``schedule`` and
``schedule_at`` allocate an :class:`~repro.sim.engine.Event` whose only
use is ``cancel``/``reschedule``.  Both draw from the same ``seq``
counter, so the choice never changes event order — only the allocation.
This walks every module of ``repro`` and fails on a statement that
throws the handle away, on any module but the kernel writing the
clock (``Simulator.now`` is a plain attribute only the run loop sets),
and on any module but the kernel touching the heaps or their
bookkeeping: how pending events are stored is the kernel's decision.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
SCHEDULERS = ("schedule", "schedule_at")
#: The Simulator's storage privates.
PRIVATES = ("_heap", "_timers", "_free", "_dead", "_seq")


def _is_schedule_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SCHEDULERS
    )


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_no_statement_discards_a_schedule_handle():
    dropped = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and _is_schedule_call(node.value)
    ]
    assert dropped == [], f"use Simulator.post: {dropped}"


def test_only_the_timer_and_the_delay_arbiter_keep_handles():
    """Outside the kernel itself, the two owners of a cancellable event."""
    users = {
        name
        for name, tree in _modules()
        if name != "sim/engine.py" and any(map(_is_schedule_call, ast.walk(tree)))
    }
    assert users == {"sim/timers.py", "core/delay.py"}


def test_only_the_kernel_writes_the_clock():
    """Every other module reads ``now``; none assigns it."""
    writers = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name != "sim/engine.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for leaf in getattr(target, "elts", [target])
        if isinstance(leaf, ast.Attribute) and leaf.attr == "now"
    ]
    assert writers == [], f"only sim/engine.py sets the clock: {writers}"


def test_only_the_kernel_touches_its_heaps():
    """No module but ``sim/engine.py`` reads or writes a Simulator's
    heaps, free list, dead count or sequence counter."""
    touches = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, tree in _modules()
        if name != "sim/engine.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATES
    ]
    assert touches == [], f"only sim/engine.py touches its storage: {touches}"
