"""ML-collective traffic: ring and tree all-reduce with phase barriers.

Distributed training dominates modern data-center east-west traffic, and
its shape is nothing like the query/short/background mix of the paper's
benchmark: every iteration, *all* workers exchange gradient shards in
synchronized bursts, and nobody proceeds until the slowest transfer of
the phase finishes.  That barrier structure is exactly what stresses a
flow-control scheme — one congested hop stalls the whole job, and
fan-in at phase boundaries looks like a coordinated incast.

:class:`AllReduceWorkload` reproduces the two canonical topologies:

* **ring** — each step, worker ``i`` bursts a gradient shard to worker
  ``(i + 1) % N``; a full all-reduce is ``2 * (N - 1)`` steps
  (reduce-scatter then all-gather), each step barrier-synchronised.
* **tree** — a binary reduction tree over the workers: leaves send up
  level by level (reduce), then the root's result fans back down level
  by level (broadcast).  Each tree level is one barrier step.

Steps are event-driven (a step ends when the last flow of the step
completes — no polling), iterations are separated by an optional
``compute_gap_ns`` modelling backward-pass compute, and every flow is
recorded in an :class:`~repro.metrics.fct.FctCollector` under the
``"collective"`` category, tagged with the workload's tenant.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..metrics.fct import FctCollector
from ..net.host import Host
from ..sim.units import MILLISECOND
from ..transport.registry import open_flow

ALLREDUCE_MODES = ("ring", "tree")


def ring_steps(n: int) -> List[List[Tuple[int, int]]]:
    """The ``2 * (n - 1)`` ring steps as (src, dst) index pairs per step.

    Every step is the same full ring permutation — worker ``i`` sends to
    ``i + 1 mod n`` — repeated for the reduce-scatter and all-gather
    halves of the collective.  Returned explicitly so tests (and the
    tree variant) share one step-schedule representation.
    """
    if n < 2:
        raise ValueError("ring all-reduce needs at least two workers")
    ring = [[(i, (i + 1) % n) for i in range(n)]]
    return ring * (2 * (n - 1))


def tree_steps(n: int) -> List[List[Tuple[int, int]]]:
    """Binary-tree steps: reduce up level by level, then broadcast down.

    Worker ``i``'s parent is ``(i - 1) // 2``.  The reduce phase walks
    depths deepest-first (children at one depth send to their parents in
    one barrier step); the broadcast phase replays the same levels in
    reverse with the direction flipped.
    """
    if n < 2:
        raise ValueError("tree all-reduce needs at least two workers")
    depth_of = [0] * n
    for i in range(1, n):
        depth_of[i] = depth_of[(i - 1) // 2] + 1
    max_depth = max(depth_of)
    reduce_phase = []
    for depth in range(max_depth, 0, -1):
        reduce_phase.append(
            [(i, (i - 1) // 2) for i in range(1, n) if depth_of[i] == depth]
        )
    broadcast_phase = [
        [(dst, src) for (src, dst) in step] for step in reversed(reduce_phase)
    ]
    return reduce_phase + broadcast_phase


class AllReduceWorkload:
    """Barrier-synchronised all-reduce iterations over a worker group.

    ``chunk_bytes`` is the gradient shard each worker moves per step (for
    a model of ``S`` bytes ring-sharded over ``N`` workers that is
    ``S / N``).  Each step opens fresh flows — one connection per
    (src, dst) transfer, the way collective libraries run one transfer
    per algorithm step — and the next step starts only when *every* flow
    of the current step has fully completed.  ``iterations`` all-reduce
    rounds are separated by ``compute_gap_ns`` of silence.
    """

    category = "collective"

    def __init__(
        self,
        hosts: Sequence[Host],
        protocol: str,
        chunk_bytes: int = 64_000,
        iterations: int = 2,
        mode: str = "ring",
        compute_gap_ns: int = 0,
        start_ns: int = 0,
        min_rto_ns: int = 10 * MILLISECOND,
        tenant: Optional[str] = None,
        collector: Optional[FctCollector] = None,
    ):
        if mode not in ALLREDUCE_MODES:
            raise ValueError(
                f"unknown all-reduce mode {mode!r}; "
                f"choose from {', '.join(ALLREDUCE_MODES)}"
            )
        if chunk_bytes <= 0 or iterations <= 0:
            raise ValueError("chunk_bytes and iterations must be positive")
        if compute_gap_ns < 0:
            raise ValueError("compute_gap_ns must be non-negative")
        self.hosts = list(hosts)
        self.protocol = protocol
        self.chunk_bytes = chunk_bytes
        self.total_iterations = iterations
        self.mode = mode
        self.compute_gap_ns = compute_gap_ns
        self.min_rto_ns = min_rto_ns
        self.tenant = tenant
        self.collector = collector if collector is not None else FctCollector()
        self.sim = self.hosts[0].sim

        self.steps = (
            ring_steps(len(self.hosts))
            if mode == "ring"
            else tree_steps(len(self.hosts))
        )
        self.iterations_completed = 0
        self.steps_completed = 0
        self.flows_launched = 0
        self.finished = False
        #: Sim time the final iteration completed (None until finished).
        self.finished_ns: Optional[int] = None
        #: Wall-clock (sim) duration of each completed iteration.
        self.iteration_times_ns: List[int] = []
        self._step_index = 0
        self._outstanding = 0
        self._iteration_start_ns: Optional[int] = None
        self.sim.post(max(start_ns - self.sim.now, 0), self._begin_step)

    # ------------------------------------------------------------------
    @property
    def steps_per_iteration(self) -> int:
        return len(self.steps)

    def _begin_step(self) -> None:
        if self.finished:
            return
        if self._iteration_start_ns is None:
            self._iteration_start_ns = self.sim.now
        pairs = self.steps[self._step_index]
        self._outstanding = len(pairs)
        for src_index, dst_index in pairs:
            self.flows_launched += 1
            self.collector.expect()
            open_flow(
                self.hosts[src_index],
                self.hosts[dst_index],
                self.protocol,
                size_bytes=self.chunk_bytes,
                on_complete=self._flow_done,
                min_rto_ns=self.min_rto_ns,
                tenant=self.tenant,
            )

    def _flow_done(self, sender) -> None:
        self.collector.completion_handler(self.category)(sender)
        self._outstanding -= 1
        if self._outstanding > 0:
            return
        # Barrier: the slowest flow of the step just finished.
        self.steps_completed += 1
        self._step_index += 1
        if self._step_index < len(self.steps):
            self._begin_step()
            return
        # Iteration boundary.
        assert self._iteration_start_ns is not None
        self.iteration_times_ns.append(self.sim.now - self._iteration_start_ns)
        self.iterations_completed += 1
        self._step_index = 0
        self._iteration_start_ns = None
        if self.iterations_completed >= self.total_iterations:
            self.finished = True
            self.finished_ns = self.sim.now
            return
        if self.compute_gap_ns > 0:
            self.sim.post(self.compute_gap_ns, self._begin_step)
        else:
            self._begin_step()
