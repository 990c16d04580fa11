"""Storage-replication traffic: primary -> k-replica writes with commits.

Replicated block/object stores are the second big east-west traffic
class: every client write lands on a primary which must place ``k``
copies before acknowledging the commit.  The network-visible shape is a
Poisson stream of correlated multi-destination transfers — either a
*fan-out* (primary streams to all replicas concurrently, quorum-style)
or a *chain* (primary -> r1 -> r2 -> ..., chain-replication style, each
hop forwarding only after it holds the full value).

:class:`ReplicationWorkload` generates that stream over a host group.
A write *commits* when its last replica flow completes (transport-level
completion stands in for the replica's durable-write ack); commit
latency — arrival to commit — is the workload's headline metric, and
every replica flow is recorded in the shared
:class:`~repro.metrics.fct.FctCollector` under ``"storage"`` with the
workload's tenant tag.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..metrics.fct import FctCollector
from ..net.host import Host
from ..sim.rng import stable_seed
from ..sim.units import MILLISECOND
from ..transport.registry import open_flow
from .distributions import poisson_arrival_times_ns

REPLICATION_MODES = ("fanout", "chain")


class ReplicationWorkload:
    """Poisson writes, each replicated primary -> k replicas.

    Per write, the primary and its ``replicas`` distinct targets are
    drawn from the host group (each write may land on a different
    primary, as with hash-placed shards).  ``mode="fanout"`` opens all
    replica flows at the write's arrival; ``mode="chain"`` opens hop
    ``i + 1`` only when hop ``i`` completes.
    """

    category = "storage"

    def __init__(
        self,
        hosts: Sequence[Host],
        protocol: str,
        duration_ns: int,
        replicas: int = 2,
        mode: str = "fanout",
        write_rate_per_s: float = 200.0,
        value_bytes: int = 64_000,
        start_ns: int = 0,
        min_rto_ns: int = 10 * MILLISECOND,
        tenant: Optional[str] = None,
        collector: Optional[FctCollector] = None,
        seed_name: str = "storage",
    ):
        if mode not in REPLICATION_MODES:
            raise ValueError(
                f"unknown replication mode {mode!r}; "
                f"choose from {', '.join(REPLICATION_MODES)}"
            )
        if replicas < 1:
            raise ValueError("need at least one replica")
        if len(hosts) < replicas + 1:
            raise ValueError(
                f"replication factor {replicas} needs at least "
                f"{replicas + 1} hosts, got {len(hosts)}"
            )
        if value_bytes <= 0 or duration_ns <= 0:
            raise ValueError("value_bytes and duration_ns must be positive")
        if write_rate_per_s <= 0:
            raise ValueError("write_rate_per_s must be positive")
        self.hosts = list(hosts)
        self.protocol = protocol
        self.replicas = replicas
        self.mode = mode
        self.value_bytes = value_bytes
        self.min_rto_ns = min_rto_ns
        self.tenant = tenant
        self.collector = collector if collector is not None else FctCollector()
        self.sim = self.hosts[0].sim
        self._rng = random.Random(stable_seed(seed_name))

        self.writes_launched = 0
        self.commits_completed = 0
        self.flows_launched = 0
        #: Arrival-to-commit latency of every committed write.
        self.commit_latencies_ns: List[int] = []

        for t in poisson_arrival_times_ns(
            self._rng, write_rate_per_s, duration_ns,
            start_ns=max(start_ns, self.sim.now),
        ):
            self.sim.schedule_at(t, self._launch_write)

    # ------------------------------------------------------------------
    @property
    def mean_commit_latency_us(self) -> float:
        """Mean commit latency in microseconds (0.0 before any commit)."""
        if not self.commit_latencies_ns:
            return 0.0
        return sum(self.commit_latencies_ns) / len(self.commit_latencies_ns) / 1e3

    def _launch_write(self) -> None:
        primary = self._rng.choice(self.hosts)
        targets = self._rng.sample(
            [h for h in self.hosts if h is not primary], self.replicas
        )
        self.writes_launched += 1
        arrival_ns = self.sim.now
        if self.mode == "fanout":
            state = {"remaining": len(targets)}

            def done(sender) -> None:
                self._record_flow(sender)
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    self._commit(arrival_ns)

            for target in targets:
                self._open(primary, target, done)
        else:
            hops = [primary] + targets

            def forward(hop_index: int):
                def done(sender) -> None:
                    self._record_flow(sender)
                    if hop_index + 1 < len(targets):
                        self._open(
                            hops[hop_index + 1],
                            hops[hop_index + 2],
                            forward(hop_index + 1),
                        )
                    else:
                        self._commit(arrival_ns)

                return done

            self._open(hops[0], hops[1], forward(0))

    def _open(self, src: Host, dst: Host, on_complete) -> None:
        self.flows_launched += 1
        self.collector.expect()
        open_flow(
            src,
            dst,
            self.protocol,
            size_bytes=self.value_bytes,
            on_complete=on_complete,
            min_rto_ns=self.min_rto_ns,
            tenant=self.tenant,
        )

    def _record_flow(self, sender) -> None:
        self.collector.completion_handler(self.category)(sender)

    def _commit(self, arrival_ns: int) -> None:
        self.commits_completed += 1
        self.commit_latencies_ns.append(self.sim.now - arrival_ns)
