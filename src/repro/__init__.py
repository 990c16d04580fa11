"""repro — a reproduction of "TFC: Token Flow Control in Data Center
Networks" (EuroSys 2016).

The package bundles a packet-level discrete-event network simulator
(:mod:`repro.sim`, :mod:`repro.net`), the TCP NewReno and DCTCP baselines
(:mod:`repro.transport`), the TFC protocol itself (:mod:`repro.core`),
workload generators (:mod:`repro.workloads`), measurement utilities
(:mod:`repro.metrics`), deterministic fault injection with runtime
invariant monitoring (:mod:`repro.faults`), every paper figure and
chaos scenario as runner cells (:mod:`repro.experiments`), a unified
run configuration (:mod:`repro.config`) and the telemetry subsystem
(:mod:`repro.obs` — metric registry, per-slot timelines, flight
recorder).

Quickstart::

    from repro.experiments.common import build_topology
    from repro.net import dumbbell
    from repro.transport import open_flow
    from repro.sim.units import seconds

    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=4)
    flows = [open_flow(h, topo.hosts[-1], "tfc") for h in topo.hosts[:4]]
    topo.network.run_for(seconds(1))

Every transport (tfc, dctcp, tcp, pfc, bfc, tbtcp, tracks, fairq) is a
:class:`~repro.transport.registry.Protocol` entry owning its queue
discipline and switch-side installer; ``repro.transport.
register_protocol`` adds new ones at runtime and scenarios/experiments
pick them up by name.

Observability quickstart::

    from repro.config import SimConfig
    from repro.net import Network

    net = Network(config=SimConfig(seed=1, telemetry="full"))
    ...  # build topology, open flows, run
    net.telemetry.export("out/", "my_run")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
