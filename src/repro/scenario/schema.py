"""The declarative scenario schema and its eager validator.

A :class:`Scenario` is everything one simulation run needs, as data:
topology, routing policy, fabric protocol, per-tenant transport +
workload mix, a declarative fault schedule, telemetry mode, duration and
seed.  Scenarios come from YAML files (``scenarios/*.yaml``, via
:mod:`repro.scenario.loader`) or are built programmatically; either way
they pass through :func:`scenario_from_dict`, which validates **eagerly
and precisely**: every unknown field, wrong type or out-of-range value
raises a :class:`ScenarioError` naming the exact path into the document
(``tenants[1].workload.params.chunk_bytes``), so a typo'd scenario dies
at load time with a pointable error — never minutes into a farm sweep.

The schema is deliberately closed: each mapping rejects keys it does not
know, each workload kind declares its parameter table, and host
selectors are range-checked against the topology's computed host count —
all before any simulator object exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config.simconfig import SimConfig
from ..obs.session import TELEMETRY_MODES
from ..routing import ROUTING_NAMES
from ..workloads.collective import ALLREDUCE_MODES
from ..workloads.storage import REPLICATION_MODES


class ScenarioError(ValueError):
    """A scenario failed validation; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


#: Sentinel for required parameters in the tables below.
_REQUIRED = object()

#: Topology kind -> (builder param -> (type, default)).  ``buffer_bytes``
#: rides along in every kind (consumed by build_topology, not the
#: builder).  The host-count formulas let selectors validate eagerly.
TOPOLOGY_KINDS: Dict[str, Dict[str, Tuple[type, Any]]] = {
    "dumbbell": {
        "n_senders": (int, _REQUIRED),
        "n_receivers": (int, 1),
        "rate_bps": (int, 1_000_000_000),
        "link_delay_ns": (int, 20_000),
        "buffer_bytes": (int, 256_000),
    },
    "testbed": {
        "hosts_per_leaf": (int, 3),
        "n_leaves": (int, 3),
        "rate_bps": (int, 1_000_000_000),
        "link_delay_ns": (int, 5_000),
        "buffer_bytes": (int, 256_000),
    },
    "multi_bottleneck": {
        "rate_bps": (int, 1_000_000_000),
        "link_delay_ns": (int, 5_000),
        "buffer_bytes": (int, 256_000),
    },
    "leaf_spine": {
        "n_leaves": (int, 18),
        "hosts_per_leaf": (int, 20),
        "spines": (int, 1),
        "down_rate_bps": (int, 1_000_000_000),
        "up_rate_bps": (int, 10_000_000_000),
        "link_delay_ns": (int, 20_000),
        "buffer_bytes": (int, 512_000),
    },
    "fat_tree": {
        "k": (int, 4),
        "rate_bps": (int, 1_000_000_000),
        "link_delay_ns": (int, 5_000),
        "buffer_bytes": (int, 256_000),
    },
}

#: Workload kind -> (param -> (type, default)).  Durations/gaps are in
#: microseconds in the document (YAML-friendly); the run layer converts.
WORKLOAD_KINDS: Dict[str, Dict[str, Tuple[type, Any]]] = {
    "empirical": {
        "query_rate_per_s": (float, 100.0),
        "query_fanin": (int, 4),
        "short_rate_per_s": (float, 20.0),
        "background_rate_per_s": (float, 20.0),
    },
    "incast": {
        "block_bytes": (int, 64_000),
        "rounds": (int, 4),
        "request_delay_us": (float, 50.0),
    },
    "onoff": {
        "burst_bytes": (int, 64_000),
        "on_us": (float, 200.0),
        "off_us": (float, 200.0),
        "cycles": (int, 4),
    },
    "bulk": {
        "size_bytes": (int, 500_000),
        "stagger_us": (float, 0.0),
    },
    "ml_allreduce": {
        "mode": (str, "ring"),
        "chunk_bytes": (int, 16_000),
        "iterations": (int, 2),
        "compute_gap_us": (float, 0.0),
    },
    "storage": {
        "mode": (str, "fanout"),
        "replicas": (int, 2),
        "write_rate_per_s": (float, 200.0),
        "value_bytes": (int, 64_000),
    },
}


@dataclass(frozen=True)
class TopologySpec:
    """Which builder to run and with what parameters."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def host_count(self) -> int:
        """Hosts the built topology will have (selector range checks)."""
        p = self.params
        if self.kind == "dumbbell":
            return p["n_senders"] + p["n_receivers"]
        if self.kind == "testbed":
            return p["hosts_per_leaf"] * p["n_leaves"]
        if self.kind == "multi_bottleneck":
            return 4
        if self.kind == "leaf_spine":
            return p["n_leaves"] * p["hosts_per_leaf"]
        if self.kind == "fat_tree":
            return p["k"] ** 3 // 4
        raise ScenarioError("topology.kind", f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class HostSelector:
    """Which of the topology's hosts a tenant drives.

    One of: all hosts, the first/last ``n``, a half-open index
    ``range`` ``[start, stop)``, or an explicit index list.
    """

    mode: str  # "all" | "first" | "last" | "range" | "indices"
    first: int = 0
    last: int = 0
    start: int = 0
    stop: int = 0
    indices: Tuple[int, ...] = ()

    def resolve(self, n_hosts: int) -> List[int]:
        """Concrete zero-based host indices for an ``n_hosts`` topology."""
        if self.mode == "all":
            return list(range(n_hosts))
        if self.mode == "first":
            return list(range(self.first))
        if self.mode == "last":
            return list(range(n_hosts - self.last, n_hosts))
        if self.mode == "range":
            return list(range(self.start, self.stop))
        return list(self.indices)

    def max_index(self, n_hosts: int) -> int:
        indices = self.resolve(n_hosts)
        return max(indices) if indices else -1


@dataclass(frozen=True)
class WorkloadSpec:
    """One tenant's traffic generator: kind plus validated parameters."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TenantSpec:
    """A tenant: identity, transport, host subset and workload."""

    name: str
    transport: str
    workload: WorkloadSpec
    hosts: HostSelector = field(default_factory=lambda: HostSelector("all"))


#: Fault kind -> accepted fields beyond (kind, at_ms).  ``link`` faults
#: target the port on ``link[0]`` facing ``link[1]``.
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "link_down": ("link", "duration_ms", "reroute"),
    "link_flap": ("link", "duration_ms", "reroute"),
    "degrade_link": ("link", "factor", "duration_ms"),
    "burst_loss": ("link", "duration_ms"),
    "ack_loss": ("link", "duration_ms", "probability"),
    "pause_host": ("host", "duration_ms"),
}


@dataclass(frozen=True)
class FaultSpec:
    """One entry of the declarative fault schedule."""

    kind: str
    at_ms: float
    duration_ms: Optional[float] = None
    link: Optional[Tuple[str, str]] = None
    host: Optional[str] = None
    factor: float = 0.5
    probability: float = 0.3
    reroute: bool = False


@dataclass(frozen=True)
class Scenario:
    """A fully validated, runnable scenario description."""

    name: str
    topology: TopologySpec
    tenants: Tuple[TenantSpec, ...]
    duration_ms: float
    description: str = ""
    quick_duration_ms: Optional[float] = None
    drain_ms: float = 0.0
    seed: int = 0
    routing: Optional[str] = None
    fabric: Optional[str] = None
    telemetry: Optional[str] = None
    faults: Tuple[FaultSpec, ...] = ()
    config: Optional[SimConfig] = None

    def fabric_protocol(self) -> str:
        """The protocol configuring queues/switch agents fabric-wide."""
        if self.fabric is not None:
            return self.fabric
        transports = {tenant.transport for tenant in self.tenants}
        assert len(transports) == 1  # enforced by scenario_from_dict
        return next(iter(transports))

    def effective_duration_ns(self, quick: bool = False) -> int:
        """Run length in ns; ``quick`` selects the smoke-test duration."""
        ms = self.duration_ms
        if quick:
            ms = (
                self.quick_duration_ms
                if self.quick_duration_ms is not None
                else self.duration_ms / 4.0
            )
        return int(ms * 1_000_000)


# ----------------------------------------------------------------------
# The eager validator
# ----------------------------------------------------------------------
def _type_name(expected: type) -> str:
    return {int: "an integer", float: "a number", str: "a string",
            bool: "a boolean"}.get(expected, expected.__name__)


def _coerce(value: Any, expected: type, path: str) -> Any:
    """Type-check ``value``; ints are acceptable where floats are."""
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if expected is int and isinstance(value, bool):
        raise ScenarioError(path, f"expected {_type_name(expected)}, got {value!r}")
    if not isinstance(value, expected):
        raise ScenarioError(
            path, f"expected {_type_name(expected)}, got {value!r}"
        )
    return value


def _require_mapping(value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected a mapping, got {value!r}")
    return value


def _take(
    mapping: Dict[str, Any],
    key: str,
    expected: type,
    default: Any,
    path: str,
) -> Any:
    """Pop ``key`` with a type check; ``_REQUIRED`` default = mandatory."""
    if key not in mapping:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return default
    return _coerce(mapping.pop(key), expected, f"{path}.{key}")


def _reject_unknown(mapping: Dict[str, Any], path: str, known: Sequence[str]) -> None:
    if mapping:
        extras = ", ".join(sorted(str(k) for k in mapping))
        raise ScenarioError(
            path or "scenario",
            f"unknown field(s) {extras}; known: {', '.join(sorted(known))}",
        )


def _params_from_table(
    raw: Dict[str, Any],
    table: Dict[str, Tuple[type, Any]],
    path: str,
) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for name, (expected, default) in table.items():
        params[name] = _take(raw, name, expected, default, path)
    _reject_unknown(raw, path, list(table))
    return params


def _positive(value, path: str):
    if value <= 0:
        raise ScenarioError(path, f"must be positive, got {value!r}")
    return value


def _topology_from(raw: Any, path: str) -> TopologySpec:
    mapping = dict(_require_mapping(raw, path))
    kind = _take(mapping, "kind", str, _REQUIRED, path)
    if kind not in TOPOLOGY_KINDS:
        raise ScenarioError(
            f"{path}.kind",
            f"unknown topology kind {kind!r}; "
            f"choose from {', '.join(sorted(TOPOLOGY_KINDS))}",
        )
    params = _params_from_table(mapping, TOPOLOGY_KINDS[kind], path)
    for name, value in params.items():
        _positive(value, f"{path}.{name}")
    if kind == "fat_tree" and params["k"] % 2:
        raise ScenarioError(f"{path}.k", f"fat-tree arity must be even, got {params['k']}")
    return TopologySpec(kind, params)


def _selector_from(raw: Any, path: str) -> HostSelector:
    if raw == "all":
        return HostSelector("all")
    mapping = dict(_require_mapping(raw, path))
    if len(mapping) != 1:
        raise ScenarioError(
            path,
            "host selector must be 'all' or exactly one of "
            "{first: n}, {last: n}, {range: [start, stop]}, {indices: [...]}",
        )
    mode, value = next(iter(mapping.items()))
    if mode in ("first", "last"):
        count = _positive(_coerce(value, int, f"{path}.{mode}"), f"{path}.{mode}")
        return HostSelector(mode, **{mode: count})
    if mode == "range":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ScenarioError(f"{path}.range", f"expected [start, stop], got {value!r}")
        start = _coerce(value[0], int, f"{path}.range[0]")
        stop = _coerce(value[1], int, f"{path}.range[1]")
        if start < 0 or stop <= start:
            raise ScenarioError(
                f"{path}.range", f"need 0 <= start < stop, got [{start}, {stop}]"
            )
        return HostSelector("range", start=start, stop=stop)
    if mode == "indices":
        if not isinstance(value, (list, tuple)) or not value:
            raise ScenarioError(
                f"{path}.indices", f"expected a non-empty list, got {value!r}"
            )
        indices = tuple(
            _coerce(v, int, f"{path}.indices[{i}]") for i, v in enumerate(value)
        )
        if len(set(indices)) != len(indices):
            raise ScenarioError(f"{path}.indices", "duplicate host indices")
        if min(indices) < 0:
            raise ScenarioError(f"{path}.indices", "host indices must be >= 0")
        return HostSelector("indices", indices=indices)
    raise ScenarioError(
        path, f"unknown host selector {mode!r}; "
        "choose from first, last, range, indices (or 'all')"
    )


def _workload_from(raw: Any, path: str) -> WorkloadSpec:
    mapping = dict(_require_mapping(raw, path))
    kind = _take(mapping, "kind", str, _REQUIRED, path)
    if kind not in WORKLOAD_KINDS:
        raise ScenarioError(
            f"{path}.kind",
            f"unknown workload kind {kind!r}; "
            f"choose from {', '.join(sorted(WORKLOAD_KINDS))}",
        )
    raw_params = dict(
        _require_mapping(mapping.pop("params", {}), f"{path}.params")
    )
    _reject_unknown(mapping, path, ["kind", "params"])
    params_path = f"{path}.params"
    params = _params_from_table(raw_params, WORKLOAD_KINDS[kind], params_path)
    # Semantic checks the generators would only hit at run time.
    for name in ("chunk_bytes", "block_bytes", "burst_bytes", "value_bytes",
                 "size_bytes", "iterations", "rounds", "replicas", "cycles",
                 "query_fanin"):
        if name in params:
            _positive(params[name], f"{params_path}.{name}")
    if kind == "ml_allreduce" and params["mode"] not in ALLREDUCE_MODES:
        raise ScenarioError(
            f"{params_path}.mode",
            f"unknown all-reduce mode {params['mode']!r}; "
            f"choose from {', '.join(ALLREDUCE_MODES)}",
        )
    if kind == "storage" and params["mode"] not in REPLICATION_MODES:
        raise ScenarioError(
            f"{params_path}.mode",
            f"unknown replication mode {params['mode']!r}; "
            f"choose from {', '.join(REPLICATION_MODES)}",
        )
    return WorkloadSpec(kind, params)


def _min_hosts_for(workload: WorkloadSpec) -> int:
    """Smallest host group the workload kind can run on."""
    if workload.kind == "empirical":
        return max(3, workload.params["query_fanin"] + 1)
    if workload.kind == "storage":
        return workload.params["replicas"] + 1
    return 2


def _tenant_from(raw: Any, path: str, n_hosts: int) -> TenantSpec:
    from ..transport.registry import get_protocol

    mapping = dict(_require_mapping(raw, path))
    name = _take(mapping, "name", str, _REQUIRED, path)
    if not name or any(c in name for c in " .:/"):
        raise ScenarioError(
            f"{path}.name",
            f"tenant names must be non-empty without spaces, dots, colons "
            f"or slashes (they become metric names); got {name!r}",
        )
    transport = _take(mapping, "transport", str, _REQUIRED, path)
    try:
        get_protocol(transport)
    except ValueError as exc:
        raise ScenarioError(f"{path}.transport", str(exc)) from None
    workload = _workload_from(
        mapping.pop("workload", None)
        or _raise(ScenarioError(f"{path}.workload", "required field is missing")),
        f"{path}.workload",
    )
    hosts = _selector_from(mapping.pop("hosts", "all"), f"{path}.hosts")
    _reject_unknown(mapping, path, ["name", "transport", "workload", "hosts"])
    if hosts.max_index(n_hosts) >= n_hosts:
        raise ScenarioError(
            f"{path}.hosts",
            f"selector reaches host index {hosts.max_index(n_hosts)} but the "
            f"topology only has {n_hosts} hosts",
        )
    group = len(hosts.resolve(n_hosts))
    needed = _min_hosts_for(workload)
    if group < needed:
        raise ScenarioError(
            f"{path}.hosts",
            f"workload kind {workload.kind!r} needs at least {needed} hosts, "
            f"selector provides {group}",
        )
    return TenantSpec(name=name, transport=transport, workload=workload, hosts=hosts)


def _raise(exc: Exception):
    raise exc


def _fault_from(raw: Any, path: str) -> FaultSpec:
    mapping = dict(_require_mapping(raw, path))
    kind = _take(mapping, "kind", str, _REQUIRED, path)
    if kind not in FAULT_KINDS:
        raise ScenarioError(
            f"{path}.kind",
            f"unknown fault kind {kind!r}; "
            f"choose from {', '.join(sorted(FAULT_KINDS))}",
        )
    allowed = FAULT_KINDS[kind]
    at_ms = _positive(_take(mapping, "at_ms", float, _REQUIRED, path), f"{path}.at_ms")
    duration_ms = None
    if "duration_ms" in allowed and "duration_ms" in mapping:
        duration_ms = _positive(
            _take(mapping, "duration_ms", float, _REQUIRED, path),
            f"{path}.duration_ms",
        )
    link: Optional[Tuple[str, str]] = None
    if "link" in allowed:
        raw_link = mapping.pop("link", None)
        if raw_link is None:
            raise ScenarioError(f"{path}.link", "required field is missing")
        if not isinstance(raw_link, (list, tuple)) or len(raw_link) != 2:
            raise ScenarioError(
                f"{path}.link", f"expected [node_a, node_b], got {raw_link!r}"
            )
        link = (
            _coerce(raw_link[0], str, f"{path}.link[0]"),
            _coerce(raw_link[1], str, f"{path}.link[1]"),
        )
    host = None
    if "host" in allowed:
        host = _take(mapping, "host", str, _REQUIRED, path)
    factor = 0.5
    if "factor" in allowed:
        factor = _take(mapping, "factor", float, 0.5, path)
        if not 0.0 < factor < 1.0:
            raise ScenarioError(f"{path}.factor", f"must be in (0, 1), got {factor}")
    probability = 0.3
    if "probability" in allowed:
        probability = _take(mapping, "probability", float, 0.3, path)
        if not 0.0 < probability <= 1.0:
            raise ScenarioError(
                f"{path}.probability", f"must be in (0, 1], got {probability}"
            )
    reroute = False
    if "reroute" in allowed:
        reroute = _take(mapping, "reroute", bool, False, path)
    _reject_unknown(mapping, path, ("kind", "at_ms") + allowed)
    if kind in ("link_flap", "pause_host") and duration_ms is None:
        raise ScenarioError(f"{path}.duration_ms", "required for this fault kind")
    return FaultSpec(
        kind=kind, at_ms=at_ms, duration_ms=duration_ms, link=link,
        host=host, factor=factor, probability=probability, reroute=reroute,
    )


def scenario_from_dict(raw: Dict[str, Any], source: str = "scenario") -> Scenario:
    """Validate a raw (YAML-shaped) mapping into a :class:`Scenario`.

    ``source`` prefixes every error path (usually the file name).
    """
    mapping = dict(_require_mapping(raw, source))
    # Error paths are relative to the document root; the loader adds the
    # file name when it re-raises.
    name = _take(mapping, "name", str, _REQUIRED, "")
    if not name or any(c in name for c in " :/"):
        raise ScenarioError(
            ".name", f"scenario names must be non-empty, without spaces, "
            f"colons or slashes; got {name!r}"
        )
    description = _take(mapping, "description", str, "", "")
    duration_ms = _positive(
        _take(mapping, "duration_ms", float, _REQUIRED, ""), ".duration_ms"
    )
    quick_duration_ms = mapping.pop("quick_duration_ms", None)
    if quick_duration_ms is not None:
        quick_duration_ms = _positive(
            _coerce(quick_duration_ms, float, ".quick_duration_ms"),
            ".quick_duration_ms",
        )
    drain_ms = _take(mapping, "drain_ms", float, 0.0, "")
    if drain_ms < 0:
        raise ScenarioError(".drain_ms", f"must be >= 0, got {drain_ms}")
    seed = _take(mapping, "seed", int, 0, "")

    routing = mapping.pop("routing", None)
    if routing is not None:
        routing = _coerce(routing, str, ".routing")
        if routing not in ROUTING_NAMES:
            raise ScenarioError(
                ".routing",
                f"unknown routing policy {routing!r}; "
                f"choose from {', '.join(ROUTING_NAMES)}",
            )
    telemetry = mapping.pop("telemetry", None)
    if telemetry is not None:
        telemetry = _coerce(telemetry, str, ".telemetry")
        if telemetry not in TELEMETRY_MODES:
            raise ScenarioError(
                ".telemetry",
                f"unknown telemetry mode {telemetry!r}; "
                f"choose from {', '.join(TELEMETRY_MODES)}",
            )

    topology = _topology_from(
        mapping.pop("topology", None)
        or _raise(ScenarioError(".topology", "required field is missing")),
        ".topology",
    )
    n_hosts = topology.host_count()

    raw_tenants = mapping.pop("tenants", None)
    if not isinstance(raw_tenants, list) or not raw_tenants:
        raise ScenarioError(".tenants", "expected a non-empty list of tenants")
    tenants = tuple(
        _tenant_from(entry, f".tenants[{i}]", n_hosts)
        for i, entry in enumerate(raw_tenants)
    )
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ScenarioError(".tenants", f"duplicate tenant names in {names}")

    fabric = mapping.pop("fabric", None)
    if fabric is not None:
        fabric = _coerce(fabric, str, ".fabric")
        from ..transport.registry import get_protocol

        try:
            get_protocol(fabric)
        except ValueError as exc:
            raise ScenarioError(".fabric", str(exc)) from None
    transports = {t.transport for t in tenants}
    if fabric is None and len(transports) > 1:
        raise ScenarioError(
            ".fabric",
            f"tenants use different transports ({', '.join(sorted(transports))}); "
            "an explicit fabric: protocol is required to pick the queue "
            "discipline and switch agents",
        )

    raw_faults = mapping.pop("faults", [])
    if not isinstance(raw_faults, list):
        raise ScenarioError(".faults", f"expected a list, got {raw_faults!r}")
    faults = tuple(
        _fault_from(entry, f".faults[{i}]") for i, entry in enumerate(raw_faults)
    )

    raw_config = mapping.pop("config", None)
    config = None
    if raw_config is not None:
        cfg_map = dict(_require_mapping(raw_config, ".config"))
        for reserved in ("seed", "routing", "telemetry"):
            if reserved in cfg_map:
                raise ScenarioError(
                    f".config.{reserved}",
                    f"set {reserved} at the scenario top level, not in config",
                )
        try:
            config = SimConfig.from_dict({"seed": seed, **cfg_map})
        except (ValueError, TypeError) as exc:
            raise ScenarioError(".config", str(exc)) from None

    _reject_unknown(
        mapping,
        "",
        [
            "name", "description", "duration_ms", "quick_duration_ms",
            "drain_ms", "seed", "routing", "telemetry", "topology",
            "tenants", "fabric", "faults", "config",
        ],
    )
    scenario = Scenario(
        name=name,
        description=description,
        duration_ms=duration_ms,
        quick_duration_ms=quick_duration_ms,
        drain_ms=drain_ms,
        seed=seed,
        routing=routing,
        fabric=fabric,
        telemetry=telemetry,
        topology=topology,
        tenants=tenants,
        faults=faults,
        config=config,
    )
    # Check the fabric invariant the dataclass asserts on.
    scenario.fabric_protocol()
    return scenario
