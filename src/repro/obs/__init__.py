"""repro.obs — the unified telemetry subsystem.

One observability surface for everything the repo measures:

* a typed :class:`MetricRegistry` (:class:`Counter` / :class:`Gauge` /
  :class:`Histogram` / :class:`Timeline`) that legacy instrumentation —
  tracer counters, sampler series, recovery metrics, one-off transport
  gauges — migrates onto;
* a :class:`SlotTimelineRecorder` capturing every TFC agent's per-slot
  ``(T, E, rho, rtt_m, rtt_b, W, queue_bytes)`` trajectory (the paper's
  Figs. 6–8 and 14 time series);
* a :class:`FlightRecorder` ring buffer of recent trace records that
  dumps automatically when the invariant monitor fires;
* deterministic JSONL/CSV exporters wired into the experiment runner
  (``--telemetry DIR``) and the chaos driver.

Selection follows the routing pattern: a validated mode name
(:data:`TELEMETRY_MODES`) chosen via ``SimConfig(telemetry=...)`` or the
``REPRO_TELEMETRY`` environment variable, resolved once per ``Network``
(see :mod:`repro.config`).  Capture is purely trace-driven — no
scheduled events, no RNG draws — so telemetry-on runs are bit-identical
to telemetry-off runs, and the disabled path costs nothing past that
resolution.
"""

from .export import write_metrics_jsonl, write_slots_csv
from .flight import DEFAULT_TOPICS, FlightRecorder
from .registry import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricRegistry,
    Timeline,
)
from .session import (
    TELEMETRY_MODES,
    Telemetry,
    drain_pending,
    install,
)
from .slots import SLOT_FIELDS, SlotTimelineRecorder, agent_label

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "Timeline",
    "SlotTimelineRecorder",
    "SLOT_FIELDS",
    "agent_label",
    "FlightRecorder",
    "DEFAULT_TOPICS",
    "Telemetry",
    "TELEMETRY_MODES",
    "install",
    "drain_pending",
    "write_metrics_jsonl",
    "write_slots_csv",
]
