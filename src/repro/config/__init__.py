"""repro.config — one coherent configuration surface.

Two pieces:

* :class:`SimConfig` — a frozen dataclass carrying routing, transport,
  telemetry, lossless-fabric and seed selection, accepted by
  ``Network(config=...)`` and the experiment runner
  (``run_cells(config=...)``).
* :func:`env` — the single validated context manager behind every
  ``REPRO_*`` environment knob (routing policy, telemetry mode and
  directory, lossless fabric).  The historical
  per-subsystem helper ``repro.routing.routing_env`` is a thin
  deprecation shim over it.

Name registries are re-exported here so callers can enumerate every
selection surface from one import::

    from repro.config import ROUTING_NAMES, TELEMETRY_MODES
"""

from ..obs.session import TELEMETRY_MODES
from ..routing import ROUTING_NAMES
from .envvars import (
    KNOBS,
    LOSSLESS_ENV_VAR,
    LOSSLESS_MODES,
    ROUTING_ENV_VAR,
    TELEMETRY_DIR_ENV_VAR,
    TELEMETRY_ENV_VAR,
    EnvKnob,
    current,
    env,
    lossless_mode,
    routing_name,
    telemetry_dir,
    telemetry_mode,
)
from .simconfig import SimConfig

__all__ = [
    "SimConfig",
    "env",
    "current",
    "EnvKnob",
    "KNOBS",
    "routing_name",
    "telemetry_mode",
    "telemetry_dir",
    "lossless_mode",
    "ROUTING_NAMES",
    "TELEMETRY_MODES",
    "LOSSLESS_MODES",
    "ROUTING_ENV_VAR",
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_DIR_ENV_VAR",
    "LOSSLESS_ENV_VAR",
]
