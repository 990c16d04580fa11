"""repro.config — one coherent configuration surface.

Two pieces:

* :class:`SimConfig` — a frozen dataclass carrying the seed and the
  routing, telemetry and lossless-fabric selection, accepted by
  ``Network(config=...)`` and the experiment runner
  (``run_cells(config=...)``).  ``Network`` resolves it once
  (:meth:`SimConfig.resolved`: explicit argument > config field >
  ``$REPRO_*`` > default) and every layer reads ``network.config``.
* :func:`env` — the single validated context manager behind every
  ``REPRO_*`` environment knob (routing policy, telemetry mode and
  directory, lossless fabric), and :func:`current`, the one validated
  reader of those variables.

A protocol's own parameters are not configured here: they live in the
typed slot of its registry entry
(``get_protocol(name).install(network, params)``).

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
)
from .simconfig import SimConfig

__all__ = [
    "SimConfig",
    "env",
    "current",
    "EnvKnob",
    "KNOBS",
    "ROUTING_NAMES",
    "TELEMETRY_MODES",
    "LOSSLESS_MODES",
    "ROUTING_ENV_VAR",
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_DIR_ENV_VAR",
    "LOSSLESS_ENV_VAR",
]
