"""The validated ``REPRO_*`` environment surface, in one place.

Subsystems grew the same copy-pasted pattern — a validated environment
default plus a save/restore context manager (``REPRO_ROUTING``/
``routing_env``, and telemetry was about to be the next).  This module
consolidates them: one knob table (:data:`KNOBS`), one validated reader
(:func:`current`), and one shared context manager (:func:`env`) that
pins any subset of the knobs at once.  ``routing_env`` survives as a
thin deprecation shim delegating here.

Environment variables exist for code paths that build their own
:class:`~repro.sim.engine.Simulator` or :class:`~repro.net.network.
Network` internally (topology builders, figure cells, pool workers) and
therefore cannot take a constructor argument; everything else should
prefer :class:`~repro.config.SimConfig`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..obs.session import TELEMETRY_MODES
from ..routing import ROUTING_NAMES

ROUTING_ENV_VAR = "REPRO_ROUTING"
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"
TELEMETRY_DIR_ENV_VAR = "REPRO_TELEMETRY_DIR"
LOSSLESS_ENV_VAR = "REPRO_LOSSLESS"
SHARDS_ENV_VAR = "REPRO_SHARDS"

# Defined here rather than imported from repro.net.pfc: the config layer
# must stay importable without pulling in the datapath (and net imports
# nothing from config).  Kept in sync by a test in tests/config.
LOSSLESS_MODES: Tuple[str, ...] = ("off", "pfc")


def _positive_int(what: str) -> Callable[[str], str]:
    """A checker for knobs whose value is a count, not a name."""

    def check(value: str) -> str:
        try:
            ok = int(value) >= 1
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(
                f"invalid {what} {value!r}; expected a positive integer"
            )
        return value

    return check


@dataclass(frozen=True)
class EnvKnob:
    """One validated environment variable."""

    var: str
    default: str
    names: Optional[Tuple[str, ...]]  # None: free-form (paths) or checked
    what: str  # noun for error messages: "routing policy", ...
    check: Optional[Callable[[str], str]] = None  # non-vocabulary validation

    def validate(self, value: str) -> str:
        if self.names is not None and value not in self.names:
            raise ValueError(
                f"unknown {self.what} {value!r}; "
                f"choose from {', '.join(self.names)}"
            )
        if self.check is not None:
            return self.check(value)
        return value


#: Keyword name (as accepted by :func:`env` / ``SimConfig``) -> knob.
KNOBS: Dict[str, EnvKnob] = {
    "routing": EnvKnob(
        ROUTING_ENV_VAR, "single", ROUTING_NAMES, "routing policy"
    ),
    "telemetry": EnvKnob(
        TELEMETRY_ENV_VAR, "off", TELEMETRY_MODES, "telemetry mode"
    ),
    "telemetry_dir": EnvKnob(
        TELEMETRY_DIR_ENV_VAR, "", None, "telemetry directory"
    ),
    "lossless": EnvKnob(
        LOSSLESS_ENV_VAR, "off", LOSSLESS_MODES, "lossless fabric mode"
    ),
    "shards": EnvKnob(
        SHARDS_ENV_VAR,
        "",  # unset: serial, single-simulator runs
        None,
        "shard count",
        check=_positive_int("shard count"),
    ),
}


def current(knob: str) -> str:
    """The knob's effective value: its env var if set (validated, with
    the variable named in the error), else its default."""
    spec = KNOBS[knob]
    raw = os.environ.get(spec.var, "")
    if not raw:
        return spec.default
    try:
        return spec.validate(raw)
    except ValueError as exc:
        raise ValueError(f"${spec.var}: {exc}") from None


def routing_name() -> str:
    """Effective default routing policy (``single`` when unset)."""
    return current("routing")


def telemetry_mode() -> str:
    """Effective telemetry mode (``off`` when unset)."""
    return current("telemetry")


def telemetry_dir() -> Optional[str]:
    """Telemetry export directory, or None when not configured."""
    return current("telemetry_dir") or None


def lossless_mode() -> str:
    """Effective lossless-fabric mode (``off`` when unset)."""
    return current("lossless")


def shard_count() -> Optional[int]:
    """Requested shard count, or None for serial (the default)."""
    value = current("shards")
    return int(value) if value else None


class _EnvContext:
    """Pin a set of (var, value) pairs; restore previous values on exit."""

    __slots__ = ("_pins", "_saved")

    def __init__(self, pins: Dict[str, str]):
        self._pins = pins
        self._saved: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "_EnvContext":
        for var, value in self._pins.items():
            self._saved[var] = os.environ.get(var)
            os.environ[var] = value
        return self

    def __exit__(self, *exc_info) -> None:
        for var, previous in self._saved.items():
            if previous is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = previous
        self._saved.clear()


def env(
    routing: Optional[str] = None,
    telemetry: Optional[str] = None,
    telemetry_dir: Optional[str] = None,
    lossless: Optional[str] = None,
    shards: Optional[str] = None,
) -> _EnvContext:
    """Pin any subset of the ``REPRO_*`` knobs while a block runs.

    Values are validated *eagerly* (a typo raises at the call site, not
    inside the block); ``None`` knobs are left untouched, so
    ``with env():`` is a no-op.  Previous values — including "unset" —
    are restored on exit, and child worker processes started inside the
    block inherit the pinned values.
    """
    requested = {
        "routing": routing,
        "telemetry": telemetry,
        "telemetry_dir": telemetry_dir,
        "lossless": lossless,
        "shards": shards,
    }
    pins: Dict[str, str] = {}
    for knob, value in requested.items():
        if value is None:
            continue
        spec = KNOBS[knob]
        pins[spec.var] = spec.validate(value)
    return _EnvContext(pins)
