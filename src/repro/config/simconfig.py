"""``SimConfig`` — one dataclass configuring a whole simulation run.

It carries the seed and one field per ``REPRO_*`` knob in one validated,
frozen value.  A run's configuration is resolved in exactly one place,
``Network.__init__``, by :meth:`SimConfig.resolved`, under one rule:

    explicit argument > config field > ``$REPRO_*`` > default

Every layer then reads the complete result from ``network.config``
(routing, the telemetry session and its directory, the lossless
fabric).  ``run_cells(..., config=cfg)`` / ``runner --telemetry DIR``
pin a config process-wide (via :func:`repro.config.env`), so worker
processes and internally built networks resolve to it too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

from .envvars import KNOBS, current, env as _env


@dataclass(frozen=True)
class SimConfig:
    """The seed plus one field per ``REPRO_*`` knob.

    A ``None`` knob is unset: :meth:`resolved` fills it from the
    environment or the default.  The protocol is not a field: it is
    chosen per call (``build_topology(builder, protocol, ...)``,
    ``open_flow``).  Derive a variant with :func:`dataclasses.replace`,
    which validates again.
    """

    seed: int = 0
    routing: Optional[str] = None
    telemetry: Optional[str] = None
    telemetry_dir: Optional[str] = None
    lossless: Optional[str] = None

    def __post_init__(self) -> None:
        for knob, spec in KNOBS.items():
            value = getattr(self, knob)
            if value is not None:
                spec.validate(value)

    # ------------------------------------------------------------------
    def resolved(self, **explicit: object) -> "SimConfig":
        """The complete config a run uses: per field, the non-None
        ``explicit`` value, else this config's field, else the knob's
        ``$REPRO_*`` variable (validated), else its default.  Only
        ``telemetry_dir`` may stay None: no directory is configured."""
        values = self.to_dict()
        for name, value in explicit.items():
            if value is not None:
                values[name] = value
        for knob in KNOBS:
            if values[knob] is None:
                values[knob] = current(knob)
        return SimConfig(**values)

    @classmethod
    def from_env(cls, seed: int = 0) -> "SimConfig":
        """A config pinning the *current* effective environment defaults."""
        return cls(seed=seed).resolved()

    # ------------------------------------------------------------------
    # Round-trip serialisation (the scenario loader's door into configs)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Every field as a plain dict (JSON/YAML-serialisable as-is)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimConfig":
        """The inverse of :meth:`to_dict`, rejecting unknown fields.

        Values are validated exactly like constructor arguments, so a
        typo'd knob value fails here too — not deep inside a run.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown SimConfig field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**data)

    def env(self):
        """A context manager exporting this config's non-None knobs.

        The runner wraps every batch of cells in this, so internally
        built networks and cell processes see the config without any
        argument threading.
        """
        return _env(**{knob: getattr(self, knob) for knob in KNOBS})
