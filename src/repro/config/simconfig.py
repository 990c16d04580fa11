"""``SimConfig`` — one dataclass configuring a whole simulation run.

Before this existed, a fully specified run meant hand-rolled surfaces:
``Network(routing=..., seed=...)`` plus whatever ``REPRO_*`` variables
happened to be exported.  ``SimConfig`` carries all of it in one
validated, frozen value:

* ``Network(config=cfg)`` — seed, routing and telemetry (a session is
  installed when ``telemetry != off``), and the lossless fabric, which
  :meth:`repro.transport.registry.Protocol.install` arms from the
  network's config before it consults ``$REPRO_LOSSLESS``;
* ``run_cells(..., config=cfg)`` / ``runner --telemetry DIR`` — the
  runner pins the whole config process-wide (via :func:`repro.config.
  env`) so worker processes and internally built networks inherit it.

``None`` fields mean "defer": the constructor-argument / environment /
built-in default chain behaves exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

from .envvars import KNOBS, current, env as _env


@dataclass(frozen=True)
class SimConfig:
    """The seed plus one field per ``REPRO_*`` knob.

    The protocol is not a field: it is chosen per call
    (``build_topology(builder, protocol, ...)``, ``open_flow``).  Derive
    a variant with :func:`dataclasses.replace`, which validates again.
    """

    seed: int = 0
    routing: Optional[str] = None
    telemetry: Optional[str] = None
    telemetry_dir: Optional[str] = None
    lossless: Optional[str] = None

    def __post_init__(self) -> None:
        for knob in ("routing", "telemetry", "lossless"):
            value = getattr(self, knob)
            if value is not None:
                KNOBS[knob].validate(value)

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, seed: int = 0) -> "SimConfig":
        """A config pinning the *current* effective environment defaults."""
        return cls(
            seed=seed,
            routing=current("routing"),
            telemetry=current("telemetry"),
            telemetry_dir=current("telemetry_dir") or None,
            lossless=current("lossless"),
        )

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
        built networks and pool workers see the config without any
        argument threading.
        """
        return _env(
            routing=self.routing,
            telemetry=self.telemetry,
            telemetry_dir=self.telemetry_dir,
            lossless=self.lossless,
        )

    @property
    def telemetry_enabled(self) -> bool:
        return self.telemetry is not None and self.telemetry != "off"
