"""The ``scenario`` figure: declarative scenarios as runner cells.

One cell = one ``(scenario, seed, transport)`` run of
:func:`repro.scenario.run.run_scenario`.  The entry point is top-level
and takes only picklable primitives (the scenario travels as its *name
or path*, resolved inside the cell's process), so scenario sweeps fan
out over the runner's cell processes exactly like the paper figures —
and inherit the same determinism contract: the cell seed is derived
from the root seed and the cell's identity labels, so ``--jobs N`` is
bit-identical to a serial run.
"""

from __future__ import annotations

from typing import Optional, Union

from .common import ExperimentResult


def run_scenario_cell(
    scenario: Union[str, "object"],
    seed: int = 0,
    quick: bool = False,
    duration_ms: Optional[float] = None,
    transport: Optional[str] = None,
) -> ExperimentResult:
    """Resolve ``scenario`` (name, path or Scenario) and run it.

    Resolution happens here, in the worker, so cells stay picklable and
    a farm of YAML files can be swept without loading them all in the
    parent.
    """
    from ..scenario import Scenario, resolve, run_scenario

    if not isinstance(scenario, Scenario):
        scenario = resolve(scenario)
    return run_scenario(
        scenario,
        seed=seed,
        quick=quick,
        duration_ms=duration_ms,
        transport=transport,
    )
