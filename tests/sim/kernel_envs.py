"""Environments the kernel unit tests run under.

``REPRO_COMPILED`` once selected a second ``run()`` loop, and
``REPRO_SCHEDULER``, ``REPRO_BATCH`` and ``REPRO_SHARDS`` a queue backend,
hot-loop batching and pod sharding.  All are gone and the kernel reads
no environment, so a shell that still exports them must change nothing.
The kernel unit tests therefore run twice: in an environment without
them (``default``) and with all four stale values exported
(``compiled``).  ``test_golden_determinism`` pins the same at network
level.
"""

import contextlib

import pytest

#: The retired kernel switches and a value each once accepted.
STALE = {
    "REPRO_COMPILED": "on",
    "REPRO_SCHEDULER": "calendar",
    "REPRO_BATCH": "off",
    "REPRO_SHARDS": "2",
}

#: Test id -> variables to export (``None`` unsets the variable).
KERNEL_ENVS = {
    "default": dict.fromkeys(STALE),
    "compiled": STALE,
}


@contextlib.contextmanager
def exported(mode):
    """Run the body with the variables of ``KERNEL_ENVS[mode]`` in place."""
    with pytest.MonkeyPatch.context() as mp:
        for var, value in KERNEL_ENVS[mode].items():
            if value is None:
                mp.delenv(var, raising=False)
            else:
                mp.setenv(var, value)
        yield
