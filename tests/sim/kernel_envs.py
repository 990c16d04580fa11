"""Environments the kernel unit tests run under.

``REPRO_COMPILED`` once selected a second ``run()`` loop.  That loop is
gone and the kernel reads no environment, so a shell that still exports
the retired switch must change nothing.  The kernel unit tests therefore
run twice: in an environment without it (``default``) and with the stale
``REPRO_COMPILED=on`` exported (``compiled``).
"""

import contextlib

import pytest

#: Test id -> variables to export (``None`` unsets the variable).
KERNEL_ENVS = {
    "default": {"REPRO_COMPILED": None},
    "compiled": {"REPRO_COMPILED": "on"},
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
