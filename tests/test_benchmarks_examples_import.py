"""Every module in ``benchmarks/`` and ``examples/`` still imports.

CI runs ``benchmarks/`` in a separate job that takes minutes, no job runs
``examples/``, and lint does not resolve imported names, so a public name
deleted from ``repro`` would otherwise break them outside tier-1 or
unseen.  Importing is enough to catch that: the benchmark modules only
define tests, and every example runs behind a ``__main__`` guard.
"""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "benchmarks").glob("*.py")) + sorted(
    (ROOT / "examples").glob("*.py")
)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES]
)
def test_module_imports(path, monkeypatch):
    # The benchmarks import their shared helpers as ``from conftest import``.
    conftest = _load("conftest", ROOT / "benchmarks" / "conftest.py")
    monkeypatch.setitem(sys.modules, "conftest", conftest)
    _load(f"_{path.parent.name}_{path.stem}", path)
