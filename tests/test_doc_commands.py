"""Every command the run-books name still points at something that exists.

A ``python -m repro.…`` module must be importable by spec and carry an
``if __name__ == "__main__":`` block, and a ``python <path>.py`` script
must exist relative to the repo root, so a deleted module or script — or
a module that keeps its file but loses its CLI — cannot leave a dangling
command in the docs.
"""

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".claude/skills/verify/SKILL.md", "bench/README.md")

MODULE_RE = re.compile(r"\bpython3?\s+-m\s+(repro(?:\.\w+)*)")
SCRIPT_RE = re.compile(r"\bpython3?\s+((?:[\w.-]+/)*[\w.-]+\.py)\b")
MAIN_RE = re.compile(r"^if __name__ == [\"']__main__[\"']:", re.MULTILINE)


def _module_runs(name):
    """Whether ``python -m name`` runs a command line."""
    try:
        spec = importlib.util.find_spec(name)
    except ModuleNotFoundError:  # a parent package is gone
        return False
    if spec is None:
        return False
    return MAIN_RE.search(Path(spec.origin).read_text(encoding="utf-8")) is not None


@pytest.mark.parametrize("doc", DOCS)
def test_documented_commands_resolve(doc):
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    modules = set(MODULE_RE.findall(text))
    scripts = set(SCRIPT_RE.findall(text))
    assert modules or scripts, f"{doc} names no command; is the pattern stale?"

    missing = sorted(m for m in modules if not _module_runs(m))
    missing += sorted(s for s in scripts if not (REPO_ROOT / s).is_file())
    assert not missing, f"{doc} names commands that do not resolve: {missing}"


def test_a_dangling_command_is_caught():
    text = "PYTHONPATH=src python -m repro.retired.tool X && python gone/script.py"
    assert MODULE_RE.findall(text) == ["repro.retired.tool"]
    assert SCRIPT_RE.findall(text) == ["gone/script.py"]
    assert not _module_runs("repro.retired.tool")
    assert not (REPO_ROOT / "gone/script.py").is_file()
    # A module that resolves but has no command line is dangling too.
    assert importlib.util.find_spec("repro.experiments.common") is not None
    assert not _module_runs("repro.experiments.common")
    assert _module_runs("repro.experiments.runner")
