"""Every command the run-books name still points at something that exists.

A ``python -m repro.…`` module must be importable by spec and a
``python <path>.py`` script must exist relative to the repo root, so a
deleted module or script cannot leave a dangling command in the docs.
"""

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".claude/skills/verify/SKILL.md", "bench/README.md")

MODULE_RE = re.compile(r"\bpython3?\s+-m\s+(repro(?:\.\w+)*)")
SCRIPT_RE = re.compile(r"\bpython3?\s+((?:[\w.-]+/)*[\w.-]+\.py)\b")


def _module_resolves(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent package is gone
        return False


@pytest.mark.parametrize("doc", DOCS)
def test_documented_commands_resolve(doc):
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    modules = set(MODULE_RE.findall(text))
    scripts = set(SCRIPT_RE.findall(text))
    assert modules or scripts, f"{doc} names no command; is the pattern stale?"

    missing = sorted(m for m in modules if not _module_resolves(m))
    missing += sorted(s for s in scripts if not (REPO_ROOT / s).is_file())
    assert not missing, f"{doc} names commands that do not resolve: {missing}"


def test_a_dangling_command_is_caught():
    text = "PYTHONPATH=src python -m repro.retired.tool X && python gone/script.py"
    assert MODULE_RE.findall(text) == ["repro.retired.tool"]
    assert SCRIPT_RE.findall(text) == ["gone/script.py"]
    assert not _module_resolves("repro.retired.tool")
    assert not (REPO_ROOT / "gone/script.py").is_file()
