"""Every command the run-books name still points at something that exists.

A ``python -m repro.…`` module must be importable by spec and carry an
``if __name__ == "__main__":`` block, a ``python <path>.py`` script
must exist relative to the repo root, and every name after ``--figures``
(``a b`` or ``a|b``) must be a runner figure, so a deleted module, script
or figure — or a module that keeps its file but loses its CLI — cannot
leave a dangling command in the docs.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.experiments.runner import FIGURE_CELLS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = (
    "README.md",
    ".claude/skills/verify/SKILL.md",
    "bench/README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
)

MODULE_RE = re.compile(r"\bpython3?\s+-m\s+(repro(?:\.\w+)*)")
SCRIPT_RE = re.compile(r"\bpython3?\s+((?:[\w.-]+/)*[\w.-]+\.py)\b")
FIGURES_RE = re.compile(r"--figures((?:[ \t]+[\w|]+)+)")
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


def _figures(text):
    """Every figure name the text passes to ``--figures``."""
    return {
        name
        for names in FIGURES_RE.findall(text)
        for name in re.split(r"[\s|]+", names.strip())
    }


@pytest.mark.parametrize("doc", DOCS)
def test_documented_commands_resolve(doc):
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    modules = set(MODULE_RE.findall(text))
    scripts = set(SCRIPT_RE.findall(text))
    assert modules or scripts, f"{doc} names no command; is the pattern stale?"

    missing = sorted(m for m in modules if not _module_runs(m))
    missing += sorted(s for s in scripts if not (REPO_ROOT / s).is_file())
    missing += sorted(_figures(text) - set(FIGURE_CELLS))
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
    # So is a figure the runner does not know, in either spelling.
    text = "`runner --figures fig12 chaos|fig99 --jobs 2`, then --figures fig15`"
    assert _figures(text) == {"fig12", "chaos", "fig99", "fig15"}
    assert _figures(text) - set(FIGURE_CELLS) == {"fig99"}
