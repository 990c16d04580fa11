"""No module imports a name it never uses (pyflakes' F401, stdlib only).

CI's lint job runs ``ruff check src tests examples benchmarks``; this is
the one rule of it that inlining and deleting code trip most often, so
tier-1 checks it too, without ruff.  A name counts as used when any
``Name`` in the file reads it, when a string annotation mentions it, or
when ``__all__`` lists it.  An import line carrying ``# noqa`` is exempt.
The check is file-wide rather than scope-aware, so it can miss an unused
import that some other scope's name shadows, but it never flags a used one.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_SET = ("src", "tests", "examples", "benchmarks")


def _bound_names(node):
    """``(name, lineno)`` for each name an import statement binds."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            yield alias.asname, node.lineno
        else:
            yield alias.name.partition(".")[0], node.lineno


def _annotation_strings(tree):
    """Names inside string annotations (``"Sender"``, ``Optional["Event"]``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    parsed = ast.parse(part.value, mode="eval")
                except SyntaxError:
                    continue
                for name in ast.walk(parsed):
                    if isinstance(name, ast.Name):
                        yield name.id


def _exported(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for entry in ast.walk(value):
                if isinstance(entry, ast.Constant) and isinstance(entry.value, str):
                    yield entry.value


def unused_imports(path):
    """``(lineno, name)`` of every import in ``path`` that nothing uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1:(node.end_lineno or node.lineno)]
            if any("# noqa" in line for line in span):
                continue
            imported.extend(_bound_names(node))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_strings(tree))
    used.update(_exported(tree))
    return [(lineno, name) for name, lineno in imported if name not in used]


def _lint_files():
    for top in LINT_SET:
        yield from sorted((REPO_ROOT / top).rglob("*.py"))


def test_the_lint_set_has_no_unused_import():
    found = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {name}"
        for path in _lint_files()
        for lineno, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from typing import Optional as Opt\n", ["Opt"]),
        ("from a import b  # noqa: F401\n", []),
        ("from a import (\n    b,  # noqa\n)\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import B\ndef f(x: 'B') -> None: ...\n", []),
        ("from a import B\nx: 'list[B]' = []\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n", ["json"]),
    ],
)
def test_the_check_itself(tmp_path, source, unused):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert [name for _, name in unused_imports(path)] == unused
