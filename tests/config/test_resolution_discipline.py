"""A run's configuration is resolved in one place: ``Network.__init__``.

Every other layer reads the complete ``network.config``; none of them
consults ``$REPRO_*`` on its own.  This walks every module of ``repro``
outside ``repro/config/`` and fails on a second resolution site or on a
direct read of the environment.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
ENV_NAMES = ("environ", "getenv", "putenv")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if not name.startswith("config/"):
            yield name, ast.parse(path.read_text())


def _called_name(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id, None
    if isinstance(func, ast.Attribute):
        return func.attr, ast.unparse(func.value)
    return None, None


def _resolves(node):
    """``current(...)``, ``SimConfig.from_env(...)`` or a config's
    ``.resolved(...)`` (``CellSpec.resolved`` derives a seed, not a
    config, and its receiver names no config)."""
    if not isinstance(node, ast.Call):
        return False
    name, receiver = _called_name(node)
    if name in ("current", "from_env"):
        return True
    return name == "resolved" and receiver is not None and "onfig" in receiver


def test_only_the_network_resolves_a_config():
    users = {
        name
        for name, tree in _modules()
        if any(map(_resolves, ast.walk(tree)))
    }
    assert users == {"net/network.py"}


def test_only_the_scenario_registry_reads_the_environment():
    """``$REPRO_SCENARIOS`` selects scenario files, not a network
    setting, so it is the one variable read outside ``repro.config``."""
    users = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES)
        or (isinstance(node, ast.Name) and node.id in ENV_NAMES)
        or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name in ENV_NAMES for alias in node.names)
        )
    }
    assert users == {"scenario/registry.py"}
