"""The seed helper: same digests as ``hashlib``, without loading OpenSSL.

Every seed in the simulator (named streams, spawned children, runner
cells, workload generators) is the first 8 bytes of a SHA-256, taken from
the interpreter's built-in module.  The oracle here is ``hashlib``, which
shares no code path with it on CPython (``hashlib.sha256`` is OpenSSL's).
The footprint guard runs a small simulation in a fresh interpreter and
checks OpenSSL's ``_hashlib`` never got imported.
"""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.experiments.common import derive_cell_seed
from repro.sim.rng import SeedSequence, stable_seed


def _oracle(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


HOST_STREAMS = ["host:H1:proc", "host:H360:proc", "host:S1:proc", "random-drop"]
SPAWNED = ["routing", "faults", "chaos:link_flap"]
CELLS = [("fig14", "rho0=0.94"), ("fig13", "tfc", "quick"), ("scenario", "ml-allreduce")]
EMPIRICAL_STREAMS = [
    "benchmark",
    "benchmark:short",
    "benchmark:bg",
    "benchmark:small:0:short",
    "benchmark:fattree4:ecmp:1:bg",
    "storage",
]


@pytest.mark.parametrize("root", [0, 1, 7, 2**63 + 5])
@pytest.mark.parametrize("name", HOST_STREAMS)
def test_stream_seed_matches_oracle(root, name):
    stream = SeedSequence(root).stream(name)
    reference = random.Random(_oracle(f"{root}:{name}"))
    assert [stream.random() for _ in range(4)] == [reference.random() for _ in range(4)]


@pytest.mark.parametrize("root", [0, 3])
@pytest.mark.parametrize("name", SPAWNED)
def test_spawn_seed_matches_oracle(root, name):
    assert SeedSequence(root).spawn(name).root_seed == _oracle(f"{root}:spawn:{name}")


@pytest.mark.parametrize("root", [0, 42])
@pytest.mark.parametrize("labels", CELLS)
def test_cell_seed_matches_oracle(root, labels):
    tag = ":".join(labels)
    assert derive_cell_seed(root, *labels) == _oracle(f"{root}:cell:{tag}")


@pytest.mark.parametrize("name", EMPIRICAL_STREAMS)
def test_workload_stream_seed_matches_oracle(name):
    assert stable_seed(name) == _oracle(name)


@given(st.text())
def test_any_text_matches_oracle(text):
    assert stable_seed(text) == _oracle(text)


def test_seed_is_pinned():
    # Independent of both implementations: a drift here moves every
    # golden pin in the suite.
    assert stable_seed("0:host:H1:proc") == 0xA078B9BE8C165891


_FOOTPRINT = textwrap.dedent(
    """
    import sys

    import repro
    import repro.experiments.common
    import repro.scenario.run
    from repro.experiments.common import build_topology
    from repro.net.topology import dumbbell
    from repro.sim.units import milliseconds
    from repro.transport.registry import open_flow

    topo = build_topology(dumbbell, "tfc", buffer_bytes=256_000, n_senders=2)
    open_flow(topo.hosts[0], topo.hosts[-1], "tfc", size_bytes=20_000)
    topo.network.run_for(milliseconds(1))
    assert topo.network.sim.now > 0
    print(int("_hashlib" in sys.modules))
    """
)


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
    reason="interpreter has no built-in SHA-256 module",
)
def test_simulation_process_never_loads_openssl():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "0", "_hashlib (OpenSSL) was imported"
