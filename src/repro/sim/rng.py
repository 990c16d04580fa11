"""Deterministic random-number management.

Every stochastic component (workload generators, host processing jitter,
start-time staggering) draws from a named child stream derived from one root
seed.  Two runs with the same root seed are bit-identical regardless of the
order in which components are constructed, because each stream is seeded by
hashing ``(root_seed, stream_name)`` rather than by sharing one generator.

The hash is SHA-256 from the interpreter's own built-in module, so seeding
never loads OpenSSL's ``libcrypto`` (~3.6 MB resident) into a simulation
process; the digests are the same bytes either way.
"""

from __future__ import annotations

import random
from typing import Dict

try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10/3.11
    except ImportError:  # pragma: no cover - builds without built-in SHA-2
        from hashlib import sha256 as _sha256


def stable_seed(text: str) -> int:
    """64-bit seed from ``text``: the first 8 bytes of its SHA-256, big-endian.

    Independent of ``PYTHONHASHSEED``, the platform and the process.
    """
    return int.from_bytes(_sha256(text.encode("utf-8")).digest()[:8], "big")


class SeedSequence:
    """Factory for named, independent :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so a component can re-fetch its stream without resetting it.
        """
        if name not in self._streams:
            self._streams[name] = random.Random(stable_seed(f"{self.root_seed}:{name}"))
        return self._streams[name]

    def spawn(self, name: str) -> "SeedSequence":
        """Derive a child sequence (for nested components with sub-streams)."""
        return SeedSequence(stable_seed(f"{self.root_seed}:spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SeedSequence root={self.root_seed} streams={len(self._streams)}>"
