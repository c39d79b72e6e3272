"""Named, independent random substreams.

Every stochastic element of a simulation (payload generator, trigger
inter-arrival times, jitter on a link) pulls its own substream by name,
so adding a new random consumer never perturbs the draws seen by
existing ones — a standard reproducibility idiom in simulation codes.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # NumPy loads with the first stream, not with the module
    import numpy as np


class RngStreams:
    """A root seed fanned out into named ``numpy.random.Generator`` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        if root_seed < 0:
            raise ValueError(f"root seed must be non-negative, got {root_seed}")
        self.root_seed = root_seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.root_seed}:{name}".encode("utf-8")
            ).digest()
            seed = int.from_bytes(digest[:8], "little")
            import numpy

            gen = numpy.random.default_rng(seed)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngStreams":
        """A child stream set, itself deterministic in (root_seed, name)."""
        digest = hashlib.sha256(f"{self.root_seed}/{name}".encode("utf-8")).digest()
        return RngStreams(int.from_bytes(digest[:8], "little"))
