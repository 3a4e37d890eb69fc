"""Deterministic random-number streams.

Every stochastic component in the simulation draws from a named stream
derived from a single experiment seed, so runs are reproducible and
components do not perturb each other's randomness when code changes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory for independent, reproducibly seeded random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """A :class:`random.Random` unique to ``name`` (cached)."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RngRegistry":
        """A child registry with a seed derived from ``name``."""
        return RngRegistry(_derive_seed(self.seed, name))


def exponential(rng: random.Random, mean: float) -> float:
    """Exponential sample with the given mean (mean <= 0 returns 0)."""
    if mean <= 0:
        return 0.0
    return rng.expovariate(1.0 / mean)

