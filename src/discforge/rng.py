"""Reproducible random streams.

Randomness is keyed by a (seed, stream) pair fed to a counter-based Philox
bit generator, so identical handles reproduce identical draws on every
platform, and each trial or Monte Carlo block draws from its own derived
substream whatever else ran before it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngHandle"]

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer; scrambles derived stream ids so nested
    substreams of different parents never line up."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngHandle:
    """Immutable key for a deterministic random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngHandle":
        """Derived handle for trial or block number ``index``.

        Substream ids are mixed from (stream, index), so trials get
        distinct Philox keys and a trial's draws do not depend on the
        trials before it. Derivation nests: a substream can be split again.
        """
        base = (self.stream * 0x100000001B3 + int(index) + 1) & _MASK64
        return RngHandle(self.seed, _mix64(base))
