"""Deterministic, counter-based noise streams.

Every trajectory owns a Philox stream addressed by ``(master_seed,
stream_index)``: the 64-bit master seed keys the generator and the
stream index is planted in the high word of the 256-bit counter, so
streams are spaced 2**192 blocks apart.  The mapping from (seed, index)
to the noise sequence is a pure function -- independent of how many
trajectories run, in what order, or on how many workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STREAM_STRIDE_BITS = 192


@dataclass(frozen=True)
class SeedSpec:
    """Address of one noise stream."""

    master_seed: int
    stream_index: int

    def __post_init__(self):
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in 64 bits")
        if not (0 <= self.stream_index < 2**63):
            raise ValueError("stream_index must be in [0, 2**63)")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(
            key=self.master_seed, counter=self.stream_index << _STREAM_STRIDE_BITS))


def substream(master_seed: int, i: int) -> SeedSpec:
    """Stream for trajectory ``i``; collision-free by counter spacing."""
    return SeedSpec(master_seed=master_seed, stream_index=i)

