"""Deterministic, counter-based noise streams.

Every trajectory owns a Philox stream addressed by ``(master_seed,
stream_index)``: the 64-bit master seed keys the generator and the
stream index is planted in the high word of the 256-bit counter, so
streams are spaced 2**192 blocks apart.  The mapping from (seed, index)
to the noise sequence is a pure function -- independent of how many
trajectories run, in what order, or on how many workers.

``fill_normals`` draws a block of streams from one Philox bit generator,
resetting its counter to each stream's start, bitwise the same normals as
one ``SeedSpec.generator()`` per stream at about half the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _counter(stream_index: int) -> list:
    """The stream's first Philox counter, low word first: ``stream_index << 192``."""
    return [0, 0, 0, stream_index]


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
        return np.random.Generator(np.random.Philox(key=self.master_seed,
                                                    counter=_counter(self.stream_index)))


def substream(master_seed: int, i: int) -> SeedSpec:
    """Stream for trajectory ``i``; collision-free by counter spacing."""
    return SeedSpec(master_seed=master_seed, stream_index=i)


def fill_normals(master_seed: int, i0: int, out: np.ndarray) -> np.ndarray:
    """Row k of ``out`` (rows, width): the first normals of stream i0 + k.

    Bitwise ``substream(master_seed, i0 + k).generator().standard_normal(out=out[k])``,
    from one Philox: before each row its counter is reset to the stream's
    start and its buffer emptied, as a new Philox has it.
    """
    SeedSpec(master_seed, i0)  # the seed and both ends of the stream range
    SeedSpec(master_seed, i0 + max(len(out) - 1, 0))
    bits = np.random.Philox(key=master_seed)
    gen = np.random.Generator(bits)
    state = bits.state  # a new Philox's: empty buffer, no spare 32-bit word
    for i, row in enumerate(out, start=i0):
        state["state"]["counter"] = _counter(i)
        bits.state = state
        gen.standard_normal(out=row)
    return out
