"""Deterministic seed derivation and random generator construction.

All randomness in the library flows through numpy's PCG64 bit generator,
constructed from an explicit 64-bit seed. Derived streams (per trial,
per sweep cell) come out of :func:`mix_seed`, a splitmix64-based mixer,
so runs are reproducible regardless of scheduling or platform.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: one 64-bit avalanche step."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def mix_seed(master: int, *indices: int) -> int:
    """Derive a child seed from a master seed and stream indices.

    Pure 64-bit integer arithmetic: starting from the master seed, each
    index is folded in (scaled by the golden-ratio constant, xored) and
    passed through the splitmix64 finalizer. Exact formula::

        state = master
        for ix in indices:
            state = splitmix64(state XOR (ix * 0x9E3779B97F4A7C15 mod 2^64))
    """
    _check_seed(master)
    state = master
    for ix in indices:
        if ix < 0:
            raise ValueError("stream indices must be non-negative")
        state = splitmix64(state ^ ((ix * _GOLDEN) & MASK64))
    return state


def generator(seed: int) -> np.random.Generator:
    """A PCG64 generator seeded with the given 64-bit seed."""
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def _check_seed(seed: int) -> None:
    # a larger seed would be masked to a smaller one and repeat its stream
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be an integer in [0, 2^64); got {seed}")
