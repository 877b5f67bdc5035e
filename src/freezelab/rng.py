"""Counter-based random streams keyed by (seed, stream, index).

Every random draw in the project goes through Philox generators derived
here, so any sample is reproducible in isolation: no global RNG state, no
dependence on iteration order, and no use of Python's ``hash`` (which is
salted per process).
"""

from __future__ import annotations

import numpy as np

# Stream tags keep unrelated consumers of the same seed statistically
# disjoint even when their indices collide.
STREAM_SCENE = 1
STREAM_PARAM_INIT = 2
STREAM_BATCH_SHUFFLE = 3

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def philox_key(seed: int, stream: int, index: int) -> int:
    """Derive a 128-bit Philox key from the three addressing integers."""
    hi = _splitmix64((seed & _MASK64) ^ _splitmix64(stream))
    lo = _splitmix64((index & _MASK64) ^ _splitmix64(0x51ED2701))
    return (hi << 64) | lo


def generator(seed: int, stream: int, index: int) -> np.random.Generator:
    """A fresh Generator for one (seed, stream, index) address."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, stream, index)))
