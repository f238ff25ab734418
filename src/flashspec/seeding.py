"""numpy's ``SeedSequence`` state derivation, vectorized over many seeds.

``default_rngs(seed, keys)`` returns, for every key, a generator whose
stream is byte-for-byte that of ``np.random.default_rng([seed, key])``.
numpy hashes one entropy list at a time; here the hash runs once over all
keys of one entropy width, because the hash constants advance the same way
for every list of that width.  Only the gamma draws themselves stay per key.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(16)


def uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (0 gives ``[0]``),
    as ``SeedSequence`` splits its entropy."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    ``entropy`` (n, w): 32-bit entropy words held in uint64.

    This is numpy's algorithm with its pool of four words; all arithmetic
    is mod 2**32.
    """
    n, width = entropy.shape
    hash_a = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ np.uint64(hash_a)
        hash_a = (hash_a * 0x931E8875) & 0xFFFFFFFF
        value = (value * np.uint64(hash_a)) & _MASK32
        return value ^ (value >> _SHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = (np.uint64(0xCA01F9DD) * x - np.uint64(0x4973F715) * y) & _MASK32
        return r ^ (r >> _SHIFT)

    zero = np.zeros(n, dtype=np.uint64)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, width):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_b = 0x8B51F9DD
    state = np.empty((n, 8), dtype="<u4")
    for i in range(8):
        value = pool[i % 4] ^ np.uint64(hash_b)
        hash_b = (hash_b * 0x58F38DED) & 0xFFFFFFFF
        value = (value * np.uint64(hash_b)) & _MASK32
        state[:, i] = value ^ (value >> _SHIFT)
    return state.view("<u8")


class _FixedSeed(ISeedSequence):
    """Hands :class:`numpy.random.PCG64` precomputed state words."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError("holds 4 uint64 words for PCG64")
        return self.state


def default_rngs(seed: int, keys: Sequence[int]) -> list[np.random.Generator]:
    """``np.random.default_rng([seed, key])`` for every key, in order."""
    seed_words = uint32_words(seed)
    entropy = [seed_words + uint32_words(key) for key in keys]
    rngs: dict[int, np.random.Generator] = {}
    for width in {len(words) for words in entropy}:
        at = [i for i, words in enumerate(entropy) if len(words) == width]
        states = seed_states(np.array([entropy[i] for i in at], dtype=np.uint64))
        for i, state in zip(at, states):
            rngs[i] = np.random.Generator(np.random.PCG64(_FixedSeed(state)))
    return [rngs[i] for i in range(len(keys))]
