"""numpy's ``SeedSequence`` state derivation, vectorized over a block of keys.

``block_states(seed, start, count)`` returns, for every key ``idx`` in
``[start, start + count)``, the PCG64 state words that
``np.random.default_rng([seed, idx])`` starts from, and ``generator(state)``
builds a generator from one such row; its stream is byte-for-byte that of
``default_rng([seed, idx])``.  numpy hashes one entropy list at a time; here
the hash runs once over the whole block, because the hash constants advance
the same way for every list of one entropy width, and the keys of a block
share that width.  Only the draws themselves stay per key.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


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


@cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of one of numpy's hash-constant sequences,
    as a read-only (count, 1) uint32 column."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    column = np.array(values, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` of each row of ``value`` (m, n), the i-th with
    the (i, i + 1)-th of ``consts`` (m + 1, 1); uint32 arithmetic wraps
    mod 2**32 as numpy's does."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> _SHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of two pool words, elementwise."""
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> _SHIFT
    return r


def block_states(seed: int, start: int, count: int) -> np.ndarray:
    """PCG64 state words of ``np.random.default_rng([seed, idx])`` for every
    ``idx`` in ``[start, start + count)``: shape (count, 4), uint64.

    The keys must differ only in their lowest 32-bit word, so that they
    share one entropy width: an aligned block of a power-of-two size up to
    2**32 always does.  This is ``SeedSequence([seed, idx]).generate_state(4,
    np.uint64)`` with its pool of four words, each step run on all keys at
    once and on every pool word it updates at once.
    """
    if count < 1:
        raise ValueError(f"expected at least one key, got count={count}")
    seed_words, key_words = uint32_words(seed), uint32_words(start)
    if key_words[0] + count > 2**32:
        raise ValueError(f"keys [{start}, {start + count}) cross a 2**32 boundary")
    width = len(seed_words) + len(key_words)
    entropy = np.zeros((max(width, 4), count), dtype=np.uint32)  # one key per column
    entropy[:width] = np.array(seed_words + key_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] += np.arange(count, dtype=np.uint32)

    a = _hash_constants(_INIT_A, _MULT_A, 4 * max(width, 4) + 1)
    pool = _hashmix(entropy[:4], a[:5])
    at = 4
    for src in range(4):
        # pool[src] stays fixed while it mixes into the other three words,
        # so those three updates run together.
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[at:at + 4]))
        at += 3
    for src in range(4, width):
        pool = _mix(pool, _hashmix(entropy[src], a[at:at + 5]))
        at += 4
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 9))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


class _FixedSeed(ISeedSequence):
    """Hands :class:`numpy.random.PCG64` precomputed state words."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError("holds 4 uint64 words for PCG64")
        return self.state


def generator(state: np.ndarray) -> np.random.Generator:
    """A PCG64 generator started from one row of :func:`block_states`."""
    return np.random.Generator(np.random.PCG64(_FixedSeed(state)))
