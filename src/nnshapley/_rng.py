"""Deterministic random-stream derivation.

Every randomized operation draws from a generator derived from a master seed
plus a structured key, so adding validation points or reordering work never
perturbs draws made for earlier keys.

:func:`stream` and :func:`substream_seed` derive one key at a time through
``np.random.SeedSequence(seed, spawn_key=key)`` and are the reference.
Loops over a range of keys that share all words but the last use the batch
forms :func:`streams` and :func:`substream_seeds`, which return exactly
``stream(seed, *key, v)`` and ``substream_seed(seed, *key, v)`` for each v
in ``range(lo, hi)``: the same generator state, hence the same draws, bit
for bit. The batch builds the SeedSequence of the shared prefix once, then
runs the rest of numpy's hash (mixing the last key word into the four-word
pool, and ``generate_state``) on an (hi - lo, 4) uint32 array, and seeds
each PCG64 with its row's words. That is valid while every v is one 32-bit
word, so ``hi`` may not exceed 2**32.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

# Stream tags; keys are (tag, validation_index[, owner_index, ...]).
TAG_DATA = 1
TAG_CORRUPT = 2
TAG_SUBSAMPLE = 3
TAG_NOISE = 4
TAG_SHADOW = 5
TAG_SCORE_IN = 6
TAG_SCORE_OUT = 7
TAG_SCORE_OBS = 8

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
# generate_state's constant before and after each of up to 8 output words.
_XOR_B = np.array([_INIT_B * pow(_MULT_B, j, 2**32) & _MASK for j in range(9)], dtype=np.uint32)
_CYCLE = np.arange(8) % _POOL_SIZE


def _seed_sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    if seed < 0:  # numpy would raise a bare ValueError
        raise ParameterError(f"seed must be nonnegative; got {seed}")
    return np.random.SeedSequence(seed, spawn_key=key)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for (seed, key...); identical keys give identical streams."""
    return np.random.default_rng(_seed_sequence(seed, key))


def substream_seed(seed: int, *key: int) -> int:
    """A derived integer seed, for APIs that take a seed rather than a generator."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0] >> 1)


class _State(ISeedSequence):
    """A seed sequence whose state is given: one key's PCG64 seed words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError("this seed sequence holds exactly one PCG64 state")
        return self.words


def _words(x: int) -> int:
    """Number of 32-bit words SeedSequence splits a nonnegative integer into."""
    return max(1, -(-int(x).bit_length() // 32))


def _state_words(seed: int, key: tuple[int, ...], lo: int, hi: int, n_words: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key + (v,)).generate_state(n_words, np.uint64)``
    for each v in range(lo, hi), as an (hi - lo, n_words) uint64 array."""
    if lo < 0:
        raise ValueError("expected non-negative integer")
    if hi > 2**32:
        raise ParameterError("batched stream keys must be below 2**32")
    pool = _seed_sequence(seed, key).pool
    # The prefix's entropy is the seed padded to the pool size, then the key
    # words. Mixing it called hashmix once per pool word, once per ordered
    # pair of pool words, then once per pool word for each entropy word past
    # the pool size: 4 * entropy calls, each advancing the hash constant.
    entropy = max(_POOL_SIZE, _words(seed)) + sum(_words(k) for k in key)
    const = [_INIT_A * pow(_MULT_A, _POOL_SIZE * entropy, 2**32) & _MASK]
    for _ in range(_POOL_SIZE):
        const.append(const[-1] * _MULT_A & _MASK)
    xor, mult = np.array([const[:-1], const[1:]], dtype=np.uint32)
    # hashmix the last word once per pool word and mix it into that word.
    value = np.arange(lo, max(lo, hi), dtype=np.uint32)[:, None] ^ xor
    value *= mult
    value ^= value >> np.uint32(16)
    value *= np.uint32(_MIX_MULT_R)
    mixed = pool * np.uint32(_MIX_MULT_L) - value
    mixed ^= mixed >> np.uint32(16)
    # generate_state: output word i hashes pool word i % 4 with its own constants.
    state = mixed.take(_CYCLE[: 2 * n_words], axis=1)
    state ^= _XOR_B[: 2 * n_words]
    state *= _XOR_B[1 : 2 * n_words + 1]
    state ^= state >> np.uint32(16)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def streams(seed: int, key: tuple[int, ...], lo: int, hi: int) -> Iterator[np.random.Generator]:
    """``stream(seed, *key, v)`` for each v in range(lo, hi), built in one
    batch; ``hi`` may not exceed 2**32."""
    return (
        np.random.Generator(np.random.PCG64(_State(words)))
        for words in _state_words(seed, tuple(key), lo, hi, 4)
    )


def substream_seeds(seed: int, key: tuple[int, ...], lo: int, hi: int) -> list[int]:
    """``substream_seed(seed, *key, v)`` for each v in range(lo, hi); ``hi``
    may not exceed 2**32."""
    return (_state_words(seed, tuple(key), lo, hi, 1)[:, 0] >> np.uint64(1)).tolist()
