"""Deterministic random-stream derivation.

Every Monte Carlo consumer in the package draws from a Philox generator seeded
by a SeedSequence over an explicit integer tuple

    (master_seed, purpose, *identity, chunk)

so that results are reproducible bit-for-bit, independent of evaluation order
and worker count.  Purpose and identity codes are fixed integer maps below;
Python's salted hash() is never used.

derive_generator builds one such generator.  derive_keys computes the Philox
keys of many streams that differ in one index entry, by NumPy's own
SeedSequence hash over one uint32 index column, and rekey points one Philox
at a key; a block of replications then re-keys one generator instead of
building one per stream, and draws exactly what derive_generator's
generators would.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

# purpose codes
ANGLE_SAMPLES = 1
SIM_REPLICATION = 2

# angle kind codes
KIND_INTERNAL = 1
KIND_EXTERNAL = 2

# family codes (align with families.Family order)
FAMILY_CODES = {"simplex": 1, "crosspolytope": 2, "cube": 3}

# simulation model codes
MODEL_CODES = {
    "gaussian": 1,
    "symmetric": 2,
    "zonotope": 3,
    "projected_simplex": 4,
    "projected_crosspolytope": 5,
    "projected_cube": 6,
}


def derive_generator(master_seed: int, *path: int) -> Generator:
    """Philox generator for the stream identified by (master_seed, *path).

    All path entries must be nonnegative integers; SeedSequence rejects
    negatives, which keeps sentinel conventions honest.
    """
    entropy = (int(master_seed),) + tuple(int(p) for p in path)
    if any(p < 0 for p in entropy):
        raise ValueError(f"seed path entries must be nonnegative, got {entropy}")
    return Generator(Philox(SeedSequence(entropy)))


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(v: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int, least significant first."""
    words = [v & _MASK32]
    v >>= 32
    while v:
        words.append(v & _MASK32)
        v >>= 32
    return words


def derive_keys(master_seed: int, *path) -> np.ndarray:
    """Philox keys, shape (m, 2) uint64, of the streams (master_seed, *path).

    One entry, in any position, is the index column: a 1-d integer array of
    length m with entries in [0, 2^32), one SeedSequence word each.  Every
    other entry is an int.  Row i equals SeedSequence((master_seed, *path_i))
    .generate_state(2, np.uint64), path_i taking entry i of the column: the
    key derive_generator's Philox gets, and the tests' oracle.  The hash is
    SeedSequence's own: constant words are hashed once as Python ints, and
    only the words the column reaches are uint32 columns.  Other layouts
    raise TypeError or ValueError; negative entries raise ValueError.
    """
    words, column = [], None
    for p in (master_seed, *path):
        if not isinstance(p, np.ndarray):
            if int(p) < 0:
                raise ValueError(f"seed path entries must be nonnegative, got {p}")
            words += _words(int(p))
            continue
        if column is not None:
            raise ValueError("derive_keys takes one array path entry, got several")
        if p.ndim != 1 or p.dtype.kind not in "iu":
            raise TypeError(f"the index column must be a 1-d integer array, got {p.dtype} of shape {p.shape}")
        if np.any((p < 0) | (p > _MASK32)):
            raise ValueError("index column entries must be in [0, 2^32)")
        column = p.astype(np.uint32)
        words.append(column)
    if column is None:
        raise ValueError("derive_keys needs an array path entry")
    return _generate_key(_mix_pool(words))


# The hash steps below take Python ints and uint32 columns alike: a product
# or difference is reduced mod 2^32, which leaves a uint32 column as it is.

def _mix_pool(words: list) -> list:
    """SeedSequence.mix_entropy over words, ints or uint32 columns: the four pool words."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_key(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(2, np.uint64) from the pool's uint32 columns, per row."""
    h = _INIT_B
    out = []
    for word in pool:  # four uint32 words, read as two little-endian uint64s
        value = word ^ h
        h = h * _MULT_B & _MASK32
        value = value * h
        out.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([out[0] | (out[1] << 32), out[2] | (out[3] << 32)], axis=1)


def rekey(bitgen: Philox, key) -> None:
    """Reset bitgen to the fresh state Philox(key=key) would have: counter 0, empty buffer.

    key is a pair of unsigned 64-bit words, a row of derive_keys or, cheaper,
    that row as a list of Python ints, which the state setter takes as is.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def chunk_counts(total: int, chunk_size: int) -> list[int]:
    """Split `total` samples into a fixed chunk grid.

    The grid depends only on (total, chunk_size), never on worker count, so a
    chunked estimate is invariant under parallelism.
    """
    if total < 0 or chunk_size <= 0:
        raise ValueError("total must be >= 0 and chunk_size positive")
    full, rem = divmod(total, chunk_size)
    counts = [chunk_size] * full
    if rem:
        counts.append(rem)
    return counts
