"""Deterministic random-stream derivation.

Every Monte Carlo consumer in the package draws from a Philox generator seeded
by a SeedSequence over an explicit integer tuple

    (master_seed, purpose, *identity, chunk)

so that results are reproducible bit-for-bit, independent of evaluation order
and worker count.  Purpose and identity codes are fixed integer maps below;
Python's salted hash() is never used.

derive_generator builds one such generator.  derive_keys computes the Philox
keys of many such streams at once, by NumPy's own SeedSequence hash run on
uint32 columns, and rekey points one Philox at a key; a block of replications
then re-keys one generator instead of building one per stream, and draws
exactly what derive_generator's generators would.
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

    Path entries are ints or 1-d integer arrays of one common length m; row i
    takes entry i of every array.  Row i equals
    SeedSequence((master_seed, *path_i)).generate_state(2, np.uint64), the key
    derive_generator's Philox gets, and NumPy's SeedSequence is the oracle
    the tests check it against.  The hash is SeedSequence's own, run over
    uint32 columns.  Negative entries raise ValueError, as in derive_generator.
    """
    entries, m = [], None
    for p in (master_seed, *path):
        if isinstance(p, np.ndarray):
            if p.ndim != 1 or p.dtype.kind not in "iu":
                raise TypeError(f"array path entries must be 1-d integer arrays, got {p.dtype} of shape {p.shape}")
            if m is not None and len(p) != m:
                raise ValueError(f"array path entries differ in length: {m} and {len(p)}")
            m = len(p)
            if p.dtype.kind == "i" and np.any(p < 0):
                raise ValueError("seed path entries must be nonnegative")
            p = p.astype(np.uint64)
        elif int(p) < 0:
            raise ValueError(f"seed path entries must be nonnegative, got {p}")
        entries.append(p)
    if m is None:
        raise ValueError("derive_keys needs an array path entry")
    # an entry of 2^32 or more is two words, so rows are hashed in groups of
    # one word layout; bit j of `layout` marks entry j as two words
    layout = np.zeros(m, dtype=np.int64)
    for j, p in enumerate(entries):
        if isinstance(p, np.ndarray):
            layout |= (p > _MASK32).astype(np.int64) << j
    keys = np.empty((m, 2), dtype=np.uint64)
    for pattern in np.unique(layout):
        rows = np.flatnonzero(layout == pattern)
        columns = []
        for j, p in enumerate(entries):
            if isinstance(p, np.ndarray):
                columns.append((p[rows] & _MASK32).astype(np.uint32))
                if pattern >> j & 1:
                    columns.append((p[rows] >> 32).astype(np.uint32))
            else:
                columns.extend(np.full(len(rows), w, dtype=np.uint32) for w in _words(int(p)))
        keys[rows] = _generate_key(_mix_pool(columns))
    return keys


def _mix_pool(columns: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy on uint32 columns: the four pool words, per row."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(columns[0])
    pool = [hashmix(columns[i] if i < len(columns) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in columns[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_key(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(2, np.uint64) from the pool words, per row."""
    h = _INIT_B
    out = []
    for word in pool:  # four uint32 words, read as two little-endian uint64s
        value = word ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        value = value * np.uint32(h)
        out.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)], axis=1)


def rekey(bitgen: Philox, key) -> None:
    """Reset bitgen to the fresh state Philox(key=key) would have: counter 0, empty buffer."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [int(key[0]), int(key[1])]},
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
