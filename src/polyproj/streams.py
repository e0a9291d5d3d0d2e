"""Deterministic random-stream derivation: the one home of every stream path.

Every Monte Carlo consumer in the package draws from a Philox generator seeded
by a SeedSequence over an explicit integer tuple

    (master_seed, purpose, *identity, chunk)

so that results are reproducible bit-for-bit, independent of evaluation order
and worker count.  Purpose and identity codes are fixed integer maps below;
Python's salted hash() is never used.  Scalar path entries go through
families.check_int: a negative, float or bool is an InvalidArgumentError.

derive_generator builds one such generator; both layouts built on it live
here alone.  angle_draws holds the angle sampler's: chunk c of a cone's
DEFAULT_CHUNK grid draws from (seed, ANGLE_SAMPLES, *seed_path, c), with the
seed path from cone_path.  replication_maps holds simulate's: replication i
of a model's (n, d) shape draws its n x d Gaussian map at attempt a from
(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, i, a), by re-keying one
Philox to each key that one derive_keys call gives a round of replications.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .families import check_int

# purpose codes
ANGLE_SAMPLES = 1
SIM_REPLICATION = 2

# angle kind codes
KIND_INTERNAL = 1
KIND_EXTERNAL = 2

# family codes (align with families.Family order)
FAMILY_CODES = {"simplex": 1, "crosspolytope": 2, "cube": 3}

# the fixed chunk grid of every sampled angle, whatever the worker count, and the rows drawn at a time, a divisor of it
DEFAULT_CHUNK = 1 << 15
_SUB_ROWS = 2048

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

    Every entry goes through check_int at 0: a negative, a float such as 2.5
    or a bool is an InvalidArgumentError, never rounded to another stream.
    """
    entropy = tuple(check_int("seed path entry", p, 0) for p in (master_seed, *path))
    return Generator(Philox(SeedSequence(entropy)))


def cone_path(kind: str, family: str | None, i: int, j: int) -> tuple[int, int, int, int]:
    """The seed path (kind code, family code, i, j) of an "internal" or "external" cone.

    family None is code 0: the canonical internal cones simplex and
    crosspolytope share.  i, j are k, g for an internal cone and n, g for a
    normal cone.  Cones built without a seed path all sample the bare path ().
    """
    return {"internal": KIND_INTERNAL, "external": KIND_EXTERNAL}[kind], 0 if family is None else FAMILY_CODES[family], i, j


def angle_draws(seed: int, path: tuple[int, ...], samples: int, dim: int) -> Iterator[np.ndarray]:
    """The angle sampler's `samples` standard Gaussian rows of `dim` entries for the cone at `path`.

    cone_angle asks for rows of the cone's cross-section width, one entry
    fewer than the rank of its outer normals (angles.Cone.cross_section).

    Chunk c of the DEFAULT_CHUNK grid draws from derive_generator(seed,
    ANGLE_SAMPLES, *path, c).  Rows come in blocks of at most _SUB_ROWS, no
    block across two chunks, each a view of one buffer allocated once a call
    that the next block overwrites; consecutive fills draw what one
    (count, dim) draw of each chunk would, row for row.
    """
    buf = np.empty((min(samples, _SUB_ROWS), dim))
    for start in range(0, samples, _SUB_ROWS):
        if start % DEFAULT_CHUNK == 0:
            rng = derive_generator(seed, ANGLE_SAMPLES, *path, start // DEFAULT_CHUNK)
        block = buf[: min(samples - start, _SUB_ROWS)]
        rng.standard_normal(out=block)
        yield block


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


def derive_keys(prefix: tuple[int, ...], column: np.ndarray, last: int) -> np.ndarray:
    """Philox keys, shape (m, 2) uint64, of the streams (*prefix, column[i], last).

    prefix, the master seed first, and last are ints that check_int takes at
    0; column is a 1-d integer array of length m with entries in [0, 2^32),
    one SeedSequence word each.  Row i equals
    SeedSequence((*prefix, column[i], last)).generate_state(2, np.uint64):
    the key derive_generator's Philox gets, and the tests' oracle.  The hash
    is SeedSequence's own: the constant words are hashed once as Python
    ints, and only the words the column reaches are uint32 columns.
    """
    if column.ndim != 1 or column.dtype.kind not in "iu":
        raise TypeError(f"the index column must be a 1-d integer array, got {column.dtype} of shape {column.shape}")
    if np.any((column < 0) | (column > _MASK32)):
        raise ValueError("index column entries must be in [0, 2^32)")
    words = [w for p in prefix for w in _words(check_int("seed path entry", p, 0))]
    words += [column.astype(np.uint32), *_words(check_int("seed path entry", last, 0))]
    return _generate_key(_mix_pool(words))


def replication_maps(seed: int, model: str, n: int, d: int, indices: np.ndarray, attempt: int,
                     out: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """simulate's n x d Gaussian maps of replications `indices` at `attempt`, drawn into out.

    Yields the next m = len(out) indices, in order, and out[:m] holding
    their maps, which the next run overwrites; the last run may be shorter.
    Every index's key comes from one derive_keys call, and each map is drawn
    in place after one Philox is re-keyed to it, as a fresh derive_generator
    generator on its stream would draw it: the Philox and its Generator are
    built once a call.
    """
    keys = derive_keys((seed, SIM_REPLICATION, MODEL_CODES[model], n, d), indices, attempt)
    bitgen = Philox(key=0)
    rng = Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for start in range(0, len(keys), len(out)):
        maps = out[: len(keys) - start]
        for key, image in zip(keys[start : start + len(out)].tolist(), maps):
            state["state"]["key"] = key
            bitgen.state = state
            rng.standard_normal(out=image)
        yield indices[start : start + len(out)], maps


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
