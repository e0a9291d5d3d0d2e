import numpy as np
import pytest
from numpy.random import SeedSequence

from polyproj import InvalidArgumentError
from polyproj.streams import MODEL_CODES, SIM_REPLICATION, angle_draws, derive_generator, derive_keys, replication_maps

from oracles import angle_chunk_draws

# hashing mixes Python ints into uint32 columns: any NumPy overflow warning is a failure
pytestmark = pytest.mark.filterwarnings("error")

# index column entries up to the top of their one 32-bit word
_INDICES = np.array([0, 1, 2, 7, 2**31, 2**32 - 1])


def _oracle(*path):
    return SeedSequence(path).generate_state(2, np.uint64)


def _check(prefix, indices, last):
    keys = derive_keys(prefix, indices, last)
    assert keys.shape == (len(indices), 2) and keys.dtype == np.uint64
    for row, i in zip(keys, indices):
        assert np.array_equal(row, _oracle(*prefix, int(i), last)), (prefix, i, last)


@pytest.mark.parametrize("master_seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**100])
@pytest.mark.parametrize("prefix,suffix", [
    ((), (0,)),  # three words, one of them zero: shorter than SeedSequence's four-word pool
    ((), (2**35,)),  # a two-word last entry
    ((SIM_REPLICATION, 1), (0,)),  # five words
    ((SIM_REPLICATION, 6, 8, 3), (0,)),  # the seven-word replication path
    ((SIM_REPLICATION, 0, 0, 2**35), (4,)),  # zeros and a two-word prefix entry
])
def test_derive_keys_matches_seed_sequence(master_seed, prefix, suffix):
    # the column's one place: second to last, after the master seed and prefix
    _check((master_seed, *prefix), _INDICES, *suffix)


def test_derive_keys_unsigned_and_block_ranges():
    for dtype in (np.uint8, np.int32, np.uint32, np.int64, np.uint64):
        _check((9, 1), np.array([0, 1, 127], dtype=dtype), 0)
    _check((9, 1), np.array([0, 2**31, 2**32 - 1], dtype=np.uint64), 0)
    _check((9, SIM_REPLICATION, 1, 10, 3), np.arange(1000, 1512), 0)
    assert derive_keys((9,), np.arange(0), 0).shape == (0, 2)


def test_derive_keys_rejects_bad_entries():
    with pytest.raises(InvalidArgumentError, match="seed path entry must be >= 0"):
        derive_generator(3, -1)
    for prefix, last in [((3, -1), 0), ((-3,), 0), ((3,), -1)]:
        with pytest.raises(InvalidArgumentError, match="seed path entry must be >= 0"):
            derive_keys(prefix, np.arange(4), last)
    with pytest.raises(ValueError):  # a negative entry
        derive_keys((3,), np.array([0, 5, -1]), 0)
    for big in (np.array([0, 2**32]), np.array([2**64 - 1], dtype=np.uint64)):  # an entry of two words
        with pytest.raises(ValueError):
            derive_keys((3,), big, 0)
    with pytest.raises(TypeError):  # not an integer array
        derive_keys((3,), np.arange(4.0), 0)
    with pytest.raises(TypeError):
        derive_keys((3,), np.array([True, False]), 0)
    with pytest.raises(TypeError):  # not 1-d
        derive_keys((3,), np.arange(4).reshape(2, 2), 0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(2.0), np.bool_(True), "2", None],
                         ids=["2.5", "2.0", "True", "float64", "bool_", "text", "None"])
def test_scalar_path_entries_must_be_integers(bad):
    # no coercion: a float, bool or string entry is refused, never rounded onto another stream
    with pytest.raises(InvalidArgumentError, match="seed path entry must be an integer"):
        derive_generator(0, bad)
    with pytest.raises(InvalidArgumentError, match="seed path entry must be an integer"):
        derive_generator(bad, 1)
    with pytest.raises(InvalidArgumentError, match="seed path entry must be an integer"):
        derive_keys((0, bad), np.arange(3), 0)
    with pytest.raises(InvalidArgumentError, match="seed path entry must be an integer"):
        derive_keys((0,), np.arange(3), bad)


def test_numpy_integer_path_entries_are_their_ints():
    a = derive_generator(np.int64(3), np.uint8(1), np.int32(2)).standard_normal(4)
    assert np.array_equal(a, derive_generator(3, 1, 2).standard_normal(4))
    assert np.array_equal(derive_keys((np.uint64(9), np.int16(1)), np.arange(3), np.uint8(2)),
                          derive_keys((9, 1), np.arange(3), 2))


def test_rekey_draws_equal_derive_generator():
    # one Philox is re-keyed per map from derive_keys' uint64 rows, which reach
    # the state setter as the Python ints tolist() makes of them: each map is
    # a fresh derive_generator generator's on its replication's stream, after
    # maps whose odd sizes leave a partly read buffer behind.  Runs of
    # len(out) maps, the last one short, are yielded with their indices as
    # views of out
    n, d, seed, attempt = 7, 3, 5, 2
    idx = np.array([0, 1, 511, 512, 2**32 - 1])
    for model in MODEL_CODES:
        path = (seed, SIM_REPLICATION, MODEL_CODES[model], n, d)
        assert derive_keys(path, idx, attempt).max() >= 2**63  # a word with the top bit set goes through the conversion
        fresh = [derive_generator(*path, int(i), attempt).standard_normal((n, d)) for i in idx]
        for size in (1, 2, 5, 7):
            out = np.empty((size, n, d))
            drawn = []
            for indices, maps in replication_maps(seed, model, n, d, idx, attempt, out):
                assert np.shares_memory(maps, out) and len(maps) == min(size, len(idx) - len(drawn))
                assert np.array_equal(indices, idx[len(drawn) : len(drawn) + len(maps)])
                drawn += [image.copy() for image in maps]
            assert np.array_equal(drawn, fresh)
        assert list(replication_maps(seed, model, n, d, np.arange(0), attempt, out)) == []


@pytest.mark.parametrize("samples", [1, 2047, 2048, 2049, 32_767, 32_768, 32_769, 2 * 32_768 + 1437])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_angle_draws_equal_whole_chunk_draws(samples, dim):
    # the angle sampler's blocks: at most 2048 rows, views of one buffer, the oracle's whole-chunk draws
    blocks = [(block.base, block.copy()) for block in angle_draws(11, (1, 0, 2, 5), samples, dim)]
    assert blocks[0][0] is not None and all(base is blocks[0][0] and len(rows) <= 2048 for base, rows in blocks)
    assert np.array_equal(np.concatenate([rows for _, rows in blocks]), angle_chunk_draws(11, (1, 0, 2, 5), samples, dim))
