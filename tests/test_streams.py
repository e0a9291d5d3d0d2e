import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from polyproj import InvalidArgumentError
from polyproj.hull import _sample_maps
from polyproj.streams import SIM_REPLICATION, chunk_counts, derive_generator, derive_keys

# hashing mixes Python ints into uint32 columns: any NumPy overflow warning is a failure
pytestmark = pytest.mark.filterwarnings("error")

# index column entries up to the top of their one 32-bit word
_INDICES = np.array([0, 1, 2, 7, 2**31, 2**32 - 1])


def _oracle(master_seed, *path):
    return SeedSequence((master_seed, *path)).generate_state(2, np.uint64)


def _check(master_seed, prefix, indices, suffix):
    keys = derive_keys(master_seed, *prefix, indices, *suffix)
    assert keys.shape == (len(indices), 2) and keys.dtype == np.uint64
    for row, i in zip(keys, indices):
        assert np.array_equal(row, _oracle(master_seed, *prefix, int(i), *suffix)), (master_seed, prefix, i, suffix)


@pytest.mark.parametrize("master_seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**100])
@pytest.mark.parametrize("prefix,suffix", [
    ((), ()),  # two words: shorter than SeedSequence's four-word pool
    ((0,), ()),  # three words, one of them zero
    ((SIM_REPLICATION, 1, 10), (0,)),  # five words
    ((SIM_REPLICATION, 6, 8, 3), (0,)),  # the seven-word replication path
    ((SIM_REPLICATION, 0, 0, 2**35), (0, 4)),  # zeros and a two-word prefix entry
])
def test_derive_keys_matches_seed_sequence(master_seed, prefix, suffix):
    _check(master_seed, prefix, _INDICES, suffix)


def test_derive_keys_array_in_any_position():
    idx = np.arange(5)
    keys = derive_keys(idx)  # the column is the master seed
    for i in idx:
        assert np.array_equal(keys[i], _oracle(int(i)))
    _check(3, (), idx, (2**32, 0, 7))  # first of the path, before a two-word entry
    _check(3, (2**40, SIM_REPLICATION), idx, ())  # last, after a two-word entry


def test_derive_keys_unsigned_and_block_ranges():
    for dtype in (np.uint8, np.int32, np.uint32, np.int64, np.uint64):
        _check(9, (1,), np.array([0, 1, 127], dtype=dtype), (0,))
    _check(9, (1,), np.array([0, 2**31, 2**32 - 1], dtype=np.uint64), (0,))
    _check(9, (SIM_REPLICATION, 1, 10, 3), np.arange(1000, 1512), (0,))
    assert derive_keys(9, np.arange(0)).shape == (0, 2)


def test_derive_keys_rejects_bad_entries():
    with pytest.raises(InvalidArgumentError, match="seed path entry must be >= 0"):
        derive_generator(3, -1)
    with pytest.raises(InvalidArgumentError, match="seed path entry must be >= 0"):
        derive_keys(3, -1, np.arange(4))
    with pytest.raises(InvalidArgumentError, match="seed path entry must be >= 0"):
        derive_keys(-3, np.arange(4))
    with pytest.raises(ValueError):  # no array entry
        derive_keys(3, 1, 2)
    with pytest.raises(ValueError):  # two array entries, of one length or of two
        derive_keys(3, np.arange(4), np.arange(4))
    with pytest.raises(ValueError):
        derive_keys(3, np.arange(4), np.arange(5))
    with pytest.raises(ValueError):  # a negative entry
        derive_keys(3, np.array([0, 5, -1]))
    for big in (np.array([0, 2**32]), np.array([2**64 - 1], dtype=np.uint64)):  # an entry of two words
        with pytest.raises(ValueError):
            derive_keys(3, big)
    with pytest.raises(TypeError):  # not an integer array
        derive_keys(3, np.arange(4.0))
    with pytest.raises(TypeError):
        derive_keys(3, np.array([True, False]))
    with pytest.raises(TypeError):  # not 1-d
        derive_keys(3, np.arange(4).reshape(2, 2))


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(2.0), np.bool_(True), "2", None],
                         ids=["2.5", "2.0", "True", "float64", "bool_", "text", "None"])
def test_scalar_path_entries_must_be_integers(bad):
    # no coercion: a float, bool or string entry is refused, never rounded onto another stream
    with pytest.raises(InvalidArgumentError, match="seed path entry must be an integer"):
        derive_generator(0, bad)
    with pytest.raises(InvalidArgumentError, match="seed path entry must be an integer"):
        derive_generator(bad, 1)
    with pytest.raises(InvalidArgumentError, match="seed path entry must be an integer"):
        derive_keys(0, bad, np.arange(3))
    with pytest.raises(InvalidArgumentError):
        chunk_counts(bad, 7)
    with pytest.raises(InvalidArgumentError):
        chunk_counts(70, bad)


def test_numpy_integer_path_entries_are_their_ints():
    a = derive_generator(np.int64(3), np.uint8(1), np.int32(2)).standard_normal(4)
    assert np.array_equal(a, derive_generator(3, 1, 2).standard_normal(4))
    assert np.array_equal(derive_keys(np.uint64(9), np.int16(1), np.arange(3)), derive_keys(9, 1, np.arange(3)))
    assert chunk_counts(np.int64(10), np.uint8(4)) == [4, 4, 2]
    for bad in [(-1, 7), (10, 0), (10, -2)]:
        with pytest.raises(InvalidArgumentError):
            chunk_counts(*bad)


def test_rekey_draws_equal_derive_generator():
    # _sample_maps re-keys one Philox per map from derive_keys' uint64 rows,
    # which reach the state setter as the Python ints tolist() makes of them:
    # each map, each later draw and the state left behind are a fresh
    # derive_generator generator's, whatever state the Philox had before
    path = (SIM_REPLICATION, 2, 8, 4)
    idx = np.array([0, 1, 511, 512, 2**32 - 1])
    keys = derive_keys(5, *path, idx, 0)
    assert keys.max() >= 2**63  # a word with the top bit set goes through the conversion
    bitgen = Philox()
    rng = Generator(bitgen)
    # leave state behind: a used counter, a partly read buffer, a cached half word
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    maps = _sample_maps(keys, bitgen, rng, np.empty((len(idx), 8, 4)))
    for i, image in zip(idx, maps):
        fresh = derive_generator(5, *path, int(i), 0)
        assert np.array_equal(image, fresh.standard_normal((8, 4)))
    assert _same_state(bitgen, fresh.bit_generator)  # the last map's
    for i in range(len(idx)):  # one map per call, each after draws that leave state behind
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        image = _sample_maps(keys[i : i + 1], bitgen, rng, np.empty((1, 8, 4)))[0]
        fresh = derive_generator(5, *path, int(idx[i]), 0)
        assert np.array_equal(image, fresh.standard_normal((8, 4)))
        assert _same_state(bitgen, fresh.bit_generator)
        assert np.array_equal(rng.standard_normal(41), fresh.standard_normal(41))
        assert np.array_equal(rng.integers(0, 2**32, size=5, dtype=np.uint32),
                              fresh.integers(0, 2**32, size=5, dtype=np.uint32))
        assert np.array_equal(rng.random(3), fresh.random(3))


def _same_state(a, b):
    sa, sb = a.state, b.state
    return all(np.array_equal(sa["state"][f], sb["state"][f]) for f in ("counter", "key")) and all(
        np.array_equal(sa[f], sb[f]) for f in ("buffer", "buffer_pos", "has_uint32", "uinteger"))
