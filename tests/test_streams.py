import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from polyproj.streams import SIM_REPLICATION, derive_generator, derive_keys, rekey

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
    with pytest.raises(ValueError):
        derive_generator(3, -1)
    with pytest.raises(ValueError):
        derive_keys(3, -1, np.arange(4))
    with pytest.raises(ValueError):
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


def test_rekey_draws_equal_derive_generator():
    # a key is a uint64 row of derive_keys or the list of Python ints tolist() makes of it
    path = (SIM_REPLICATION, 2, 8, 4)
    idx = np.array([0, 1, 511, 512, 2**32 - 1])
    keys = derive_keys(5, *path, idx, 0)
    assert keys.max() >= 2**63  # a word with the top bit set goes through both forms
    bitgen = Philox()
    rng = Generator(bitgen)
    # leave state behind: a used counter, a partly read buffer, a cached half word
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    for i, key in [*zip(idx, keys), *zip(idx, keys.tolist())]:
        rekey(bitgen, key)
        fresh = derive_generator(5, *path, int(i), 0)
        assert _same_state(bitgen, fresh.bit_generator)
        assert np.array_equal(rng.standard_normal(41), fresh.standard_normal(41))
        assert np.array_equal(rng.integers(0, 2**32, size=5, dtype=np.uint32),
                              fresh.integers(0, 2**32, size=5, dtype=np.uint32))
        assert np.array_equal(rng.random(3), fresh.random(3))


def _same_state(a, b):
    sa, sb = a.state, b.state
    return all(np.array_equal(sa["state"][f], sb["state"][f]) for f in ("counter", "key")) and all(
        np.array_equal(sa[f], sb[f]) for f in ("buffer", "buffer_pos", "has_uint32", "uinteger"))
