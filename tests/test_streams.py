import numpy as np
import pytest

from cohlab.sampler import haar_prob_rows, keyed_rows
from cohlab.errors import InvalidArgumentError
from cohlab.streams import RandomStream, new_generator, stream_setter


def test_identical_pair_replays_sequence():
    a = RandomStream(42, 7).generator.standard_normal(100)
    b = RandomStream(42, 7).generator.standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_indices_differ():
    a = RandomStream(42, 0).generator.standard_normal(100)
    b = RandomStream(42, 1).generator.standard_normal(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RandomStream(1, 5).generator.standard_normal(100)
    b = RandomStream(2, 5).generator.standard_normal(100)
    assert not np.array_equal(a, b)


def test_stream_is_consumed_sequentially():
    stream = RandomStream(3, 3)
    first = stream.generator.standard_normal(10)
    second = stream.generator.standard_normal(10)
    assert not np.array_equal(first, second)
    # a fresh object replays the concatenated sequence
    replay = RandomStream(3, 3).generator.standard_normal(20)
    assert np.array_equal(replay, np.concatenate([first, second]))


def test_negative_seed_wraps_to_uint64():
    a = new_generator(-1, 0).standard_normal(8)
    b = new_generator((1 << 64) - 1, 0).standard_normal(8)
    assert np.array_equal(a, b)


def test_index_does_not_alias_seed():
    # key layout (seed, index) must not collide when values swap roles
    a = new_generator(5, 9).standard_normal(8)
    b = new_generator(9, 5).standard_normal(8)
    assert not np.array_equal(a, b)


WRAPPING_PAIRS = [(-1, 0), (0, -5), ((1 << 64) + 3, 7), (11, (1 << 70) + 2), (-(1 << 65), -(1 << 64) - 1)]


@pytest.mark.parametrize("seed, index", WRAPPING_PAIRS)
def test_rekey_matches_fresh_generator(seed, index):
    gen = new_generator(99, 12)
    stream_setter(gen, seed)(index)
    assert np.array_equal(gen.standard_normal(50), new_generator(seed, index).standard_normal(50))


@pytest.mark.parametrize("seed, index", WRAPPING_PAIRS)
def test_rekey_after_partial_consumption(seed, index):
    gen = new_generator(3, 4)
    gen.standard_normal(7)  # counter moved, output buffer partly used
    gen.integers(0, 1000, dtype=np.uint32)  # buffers the other 32-bit half
    gen.random()
    assert gen.bit_generator.state["has_uint32"] == 1
    stream_setter(gen, seed)(index)
    fresh = new_generator(seed, index)
    u32 = dict(size=5, dtype=np.uint32)
    assert np.array_equal(gen.integers(0, 1 << 32, **u32), fresh.integers(0, 1 << 32, **u32))
    assert np.array_equal(gen.standard_normal(20), fresh.standard_normal(20))
    assert gen.random() == fresh.random()


@pytest.mark.parametrize("seed, index", WRAPPING_PAIRS)
def test_stream_setter_matches_fresh_generator(seed, index):
    gen = new_generator(99, 12)
    set_stream = stream_setter(gen, seed)
    for i in (index, index + 1, index):  # one setter, the key swapped per call
        gen.standard_normal(7)  # counter moved, output buffer partly used
        gen.integers(0, 1000, dtype=np.uint32)  # buffers the other 32-bit half
        set_stream(i)
        fresh = new_generator(seed, i)
        u32 = dict(size=5, dtype=np.uint32)
        assert np.array_equal(gen.integers(0, 1 << 32, **u32), fresh.integers(0, 1 << 32, **u32))
        assert np.array_equal(gen.standard_normal(20), fresh.standard_normal(20))
        assert gen.random() == fresh.random()


@pytest.mark.parametrize("shape", [(6,), (3, 4)])
def test_keyed_normal_rows_match_per_row_streams(shape):
    first, stop = 5, 9
    rows = keyed_rows(77, first, stop, shape, "standard_normal")
    assert rows.shape == (stop - first, *shape)
    for row, index in zip(rows, range(first, stop)):
        assert np.array_equal(row, RandomStream(77, index).generator.standard_normal(shape))


@pytest.mark.parametrize("shape", [(6,), (3, 4)])
def test_keyed_exponential_rows_match_per_row_streams(shape):
    first, stop = 5, 9
    rows = keyed_rows(77, first, stop, shape, "standard_exponential")
    assert rows.shape == (stop - first, *shape)
    for row, index in zip(rows, range(first, stop)):
        assert np.array_equal(row, RandomStream(77, index).generator.standard_exponential(shape))


def test_haar_prob_rows_are_normalised_exponentials():
    first, stop, dim = 3, 8, 7
    rows = haar_prob_rows(77, first, stop, dim)
    for row, index in zip(rows, range(first, stop)):
        e = RandomStream(77, index).generator.standard_exponential(dim)
        assert np.array_equal(row, e / e.sum())


@pytest.mark.parametrize("variate", ["standard_normal", "standard_exponential"])
def test_keyed_rows_draw_into_out(variate):
    out = np.full((4, 3, 2), np.nan)
    rows = keyed_rows(77, 5, 9, (3, 2), variate, out)
    assert rows is out
    assert np.array_equal(out, keyed_rows(77, 5, 9, (3, 2), variate))


def test_keyed_rows_reject_a_mismatched_out():
    with pytest.raises(InvalidArgumentError):
        keyed_rows(77, 5, 9, (3,), "standard_normal", np.empty((5, 3)))


def test_haar_prob_rows_normalise_in_out():
    out = np.full((10, 6), np.nan)
    rows = haar_prob_rows(77, 3, 8, 6, out[:5])
    assert np.shares_memory(rows, out) and rows.shape == (5, 6)
    assert rows.tobytes() == haar_prob_rows(77, 3, 8, 6).tobytes()
    assert np.isnan(out[5:]).all()  # rows past the batch are untouched
