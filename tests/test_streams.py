import re
from pathlib import Path

import numpy as np
import pytest

from cohlab import sampler
from cohlab.sampler import haar_prob_blocks, keyed_rows
from cohlab.streams import STREAM_VERSION, new_generator, stream_setter, word_generator

README = Path(__file__).parents[1] / "README.md"


def test_readme_names_the_current_stream_version():
    # the contract's version, the envelope example and the last row of the
    # version history all name STREAM_VERSION
    text = README.read_text()
    named = re.findall(r'STREAM_VERSION` = `"(\w+)"`|stream_version: "(\w+)"', text)
    assert sorted(a or b for a, b in named) == [STREAM_VERSION] * 2
    assert re.findall(r"^\| (\w+) \|", text, flags=re.MULTILINE)[-1] == STREAM_VERSION


def test_identical_pair_replays_sequence():
    a = new_generator(42, 7).standard_normal(100)
    b = new_generator(42, 7).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_indices_differ():
    a = new_generator(42, 0).standard_normal(100)
    b = new_generator(42, 1).standard_normal(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = new_generator(1, 5).standard_normal(100)
    b = new_generator(2, 5).standard_normal(100)
    assert not np.array_equal(a, b)


def test_stream_is_consumed_sequentially():
    generator = new_generator(3, 3)
    first = generator.standard_normal(10)
    second = generator.standard_normal(10)
    assert not np.array_equal(first, second)
    # a fresh generator replays the concatenated sequence
    replay = new_generator(3, 3).standard_normal(20)
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


WORDS = [0, 1, 2, 3, 4, 5, 6, 7, 4001]


def campaign_generator(seed):
    """The campaign stream of stream contract v6, fresh at word 0."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed % (1 << 64))))


@pytest.mark.parametrize("word", WORDS)
def test_seek_word_matches_a_fresh_stream(word):
    fresh = campaign_generator(9).bit_generator.random_raw(word + 10)[word:]
    assert np.array_equal(word_generator(9, word).bit_generator.random_raw(10), fresh)


@pytest.mark.parametrize("word", [(1 << 64) + 1, (1 << 64) + 6, (1 << 66) + 3])
@pytest.mark.parametrize("seed", [-1, 0, (1 << 64) + 3])
def test_word_generator_far_into_a_stream(seed, word):
    # past 2**64 words: the high and the low 64 bits of the word in two advances
    bit_generator = campaign_generator(seed).bit_generator
    bit_generator.advance(word >> 64 << 64)
    bit_generator.advance(word & ((1 << 64) - 1))
    assert np.array_equal(word_generator(seed, word).bit_generator.random_raw(10), bit_generator.random_raw(10))


def test_seek_word_drives_random():
    expected = campaign_generator(9).random(16)[6:]
    assert np.array_equal(word_generator(9, 6).random(10), expected)


@pytest.mark.parametrize("shape", [(6,), (3, 4)])
def test_keyed_normal_rows_match_per_row_streams(shape):
    first, stop = 5, 9
    rows = keyed_rows(77, first, stop, shape)
    assert rows.shape == (stop - first, *shape)
    for row, index in zip(rows, range(first, stop)):
        assert np.array_equal(row, new_generator(77, index).standard_normal(shape))


def diagonals(generator, first, stop, dim):
    """e / e.sum() for e = -ln(1 - u), u rows [first, stop) of one uniform
    draw of rows [0, stop) from ``generator``."""
    u = generator.random((stop, dim))
    e = -np.log(1.0 - u[first:])
    return e / e.sum(axis=1, keepdims=True)


def v6_diagonals(seed, first, stop, dim):
    """Stream contract v6: the uniforms come from the campaign stream."""
    return diagonals(campaign_generator(seed), first, stop, dim)


def v5_diagonals(seed, first, stop, dim):
    """Stream contract v5: the uniforms come from Philox stream (seed, 0)."""
    return diagonals(new_generator(seed, 0), first, stop, dim)


def philox_word_generator(seed, word):
    # Philox stream (seed, 0) at word `word`: advance(n) skips n blocks of 4 words
    generator = new_generator(seed, 0)
    generator.bit_generator.advance(word // 4)
    generator.bit_generator.random_raw(word % 4)
    return generator


def test_haar_prob_rows_are_normalised_exponentials():
    first, stop, dim = 3, 8, 7
    rows = next(haar_prob_blocks(77, first, stop, dim, np.empty((stop - first, dim))))
    u = campaign_generator(77).random((stop, dim))
    for row, index in zip(rows, range(first, stop)):
        e = -np.log(1.0 - u[index])
        assert np.array_equal(row, e / e.sum())


ORACLE_DIMS = [1, 5, 6, 7, 1000]
# chunk starts at each first * dim % 4 that dim allows, so v5's windows
# begin mid-way through a block of 4 Philox words
ORACLE_STARTS = [(0, 9), (1, 9), (2, 7), (3, 4), (6, 13)]


@pytest.mark.parametrize("dim", ORACLE_DIMS)
@pytest.mark.parametrize("first, stop", ORACLE_STARTS)
def test_haar_prob_rows_match_the_v6_oracle(dim, first, stop):
    # the whole batch as one block
    rows = next(haar_prob_blocks(77, first, stop, dim, np.empty((stop - first, dim))))
    assert rows.tobytes() == v6_diagonals(77, first, stop, dim).tobytes()


@pytest.mark.parametrize("dim", ORACLE_DIMS)
@pytest.mark.parametrize("first, stop", ORACLE_STARTS)
def test_haar_prob_rows_match_the_v5_oracle(monkeypatch, dim, first, stop):
    # v6 changed the bit generator only: given v5's Philox words, the
    # windows and the transform reproduce v5's bytes
    monkeypatch.setattr(sampler, "word_generator", philox_word_generator)
    rows = next(haar_prob_blocks(77, first, stop, dim, np.empty((stop - first, dim))))
    assert rows.tobytes() == v5_diagonals(77, first, stop, dim).tobytes()


@pytest.mark.parametrize("dim", [1, 5, 6, 7])
@pytest.mark.parametrize("block", [1, 3, 4, 9, 20])
def test_haar_prob_blocks_continue_one_draw(monkeypatch, dim, block):
    # blocks of 1, 3 and 4 rows start at words first * dim + k * block * dim;
    # 9 rows are the whole batch and 20 more than it
    made = []
    real = sampler.word_generator
    monkeypatch.setattr(sampler, "word_generator", lambda *args: made.append(args) or real(*args))
    first, stop = 2, 11
    out = np.full((block, dim), np.nan)
    address = out.__array_interface__["data"][0]
    blocks = []
    for rows in sampler.haar_prob_blocks(77, first, stop, dim, out):
        assert rows.__array_interface__["data"][0] == address
        blocks.append(rows.copy())
    assert all(len(rows) == block for rows in blocks[:-1])
    assert np.concatenate(blocks).tobytes() == v6_diagonals(77, first, stop, dim).tobytes()
    assert made == ([(77, first * dim)] if dim > 1 else [])


class ZeroWords:
    """A generator whose every word is 0, so every uniform is 0.0."""

    def random(self, out):
        out.fill(0.0)
        return out


def test_haar_prob_rows_at_d1_are_one_even_for_a_zero_word(monkeypatch):
    assert (next(haar_prob_blocks(4, 0, 5000, 1, np.empty((5000, 1)))) == 1.0).all()
    monkeypatch.setattr(sampler, "word_generator", lambda *args: ZeroWords())
    with np.errstate(invalid="ignore"):
        # 0 / 0 where d > 1
        assert np.isnan(next(haar_prob_blocks(4, 0, 3, 2, np.empty((3, 2))))).all()
    rows = next(haar_prob_blocks(4, 0, 3, 1, np.empty((3, 1))))
    assert rows.shape == (3, 1) and (rows == 1.0).all()
