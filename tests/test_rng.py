import collections
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairderand import MinHashFamily, SimHashFamily, rng as rng_module
from fairderand.errors import InvalidParameterError
from fairderand.rng import ARRAY_ROUND, CountingRng

from conftest import draw_bits, normal_pair, uniform_int


def test_equal_seeds_replay_identically():
    a, b = CountingRng(1234), CountingRng(1234)
    seq_a = [draw_bits(a, 7) for _ in range(50)] + [uniform_int(a, 13) for _ in range(50)]
    seq_b = [draw_bits(b, 7) for _ in range(50)] + [uniform_int(b, 13) for _ in range(50)]
    assert seq_a == seq_b
    assert a.bits_consumed == b.bits_consumed


def test_different_seeds_differ():
    a = [draw_bits(CountingRng(1), 32) for _ in range(4)]
    b = [draw_bits(CountingRng(2), 32) for _ in range(4)]
    assert a != b


def test_bits_consumed_counts_served_bits_exactly():
    rng = CountingRng(9)
    draw_bits(rng, 3)
    draw_bits(rng, 64)
    draw_bits(rng, 0)
    draw_bits(rng, 1)
    assert rng.bits_consumed == 68


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=2**64 - 1))
def test_draw_bits_in_range(n, seed):
    value = draw_bits(CountingRng(seed), n)
    assert 0 <= value < 2**n


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=2**64 - 1))
def test_uniform_int_in_range(n, seed):
    rng = CountingRng(seed)
    value = uniform_int(rng, n)
    assert 0 <= value < n
    if n > 1:
        width = (n - 1).bit_length()
        assert rng.bits_consumed % width == 0


def test_uniform_int_roughly_uniform():
    rng = CountingRng(7)
    counts = [0] * 5
    n = 50_000
    for _ in range(n):
        counts[uniform_int(rng, 5)] += 1
    for c in counts:
        assert abs(c / n - 0.2) < 0.01


def test_uniform_int_expected_bits_below_twice_width():
    rng = CountingRng(11)
    n = 10_000
    for _ in range(n):
        uniform_int(rng, 5)
    assert rng.bits_consumed / n <= 2 * 3  # width 3, acceptance 5/8


def test_permutation_is_uniform_permutation():
    # the array Fisher-Yates pass of min-wise hashing, one row per trial
    n = 6_000
    rows = MinHashFamily(3).draw(CountingRng(5), n)
    assert (np.sort(rows, axis=1) == [0, 1, 2]).all()
    counts = collections.Counter(map(tuple, rows.tolist()))
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / n - 1 / 6) < 0.03


def test_normal_pair_costs_128_bits():
    rng = CountingRng(13)
    normal_pair(rng)
    assert rng.bits_consumed == 128


def test_normal_moments():
    rng = CountingRng(17)
    n = 20_000
    values = [v for _ in range(n // 2) for v in normal_pair(rng)]
    for values in (values, CountingRng(17).normals(n).tolist()):
        mean = sum(values) / n
        var = sum(v * v for v in values) / n - mean * mean
        assert abs(mean) < 0.03
        assert abs(var - 1.0) < 0.05


def test_unit_vector_has_unit_norm():
    # the hyperplane normals, normals() rows scaled to unit length
    rng = CountingRng(19)
    for dim in (1, 2, 3, 5):
        normals = SimHashFamily(dim).draw(rng, 20)
        assert normals.shape == (20, dim)
        for v in normals.tolist():
            assert math.isclose(sum(x * x for x in v), 1.0, rel_tol=1e-12)


def test_invalid_arguments():
    rng = CountingRng(0)
    with pytest.raises(InvalidParameterError):
        uniform_int(rng, 0)
    with pytest.raises(InvalidParameterError):
        draw_bits(rng, -1)
    for n in (0, 2**64 + 1):
        with pytest.raises(InvalidParameterError):
            rng.uniform_ints(n, 3)
    assert rng.bits_consumed == 0


def test_stream_words_are_splitmix64():
    # splitmix64 from seed 0 starts 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
    # 0x06C45D188009454F; each word is read from its high bit down
    rng = CountingRng(0)
    assert draw_bits(rng, 64) == 0xE220A8397B1DCDAF
    assert draw_bits(rng, 32) == 0x6E789E6A
    assert draw_bits(rng, 64) == 0xA1B965F4_06C45D18  # the rest of word 1, then word 2
    assert rng.bits_consumed == 160


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 300), st.integers(1, 2**64), st.sampled_from([2**32, 2**63, 2**63 + 1, 2**64])),
    size=st.one_of(st.integers(0, 40), st.integers(0, 3 * ARRAY_ROUND)),
    offset=st.integers(0, 200),
    round_size=st.sampled_from([ARRAY_ROUND, 2, 64]),
    seed=st.integers(0, 2**64 - 1),
)
def test_array_draws_equal_scalar_draws(n, size, offset, round_size, seed):
    array, scalar = CountingRng(seed), CountingRng(seed)
    draw_bits(array, offset)
    draw_bits(scalar, offset)
    with mock.patch.object(rng_module, "ARRAY_ROUND", round_size):
        ints = array.uniform_ints(n, size)
    assert ints.tolist() == [uniform_int(scalar, n) for _ in range(size)]
    assert ints.dtype == (np.int64 if n <= 2**63 else np.uint64)
    assert array.bits_consumed == scalar.bits_consumed
    assert draw_bits(array, 37) == draw_bits(scalar, 37)


@pytest.mark.parametrize("shape", [(0,), (1,), (5, 3), (ARRAY_ROUND + 3,), (ARRAY_ROUND + 2,)])
def test_normals_follow_normal_pair(shape):
    array, scalar = CountingRng(23), CountingRng(23)
    draw_bits(array, 5)
    draw_bits(scalar, 5)
    z = array.normals(shape)
    expected = [v for _ in range((z.size + 1) // 2) for v in normal_pair(scalar)][: z.size]
    assert z.shape == shape
    assert np.allclose(z.reshape(-1), expected, rtol=1e-12, atol=1e-12)
    assert array.bits_consumed == scalar.bits_consumed  # an odd count drops the last sine
    assert draw_bits(array, 37) == draw_bits(scalar, 37)
