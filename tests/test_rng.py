import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairderand import rng as rng_module
from fairderand.errors import InvalidParameterError
from fairderand.rng import ARRAY_ROUND, BERNOULLI_BITS, CountingRng


def test_equal_seeds_replay_identically():
    a, b = CountingRng(1234), CountingRng(1234)
    seq_a = [a.draw_bits(7) for _ in range(50)] + [a.uniform_int(13) for _ in range(50)]
    seq_b = [b.draw_bits(7) for _ in range(50)] + [b.uniform_int(13) for _ in range(50)]
    assert seq_a == seq_b
    assert a.bits_consumed == b.bits_consumed


def test_different_seeds_differ():
    a = [CountingRng(1).draw_bits(32) for _ in range(4)]
    b = [CountingRng(2).draw_bits(32) for _ in range(4)]
    assert a != b


def test_bits_consumed_counts_served_bits_exactly():
    rng = CountingRng(9)
    rng.draw_bits(3)
    rng.draw_bits(64)
    rng.draw_bits(0)
    rng.draw_bits(1)
    assert rng.bits_consumed == 68


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=2**64 - 1))
def test_draw_bits_in_range(n, seed):
    value = CountingRng(seed).draw_bits(n)
    assert 0 <= value < 2**n


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=2**64 - 1))
def test_uniform_int_in_range(n, seed):
    rng = CountingRng(seed)
    value = rng.uniform_int(n)
    assert 0 <= value < n
    if n > 1:
        width = (n - 1).bit_length()
        assert rng.bits_consumed % width == 0


def test_bernoulli_degenerate():
    rng = CountingRng(3)
    assert all(rng.bernoulli(Fraction(1)) == 1 for _ in range(200))
    assert all(rng.bernoulli(Fraction(0)) == 0 for _ in range(200))


def test_bernoulli_cost_is_fixed():
    rng = CountingRng(3)
    rng.bernoulli(Fraction(1, 3))
    assert rng.bits_consumed == BERNOULLI_BITS


def test_bernoulli_law_of_large_numbers():
    rng = CountingRng(42)
    n = 100_000
    mean = sum(rng.bernoulli(Fraction(1, 2)) for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.01


def test_uniform_int_roughly_uniform():
    rng = CountingRng(7)
    counts = [0] * 5
    n = 50_000
    for _ in range(n):
        counts[rng.uniform_int(5)] += 1
    for c in counts:
        assert abs(c / n - 0.2) < 0.01


def test_uniform_int_expected_bits_below_twice_width():
    rng = CountingRng(11)
    n = 10_000
    for _ in range(n):
        rng.uniform_int(5)
    assert rng.bits_consumed / n <= 2 * 3  # width 3, acceptance 5/8


def test_permutation_is_uniform_permutation():
    rng = CountingRng(5)
    counts = {}
    n = 6_000
    for _ in range(n):
        p = rng.permutation(3)
        assert sorted(p) == [0, 1, 2]
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / n - 1 / 6) < 0.03


def test_normal_pair_costs_128_bits():
    rng = CountingRng(13)
    rng.normal_pair()
    assert rng.bits_consumed == 128


def test_normal_moments():
    rng = CountingRng(17)
    n = 20_000
    values = [v for _ in range(n // 2) for v in rng.normal_pair()]
    for values in (values, CountingRng(17).normals(n).tolist()):
        mean = sum(values) / n
        var = sum(v * v for v in values) / n - mean * mean
        assert abs(mean) < 0.03
        assert abs(var - 1.0) < 0.05


def test_unit_vector_has_unit_norm():
    rng = CountingRng(19)
    for dim in (1, 2, 3, 5):
        v = rng.unit_vector(dim)
        assert len(v) == dim
        assert math.isclose(sum(x * x for x in v), 1.0, rel_tol=1e-12)


def test_invalid_arguments():
    rng = CountingRng(0)
    with pytest.raises(InvalidParameterError):
        rng.uniform_int(0)
    with pytest.raises(InvalidParameterError):
        rng.draw_bits(-1)
    with pytest.raises(InvalidParameterError):
        rng.bernoulli(Fraction(3, 2))
    for n in (0, 2**64 + 1):
        with pytest.raises(InvalidParameterError):
            rng.uniform_ints(n, 3)
    with pytest.raises(InvalidParameterError):
        rng.bernoullis(Fraction(-1, 2), 3)
    assert rng.bits_consumed == 0


def test_stream_words_are_splitmix64():
    # splitmix64 from seed 0 starts 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
    # 0x06C45D188009454F; each word is read from its high bit down
    rng = CountingRng(0)
    assert rng.draw_bits(64) == 0xE220A8397B1DCDAF
    assert rng.draw_bits(32) == 0x6E789E6A
    assert rng.draw_bits(64) == 0xA1B965F4_06C45D18  # the rest of word 1, then word 2
    assert rng.bits_consumed == 160


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 300), st.integers(1, 2**64), st.sampled_from([2**32, 2**63, 2**63 + 1, 2**64])),
    size=st.one_of(st.integers(0, 40), st.integers(0, 3 * ARRAY_ROUND)),
    offset=st.integers(0, 200),
    p=st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2**32)]),
                st.fractions(0, 1, max_denominator=10**30)),
    round_size=st.sampled_from([ARRAY_ROUND, 2, 64]),
    seed=st.integers(0, 2**64 - 1),
)
def test_array_draws_equal_scalar_draws(n, size, offset, p, round_size, seed):
    array, scalar = CountingRng(seed), CountingRng(seed)
    array.draw_bits(offset)
    scalar.draw_bits(offset)
    with mock.patch.object(rng_module, "ARRAY_ROUND", round_size):
        ints = array.uniform_ints(n, size)
    assert ints.tolist() == [scalar.uniform_int(n) for _ in range(size)]
    assert ints.dtype == (np.int64 if n <= 2**63 else np.uint64)
    assert array.bits_consumed == scalar.bits_consumed
    assert array.draw_bits(37) == scalar.draw_bits(37)
    with mock.patch.object(rng_module, "ARRAY_ROUND", round_size):
        bits = array.bernoullis(p, size)
    assert bits.astype(int).tolist() == [scalar.bernoulli(p) for _ in range(size)]
    assert array.bits_consumed == scalar.bits_consumed
    assert array.draw_bits(37) == scalar.draw_bits(37)


@pytest.mark.parametrize("seed", range(8))
def test_bernoullis_are_exact_at_the_level(seed):
    # p * 2^32 just above, at and just below the drawn u: a float or a
    # floored level would get one of them wrong
    u = CountingRng(seed).draw_bits(BERNOULLI_BITS)
    for p in (Fraction(3 * u + 1, 3 << 32), Fraction(u, 1 << 32), Fraction(max(3 * u - 1, 0), 3 << 32)):
        assert CountingRng(seed).bernoullis(p, 1).tolist() == [CountingRng(seed).bernoulli(p) == 1]


@pytest.mark.parametrize("shape", [(0,), (1,), (5, 3), (ARRAY_ROUND + 3,), (ARRAY_ROUND + 2,)])
def test_normals_follow_normal_pair(shape):
    array, scalar = CountingRng(23), CountingRng(23)
    array.draw_bits(5)
    scalar.draw_bits(5)
    z = array.normals(shape)
    expected = [v for _ in range((z.size + 1) // 2) for v in scalar.normal_pair()][: z.size]
    assert z.shape == shape
    assert np.allclose(z.reshape(-1), expected, rtol=1e-12, atol=1e-12)
    assert array.bits_consumed == scalar.bits_consumed  # an odd count drops the last sine
    assert array.draw_bits(37) == scalar.draw_bits(37)
