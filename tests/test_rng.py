import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairderand.errors import InvalidParameterError
from fairderand.rng import BERNOULLI_BITS, CountingRng


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
