import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairderand import (
    AffineScorer,
    ConstantScorer,
    Dataset,
    Derandomizer,
    MinHashFamily,
    TabularScorer,
    as_score,
)
from fairderand.core import over_common_denominator, threshold_counts
from fairderand.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnknownPointError,
)
from fairderand.measure import sample_classifier
from fairderand.rng import CountingRng

from conftest import dataset_of, reference_threshold_count, score_list


def counts(scores, k):
    """threshold_counts of Fractions, over their common denominator."""
    return threshold_counts(*over_common_denominator([s.as_integer_ratio() for s in scores]), k).tolist()


class TestScores:
    def test_float_reads_as_decimal(self):
        assert as_score(0.3) == Fraction(3, 10)
        assert as_score(0.25) == Fraction(1, 4)
        assert as_score("0.525") == Fraction(21, 40)
        assert as_score(1) == Fraction(1)

    def test_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            as_score(1.5)
        with pytest.raises(InvalidParameterError):
            as_score(-0.1)
        with pytest.raises(InvalidParameterError):
            as_score(float("nan"))

    def test_threshold_count_floor_with_ties(self):
        assert counts([Fraction(3, 10)], 10) == [3]
        assert counts([Fraction(1, 4)], 10) == [2]
        assert counts([Fraction(1), Fraction(0)], 7) == [7, 0]

    @given(st.integers(0, 997), st.integers(1, 50))
    def test_threshold_count_matches_comparison(self, num, k):
        score = Fraction(num, 997)
        (t,) = threshold_counts(np.array([num]), 997, k).tolist()
        # u <= t iff score >= u/k, for every grid threshold
        for u in range(1, k + 1):
            assert (u <= t) == (score >= Fraction(u, k))

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=8), st.integers(1, 2**40), st.integers(1, 2**40))
    def test_threshold_counts_equal_the_scalar_count(self, numerators, den, k):
        # den * k may pass 2**63, where the products are formed in Python ints
        numerators = [n % (den + 1) for n in numerators]
        got = threshold_counts(np.array(numerators, dtype=np.int64), den, k)
        assert got.dtype == np.int64
        assert got.tolist() == [reference_threshold_count(Fraction(n, den), k) for n in numerators]


class TestScorers:
    def test_constant(self):
        assert score_list(ConstantScorer(0.5), dataset_of({"a": (1.0, 2.0), "b": (0.0, 0.0)})) == [Fraction(1, 2)] * 2

    def test_tabular_lookup_and_missing_id(self):
        scorer = TabularScorer({"p1": 0.3})
        assert score_list(scorer, dataset_of({"p1": (0.0,)})) == [Fraction(3, 10)]
        with pytest.raises(UnknownPointError):
            scorer.scores(dataset_of({"p2": (0.0,)}))

    def test_affine_clamped_dot(self):
        scorer = AffineScorer((1.0, 0.0))
        points = dataset_of({"x": (0.7, 9.9), "y": (5.0, 0.0), "z": (-5.0, 0.0)})
        assert score_list(scorer, points) == [Fraction(7, 10), 1, 0]
        with pytest.raises(DimensionMismatchError, match="scorer expects 2 features, got 1"):
            scorer.scores(dataset_of({"x": (1.0,)}))

    def test_affine_dot_is_rounded_once(self):
        ones = dataset_of({"a": (1.0, 1.0, 1.0)})
        # w . x = 1, which a left-to-right float sum loses against 1e16
        assert score_list(AffineScorer([1e16, 1.0, -1e16]), ones) == [1]
        # 0.1 + 0.2 + 0.3 rounds to 0.6 in every order, bias included
        for weights in itertools.permutations((0.1, 0.2, 0.3)):
            assert score_list(AffineScorer(weights), ones) == [Fraction(3, 5)]
            assert score_list(AffineScorer(weights[1:], weights[0]), dataset_of({"a": (1.0, 1.0)})) == [Fraction(3, 5)]


class TestDatasets:
    def test_point_validation(self):
        with pytest.raises(InvalidParameterError, match="point 'a' has no features"):
            Dataset(["a"], [()])
        with pytest.raises(InvalidParameterError, match="point 'b' has non-finite features"):
            Dataset(["a", "b"], [(0.0,), (float("inf"),)])
        with pytest.raises(InvalidParameterError, match="point 'a' has invalid fairness features"):
            Dataset(["a"], [(0.0,)], [(float("nan"),)])
        with pytest.raises(InvalidParameterError, match="label of 'a' must be 0 or 1"):
            Dataset(["a"], [(0.0,)], labels=[2])

    def test_fairness_vector_falls_back_to_features(self):
        bare = dataset_of({"a": (1.0, 0.0)})
        assert bare.fairness_vectors.tolist() == [[1.0, 0.0]]
        tagged = dataset_of({"b": (1.0, 0.0)}, fairness=[(0.0, 1.0, 1.0)])
        assert tagged.fairness_vectors.tolist() == [[0.0, 1.0, 1.0]]

    def test_dataset_validation(self):
        with pytest.raises(InvalidParameterError, match="dataset ids must be unique"):
            Dataset(["a", "a"], [(0.0,), (1.0,)])
        with pytest.raises(DimensionMismatchError, match="feature dimensions are not uniform"):
            Dataset(["a", "b"], [(0.0,), (1.0, 2.0)])
        with pytest.raises(InvalidParameterError, match="dataset must contain at least one point"):
            Dataset([], [])
        with pytest.raises(DimensionMismatchError):
            Dataset(["a", "b"], [(0.0,)])


class TestColumns:
    def test_columns_are_checked(self):
        ds = Dataset(["a", "b"], [(1, 2), (3, 4)], [(0.0,), (1.0,)], [1, None])
        assert ds.ids == ("a", "b") and ds.labels == (1, None)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]] and ds.features.dtype == np.float64
        assert ds.fairness_vectors is ds.fairness and ds.fairness.tolist() == [[0.0], [1.0]]
        bare = dataset_of({"c": (5.0,)})
        assert bare.fairness is None and bare.fairness_vectors is bare.features

    def test_float64_columns_are_taken_as_they_are(self):
        features = np.array([[0.0, 1.0], [1.0, 1.0]])
        ds = Dataset(["x", "y"], features)
        assert ds.features is features and ds.labels == (None, None)

    def test_fairness_features_of_other_widths(self):
        with pytest.raises(DimensionMismatchError, match="fairness feature dimensions are not uniform"):
            Dataset(["a", "b"], [(0.0,), (1.0,)], [(1.0,), ()])

    def test_scores_in_dataset_order(self):
        scorer = TabularScorer({"b": "0.5", "a": Fraction(1, 3), "c": 1})
        numerators, den = scorer.scores(dataset_of({"a": (0.0,), "b": (1.0,)}))
        assert den == 6 and numerators.tolist() == [2, 3]
        with pytest.raises(UnknownPointError, match="no score for point 'd'"):
            scorer.scores(dataset_of({"d": (0.0,)}))
        assert ConstantScorer(0.25).scores(dataset_of({"a": (0.0,)}))[0].tolist() == [1]


class TestClassifiers:
    def test_prediction_idempotent(self):
        derand = Derandomizer(TabularScorer({"a": 0.5}), MinHashFamily(3), 7)
        ds = dataset_of({"a": (1.0, 0.0, 1.0)})
        first = sample_classifier(derand, ds, CountingRng(3))[2].tolist()
        assert first in ([0], [1])
        assert all(sample_classifier(derand, ds, CountingRng(3))[2].tolist() == first for _ in range(10))

