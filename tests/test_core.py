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
    Point,
    TabularScorer,
    as_score,
    threshold_count,
)
from fairderand.core import threshold_counts
from fairderand.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnknownPointError,
)
from fairderand.measure import sample_classifier
from fairderand.rng import CountingRng


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
        assert threshold_count(Fraction(3, 10), 10) == 3
        assert threshold_count(Fraction(1, 4), 10) == 2
        assert threshold_count(Fraction(1), 7) == 7
        assert threshold_count(Fraction(0), 7) == 0

    @given(st.integers(0, 997), st.integers(1, 50))
    def test_threshold_count_matches_comparison(self, num, k):
        score = Fraction(num, 997)
        t = threshold_count(score, k)
        # u <= t iff score >= u/k, for every grid threshold
        for u in range(1, k + 1):
            assert (u <= t) == (score >= Fraction(u, k))

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=8), st.integers(1, 2**40), st.integers(1, 2**40))
    def test_threshold_counts_equal_the_scalar_count(self, numerators, den, k):
        # den * k may pass 2**63, where the products are formed in Python ints
        numerators = [n % (den + 1) for n in numerators]
        got = threshold_counts(np.array(numerators, dtype=np.int64), den, k)
        assert got.dtype == np.int64
        assert got.tolist() == [threshold_count(Fraction(n, den), k) for n in numerators]


class TestScorers:
    def test_constant(self):
        p = Point("a", (1.0, 2.0))
        assert ConstantScorer(0.5).score(p) == Fraction(1, 2)

    def test_tabular_lookup_and_missing_id(self):
        scorer = TabularScorer({"p1": 0.3})
        assert scorer.score(Point("p1", (0.0,))) == Fraction(3, 10)
        with pytest.raises(UnknownPointError):
            scorer.score(Point("p2", (0.0,)))

    def test_affine_clamped_dot(self):
        scorer = AffineScorer((1.0, 0.0))
        assert scorer.score(Point("x", (0.7, 9.9))) == Fraction(7, 10)
        assert scorer.score(Point("x", (5.0, 0.0))) == 1
        assert scorer.score(Point("x", (-5.0, 0.0))) == 0
        with pytest.raises(DimensionMismatchError):
            scorer.score(Point("x", (1.0,)))

    def test_affine_dot_is_rounded_once(self):
        # w . x = 1, which a left-to-right float sum loses against 1e16
        assert AffineScorer([1e16, 1.0, -1e16]).score(Point("a", (1.0, 1.0, 1.0))) == 1
        # 0.1 + 0.2 + 0.3 rounds to 0.6 in every order, bias included
        for weights in itertools.permutations((0.1, 0.2, 0.3)):
            assert AffineScorer(weights).score(Point("a", (1.0, 1.0, 1.0))) == Fraction(3, 5)
            assert AffineScorer(weights[1:], weights[0]).score(Point("a", (1.0, 1.0))) == Fraction(3, 5)


class TestPointsAndDatasets:
    def test_point_validation(self):
        with pytest.raises(InvalidParameterError):
            Point("a", ())
        with pytest.raises(InvalidParameterError):
            Point("a", (float("inf"),))
        with pytest.raises(InvalidParameterError):
            Point("a", (0.0,), label=2)

    def test_fairness_vector_falls_back_to_features(self):
        bare = Point("a", (1.0, 0.0))
        assert bare.fairness_vector == (1.0, 0.0)
        tagged = Point("b", (1.0, 0.0), fairness_features=(0.0, 1.0, 1.0))
        assert tagged.fairness_vector == (0.0, 1.0, 1.0)

    def test_dataset_validation(self):
        with pytest.raises(InvalidParameterError):
            Dataset([Point("a", (0.0,)), Point("a", (1.0,))])
        with pytest.raises(DimensionMismatchError):
            Dataset([Point("a", (0.0,)), Point("b", (1.0, 2.0))])
        with pytest.raises(InvalidParameterError):
            Dataset([])

    def test_dataset_lookup(self):
        ds = Dataset([Point("a", (0.0,)), Point("b", (1.0,))])
        assert ds.get("b").id == "b"
        with pytest.raises(UnknownPointError):
            ds.get("missing")


class TestColumns:
    def test_points_become_columns_and_rows_become_points(self):
        a = Point("a", (1, 2), fairness_features=(0.0,), label=1)
        b = Point("b", (3, 4), fairness_features=(1.0,))
        ds = Dataset([a, b])
        assert ds.ids == ("a", "b") and ds.labels == (1, None)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]] and ds.features.dtype == np.float64
        assert ds.fairness_vectors is ds.fairness and ds.fairness.tolist() == [[0.0], [1.0]]
        assert list(ds) == [a, b] and ds[-1] == b
        tail = ds[1:]
        assert isinstance(tail, Dataset) and tail.ids == ("b",) and list(tail) == [b]
        bare = Dataset([Point("c", (5.0,))])
        assert bare.fairness is None and bare.fairness_vectors is bare.features

    def test_checked_columns_are_taken_as_they_are(self):
        features = np.array([[0.0, 1.0], [1.0, 1.0]])
        ds = Dataset(columns=(["x", "y"], features, None, None))
        assert ds.features is features and ds.labels == (None, None)
        assert ds.get("y") == Point("y", (1.0, 1.0))

    def test_fairness_features_on_some_points_only(self):
        with pytest.raises(DimensionMismatchError):
            Dataset([Point("a", (0.0,), fairness_features=(1.0,)), Point("b", (1.0,))])

    def test_scores_in_dataset_order(self):
        scorer = TabularScorer({"b": "0.5", "a": Fraction(1, 3), "c": 1})
        numerators, den = scorer.scores(Dataset([Point("a", (0.0,)), Point("b", (1.0,))]))
        assert den == 6 and numerators.tolist() == [2, 3]
        with pytest.raises(UnknownPointError, match="no score for point 'd'"):
            scorer.scores(Dataset([Point("d", (0.0,))]))
        assert ConstantScorer(0.25).scores(Dataset([Point("a", (0.0,))]))[0].tolist() == [1]


class TestClassifiers:
    def test_prediction_idempotent(self):
        derand = Derandomizer(TabularScorer({"a": 0.5}), MinHashFamily(3), 7)
        ds = Dataset([Point("a", (1.0, 0.0, 1.0))])
        first = sample_classifier(derand, ds, CountingRng(3))[2].tolist()
        assert first in ([0], [1])
        assert all(sample_classifier(derand, ds, CountingRng(3))[2].tolist() == first for _ in range(10))

