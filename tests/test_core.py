from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairderand import (
    AffineScorer,
    ConstantScorer,
    Dataset,
    LsDerandomizer,
    MinHashFamily,
    Point,
    TabularScorer,
    as_score,
    threshold_count,
)
from fairderand.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnknownPointError,
)
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

    def test_realize_degenerate(self):
        rng = CountingRng(0)
        p = Point("a", (0.0,))
        assert all(ConstantScorer(1).realize(p, rng) == 1 for _ in range(100))
        assert all(ConstantScorer(0).realize(p, rng) == 0 for _ in range(100))

    def test_realize_law_of_large_numbers(self):
        rng = CountingRng(21)
        p = Point("a", (0.0,))
        scorer = ConstantScorer(0.5)
        n = 100_000
        mean = sum(scorer.realize(p, rng) for _ in range(n)) / n
        assert abs(mean - 0.5) < 0.01


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


class TestClassifiers:
    def test_prediction_idempotent(self):
        scorer = TabularScorer({"a": 0.5})
        clf = LsDerandomizer(scorer, MinHashFamily(3), 7).sample(CountingRng(3))
        p = Point("a", (1.0, 0.0, 1.0))
        first = clf.predict(p)
        assert first in (0, 1)
        assert all(clf.predict(p) == first for _ in range(10))

