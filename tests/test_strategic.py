from fractions import Fraction

import pytest

from fairderand import (
    BitSamplingFamily,
    ConstantScorer,
    Dataset,
    EstimatorConfig,
    IdentityBucketer,
    LsDerandomizer,
    MinHashFamily,
    PiDerandomizer,
    Point,
    RtDerandomizer,
    SimHashFamily,
    TabularScorer,
)
from fairderand.measure import scorer_beta
from fairderand.metrics import NormalizedHamming, ScaledEuclidean
from fairderand.strategic import best_responses

from conftest import brute_mean, random_binary_dataset, random_real_dataset, random_scorer

EXACT = EstimatorConfig(mode="exact")


def line_dataset():
    return Dataset([Point(f"p{i}", (i / 10,)) for i in range(5)])


class TestUtility:
    def test_staying_put_costs_nothing(self):
        ds = line_dataset()
        scorer = TabularScorer({p.id: 0.4 for p in ds})
        for origin, report in zip(ds, best_responses(scorer, ds, NormalizedHamming(1), 1, 0)):
            assert report.response_id == origin.id
            assert report.utility_gain == 0

    def test_direct_formula(self):
        a, b = Point("a", (0.0,)), Point("b", (0.4,))
        scorer = TabularScorer({"a": 0.1, "b": 1.0})
        moves, stays = best_responses(scorer, Dataset([a, b]), ScaledEuclidean(1.0), 1, 0)
        # score(b) - cost(a, b) = 0.6 against staying at score(a) = 0.1
        assert (moves.response_id, stays.response_id) == ("b", "b")
        assert moves.utility_gain == pytest.approx(0.5)
        assert stays.utility_gain == 0

    def test_family_version_uses_exact_mean(self):
        ds = Dataset([Point("a", (0.0, 0.0)), Point("b", (0.0, 1.0))])
        derand = RtDerandomizer(TabularScorer({"a": 0.31, "b": 0.95}), 10)
        report = best_responses(derand, ds, NormalizedHamming(2), 1, 0)[0]
        # family means floor to the grid: 9/10 - 1/2 - 3/10, where the scores give 0.14
        assert report.response_id == "b"
        assert report.utility_gain == Fraction(1, 10)


class TestBestResponse:
    def test_perfectly_fair_scorer_gains_nothing(self):
        ds = line_dataset()
        # scores scale like 0.5 * distance from p0: (1, 0)-fair under d
        scorer = TabularScorer({p.id: 0.5 * p.features[0] for p in ds})
        for report in best_responses(scorer, ds, ScaledEuclidean(1.0), 1, 0):
            assert report.utility_gain <= 0
            assert report.within_bound

    def test_constant_scorer_stays_put(self):
        ds = line_dataset()
        for origin, report in zip(ds, best_responses(ConstantScorer(0.5), ds, ScaledEuclidean(1.0), 1, 0)):
            assert report.response_id == origin.id
            assert report.utility_gain == 0

    def test_certified_fair_scorer_respects_gain_bound(self, py_rng):
        cost = NormalizedHamming(4)
        for _ in range(10):
            ds = random_binary_dataset(py_rng, 8, 4)
            scorer = random_scorer(py_rng, ds)
            alpha = Fraction(3, 2)
            beta = scorer_beta(scorer, ds, cost, alpha)
            for report in best_responses(scorer, ds, cost, alpha, beta):
                assert report.within_bound
                # exact arithmetic: no tolerance needed for rational costs
                assert report.utility_gain <= report.bound

    def test_ties_break_to_lowest_id(self):
        # identical scores at one location: every move ties with staying, and the lowest id wins
        ds = Dataset([Point("b", (1.0,)), Point("a", (1.0,)), Point("c", (1.0,))])
        scorer = TabularScorer({"a": 0.5, "b": 0.5, "c": 0.5})
        reports = best_responses(scorer, ds, ScaledEuclidean(1.0), 1, 0.5)
        assert [r.response_id for r in reports] == ["a", "a", "a"]

    def test_uniform_cost_shift_keeps_argmax(self):
        ds = line_dataset()
        scorer = TabularScorer({p.id: p.features[0] for p in ds})

        class Shifted(ScaledEuclidean):
            def distance(self, x, y):
                base = super().distance(x, y)
                return min(base + 0.1, 1.0) if x.id != y.id else base

        plain = best_responses(scorer, ds, ScaledEuclidean(1.0), 1, 0)
        shifted = best_responses(scorer, ds, Shifted(1.0), 1, 0)
        assert plain[0].response_id == shifted[0].response_id

    def test_report_serialization(self):
        ds = line_dataset()
        report = best_responses(ConstantScorer(1), ds, ScaledEuclidean(1.0), 1, 0)[0]
        row = report.as_dict()
        assert set(row) == {"origin", "response", "gain", "bound", "ok"}
        assert row["ok"] is True


class TestFamilyVersion:
    def test_family_gain_respects_bound_in_expectation(self, py_rng):
        cost = NormalizedHamming(3)
        ds = random_binary_dataset(py_rng, 6, 3)
        scorer = random_scorer(py_rng, ds)
        derand = RtDerandomizer(scorer, 20)
        alpha = Fraction(3, 2)
        # certify the family itself, then the gain bound must hold exactly
        from fairderand.measure import family_beta, prediction_table

        beta = family_beta(prediction_table(derand, ds, EXACT), cost, alpha)
        for report in best_responses(derand, ds, cost, alpha, beta):
            assert report.utility_gain <= report.bound

    def test_family_means_equal_brute_force(self, py_rng):
        # best responses to the family are best responses to its brute-force means
        cost = NormalizedHamming(3)
        ds = random_binary_dataset(py_rng, 6, 3)
        scorer = random_scorer(py_rng, ds)
        for derand in (
            RtDerandomizer(scorer, 7),
            PiDerandomizer.build(scorer, ds, IdentityBucketer(), 7),
            LsDerandomizer(scorer, BitSamplingFamily(3), 7),
            LsDerandomizer(scorer, MinHashFamily(3), 7),
        ):
            means = TabularScorer({p.id: brute_mean(derand, p) for p in ds})
            assert best_responses(derand, ds, cost, 1, 0) == best_responses(means, ds, cost, 1, 0)

    def test_family_that_cannot_be_listed_has_exact_means(self, py_rng):
        # SimHash members cannot be listed, yet every family mean is t/k = 5/11: nobody moves
        ds = random_real_dataset(py_rng, 5, 3)
        derand = LsDerandomizer(ConstantScorer(0.5), SimHashFamily(3), 11)
        for origin, report in zip(ds, best_responses(derand, ds, ScaledEuclidean(2.0), 1, 0)):
            assert (report.response_id, report.utility_gain) == (origin.id, 0)
