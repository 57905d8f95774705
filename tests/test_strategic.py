from fractions import Fraction

import numpy as np
import pytest

from fairderand import (
    BitSamplingFamily,
    ConstantScorer,
    Derandomizer,
    EstimatorConfig,
    IdentityBucketer,
    MinHashFamily,
    SimHashFamily,
    TabularScorer,
)
from fairderand.measure import family_beta, family_mean, pair_classes, prediction_table, scorer_beta
from fairderand.metrics import NormalizedHamming, PairSet, ScaledEuclidean
from fairderand.strategic import best_responses

from conftest import (
    brute_mean,
    dataset_of,
    each_point,
    random_binary_dataset,
    random_real_dataset,
    random_scorer,
    score_list,
)

EXACT = EstimatorConfig(mode="exact")


def line_dataset():
    return dataset_of({f"p{i}": (i / 10,) for i in range(5)})


class TestUtility:
    def test_staying_put_costs_nothing(self):
        ds = line_dataset()
        scorer = TabularScorer({p: 0.4 for p in ds.ids})
        for origin, row in zip(ds.ids, best_responses(score_list(scorer, ds), ds, NormalizedHamming(1), 1, 0)):
            assert row["response"] == origin
            assert row["gain"]["value"] == 0

    def test_direct_formula(self):
        ds = dataset_of({"a": (0.0,), "b": (0.4,)})
        means = score_list(TabularScorer({"a": 0.1, "b": 1.0}), ds)
        moves, stays = best_responses(means, ds, ScaledEuclidean(1.0), 1, 0)
        # score(b) - cost(a, b) = 1 - 0.4 against staying at score(a) = 0.1
        assert (moves["response"], stays["response"]) == ("b", "b")
        assert moves["gain"]["value"] == Fraction(1, 2)
        assert stays["gain"]["value"] == 0

    def test_family_version_uses_exact_mean(self):
        ds = dataset_of({"a": (0.0, 0.0), "b": (0.0, 1.0)})
        derand = Derandomizer.rt(TabularScorer({"a": 0.31, "b": 0.95}), 10)
        row = best_responses(family_mean(derand, ds), ds, NormalizedHamming(2), 1, 0)[0]
        # family means floor to the grid: 9/10 - 1/2 - 3/10, where the scores give 0.14
        assert row["response"] == "b"
        assert row["gain"]["value"] == Fraction(1, 10)


class TestBestResponse:
    def test_perfectly_fair_scorer_gains_nothing(self):
        ds = line_dataset()
        # scores scale like 0.5 * distance from p0: (1, 0)-fair under d
        scorer = TabularScorer({p: 0.5 * x for p, x in zip(ds.ids, ds.features[:, 0].tolist())})
        for row in best_responses(score_list(scorer, ds), ds, ScaledEuclidean(1.0), 1, 0):
            assert row["gain"]["value"] <= 0
            assert row["gain"]["satisfied"]

    def test_constant_scorer_stays_put(self):
        ds = line_dataset()
        rows = best_responses(score_list(ConstantScorer(0.5), ds), ds, ScaledEuclidean(1.0), 1, 0)
        for origin, row in zip(ds.ids, rows):
            assert row["response"] == origin
            assert row["gain"]["value"] == 0

    def test_certified_fair_scorer_respects_gain_bound(self, py_rng):
        cost = NormalizedHamming(4)
        for _ in range(10):
            ds = random_binary_dataset(py_rng, 8, 4)
            scorer = random_scorer(py_rng, ds)
            alpha = Fraction(3, 2)
            beta = scorer_beta(scorer, ds, cost, alpha)
            for row in best_responses(score_list(scorer, ds), ds, cost, alpha, beta):
                assert row["gain"]["satisfied"]
                assert row["gain"]["value"] <= row["gain"]["bound"]

    def test_ties_break_to_lowest_id(self):
        # identical scores at one location: every move ties with staying, and the lowest id wins
        ds = dataset_of({"b": (1.0,), "a": (1.0,), "c": (1.0,)})
        scorer = TabularScorer({"a": 0.5, "b": 0.5, "c": 0.5})
        rows = best_responses(score_list(scorer, ds), ds, ScaledEuclidean(1.0), 1, 0.5)
        assert [r["response"] for r in rows] == ["a", "a", "a"]

    def test_ties_between_float_costs_are_exact(self):
        # 3/10 - 0.06 equals 11/20 - 0.31, though in floats the second is larger
        ds = dataset_of({"o": (0.0,), "a": (0.06,), "b": (0.31,)})
        assert float(Fraction(11, 20)) - 0.31 > float(Fraction(3, 10)) - 0.06
        row = best_responses([0, Fraction(3, 10), Fraction(11, 20)], ds, ScaledEuclidean(1.0), 1, 1)[0]
        assert row["response"] == "a"
        assert row["gain"]["value"] == Fraction(6, 25)

    def test_uniform_cost_shift_keeps_argmax(self):
        # score = feature: every move up ties with staying (|0.3 - 0.1| is 0.19999999999999998 in floats,
        # yet the move from p1 to p3 gains nothing), and a shift of the cost of every move keeps that
        ds = line_dataset()
        means = score_list(TabularScorer(dict(zip(ds.ids, ds.features[:, 0].tolist()))), ds)

        class Shifted(ScaledEuclidean):  # every move costs 0.1 more: a pass pairs no point with itself
            def _float_blocks(self, x):
                rows, block = super()._float_blocks(x)
                return rows, lambda a, b: np.fmin(block(a, b) + 0.1, 1.0)

        assert min(pair_classes(ds, Shifted(1.0), PairSet(len(ds))).values) == pytest.approx(0.2)  # 0.1 apart, plus 0.1
        plain = best_responses(means, ds, ScaledEuclidean(1.0), 1, 0)
        shifted = best_responses(means, ds, Shifted(1.0), 1, 0)
        assert [r["response"] for r in plain] == [r["response"] for r in shifted] == list(ds.ids)
        assert all(r["gain"]["value"] == 0 and r["gain"]["satisfied"] for r in plain)

    def test_report_serialization(self):
        ds = line_dataset()
        row = best_responses(score_list(ConstantScorer(1), ds), ds, ScaledEuclidean(1.0), 1, 0)[0]
        assert set(row) == {"origin", "response", "gain"}
        assert set(row["gain"]) == {"value", "bound", "bound_source", "satisfied"}
        assert row["gain"]["satisfied"] is True

    def test_gain_over_the_budget_is_not_satisfied(self):
        # moving from a (0.1) to b (1) at cost 0.4 gains 1/2 against (alpha - 1) * 0.4 + beta
        ds = dataset_of({"a": (0.0,), "b": (0.4,)})
        means = [Fraction(1, 10), Fraction(1)]
        tight = best_responses(means, ds, ScaledEuclidean(1.0), 1, Fraction(1, 4))[0]["gain"]
        loose = best_responses(means, ds, ScaledEuclidean(1.0), 2, Fraction(1, 10))[0]["gain"]
        assert (tight["bound"], tight["satisfied"]) == (Fraction(1, 4), False)
        assert (loose["bound"], loose["satisfied"]) == (Fraction(1, 2), True)


class TestFamilyVersion:
    def test_family_gain_respects_bound_in_expectation(self, py_rng):
        cost = NormalizedHamming(3)
        ds = random_binary_dataset(py_rng, 6, 3)
        scorer = random_scorer(py_rng, ds)
        derand = Derandomizer.rt(scorer, 20)
        alpha = Fraction(3, 2)
        # certify the family itself, then the gain bound must hold exactly
        beta = family_beta(prediction_table(derand, ds, EXACT), cost, alpha)
        for row in best_responses(family_mean(derand, ds), ds, cost, alpha, beta):
            assert row["gain"]["satisfied"]
            assert row["gain"]["value"] <= row["gain"]["bound"]

    def test_family_means_equal_brute_force(self, py_rng):
        # best responses to the family are best responses to its brute-force means
        cost = NormalizedHamming(3)
        ds = random_binary_dataset(py_rng, 6, 3)
        scorer = random_scorer(py_rng, ds)
        for derand in (
            Derandomizer.rt(scorer, 7),
            Derandomizer.pi(scorer, ds, IdentityBucketer(), 7),
            Derandomizer(scorer, BitSamplingFamily(3), 7),
            Derandomizer(scorer, MinHashFamily(3), 7),
        ):
            brute = [brute_mean(derand, p) for p in each_point(ds)]
            assert family_mean(derand, ds) == brute
            assert best_responses(family_mean(derand, ds), ds, cost, 1, 0) == best_responses(brute, ds, cost, 1, 0)

    def test_family_that_cannot_be_listed_has_exact_means(self, py_rng):
        # SimHash members cannot be listed, yet every family mean is t/k = 5/11: nobody moves
        ds = random_real_dataset(py_rng, 5, 3)
        derand = Derandomizer(ConstantScorer(0.5), SimHashFamily(3), 11)
        assert family_mean(derand, ds) == [Fraction(5, 11)] * 5
        rows = best_responses(family_mean(derand, ds), ds, ScaledEuclidean(2.0), 1, 0)
        for origin, row in zip(ds.ids, rows):
            assert (row["response"], row["gain"]["value"]) == (origin, 0)

